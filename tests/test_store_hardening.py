"""Torn-write and interrupt hardening tests.

Covers the bugfix half of the service PR: atomic artifact writes
(``atomic_write`` + its ``store.py``/``cache.py`` call sites), recovery from
files truncated mid-byte (a torn shard is recomputed, a torn cache pickle
warns and starts cold), the case-insensitive CSV boolean parser, and the
Ctrl-C exit path of the CLI.
"""

import pickle
import warnings

import pytest

from repro.cli import main
from repro.graphs.base import Mesh, Torus
from repro.runtime import ConstructionCache
from repro.survey import (
    SurveyOptions,
    SurveyRecord,
    all_pairs,
    read_csv,
    read_json,
    run_survey,
    write_csv,
    write_json,
)
from repro.utils import atomic_write

pytestmark = pytest.mark.smoke


def make_record(scenario_id="torus:4,6->mesh:4,6", **overrides):
    base = dict(
        scenario_id=scenario_id,
        guest="Torus(4, 6)",
        host="Mesh(4, 6)",
        nodes=24,
        guest_edges=48,
        status="ok",
        strategy="paper",
        dilation=2,
        average_dilation=1.5,
        matches_prediction=True,
    )
    base.update(overrides)
    return SurveyRecord(**base)


def truncate_mid_byte(path):
    """Chop a file roughly in half — the classic kill-mid-write artifact."""
    data = path.read_bytes()
    assert len(data) > 2
    path.write_bytes(data[: len(data) // 2])


class TestAtomicWrite:
    def test_creates_file_and_leaves_no_temp_siblings(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_write(target) as handle:
            handle.write("payload")
        assert target.read_text() == "payload"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_binary_mode(self, tmp_path):
        target = tmp_path / "out.bin"
        with atomic_write(target, mode="wb") as handle:
            handle.write(b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"

    def test_failure_preserves_previous_content(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("previous")
        with pytest.raises(RuntimeError, match="mid-write"):
            with atomic_write(target) as handle:
                handle.write("half a docu")
                raise RuntimeError("kill mid-write")
        assert target.read_text() == "previous"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_creates_missing_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "out.txt"
        with atomic_write(target) as handle:
            handle.write("x")
        assert target.read_text() == "x"

    def test_rejects_non_write_modes(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            with atomic_write(tmp_path / "out.txt", mode="a"):
                pass

    def test_store_writers_leave_no_temp_siblings(self, tmp_path):
        records = [make_record()]
        write_json(records, tmp_path / "r.json")
        write_csv(records, tmp_path / "r.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]

    def test_failed_json_write_preserves_previous_document(self, tmp_path):
        path = tmp_path / "r.json"
        good = [make_record()]
        write_json(good, path)
        # A record smuggling a non-serializable value kills json.dump midway;
        # the original document must survive the failed overwrite.
        bad = [make_record(error=object())]
        with pytest.raises(TypeError):
            write_json(bad, path)
        assert read_json(path) == good
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


class TestBoolCells:
    @pytest.mark.parametrize(
        ("cell", "expected"),
        [("true", True), ("True", True), ("TRUE", True), (" true ", True),
         ("false", False), ("False", False), ("FALSE", False)],
    )
    def test_legacy_capitalizations_parse(self, tmp_path, cell, expected):
        path = tmp_path / "r.csv"
        write_csv([make_record()], path)
        header, row = path.read_text().splitlines()
        row = row.replace("true", cell)
        path.write_text(f"{header}\r\n{row}\r\n")
        assert read_csv(path)[0].matches_prediction is expected

    def test_unrecognized_cell_raises_instead_of_guessing(self, tmp_path):
        path = tmp_path / "r.csv"
        write_csv([make_record()], path)
        path.write_text(path.read_text().replace("true", "yes"))
        with pytest.raises(ValueError, match="unrecognized boolean cell"):
            read_csv(path)

    def test_round_trip_preserves_booleans(self, tmp_path):
        records = [
            make_record("a->b", matches_prediction=True),
            make_record("c->d", matches_prediction=False),
            make_record("e->f", matches_prediction=None),
        ]
        path = tmp_path / "r.csv"
        write_csv(records, path)
        assert [r.matches_prediction for r in read_csv(path)] == [True, False, None]


class TestTornShardRecovery:
    def test_truncated_shard_recomputed_others_reused(self, tmp_path):
        scenarios = all_pairs(12)
        options = SurveyOptions(workers=1, shard_size=5, shard_dir=str(tmp_path))
        reference = run_survey(scenarios, options)
        shard_count = len(reference.shard_paths)
        assert shard_count >= 2
        truncate_mid_byte(tmp_path / "shard-0000.json")
        resumed = run_survey(scenarios, options)
        # Exactly the torn shard was recomputed; every intact one was reused.
        assert resumed.reused_shard_indices == list(range(1, shard_count))
        strip = lambda r: {**r.as_dict(), "elapsed_seconds": None}
        assert [strip(r) for r in resumed.records] == [
            strip(r) for r in reference.records
        ]
        # The recompute healed the torn file for the next resume.
        rerun = run_survey(scenarios, options)
        assert rerun.reused_shard_indices == list(range(shard_count))


class TestCorruptShardRecovery:
    @pytest.mark.parametrize(
        "payload",
        [
            '{"records": [1]}',
            '{"records": "nope"}',
            '{"format": "repro-survey/1"}',
            '{"records": [{"scenario_id": "x"}]}',
            '{"records": [{"status": "ok"}]}',
        ],
    )
    def test_corrupt_shard_recomputed_and_sweep_finishes(self, tmp_path, payload):
        scenarios = all_pairs(12)
        options = SurveyOptions(workers=1, shard_size=5, shard_dir=str(tmp_path))
        reference = run_survey(scenarios, options)
        shard_count = len(reference.shard_paths)
        (tmp_path / "shard-0000.json").write_text(payload, encoding="utf-8")
        resumed = run_survey(scenarios, options)
        assert resumed.reused_shard_indices == list(range(1, shard_count))
        strip = lambda r: {**r.as_dict(), "elapsed_seconds": None}
        assert [strip(r) for r in resumed.records] == [
            strip(r) for r in reference.records
        ]


class TestReadJsonValidation:
    @pytest.mark.parametrize(
        "payload, message",
        [
            ('{"records": [1]}', "record 0 is not an object"),
            ('{"records": [{"scenario_id": "a", "status": "ok"}, []]}', "record 1"),
            ('{"records": {"scenario_id": "a"}}', "'records' is missing or not a list"),
            ('{"count": 0}', "'records' is missing or not a list"),
            ('{"records": [{"status": "ok"}]}', "record 0 lacks 'scenario_id'"),
            ('{"records": [{"scenario_id": "a"}]}', "record 0 lacks 'status'"),
        ],
    )
    def test_malformed_rows_raise_value_error(self, tmp_path, payload, message):
        path = tmp_path / "bad.json"
        path.write_text(payload, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            read_json(path)

    def test_missing_elapsed_seconds_defaults_to_zero(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(
            '{"records": [{"scenario_id": "a", "status": "ok", "nodes": 4}]}',
            encoding="utf-8",
        )
        (record,) = read_json(path)
        assert record.elapsed_seconds == 0.0 and record.nodes == 4

    def test_bare_record_list_still_reads(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text('[{"scenario_id": "a", "status": "ok"}]', encoding="utf-8")
        assert [r.scenario_id for r in read_json(path)] == ["a"]


class TestTornCacheRecovery:
    def test_truncated_pickle_warns_and_starts_cold(self, tmp_path):
        path = tmp_path / "cache.pkl"
        cache = ConstructionCache()
        for extent in range(4, 40, 2):
            cache.store_family(Torus((extent, 6)), Mesh((extent, 6)), "increasing")
        cache.save(path)
        truncate_mid_byte(path)
        with pytest.warns(RuntimeWarning, match="unreadable .*starting cold"):
            cold = ConstructionCache.load(path)
        assert len(cold) == 0

    def test_wrong_payload_type_warns_and_starts_cold(self, tmp_path):
        path = tmp_path / "cache.pkl"
        path.write_bytes(pickle.dumps(["not", "a", "cache"]))
        with pytest.warns(RuntimeWarning, match="not a cache dict"):
            cold = ConstructionCache.load(path)
        assert cold.construction_count == 0

    def test_intact_save_load_round_trip_is_silent(self, tmp_path):
        path = tmp_path / "cache.pkl"
        cache = ConstructionCache()
        cache.store_family(Torus((4, 6)), Mesh((4, 6)), "increasing")
        cache.save(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warm = ConstructionCache.load(path)
        assert warm.fetch_family(Torus((4, 6)), Mesh((4, 6))) == ("increasing", None)
        assert [p.name for p in tmp_path.iterdir()] == ["cache.pkl"]


class TestKeyboardInterrupt:
    def test_cli_returns_130_and_says_interrupted(self, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli.embed", interrupted)
        code = main(["embed", "--guest", "torus:4,6", "--host", "mesh:4,6"])
        assert code == 130
        assert "interrupted" in capsys.readouterr().err

    def test_survey_interrupt_also_exits_130(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(
            "repro.cli.run_survey",
            lambda *args, **kwargs: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        code = main(["survey", "--suite", "smoke", "--out", str(tmp_path / "o.json")])
        assert code == 130
        assert "interrupted" in capsys.readouterr().err


class TestChaosTornWrite:
    """The chaos plane's torn_write fault flows through every store writer."""

    def test_injected_torn_write_preserves_previous_document(self, tmp_path):
        from repro.runtime import use_context
        from repro.runtime.chaos import InjectedFault

        target = tmp_path / "results.json"
        write_json([make_record()], target)
        before = target.read_bytes()
        with use_context(chaos="torn_write:1.0,seed=3"):
            with pytest.raises(InjectedFault, match="torn_write"):
                write_json([make_record(dilation=9)], target)
        assert target.read_bytes() == before  # the rename never happened
        assert not list(tmp_path.glob("*.tmp"))

    def test_injected_torn_write_on_cache_snapshot_keeps_old_pickle(self, tmp_path):
        from repro.runtime import use_context
        from repro.runtime.chaos import InjectedFault

        path = tmp_path / "cache.pkl"
        cache = ConstructionCache()
        cache.save(path)
        before = path.read_bytes()
        with use_context(chaos="torn_write:1.0,seed=3"):
            with pytest.raises(InjectedFault, match="torn_write"):
                cache.save(path)
        assert path.read_bytes() == before
        ConstructionCache.load(path)  # still a loadable pickle
