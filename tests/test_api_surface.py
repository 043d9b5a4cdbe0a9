"""The public-surface contract: ``repro.api`` is pinned, drift fails here.

The facade's export list and every entry point's *signature* are compared
against a manifest spelled out longhand in this file — adding, removing,
renaming or re-defaulting anything in ``repro.api`` is a deliberate act that
must update both sides.  This is the test the ISSUE calls the "stability
gate": downstream users program against exactly this surface.
"""

import inspect

import pytest

import repro
import repro.api as api

pytestmark = pytest.mark.smoke

#: The façade, in export order.  Frozen: editing this list is an API change.
MANIFEST = [
    "embed",
    "measure",
    "simulate",
    "run_survey",
    "optimize",
    "use_context",
    "load_cache",
]

#: entry point -> pinned ``(name, kind, default)`` parameter rows (facade-owned
#: callables only; ``run_survey``/``use_context`` are re-exports pinned by
#: identity below).  ``...`` marks a required parameter.
P = inspect.Parameter
SIGNATURES = {
    "embed": [
        ("guest", P.POSITIONAL_OR_KEYWORD, ...),
        ("host", P.POSITIONAL_OR_KEYWORD, ...),
        ("strategy", P.KEYWORD_ONLY, "paper"),
    ],
    "measure": [
        ("embedding", P.POSITIONAL_OR_KEYWORD, ...),
        ("with_congestion", P.KEYWORD_ONLY, False),
    ],
    "simulate": [
        ("guest", P.POSITIONAL_OR_KEYWORD, ...),
        ("host", P.POSITIONAL_OR_KEYWORD, ...),
        ("strategy", P.KEYWORD_ONLY, "paper"),
        ("traffic", P.KEYWORD_ONLY, "neighbor-exchange"),
        ("message_size", P.KEYWORD_ONLY, 1.0),
    ],
    "optimize": [
        ("guest", P.POSITIONAL_OR_KEYWORD, ...),
        ("host", P.POSITIONAL_OR_KEYWORD, ...),
        ("objective", P.KEYWORD_ONLY, "combined"),
        ("budget", P.KEYWORD_ONLY, 2000),
        ("population", P.KEYWORD_ONLY, 16),
        ("seed", P.KEYWORD_ONLY, 0),
        ("schedule", P.KEYWORD_ONLY, "anneal"),
        ("options", P.KEYWORD_ONLY, None),
    ],
    "load_cache": [("path", P.POSITIONAL_OR_KEYWORD, ...)],
}


class TestManifest:
    def test_all_matches_the_manifest_exactly(self):
        assert api.__all__ == MANIFEST

    def test_every_export_exists_and_is_callable(self):
        for name in MANIFEST:
            assert callable(getattr(api, name)), name

    def test_facade_signatures_are_pinned(self):
        for name, expected in SIGNATURES.items():
            signature = inspect.signature(getattr(api, name))
            got = [
                (
                    parameter.name,
                    parameter.kind,
                    ... if parameter.default is P.empty else parameter.default,
                )
                for parameter in signature.parameters.values()
            ]
            assert got == expected, f"api.{name} signature drifted: {got!r}"

    def test_reexports_are_the_canonical_objects(self):
        from repro.runtime.context import use_context
        from repro.survey.runner import run_survey

        assert api.run_survey is run_survey
        assert api.use_context is use_context

    def test_api_module_is_a_root_export(self):
        assert "api" in repro.__all__
        assert repro.api is api

    def test_every_export_has_a_docstring(self):
        for name in MANIFEST:
            assert (getattr(api, name).__doc__ or "").strip(), name


class TestFacadeBehaviour:
    def test_embed_accepts_spec_strings_and_live_graphs(self):
        from repro.graphs.base import Mesh, Torus

        from_strings = api.embed("torus:4x6", "mesh:2,2,2,3")
        from_graphs = api.embed(Torus((4, 6)), Mesh((2, 2, 2, 3)))
        assert from_strings.mapping == from_graphs.mapping
        assert from_strings.dilation() == 1

    def test_measure_reports_costs(self):
        report = api.measure(api.embed("ring:12", "mesh:3,4"), with_congestion=True)
        assert report.dilation >= 1
        assert report.congestion >= 1

    def test_simulate_runs_a_phase(self):
        result = api.simulate("torus:4,4", "mesh:2,2,2,2")
        assert result.makespan > 0

    def test_optimize_roundtrips_through_the_context_cache(self, tmp_path):
        path = tmp_path / "warm.pkl"
        with api.use_context(cache=api.load_cache(path)):
            result = api.optimize("torus:4x4", "mesh:4x4", budget=60, seed=7)
            from repro.runtime.context import current

            current().cache.save(path)
        assert result.embedding.strategy == "optimized"
        reloaded = api.load_cache(path)
        stored = reloaded.fetch_optimum(
            "combined", result.embedding.guest, result.embedding.host
        )
        assert stored == result.state

    def test_bad_spec_string_raises(self):
        with pytest.raises(Exception):
            api.embed("blob:4x4", "mesh:4,4")


class TestPlainInstall:
    def test_imports_without_networkx(self):
        # networkx ships only with the dev extra; a plain install must import.
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part
            for part in (
                str(Path(repro.__file__).resolve().parents[1]),
                env.get("PYTHONPATH"),
            )
            if part
        )
        script = (
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "import repro, repro.api\n"
            "print(repro.__version__)\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == repro.__version__
