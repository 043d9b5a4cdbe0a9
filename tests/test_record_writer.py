"""The streaming JSON record writer is byte-identical to ``json.dump``.

:func:`repro.survey.store.write_json` encodes one record at a time with a
per-record encoder instead of the generic indenting encoder; the document
it writes must be exactly ``json.dumps(payload, indent=1)`` plus a newline
for every scalar a record can hold, and :func:`read_json` must give the
records back.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.survey import SurveyRecord, read_json, write_json
from repro.survey.store import FIELDS

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(
        [1e-300, -1e-300, float("nan"), float("inf"), float("-inf"), -0.0]
    )
    | st.text()
    | st.sampled_from(
        ['"quoted"', "back\\slash", "tab\there", "ünïcødé ✓", "\x00\x1f", ""]
    )
)

FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [1e-300, float("nan"), float("inf")]
)

#: Any scalar in any column, except ``elapsed_seconds``: a missing timing
#: reads back as ``0.0``, so that column always holds a float.
records = st.builds(
    lambda values: SurveyRecord(**dict(zip(FIELDS, values))),
    st.tuples(*[FLOATS if key == "elapsed_seconds" else SCALARS for key in FIELDS]),
)


def expected_document(rows):
    payload = {
        "format": "repro-survey/1",
        "count": len(rows),
        "records": [record.as_dict() for record in rows],
    }
    return json.dumps(payload, indent=1) + "\n"


def same_value(a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return type(a) is type(b) and a == b


class TestWriterIdentity:
    @given(st.lists(records, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_json_dump_and_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("writer") / "records.json"
        write_json(rows, path)
        assert path.read_text(encoding="utf-8") == expected_document(rows)
        back = read_json(path)
        assert len(back) == len(rows)
        for written, read in zip(rows, back):
            for key in FIELDS:
                assert same_value(getattr(written, key), getattr(read, key)), key

    def test_empty_list(self, tmp_path):
        path = write_json([], tmp_path / "empty.json")
        assert path.read_text(encoding="utf-8") == expected_document([])
        assert read_json(path) == []

    def test_as_dict_is_canonical_and_shallow(self):
        record = SurveyRecord(
            scenario_id="a", guest="G", host="H", nodes=4, guest_edges=4, status="ok"
        )
        data = record.as_dict()
        assert list(data) == list(FIELDS)
        assert all(data[key] is getattr(record, key) for key in FIELDS)
