"""Result store for embedding surveys: records, JSON/CSV persistence, shards.

A :class:`SurveyRecord` is one measured guest/host pair, flat enough to be a
CSV row and loss-free as JSON.  The two formats round-trip through
:func:`write_records` / :func:`read_records` (dispatched on file extension);
:func:`merge_shards` combines the per-worker shard files written by the
parallel runner into one deterministic record list.
"""

from __future__ import annotations

import csv
import json
import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..utils.atomicio import atomic_write

__all__ = [
    "SurveyRecord",
    "write_json",
    "read_json",
    "write_csv",
    "read_csv",
    "write_records",
    "read_records",
    "merge_shards",
]

PathLike = Union[str, Path]

#: Column order of the CSV format (also the canonical JSON key order).  The
#: ``traffic`` .. ``makespan`` block is only populated by simulation
#: scenarios; embedding scenarios leave it ``None`` (empty CSV cells).
FIELDS = (
    "scenario_id",
    "guest",
    "host",
    "nodes",
    "guest_edges",
    "status",
    "strategy",
    "predicted_dilation",
    "dilation",
    "average_dilation",
    "congestion",
    "matches_prediction",
    "traffic",
    "messages",
    "max_hops",
    "max_link_load",
    "estimated_time",
    "makespan",
    "elapsed_seconds",
    "error",
    # Appended by the fault/expansion axes; records written before these
    # columns existed load with them as None (`from_dict` uses .get()).
    "faults",
    "guest_size",
    # Appended by the optimizer suite: the encoded search objective, the
    # generations run, and whether search beat the seeded construction.
    "search_objective",
    "search_steps",
    "improved",
)

#: The :data:`FIELDS` values of a record, in order, in one C-level call.
_field_values = operator.attrgetter(*FIELDS)


@dataclass(frozen=True)
class SurveyRecord:
    """One measured guest/host pair of a survey.

    ``status`` is ``"ok"`` for measured embeddings, ``"unsupported"`` when
    the paper offers no construction for the pair (the dispatcher raised
    :class:`~repro.exceptions.UnsupportedEmbeddingError`) and ``"error"``
    for unexpected failures; the cost columns are ``None`` in the latter two
    cases and ``error`` carries the message.

    Simulation scenarios additionally fill the ``traffic`` .. ``makespan``
    block (pattern name, message count, per-phase hop/link statistics and
    the simulated completion time); embedding scenarios leave it ``None``.
    """

    scenario_id: str
    guest: str
    host: str
    nodes: int
    guest_edges: int
    status: str
    strategy: Optional[str] = None
    predicted_dilation: Optional[int] = None
    dilation: Optional[int] = None
    average_dilation: Optional[float] = None
    congestion: Optional[int] = None
    matches_prediction: Optional[bool] = None
    traffic: Optional[str] = None
    messages: Optional[int] = None
    max_hops: Optional[int] = None
    max_link_load: Optional[int] = None
    estimated_time: Optional[float] = None
    makespan: Optional[float] = None
    elapsed_seconds: float = 0.0
    error: Optional[str] = None
    faults: Optional[str] = None
    guest_size: Optional[int] = None
    search_objective: Optional[int] = None
    search_steps: Optional[int] = None
    improved: Optional[bool] = None

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form in canonical key order (JSON object / CSV row).

        Every field is a scalar, so the fields are read directly rather than
        deep-copied the way :func:`dataclasses.asdict` would.
        """
        return dict(zip(FIELDS, _field_values(self)))

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SurveyRecord":
        return cls(**{key: data.get(key) for key in FIELDS})  # type: ignore[arg-type]


#: ``"key": `` prefixes of a record's lines inside the written document.
_RECORD_KEYS = tuple(f"   {encode_basestring_ascii(key)}: " for key in FIELDS)


def _json_float(value: float) -> str:
    # float.__repr__ is json's own rendering of a finite float; json.dumps
    # spells NaN and the infinities as json.dump does.
    return float.__repr__(value) if value - value == 0.0 else json.dumps(value)


_JSON_LITERALS = {None: "null", True: "true", False: "false"}

#: Exact type -> renderer of a scalar exactly as :func:`json.dump` renders it
#: inside a document; any other type goes through :func:`json.dumps`.
_JSON_SCALARS = {
    type(None): _JSON_LITERALS.__getitem__,
    bool: _JSON_LITERALS.__getitem__,
    int: int.__repr__,
    float: _json_float,
    str: encode_basestring_ascii,
}


def _json_record(record: SurveyRecord) -> str:
    """One record as the indented object :func:`json.dump` would write."""
    encoded = [
        _JSON_SCALARS.get(type(value), json.dumps)(value)
        for value in _field_values(record)
    ]
    return "  {\n" + ",\n".join(map(operator.add, _RECORD_KEYS, encoded)) + "\n  }"


def write_json(records: Sequence[SurveyRecord], path: PathLike) -> Path:
    """Write records as a JSON document (list of objects plus a count header).

    The bytes equal ``json.dump(payload, handle, indent=1)`` plus a newline,
    but records are encoded and written one at a time by a per-record
    encoder rather than by the generic pure-Python indenting encoder.

    The write is atomic (temp file + ``os.replace``): a kill mid-write leaves
    the previous document intact instead of a torn shard that silently fails
    the resume check and costs a full recompute.
    """
    path = Path(path)
    with atomic_write(path) as handle:
        handle.write('{\n "format": "repro-survey/1",\n')
        handle.write(f' "count": {len(records)},\n "records": [')
        separator = "\n"
        for record in records:
            handle.write(separator)
            handle.write(_json_record(record))
            separator = ",\n"
        handle.write("\n ]\n}\n" if records else "]\n}\n")
    return path


def _checked_row(index: int, row: object) -> Dict[str, object]:
    if not isinstance(row, dict):
        raise ValueError(f"record {index} is not an object: {row!r}")
    for key in ("scenario_id", "status"):
        if key not in row:
            raise ValueError(f"record {index} lacks {key!r}")
    if row.get("elapsed_seconds") is None:
        row = dict(row, elapsed_seconds=0.0)
    return row


def read_json(path: PathLike) -> List[SurveyRecord]:
    """Read records written by :func:`write_json`.

    Raises :class:`ValueError` naming the offending row when ``records`` is
    missing or not a list, a row is not an object, or a row lacks
    ``scenario_id`` or ``status``.  A missing ``elapsed_seconds`` reads as
    ``0.0``, as in :func:`read_csv`.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    rows = payload.get("records") if isinstance(payload, dict) else payload
    if not isinstance(rows, list):
        raise ValueError(f"{path}: 'records' is missing or not a list")
    return [
        SurveyRecord.from_dict(_checked_row(index, row))
        for index, row in enumerate(rows)
    ]


def _csv_cell(value: object) -> object:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _parse_bool_cell(text: str) -> bool:
    """Parse a CSV boolean cell case-insensitively.

    The writer emits lowercase ``true``/``false``, but legacy files and
    hand-edited spreadsheets carry ``True``/``FALSE`` etc.; treating anything
    but exactly ``"true"`` as ``False`` silently flipped those records.
    Unrecognized text raises instead of guessing.
    """
    lowered = text.strip().lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise ValueError(f"unrecognized boolean cell {text!r}; expected true/false")


_CSV_PARSERS = {
    "nodes": int,
    "guest_edges": int,
    "guest_size": int,
    "predicted_dilation": int,
    "dilation": int,
    "congestion": int,
    "messages": int,
    "max_hops": int,
    "max_link_load": int,
    "average_dilation": float,
    "estimated_time": float,
    "makespan": float,
    "elapsed_seconds": float,
    "matches_prediction": _parse_bool_cell,
    "search_objective": int,
    "search_steps": int,
    "improved": _parse_bool_cell,
}


def write_csv(records: Sequence[SurveyRecord], path: PathLike) -> Path:
    """Write records as a CSV table with the :data:`FIELDS` columns.

    Atomic like :func:`write_json`: the table appears all at once or not at
    all, never truncated mid-row.
    """
    path = Path(path)
    with atomic_write(path, newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(FIELDS))
        writer.writeheader()
        for record in records:
            writer.writerow(
                {key: _csv_cell(value) for key, value in record.as_dict().items()}
            )
    return path


def read_csv(path: PathLike) -> List[SurveyRecord]:
    """Read records written by :func:`write_csv` (inverse, None <-> empty cell)."""
    records: List[SurveyRecord] = []
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            data: Dict[str, object] = {}
            for key in FIELDS:
                text = row.get(key)
                if text is None or text == "":
                    data[key] = None
                elif key in _CSV_PARSERS:
                    data[key] = _CSV_PARSERS[key](text)
                else:
                    data[key] = text
            if data["elapsed_seconds"] is None:
                data["elapsed_seconds"] = 0.0
            records.append(SurveyRecord.from_dict(data))
    return records


def write_records(records: Sequence[SurveyRecord], path: PathLike) -> Path:
    """Write records in the format implied by the file extension (.json/.csv)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return write_csv(records, path)
    return write_json(records, path)


def read_records(path: PathLike) -> List[SurveyRecord]:
    """Read records in the format implied by the file extension (.json/.csv)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return read_csv(path)
    return read_json(path)


def merge_shards(paths: Iterable[PathLike]) -> List[SurveyRecord]:
    """Merge per-worker shard files into one deterministic record list.

    Records are de-duplicated by ``scenario_id`` (last shard wins, which only
    matters when a shard was retried) and sorted by id, so the merge result
    is independent of worker scheduling order.
    """
    by_id: Dict[str, SurveyRecord] = {}
    for path in paths:
        for record in read_records(path):
            by_id[record.scenario_id] = record
    return [by_id[key] for key in sorted(by_id)]
