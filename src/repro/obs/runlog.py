"""Structured run telemetry: schema-versioned JSONL event log.

Every record is one JSON object per line with three envelope fields --
``schema`` (the integer :data:`SCHEMA_VERSION`), ``kind`` (event type) and
``ts`` (unix wall-clock) -- plus the event's own payload. Known kinds and
their required payload fields live in :data:`EVENT_FIELDS`; unknown kinds
are legal (the envelope alone is enforced) so call sites can add events
without touching this table, but everything the core pipeline emits is
registered and therefore validated.

Determinism contract: two seeded runs of the same workload must produce
identical event streams *except* for wall-clock-derived and
process-identity-derived fields. :func:`strip_volatile` removes those
(recursively, by exact name or ``_seconds``/``_per_sec`` suffix) so tests
and diff tooling can compare runs field-for-field.
"""

from __future__ import annotations

import io
import json
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

#: bump when a record's meaning changes incompatibly; readers check it
SCHEMA_VERSION = 1

#: required payload fields per known event kind (envelope fields excluded)
EVENT_FIELDS: Dict[str, tuple] = {
    # lifecycle
    "run.start": ("method",),
    "run.summary": ("f1",),
    "metrics.snapshot": ("metrics",),
    "span": ("name", "path", "depth", "wall", "cpu"),
    # training
    "trainer.fit.start": ("n_train", "epochs"),
    "trainer.step": ("step", "epoch", "loss"),
    "trainer.epoch": ("epoch", "loss", "steps"),
    "pretrain.epoch": ("epoch", "mlm_loss", "steps"),
    # self-training loop
    "selftrain.round": ("iteration", "teacher_f1", "pseudo_added"),
    "mc_dropout.stats": ("pairs", "passes", "uncertainty_mean"),
    "el2n.prune": ("before", "after", "dropped"),
    # inference engine
    "engine.stats": ("pairs", "batches", "cache_hit_rate"),
    # serving
    "serve.trace": ("request_id", "spans"),
    "serve.drift": ("tenant", "drift_kind"),
    "serve.slo": ("tenants",),
}

#: field names whose values are wall-clock or process-identity derived and
#: therefore legitimately differ between two otherwise identical runs
VOLATILE_FIELDS = frozenset({
    "ts", "wall", "cpu", "elapsed", "seconds", "ewma", "last",
    "fingerprint", "pid",
})

_VOLATILE_SUFFIXES = ("_seconds", "_per_sec")


def is_volatile_field(name: str) -> bool:
    """True for fields excluded from run-to-run determinism comparisons."""
    return name in VOLATILE_FIELDS or name.endswith(_VOLATILE_SUFFIXES)


def strip_volatile(record: dict) -> dict:
    """A deep copy of ``record`` with every volatile field removed."""
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items()
                    if not is_volatile_field(k)}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value
    return strip(record)


def validate_record(record: dict) -> dict:
    """Check the envelope (and payload fields of known kinds); returns it.

    Raises ``ValueError`` describing exactly what is malformed.
    """
    if not isinstance(record, dict):
        raise ValueError(f"telemetry record must be an object, "
                         f"got {type(record).__name__}")
    if record.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {record.get('schema')!r} "
                         f"(expected {SCHEMA_VERSION})")
    kind = record.get("kind")
    if not isinstance(kind, str) or not kind:
        raise ValueError("record has no 'kind'")
    if not isinstance(record.get("ts"), (int, float)):
        raise ValueError(f"record kind={kind!r} has no numeric 'ts'")
    required = EVENT_FIELDS.get(kind, ())
    missing = [f for f in required if f not in record]
    if missing:
        raise ValueError(f"record kind={kind!r} missing fields {missing}")
    return record


def _jsonable(value):
    """Coerce numpy scalars/arrays, tuples and Paths for json.dumps."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, Path):
        return str(value)
    return value


class RunLog:
    """Append-only JSONL event writer.

    Accepts a path (opened for writing, overwriting any previous log) or
    any text file-like object. Records are flushed per event -- telemetry
    must survive a crashed run, that being when it is most needed.
    """

    def __init__(self, target: Union[str, Path, io.TextIOBase],
                 clock=time.time) -> None:
        if isinstance(target, (str, Path)):
            self.path: Optional[Path] = Path(target)
            self._file = open(self.path, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self.path = None
            self._file = target
            self._owns_file = False
        self._clock = clock
        self.records_written = 0

    def event(self, kind: str, **fields) -> dict:
        """Write one record; returns the dict that was serialized."""
        record = {"schema": SCHEMA_VERSION, "kind": str(kind),
                  "ts": round(float(self._clock()), 6)}
        record.update(_jsonable(fields))
        validate_record(record)
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._file.flush()
        self.records_written += 1
        return record

    def close(self) -> None:
        if self._file is not None and self._owns_file:
            self._file.close()
        self._file = None

    @property
    def closed(self) -> bool:
        return self._file is None

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_events(source: Union[str, Path, Iterable[str]],
                kind: Optional[str] = None,
                validate: bool = True) -> List[dict]:
    """Parse a telemetry JSONL file (or iterable of lines) into records.

    ``kind`` filters to one event type; ``validate`` runs
    :func:`validate_record` on every parsed line.
    """
    return list(iter_events(source, kind=kind, validate=validate))


def iter_events(source: Union[str, Path, Iterable[str]],
                kind: Optional[str] = None,
                validate: bool = True) -> Iterator[dict]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from iter_events(fh, kind=kind, validate=validate)
        return
    for line in source:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if validate:
            validate_record(record)
        if kind is None or record.get("kind") == kind:
            yield record
