"""Minimal statistical database: records, predicates, true and noisy counts.

Records are flat string-valued rows, given as dicts or read from
comma-separated text; only per-field value counts are kept.  The trusted
side evaluates a predicate to a true count and releases only the
Laplace-perturbed value; :func:`public_answer` is the single serialisation
point for what crosses to the untrusted side.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import islice

from .mechanism import PrivacyLevel, _check_collection, sample_noise

__all__ = [
    "RELATIONS",
    "Predicate",
    "RecordSet",
    "QueryResult",
    "load_records",
    "count_query",
    "noisy_count_query",
    "public_answer",
]

RELATIONS = ("equals", "not-equals", "in-set")

# load_records transposes and counts this many rows at a time.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class Predicate:
    """Single-field test: equals / not-equals one value, or membership in a set.

    Evaluation is total: a record without the field matches nothing,
    whatever the relation.
    """

    field: str
    relation: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.field:
            raise ValueError("predicate field name must be non-empty")
        if self.relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {self.relation!r}")
        values = _check_collection(self.values, "predicate values")
        if self.relation != "in-set" and len(values) != 1:
            raise ValueError(f"{self.relation} takes exactly one value, got {len(values)}")
        object.__setattr__(self, "values", values)

    @classmethod
    def parse(cls, text: str) -> "Predicate":
        """Parse ``"field relation value"``; in-set values are comma-separated."""
        parts = text.split(maxsplit=2)
        if len(parts) != 3:
            raise ValueError(f"predicate must look like 'field relation value', got {text!r}")
        field, relation, value = parts
        values = tuple(value.split(",")) if relation == "in-set" else (value,)
        return cls(field=field, relation=relation, values=values)


class RecordSet:
    """Immutable per-field value counts of records (field name -> string value).

    Each field keeps how many records hold it and how many hold each value;
    a record lacking the field (a missing key or a ``None`` value, which no
    predicate matches) counts in neither.  ``records`` is read once and
    counted as it is read: no record is kept, and :func:`count_query` costs
    O(values in the predicate), not a scan.
    """

    __slots__ = ("_size", "_counts")

    def __init__(self, records):
        # The loop target numbers the records into _size as _tally reads them.
        self._size = 0
        self._counts = _tally((name, (value,)) for self._size, record in enumerate(records, 1)
                              for name, value in record.items() if value is not None)

    @property
    def size(self) -> int:
        return self._size


def _tally(columns) -> dict:
    """Per-field ``(records holding it, value Counter)``; a field may come in many pairs."""
    tallies = defaultdict(Counter)
    for name, values in columns:
        tallies[name].update(values)
    return {name: (tally.total(), tally) for name, tally in tallies.items()}


def _checked_rows(reader, width: int):
    for row in reader:
        if len(row) != width:
            raise ValueError(f"row {reader.line_num}: expected {width} fields, got {len(row)}")
        yield row


def load_records(source) -> RecordSet:
    """Read comma-separated rows, header first, into a :class:`RecordSet`.

    Accepts an open text stream or a string holding the full content.
    Standard doubled-quote escaping applies.  Values are counted column by
    column as they are read, a block of rows at a time; no dict per row is
    built and no row is kept.

    Raises:
        ValueError: naming the offending row, on a missing or empty header,
            a field named twice in the header, a row whose field count
            differs from the header's, a ``UnicodeDecodeError`` from the
            source (exact if it decodes line by line: a text stream reads
            ahead), or a ``csv.Error``: a field longer than
            ``csv.field_size_limit()`` (131 072 characters unless raised), or
            a NUL byte on Python 3.10.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    db = RecordSet(())
    reader = csv.reader(source)
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("row 1: missing header")
        if all(name == "" for name in header):
            raise ValueError("row 1: empty header")
        for position, name in enumerate(header):
            if name in header[:position]:
                raise ValueError(f"row 1: field {name!r} named twice")
        rows = _checked_rows(reader, len(header))
        blocks = iter(lambda: list(islice(rows, _BLOCK_ROWS)), [])
        db._counts = _tally(pair for block in blocks for pair in zip(header, zip(*block)))
    except UnicodeDecodeError as exc:
        raise ValueError(f"row {reader.line_num + 1}: {exc}") from None
    except csv.Error as exc:  # raised after the reader counts the line
        raise ValueError(f"row {reader.line_num}: {exc}") from None
    db._size = db._counts.get(header[0], (0,))[0]  # every row holds every field
    return db


@dataclass(frozen=True)
class QueryResult:
    """Noisy answer plus trusted-side context that must never be serialised."""

    true_count: int
    noisy_value: float
    epsilon_used: float


def count_query(db: RecordSet, pred: Predicate) -> int:
    """Number of records matching the predicate; unknown fields match nothing.

    Read from the per-field value counts in O(values in the predicate).  It
    equals the number of records ``db`` was built from whose value for the
    field satisfies the relation.
    """
    present, counts = db._counts.get(pred.field, (0, {}))
    if pred.relation == "not-equals":
        return present - counts.get(pred.values[0], 0)
    # A value listed twice in an in-set still matches each record once.
    return sum(counts.get(value, 0) for value in set(pred.values))


def noisy_count_query(db: RecordSet, pred: Predicate, level: PrivacyLevel, rng) -> QueryResult:
    """True count plus one calibrated Laplace draw; the sum is never clamped.

    Clamping or re-rounding the released value would leak which side of the
    boundary the true count sits on, so the raw perturbed real goes out.
    """
    true_count = count_query(db, pred)
    return QueryResult(
        true_count=true_count,
        noisy_value=true_count + sample_noise(level, rng),
        epsilon_used=level.epsilon,
    )


def public_answer(result: QueryResult) -> str:
    """The untrusted-side answer line: noisy value and epsilon, nothing else."""
    return json.dumps({"noisy_value": result.noisy_value, "epsilon": result.epsilon_used})
