"""Core data model: learning sets and trace logs, with their file readers.

File formats
------------
Dataset CSV      header ``id,f1,...,fn,class``; ``class`` is an integer
                 class index and 0 is the normal class.
Trace log CSV    header ``id,step,timestamp,f1,...,fn,class,action``; the
                 ``action`` field is empty exactly when ``class`` is 0.

Every CSV file is read by ``_read_csv`` and written by ``_write_csv``,
every JSON file by ``load_json`` and ``save_json``.  All values are
immutable after construction; every function here is pure.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar, Union

NORMAL_CLASS = 0

FeatureVector = tuple[float, ...]

T = TypeVar("T")


class CarlabError(Exception):
    """Base class for all errors raised by this package."""


class DataFormatError(CarlabError):
    """An input file violates the documented format or an invariant."""


@dataclass(frozen=True)
class LearningSample:
    """One labeled object: opaque id, feature vector, class index."""

    object_id: str
    features: FeatureVector
    label: int

    def __post_init__(self) -> None:
        if not self.object_id:
            raise DataFormatError("object_id must be nonempty")
        if self.label < 0:
            raise DataFormatError(f"negative class index {self.label}")


@dataclass(frozen=True)
class LearningSet:
    """A labeled sample collection with n features.

    Labels run from 0 (the designated normal class) through
    ``deviated_count``; every class share must be nonempty.
    """

    samples: tuple[LearningSample, ...]
    n: int
    deviated_count: int
    mode: str  # "real" | "boolean"

    @property
    def m(self) -> int:
        return len(self.samples)

    def class_share(self, index: int) -> tuple[LearningSample, ...]:
        return tuple(s for s in self.samples if s.label == index)

    @staticmethod
    def build(samples: Sequence[LearningSample], mode: str = "real") -> "LearningSet":
        """Validate samples and derive the feature and class counts.

        Raises DataFormatError on inconsistent feature counts, empty class
        shares, non-finite values, or non-Boolean values in boolean mode.
        """
        mode = mode.lower()
        if mode not in ("real", "boolean"):
            raise DataFormatError(f"unknown mode {mode!r}")
        samples = tuple(samples)
        if not samples:
            raise DataFormatError("learning set has no samples")
        n = len(samples[0].features)
        if n == 0:
            raise DataFormatError("feature count must be positive")
        for s in samples:
            if len(s.features) != n:
                raise DataFormatError(
                    f"inconsistent feature count for {s.object_id!r}: "
                    f"expected {n}, got {len(s.features)}"
                )
            if not all(math.isfinite(v) for v in s.features):
                raise DataFormatError(f"non-finite value for {s.object_id!r}")
            if mode == "boolean":
                for v in s.features:
                    if v not in (0.0, 1.0):
                        raise DataFormatError(
                            f"non-Boolean value {v!r} for {s.object_id!r}"
                        )
        deviated_count = max(s.label for s in samples)
        present = {s.label for s in samples}
        for i in range(deviated_count + 1):
            if i not in present:
                raise DataFormatError(f"empty class share {i}")
        return LearningSet(samples=samples, n=n, deviated_count=deviated_count, mode=mode)


@dataclass(frozen=True)
class TraceEvent:
    """One observation of an object: state, assigned class, applied action.

    ``applied_action`` is present exactly when the assigned class is
    deviated; no action follows a normal classification.
    """

    object_id: str
    step: int
    timestamp: float
    state: FeatureVector
    assigned_class: int
    applied_action: Optional[str] = None

    def __post_init__(self) -> None:
        if self.step < 0:
            raise DataFormatError("step must be nonnegative")
        if self.timestamp < 0:
            raise DataFormatError("timestamp must be nonnegative")
        if self.assigned_class == NORMAL_CLASS and self.applied_action is not None:
            raise DataFormatError(
                f"action present on a normal-class event ({self.object_id!r}, "
                f"step {self.step})"
            )
        if self.assigned_class != NORMAL_CLASS and self.applied_action is None:
            raise DataFormatError(
                f"missing action on deviated-class event ({self.object_id!r}, "
                f"step {self.step})"
            )


TraceMap = dict[str, tuple[TraceEvent, ...]]


def load_json(source: Union[str, Path], parse: Callable[[Any], T]) -> T:
    """Build an object from the JSON document at ``source`` with ``parse``.

    Invalid JSON, a missing key, a value of the wrong type and a value
    the object rejects each raise one DataFormatError naming the file.
    """
    path = Path(source)
    try:
        return parse(json.loads(path.read_text(encoding="utf-8")))
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing key {exc}") from None
    except (CarlabError, AttributeError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def save_json(doc: Any, dest: Union[str, Path, None]) -> None:
    """Write ``doc`` as key-sorted, indented JSON with a trailing newline;
    to stdout when ``dest`` is None or empty."""
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if not dest:
        sys.stdout.write(text)
    else:
        Path(dest).write_text(text, encoding="utf-8")


def _parse_index(value: Any, what: str) -> int:
    """A JSON index: an int, and not a bool."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise DataFormatError(f"{what} must be an integer, got {value!r}")


def _parse_number(value: Any, what: str) -> float:
    """A JSON number as a float: an int or a float, and not a bool."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise DataFormatError(f"{what} must be a number, got {value!r}")


def _parse_name(value: Any, what: str) -> str:
    """A JSON name: a nonempty string."""
    if isinstance(value, str) and value:
        return value
    raise DataFormatError(f"{what} must be a nonempty string, got {value!r}")


def _decimal(text: str) -> Optional[int]:
    """The int ``text`` spells in canonical decimal, else None: "-1" and "10"
    are read, "+1", " 1", "01", "1_0" and non-ASCII digits are not."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if str(value) == text else None


def _parse_key(text: str, what: str) -> int:
    """A JSON object key that names an index: canonical decimal digits."""
    value = _decimal(text)
    if value is not None and value >= 0:
        return value
    raise DataFormatError(f"{what} key must be a decimal integer, got {text!r}")


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataFormatError(f"{where}: bad numeric value {text!r}") from None


def _parse_finite(fields: Sequence[str], where: str, object_id: str) -> tuple[float, ...]:
    """The fields of one row of ``object_id`` as finite floats."""
    try:
        values = tuple(map(float, fields))
    except ValueError:  # parse again, one field at a time, to name the bad one
        values = tuple(_parse_float(text, where) for text in fields)
    if not all(map(math.isfinite, values)):
        raise DataFormatError(f"{where}: non-finite value for {object_id!r}")
    return values


def _parse_int(text: str, where: str) -> int:
    value = _decimal(text)
    if value is None:
        raise DataFormatError(f"{where}: bad integer value {text!r}")
    return value


def _check_feature_header(fields: Sequence[str]) -> int:
    n = len(fields)
    expected = [f"f{j}" for j in range(1, n + 1)]
    if list(fields) != expected:
        raise DataFormatError(f"bad feature columns {list(fields)!r}")
    return n


def _read_csv(path: Path) -> tuple[list[str], Iterator[tuple[str, list[str]]]]:
    """The header of a CSV file, which must not be empty, and its nonblank
    rows as (``path:line``, fields); the rows are checked, as they are
    read, to have as many fields as the header."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    header = rows[0]

    def body() -> Iterator[tuple[str, list[str]]]:
        width, prefix = len(header), f"{path}:"
        for lineno, row in enumerate(rows[1:], start=2):
            if not row:
                continue
            where = f"{prefix}{lineno}"
            if len(row) != width:
                raise DataFormatError(f"{where}: malformed row, expected {width} fields")
            yield where, row

    return header, body()


def _write_csv(dest: Union[str, Path], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with Path(dest).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_dataset(source: Union[str, Path], labelled: bool) -> list[tuple]:
    """Rows of a dataset CSV as (id, features, label); the trailing class
    column is required and parsed if ``labelled``, else optional and ignored.
    A non-finite feature value is rejected with its ``path:line``."""
    path = Path(source)
    header, rows = _read_csv(path)
    has_class = header[-1:] == ["class"]
    if len(header) < 2 + has_class or header[0] != "id" or labelled and not has_class:
        raise DataFormatError(f"{path}: bad header {header!r}")
    n = _check_feature_header(header[1 : len(header) - has_class])
    return [
        (row[0], _parse_finite(row[1 : n + 1], where, row[0]),
         _parse_int(row[-1], where) if labelled else None)
        for where, row in rows
    ]


def load_learning_set(source: Union[str, Path], mode: str = "real") -> LearningSet:
    """Read a dataset CSV into a validated LearningSet."""
    rows = _read_dataset(source, labelled=True)
    return LearningSet.build([LearningSample(*row) for row in rows], mode=mode)


def load_vectors(source: Union[str, Path]) -> list[tuple[str, FeatureVector]]:
    """Read ``id,f1,...,fn[,class]`` rows; a trailing class column is ignored.

    Raises DataFormatError, naming ``path:line``, on a non-finite value.
    """
    return [row[:2] for row in _read_dataset(source, labelled=False)]


def save_dataset(rows: Iterable[tuple], n: int, dest: Union[str, Path]) -> None:
    """Write (id, features, class) rows as a dataset CSV, unvalidated."""
    _write_csv(
        dest,
        ["id"] + [f"f{j}" for j in range(1, n + 1)] + ["class"],
        ([object_id] + [repr(v) for v in x] + [label] for object_id, x, label in rows),
    )


def save_learning_set(ls: LearningSet, dest: Union[str, Path]) -> None:
    """Write a dataset CSV that round-trips through load_learning_set."""
    save_dataset(((s.object_id, s.features, s.label) for s in ls.samples), ls.n, dest)


def load_trace_log(source: Union[str, Path]) -> TraceMap:
    """Read a trace log CSV, grouped per object id.

    Within each object the events are sorted by step; steps must be
    consecutive from 0 and timestamps strictly increasing.  A non-finite
    timestamp or state value is rejected with its ``path:line``.
    """
    path = Path(source)
    header, rows = _read_csv(path)
    if (
        len(header) < 6
        or header[:3] != ["id", "step", "timestamp"]
        or header[-2:] != ["class", "action"]
    ):
        raise DataFormatError(f"{path}: bad header {header!r}")
    _check_feature_header(header[3:-2])
    by_object: dict[str, list[TraceEvent]] = {}
    for where, row in rows:
        step = _parse_int(row[1], where)
        values = _parse_finite(row[2:-2], where, row[0])
        event = TraceEvent(
            object_id=row[0],
            step=step,
            timestamp=values[0],
            state=values[1:],
            assigned_class=_parse_int(row[-2], where),
            applied_action=row[-1] or None,
        )
        by_object.setdefault(event.object_id, []).append(event)
    traces: TraceMap = {}
    for object_id, events in by_object.items():
        events.sort(key=lambda e: e.step)
        for k, event in enumerate(events):
            if event.step != k:
                raise DataFormatError(
                    f"{path}: gap in step numbering for {object_id!r} "
                    f"(expected step {k}, got {event.step})"
                )
            if k > 0 and event.timestamp <= events[k - 1].timestamp:
                raise DataFormatError(
                    f"{path}: non-increasing timestamp for {object_id!r} at step {k}"
                )
        traces[object_id] = tuple(events)
    return traces


def save_trace_log(traces: Union[TraceMap, Iterable[TraceEvent]], dest: Union[str, Path]) -> None:
    """Write a trace log CSV that round-trips through load_trace_log."""
    grouped = group_traces(traces)
    events = [e for object_id in sorted(grouped) for e in grouped[object_id]]
    if not events:
        raise DataFormatError("cannot save an empty trace log")
    _write_csv(
        dest,
        ["id", "step", "timestamp"]
        + [f"f{j}" for j in range(1, len(events[0].state) + 1)]
        + ["class", "action"],
        (
            [e.object_id, e.step, repr(e.timestamp)]
            + [repr(v) for v in e.state]
            + [e.assigned_class, e.applied_action or ""]
            for e in events
        ),
    )


def group_traces(traces: Union[TraceMap, Iterable[TraceEvent]]) -> TraceMap:
    """Normalize flat event iterables or per-object maps into a TraceMap."""
    if isinstance(traces, Mapping):
        return {k: tuple(v) for k, v in traces.items()}
    by_object: dict[str, list[TraceEvent]] = {}
    for event in traces:
        by_object.setdefault(event.object_id, []).append(event)
    return {k: tuple(sorted(v, key=lambda e: e.step)) for k, v in by_object.items()}
