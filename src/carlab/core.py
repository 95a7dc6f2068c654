"""Core data model: learning sets and trace logs, with their file readers.

File formats
------------
Dataset CSV      header ``id,f1,...,fn,class``; ``class`` is an integer
                 class index and 0 is the normal class.  It is read into
                 the columns of a ``LearningSet``: ids, features, labels.
Trace log CSV    header ``id,step,timestamp,f1,...,fn,class,action``; the
                 ``action`` field is empty exactly when ``class`` is 0.
                 It is read into a columnar ``TraceTable``.

Every CSV file is read by ``_read_csv`` and written by ``_write_csv``,
every JSON file by ``load_json`` and ``save_json``.  ``_read_csv`` returns
typed columns, as the reader of the format names their kinds.  An ASCII
file with no quote or NUL whose lines hold one field per column is read
in C by ``np.loadtxt`` (``_loadtxt_read``); a file it does not take, or
whose fields do not all read, goes through ``csv.reader``, the general
path, which finds the errors.  ``np.loadtxt`` parses only float fields:
on both paths an int field is text until ``_decimal`` reads it, once per
distinct text.  Columns are checked whole, and
``_raise_first`` reports the row a row-at-a-time reader would stop at.
Key columns are coded by ``_unique``, through a table rather than a sort
when their keys span few cells, and ``_count_rows`` counts rows of such
keys with one ``np.bincount``.
``save_json`` writes the bytes of ``json.dumps(doc, sort_keys=True,
indent=2)`` made by json's C encoder, not by its pure-Python indent
encoder (see ``_indented_json``).  The whole document is encoded before
the file opens, and its pieces are then written as they were made.
Values are not changed after construction, a constructor checks what it
stores and a value read off stored fields is a read-only property; every
function here is pure.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, islice, repeat
from operator import itemgetter, not_
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, TypeVar, Union

import numpy as np

NORMAL_CLASS = 0

FeatureVector = tuple[float, ...]

T = TypeVar("T")


class CarlabError(Exception):
    """Base class for all errors raised by this package."""


class DataFormatError(CarlabError):
    """An input file violates the documented format or an invariant."""


@dataclass(frozen=True)
class LearningSample:
    """One labeled object: opaque id, feature vector, class index.  Samples
    are checked where they enter a LearningSet."""

    object_id: str
    features: FeatureVector
    label: int


def _equal_fields(self: Any, other: object) -> bool:
    """Equality of dataclasses of one type, field by field, arrays by value."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = ((getattr(self, f), getattr(other, f)) for f in self.__dataclass_fields__)
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


@dataclass(frozen=True, eq=False)
class LearningSet:
    """A labeled sample collection as columns: ids, the read-only (m x n)
    float64 matrix ``X`` (given as a matrix or as rows) of finite features,
    0 or 1 in boolean mode, and read-only int64 ``labels`` from 0 (the
    normal class) through ``deviated_count``, each class share nonempty.
    The columns are checked whole, and the first row a row-at-a-time check
    stops at raises: an empty id or a negative class; the mode, the sample
    and feature counts; a row of another width, a non-finite or non-Boolean
    value; an empty class share.  ``samples`` is a row view."""

    ids: tuple[str, ...]
    X: np.ndarray
    labels: np.ndarray
    mode: str  # "real" | "boolean"

    __eq__ = _equal_fields

    def __post_init__(self) -> None:
        ids, labels = tuple(self.ids), np.array(self.labels, np.int64)
        X, widths = _feature_matrix(self.X, ids)
        if len(X) != len(ids) or labels.shape != (len(ids),):
            raise DataFormatError(f"need a feature row and a label per id: {len(ids)} ids, {X.shape}, {labels.shape}")
        X.flags.writeable = labels.flags.writeable = False
        vars(self).update(ids=ids, X=X, labels=labels)
        _raise_first([
            (np.fromiter(map(not_, ids), bool, len(ids)), lambda k: "object_id must be nonempty"),
            (labels < 0, lambda k: f"negative class index {labels[k]}"),
        ])
        if self.mode not in ("real", "boolean"):
            raise DataFormatError(f"unknown mode {self.mode!r}")
        if not ids:
            raise DataFormatError("learning set has no samples")
        if not self.n:
            raise DataFormatError("feature count must be positive")
        bits = (X == 0) | (X == 1) if self.mode == "boolean" else np.ones_like(X, bool)
        _raise_first([
            widths,
            (~np.isfinite(X).all(axis=1), lambda k: f"non-finite value for {ids[k]!r}"),
            (~bits.all(axis=1), lambda k: f"non-Boolean value {X[k, np.argmin(bits[k])].item()!r} for {ids[k]!r}"),
        ])
        present = _unique(labels)[0]
        empty = np.flatnonzero(present != np.arange(len(present)))
        if len(empty):
            raise DataFormatError(f"empty class share {empty[0]}")

    def __reduce__(self) -> tuple:
        return LearningSet, (self.ids, self.X, self.labels, self.mode)

    @property
    def n(self) -> int:
        return self.X.shape[1]

    @property
    def deviated_count(self) -> int:
        return int(self.labels.max())

    @property
    def m(self) -> int:
        return len(self.ids)

    @cached_property
    def samples(self) -> tuple[LearningSample, ...]:
        """Each row as a LearningSample, in row order."""
        return tuple(map(LearningSample, self.ids, map(tuple, self.X.tolist()), self.labels.tolist()))

    def class_share(self, index: int) -> tuple[LearningSample, ...]:
        return tuple(s for s in self.samples if s.label == index)

    @staticmethod
    def build(samples: Sequence[LearningSample], mode: str = "real") -> "LearningSet":
        """The LearningSet of ``samples``, with the mode in any case: the one
        conversion from rows to columns."""
        samples = tuple(samples)
        columns = (tuple(getattr(s, f) for s in samples) for f in LearningSample.__dataclass_fields__)
        return LearningSet(*columns, mode.lower())


def _feature_matrix(rows: Any, ids: tuple) -> tuple[np.ndarray, Optional["_Check"]]:
    """A new float64 matrix of a matrix or of feature rows, and for rows the
    check that fails each of another width than the first, read as zeros."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return rows.astype(np.float64), None
    rows = list(rows)
    n = len(rows[0]) if rows else 0
    other = np.fromiter((len(row) != n for row in rows), bool, len(rows))
    X = np.array([(0.0,) * n if bad else row for row, bad in zip(rows, other)], np.float64).reshape(len(rows), n)
    return X, (other, lambda k: f"inconsistent feature count for {ids[k]!r}: expected {n}, got {len(rows[k])}")


@dataclass(frozen=True)
class TraceEvent:
    """One observation of an object: state, assigned class, applied action.

    ``applied_action`` is present exactly when the assigned class is
    deviated; no action follows a normal classification.  Events are
    checked, with the rest of their trace, where they enter a TraceTable.
    """

    object_id: str
    step: int
    timestamp: float
    state: FeatureVector
    assigned_class: int
    applied_action: Optional[str] = None


TraceMap = dict[str, tuple[TraceEvent, ...]]
Traces = Union["TraceTable", TraceMap, Iterable[TraceEvent]]


@dataclass(frozen=True, eq=False)
class TraceTable:
    """Trace events as columns, one row per event, checked as a trace log.

    Rows are grouped by object, objects in order of first appearance, and
    ordered by step within an object, where steps run 0, 1, ... and
    timestamps strictly increase.  ``obj`` indexes ``object_ids``;
    ``action`` indexes ``actions``, the distinct action names in ascending
    order, and is -1 on the normal-class rows, which carry no action.
    """

    object_ids: tuple[str, ...]
    obj: np.ndarray
    step: np.ndarray
    timestamp: np.ndarray
    state: np.ndarray  # rows x n
    label: np.ndarray
    actions: tuple[str, ...]
    action: np.ndarray

    def __len__(self) -> int:
        return len(self.obj)

    __eq__ = _equal_fields

    def id_order(self) -> np.ndarray:
        """The row indices that put the objects in id order, each object's
        rows still in step order."""
        rank = np.empty(len(self.object_ids), np.intp)
        rank[sorted(range(len(self.object_ids)), key=self.object_ids.__getitem__)] = np.arange(len(rank))
        return np.argsort(rank[self.obj], kind="stable")

    @staticmethod
    def from_events(traces: Traces) -> "TraceTable":
        """The table of a TraceMap or of events in any order, under the
        checks of ``load_trace_log``; a table is returned as it is."""
        if isinstance(traces, TraceTable):
            return traces
        events = [e for v in traces.values() for e in v] if isinstance(traces, Mapping) else list(traces)
        ids, step, timestamp, state, label, names = (
            [getattr(e, name) for e in events] for name in TraceEvent.__dataclass_fields__
        )
        n = len(state[0]) if events else 0
        return _trace_table(
            *_codes(np.array(ids, object)), np.array(step, np.int64), np.array(timestamp, float),
            np.array(state, float).reshape(len(events), n), np.array(label, np.int64),
            *_codes(np.array([name or "" for name in names], object)),
        )


# An int key column is coded through a table, not a sort, when its span,
# the cells from its least to its greatest key, is at most this many per row.
_TABLE_SPAN = 4


def _offsets(keys: np.ndarray) -> Optional[tuple[np.ndarray, np.generic, int]]:
    """The offset of each key of an int column from the least, that least
    key and the span, when the column fits a table; None otherwise."""
    if keys.dtype.kind not in "iu" or not len(keys):
        return None
    low = keys.min()
    span = int(keys.max()) - int(low) + 1
    if span > _TABLE_SPAN * len(keys):
        return None
    wide = keys if keys.itemsize == 8 else keys.astype(np.int64)
    return (wide - low).astype(np.intp, copy=False), low, span  # each offset is below the span


def _unique(column: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(column, return_index=True, return_inverse=True)``: the
    distinct values, ascending, the first row of each and the index of each
    row's value among them.

    The keys of an ``S1``, ``S2``, ``S4`` or ``S8`` column are its texts
    read as big-endian ints, so that number order is byte order; of any
    other column, its values.  Int keys that fit a table (see
    ``_offsets``) are coded through a table of their span: the first row
    of each key by ``np.minimum.at``, and the index of each present key by
    a running count.  Other keys are sorted by ``np.unique``, only at
    their run heads (rows whose key differs from the row before, where
    every key first appears) when they have runs, as a trace log's ids
    do."""
    keys = column
    if column.dtype.kind == "S" and column.itemsize in (1, 2, 4, 8):
        keys = column.view(f">u{column.itemsize}").astype(np.uint64 if column.itemsize == 8 else np.intp)
    table = _offsets(keys)
    if table is None:
        heads = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1]))[: len(keys)])
        if len(heads) == len(keys):
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        else:
            _, first, inverse = np.unique(keys[heads], return_index=True, return_inverse=True)
            first, inverse = heads[first], np.repeat(inverse, np.diff(heads, append=len(keys)))
        return column[first], first, inverse
    at, _, span = table
    first = np.full(span, len(at), np.intp)
    np.minimum.at(first, at, np.arange(len(at)))
    present = first < len(at)
    first = first[present]
    return column[first], first, (np.cumsum(present) - 1)[at]


def _count_rows(*columns: np.ndarray, weights: Optional[np.ndarray] = None) -> list[tuple]:
    """The distinct rows of int columns, ascending, each as (v1, ..., count):
    one int key per row, over the distinct values of each column, or over
    the span of each when the keys fit tables (see ``_offsets``), which
    unweighted rows count by ``np.bincount``.  With int ``weights``, a
    row's count is the sum of its rows' weights, added as Python ints."""
    tables = list(map(_offsets, columns)) if weights is None else []
    if tables and None not in tables:
        ats, lows, spans = zip(*tables)
        if math.prod(spans) <= _TABLE_SPAN * len(ats[0]):
            joint = ats[0]
            for at, span in zip(ats[1:], spans[1:]):
                joint = joint * span + at
            counts = np.bincount(joint, minlength=math.prod(spans))
            cells = np.flatnonzero(counts)
            values = ((at.astype(low.dtype) + low).tolist() for at, low in zip(np.unravel_index(cells, spans), lows))
            return list(zip(*values, counts[cells].tolist()))
    uniques, codes = zip(*(np.unique(column, return_inverse=True) for column in columns))
    dims = tuple(map(len, uniques))
    keys, inverse, counts = np.unique(np.ravel_multi_index(codes, dims), return_inverse=True, return_counts=True)
    if weights is not None:
        counts = np.zeros(len(keys), object)
        np.add.at(counts, inverse, weights.astype(object))
    values = (u[c].tolist() for u, c in zip(uniques, np.unravel_index(keys, dims)))
    return list(zip(*values, counts.tolist()))


def _refuse_constant(name: str) -> Any:
    raise ValueError(f"non-finite number {name}")


def load_json(source: Union[str, Path], parse: Callable[[Any], T],
              fast: Optional[Callable[[bytes], Any]] = None) -> T:
    """Build an object from the JSON document at ``source`` with ``parse``.

    Invalid JSON, the non-standard literals ``NaN``, ``Infinity`` and
    ``-Infinity``, a document nested too deep to read, a missing key, a
    value of the wrong type and a value the object rejects each raise one
    DataFormatError naming the file.  ``fast``, if given, reads the file's
    bytes into a document that ``parse`` takes as it takes the one
    ``json.loads`` reads, or gives None on any doubt; the text is then
    read as above, so the errors are the same either way.
    """
    path = Path(source)
    try:
        doc = fast(path.read_bytes()) if fast else None
        if doc is None:
            doc = json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant)
        return parse(doc)
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing key {exc}") from None
    except RecursionError:
        raise DataFormatError(f"{path}: nested too deep") from None
    except (CarlabError, AttributeError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None


_CONTAINERS = (dict, list, tuple)
_NESTED = (*_CONTAINERS, np.ndarray)  # what a leaf container holds none of


def _plain(bytes_: np.ndarray) -> bool:
    """Whether every byte is printable ASCII that json writes as itself:
    not a control byte, not above 0x7e, not ``"`` and not ``\\``."""
    if not bytes_.size:
        return True
    low, high = int(bytes_.min()), int(bytes_.max())
    escaped = (c for c in b'"\\' if low <= c <= high)
    return 0x20 <= low and high <= 0x7E and not any((bytes_ == c).any() for c in escaped)


def _indented_json(doc: Any) -> list[str]:
    """The pieces of ``json.dumps(doc, sort_keys=True, indent=2)``, made by
    json's C encoder, in order.

    A leaf container (a plain dict, list or tuple with no container
    inside) is one C call.  A table, a list or dict of more plain dicts
    than they have keys, all with the same str keys and holding only
    scalars and leaf containers (flat records of scalars included), is
    written column by column: one C call for a column's scalars, one for
    its leaf containers, and each row from one %-template (``%`` escaped
    in the keys).  The C text of a column's leaves is cut between them
    without parsing: json escapes every newline inside a string, and a
    separator inside a leaf is followed by a scalar, so ``]`` or ``}``,
    the separator and ``[`` or ``{`` occur only between leaves.

    Any other container that holds containers is walked on an explicit
    stack, with no Python frame per level, so any depth ``json.loads``
    reads is written.  Items are visited, keys sorted and converted, and
    cycles refused in the pure-Python indent encoder's order, and a table
    that fails to encode is walked instead, so an unserialisable document
    raises the same exception type.

    A 1-D ``S<w>`` array is written as the list of its strings, from one
    array of rows ``,<indent>"<bytes>"``.  It must hold only bytes that
    json writes as themselves (``_plain``); json's TypeError for an array
    is raised for any other, as for any other value json cannot write.
    """
    make, string = json.encoder.c_make_encoder, json.encoder.encode_basestring_ascii
    refuse = json.JSONEncoder().default  # raises json's TypeError for an unserialisable value
    pads = ["\n"]  # pads[d]: a newline and the indent of depth d
    encoders = []  # encoders[d]: the C encoder of the items of a container at depth d

    def reach(depth: int) -> None:  # makes pads[depth] and encoders[depth - 1]
        while len(pads) <= depth:
            pads.append(pads[-1] + "  ")
            encoders.append(make(None, refuse, string, None, ": ", "," + pads[-1], True, False, True))

    def key(k: Any) -> str:
        if isinstance(k, str):
            return string(k)
        if isinstance(k, (int, float)) or k is None:
            return f'"{scalar(k, 0)[0]}"'
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")

    def scalars(cells: Sequence) -> list[str]:
        return "".join(scalar(cells, 0))[1:-1].split("," + pads[1])

    def leaves(boxes: Sequence, depth: int) -> list[str]:
        """The texts of the leaf containers ``boxes`` written at ``depth``."""
        inner, outer = pads[depth + 1], pads[depth]
        cut = re.split(",%s(?=[{\\[])" % inner, "".join(encoders[depth](boxes, 0))[1:-1])
        return [t if len(t) == 2 else t[0] + inner + t[1:-1] + outer + t[-1] for t in cut]

    def column(cells: list, depth: int) -> Optional[list[str]]:
        """The texts of a table column written at ``depth``; None unless
        each cell is a scalar or an exact leaf container."""
        kinds = set(map(type, cells))
        boxes = kinds.intersection(_CONTAINERS)
        if sum(map(issubclass, kinds, containers)) > len(boxes):
            return None  # an array, or a subclass of dict, list or tuple
        if not boxes:
            return scalars(cells)
        flags = list(map(isinstance, cells, repeat(_CONTAINERS)))
        boxed = list(compress(cells, flags))
        inside = map(dict.values, boxed) if boxes == {dict} else (b.values() if type(b) is dict else b for b in boxed)
        if any(map(issubclass, set(map(type, chain.from_iterable(inside))), containers)):
            return None  # a container inside a cell
        if len(boxed) == len(cells):
            return leaves(cells, depth)
        texts = iter(scalars([c for c, flag in zip(cells, flags) if not flag])), iter(leaves(boxed, depth))
        return [next(texts[flag]) for flag in flags]

    def table(value: Any, kinds: set, depth: int) -> Optional[str]:
        """The text of ``value`` written at ``depth`` if it is a table;
        None otherwise."""
        if kinds != {dict}:
            return None
        is_dict = isinstance(value, dict)
        heads, rows = zip(*sorted(value.items())) if is_dict else ((), value)
        names = rows[0].keys()
        if len(rows) <= len(names) or set(map(len, rows)) != {len(names)} or set(map(type, names)) != {str}:
            return None
        names = sorted(names)
        try:
            cells = [list(map(itemgetter(k), rows)) for k in names]
        except KeyError:  # a row with other keys
            return None
        reach(depth + 3)
        columns = []
        for texts in map(column, cells, repeat(depth + 2)):
            if texts is None:
                return None
            columns.append(texts)
        inner, cell = pads[depth + 1], "," + pads[depth + 2]
        row = "{" + cell[1:] + cell.join(string(k).replace("%", "%%") + ": %s" for k in names) + inner + "}"
        items = map(row.__mod__, zip(*columns))
        if is_dict:
            heads = map(string if set(map(type, heads)) == {str} else key, heads)
            items = map("%s: %s".__mod__, zip(heads, items))
        opener, closer = ("{", "}") if is_dict else ("[", "]")
        return opener + inner + ("," + inner).join(items) + pads[depth] + closer

    def strings(value: Any, depth: int) -> tuple[str, ...]:
        """The pieces of a 1-D ``S`` array written at ``depth``."""
        if value.ndim != 1 or value.dtype.kind != "S" or not _plain(np.ascontiguousarray(value).view(np.uint8)):
            refuse(value)
        if not value.size:
            return ("[]",)
        reach(depth + 1)
        lead = ("," + pads[depth + 1] + '"').encode()
        rows = np.empty(len(value), [("lead", f"S{len(lead)}"), ("item", value.dtype), ("end", "S1")])
        rows["lead"], rows["item"], rows["end"] = lead, value, b'"'
        return "[", str(rows.view(np.uint8)[1:], "ascii"), pads[depth] + "]"  # no comma before the first

    reach(1)
    scalar, containers = encoders[0], repeat(_NESTED)
    out: list[str] = []
    opened: set[int] = set()  # ids of the containers being written, to refuse a cycle
    stack = [(iter([("", doc)]), 0, "", None)]  # (heads and values, depth, closer, id)
    while stack:
        items, depth, closer, mark = stack[-1]
        for head, value in items:
            if type(value) is np.ndarray:
                out += (head, *strings(value, depth))
                continue
            if not isinstance(value, _CONTAINERS) or not value:
                out += (head, scalar(value, 0)[0])
                continue
            reach(depth + 1)
            inner, is_dict = depth + 1, isinstance(value, dict)
            kinds = set(map(type, value.values() if is_dict else value))
            if not any(map(issubclass, kinds, containers)):
                text = "".join(encoders[depth](value, 0))  # a long one comes in chunks
                out += (head, text[0], pads[inner], text[1:-1], pads[depth], text[-1])
                continue
            try:
                text = table(value, kinds, depth)
            except (KeyError, TypeError, ValueError):
                text = None  # walked below, to raise in the indent encoder's order
            if text is not None:
                out += (head, text)
                continue
            if id(value) in opened:
                raise ValueError("Circular reference detected")
            opened.add(id(value))
            leads = chain((pads[inner],), repeat("," + pads[inner]))
            if is_dict:
                items = ((lead + key(k) + ": ", v) for lead, (k, v) in zip(leads, sorted(value.items())))
            else:
                items = zip(leads, value)
            out += (head, "{" if is_dict else "[")
            stack.append((items, inner, pads[depth] + ("}" if is_dict else "]"), id(value)))
            break
        else:
            stack.pop()
            out.append(closer)
            opened.discard(mark)
    return out


def save_json(doc: Any, dest: Union[str, Path, None]) -> None:
    """Write ``doc`` as key-sorted, indented JSON with a trailing newline;
    to stdout when ``dest`` is None or empty.  The whole document is
    encoded before the file opens, so one that cannot be written leaves no
    file; its pieces are then written as they were made, never joined."""
    pieces = _indented_json(doc)
    with contextlib.nullcontext(sys.stdout) if not dest else open(dest, "w", encoding="utf-8") as out:
        out.writelines(pieces)
        out.write("\n")


def _parse_index(value: Any, what: str) -> int:
    """A JSON index: an int in the int64 range, and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DataFormatError(f"{what} must be an integer, got {value!r}")
    if not -(2**63) <= value < 2**63:
        raise DataFormatError(f"{what} must fit in 64 bits, got {value!r}")
    return value


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


def _parse_indices(value: Any, what: str) -> tuple[int, ...]:
    """A JSON list of indices, as a tuple; ``what`` names one item."""
    if isinstance(value, list):
        return tuple(_parse_index(v, what) for v in value)
    raise DataFormatError(f"{what} indices must be a list, got {value!r}")


def _parse_strings(value: Any, what: str) -> tuple[str, ...]:
    """A JSON list of strings, as a tuple."""
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise DataFormatError(f"{what} must be a list of strings, got {value!r}")


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


def _check_feature_header(fields: Sequence[str]) -> int:
    n = len(fields)
    expected = [f"f{j}" for j in range(1, n + 1)]
    if list(fields) != expected:
        raise DataFormatError(f"bad feature columns {list(fields)!r}")
    return n


# A row check: the mask of the rows that fail it, and the message for row k.
_Check = tuple[np.ndarray, Callable[[int], str]]

# A column's kind: float, int, str, or None for a column that is not read;
# or (float, k), which reads the next k columns, all float, as one (rows x k)
# matrix.  A str column is read as its distinct texts, in order of first
# appearance, and the index of each row's text among them.
_Kind = Union[None, type, tuple[type, int]]
_Kinds = Callable[[list[str]], Sequence[_Kind]]

# A quote, which only csv.reader parses, and the line breaks of str.splitlines
# that are not line breaks to csv.reader: a file with none of them has no
# field size limit.
_NOT_SPLIT = '"\v\f\x1c\x1d\x1e\x85\u2028\u2029'

# The ASCII bytes that keep a file from np.loadtxt: those of _NOT_SPLIT, since
# csv.reader reads such a file under its field limit (and only it parses a
# quote), and NUL, which an ``S`` field drops at its end.  All are below the
# comma, so the delimiter scan finds them.
_NOT_LOADTXT = b'"\v\f\x1c\x1d\x1e\x00'


def _codes(column: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct values of ``column`` in order of first appearance, and
    the index of each row's value among them."""
    values, first, inverse = _unique(column)
    order = np.argsort(first)
    return values[order].tolist(), np.argsort(order)[inverse]


def _spans(kinds: Sequence[_Kind]) -> list[int]:
    """The number of columns each kind reads."""
    return [kind[1] if isinstance(kind, tuple) else 1 for kind in kinds]


# The delimiter scan takes about this many bytes of whole lines at a time, so
# that its arrays stay small enough for the allocator to reuse, not map anew.
_SCAN_BYTES = 1 << 18

def _line_bounds(block: np.ndarray, line: np.ndarray) -> Optional[np.ndarray]:
    """The delimiters of the whole lines of ASCII text ``block`` (the last
    may lack its LF) as a (lines x ``len(line)``) matrix of positions, if
    each line's commas and line end are the bytes ``line``; None if not,
    or if the text holds a byte of _NOT_LOADTXT.  One scan finds the bytes
    below the comma: the delimiters, and any quote, NUL, space, sign or
    tab."""
    ends = np.flatnonzero(block <= ord(","))
    marks = block[ends]
    if block[-1] != ord("\n"):  # the last line's end, or its LF
        end = line[line != ord(",")][-1 if block[-1] == ord("\r") else 0 :]
        ends, marks = np.append(ends, len(block) + np.arange(len(end))), np.append(marks, end)
    for _ in range(2):  # the second time without the bytes that are not delimiters
        lines = len(ends) // len(line)
        if len(ends) == lines * len(line) and (marks.reshape(lines, len(line)) == line).all():
            return ends.reshape(lines, len(line))
        delimiter = (marks == ord(",")) | (marks == ord("\r")) | (marks == ord("\n"))
        if delimiter.all() or not set(marks[~delimiter].tolist()).isdisjoint(_NOT_LOADTXT):
            break  # a blank, ragged or whitespace-only line, a lone CR, two kinds of line end, or a quote
        ends, marks = ends[delimiter], marks[delimiter]
    return None


def _loadtxt_read(data: bytes, kinds: _Kinds) -> Optional[tuple[list[str], list]]:
    """The header of the nonempty ASCII CSV text ``data`` and its columns,
    each read by its kind, as ``csv.reader`` reads them; None unless it
    holds no byte of _NOT_LOADTXT, has rows and two columns or more, each
    line after the header holds one field per column and ends as the
    header does, in LF or in CRLF (the last line may lack its LF), and
    each field reads.

    ``_line_bounds`` checks the lines a block at a time, and their
    delimiters give the width w of the widest field of each column not
    read as float.  np.loadtxt then reads the rows in C from a
    ``BytesIO`` of ``data``, past the header: a float column as float64,
    parsed by the function ``float()`` calls, a (float, k) kind as one
    ``("f8", (k,))`` field, and any other as ``S<w>``, w rounded up to 1,
    2, 4 or 8 when it is at most 8, so that its texts compare as ints
    (see ``_unique``).  np.loadtxt parses no int: an int column is read
    as ``_column`` reads it, each distinct text by ``_decimal``, and None
    unless every text is canonical decimal int64, so none is wider than
    the 20 bytes of "-9223372036854775808".  None, too, when the ``S``
    columns of the other kinds would take more bytes than the text.  A
    float column is a view of the table np.loadtxt fills."""
    start = data.find(b"\n") + 1  # the first byte of the first row
    head = data[: start - 1]
    crlf = head.endswith(b"\r")
    head = head.removesuffix(b"\r")
    if not start or b"\r" in head or not set(head).isdisjoint(_NOT_LOADTXT):
        return None
    header = head.decode("ascii").split(",") if head else []
    types = kinds(header)
    spans = _spans(types)
    if sum(spans) < 2:
        return None
    line = np.array([ord(",")] * (sum(spans) - 1) + [ord("\r")] * crlf + [ord("\n")], np.uint8)
    # The first column of each kind not read as float, by the kind's index.
    fixed = {k: j for k, (kind, j) in enumerate(zip(types, accumulate([0, *spans]))) if kind in (None, int, str)}
    widths, rows, at, chars = dict.fromkeys(fixed, 0), 0, start, np.frombuffer(data, np.uint8)
    while at < len(data):
        stop = data.find(b"\n", at + _SCAN_BYTES) + 1 or len(data)
        bounds = _line_bounds(chars[at:stop], line)
        if bounds is None:
            return None
        for k, j in fixed.items():
            width = bounds[:, j] - (bounds[:, j - 1] if j else np.concatenate(([-1], bounds[:-1, -1]))) - 1
            widths[k] = max(widths[k], int(width.max()))
        rows, at = rows + len(bounds), stop
    formats = {k: f"S{w if w > 8 else 1 << max(w - 1, 0).bit_length()}" for k, w in widths.items()}
    ints = [k for k in fixed if types[k] is int]
    row_bytes = sum(int(formats[k][1:]) for k in fixed if k not in ints)  # of the S columns kept as text
    if not rows or any(widths[k] > 20 for k in ints) or rows * row_bytes > len(data):
        return None
    dtype = [
        (f"c{k}", "f8", (span,)) if isinstance(kind, tuple) else (f"c{k}", formats.get(k, "f8"))
        for k, (kind, span) in enumerate(zip(types, spans))
    ]
    stream = io.BytesIO(data)
    stream.seek(start)
    try:
        table = np.loadtxt(stream, dtype, comments=None, delimiter=",", quotechar=None, ndmin=1, encoding="ascii")
    except ValueError:
        return None
    columns = [None if kind is None else table[name] for name, kind in zip(table.dtype.names, types)]
    for k in ints:
        texts, _, inverse = _unique(columns[k])
        try:  # fromiter refuses a None with TypeError, and an int past int64 with OverflowError
            columns[k] = np.fromiter(map(_decimal, map(bytes.decode, texts.tolist())), np.int64, len(texts))[inverse]
        except (TypeError, OverflowError):
            return None
    for k in (k for k, kind in enumerate(types) if kind is str):
        texts, codes = _codes(columns[k])
        columns[k] = [text.decode("ascii") for text in texts], codes
    return header, columns


def _read_csv(path: Path, kinds: _Kinds) -> tuple[list[str], list, Callable[[int], str], Optional[_Check], list]:
    """The header of a CSV file, which must not be empty, the columns of its
    nonblank rows, one per kind, ``where(k)``, the ``path:line`` of row k,
    the check that each row has as many fields as the header (None when
    all do) and one check per column that each of its fields reads (None
    when all do).

    ``kinds(header)`` checks the header and gives the kind of each column
    (see ``_Kinds``); ``_column`` reads a column of each kind.  An ASCII
    file that ``_loadtxt_read`` reads is read there; any other goes
    through ``csv.reader``, its errors naming the file, and a row with the
    wrong field count is read as that many empty fields, so it fails that
    check first."""
    data = path.read_bytes()
    if data and data.isascii():
        read = _loadtxt_read(data, kinds)
        if read is not None:
            header, columns = read
            return header, columns, lambda k: f"{path}:{k + 2}", None, [None] * len(header)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    limit = csv.field_size_limit(csv.field_size_limit() if any(c in text for c in _NOT_SPLIT) else sys.maxsize)
    try:
        records = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    finally:
        csv.field_size_limit(limit)
    if not records:
        raise DataFormatError(f"{path}: empty file")
    header, records, lines = records[0], records[1:], None
    types = kinds(header)
    if not all(records):
        lines = [line for line, record in enumerate(records, start=2) if record]
        records = list(filter(None, records))
    where = lambda k: f"{path}:{k + 2 if lines is None else lines[k]}"
    width, malformed = len(header), None
    bad = np.fromiter(map(len, records), np.intp, count=len(records)) != width
    if bad.any():
        records = [[""] * width if b else record for record, b in zip(records, bad.tolist())]
        malformed = (bad, lambda k: f"{where(k)}: malformed row, expected {width} fields")
    fields, spans = list(chain.from_iterable(records)), _spans(types)
    each = [float if isinstance(kind, tuple) else kind for kind, span in zip(types, spans) for _ in range(span)]
    read = [_column(fields[j::width], kind, where) for j, kind in enumerate(each)]
    columns = iter(column for column, _ in read)
    blocks = [np.column_stack(list(islice(columns, span))) if isinstance(kind, tuple) else next(columns)
              for kind, span in zip(types, spans)]
    return header, blocks, where, malformed, [check for _, check in read]


def _float_or_none(text: str) -> Optional[float]:
    try:
        return float(text)
    except ValueError:
        return None


def _column(texts: list[str], kind: Optional[type], where: Callable[[int], str]) -> tuple[Any, Optional[_Check]]:
    """``texts`` read as a column of ``kind`` (see ``_Kinds``), and for float
    and int the check that each reads: as a number, or for int as canonical
    decimal int64 (None when every one does).  A text that does not read
    is 0 in the array."""
    if kind is None or kind is str:
        return None if kind is None else _codes(np.array(texts, object)), None
    try:  # int texts are decoded once per distinct text; fromiter refuses a None with TypeError
        read = {text: _decimal(text) for text in set(texts)}.__getitem__ if kind is int else float
        return np.fromiter(map(read, texts), kind, count=len(texts)), None
    except (ValueError, OverflowError, TypeError):
        pass
    read = [_decimal(t) if kind is int else _float_or_none(t) for t in texts]
    bad = np.array([v is None or kind is int and not -(2**63) <= v < 2**63 for v in read])
    what = "integer" if kind is int else "numeric"
    message = lambda k: f"{where(k)}: bad {what} value {texts[k]!r}"
    return np.array([0 if b else v for v, b in zip(read, bad)], kind), (bad, message)


def _raise_first(checks: Sequence[Optional[_Check]]) -> None:
    """Raise the message of the first row that fails a check, for the first
    check it fails; a check that is None passes every row."""
    checks = [check for check in checks if check is not None]
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        k = int(bad.argmax())
        raise DataFormatError(next(message(k) for mask, message in checks if mask[k]))


_WRITE_ROWS = 1 << 14  # rows per write of a CSV file: bounds the text held at once


def _csv_texts(texts: Sequence[str]) -> Sequence[str]:
    """Texts as ``csv.writer`` writes them as fields: in quotes, each quote
    doubled, when they hold a comma, a quote, CR or LF; else as they are."""
    joined = "".join(texts)
    if not any(c in joined for c in ',"\r\n'):
        return texts
    return ['"' + t.replace('"', '""') + '"' if any(c in t for c in ',"\r\n') else t for t in texts]


def _write_csv(dest: Union[str, Path], header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a CSV file as ``csv.writer`` writes rows of two or more fields,
    ``_WRITE_ROWS`` rows per write; fields come as written (``_csv_texts``)."""
    rows = iter(rows)
    with Path(dest).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_csv_texts(header)))
        while block := list(islice(rows, _WRITE_ROWS)):
            fh.write("\r\n")
            fh.write("\r\n".join(map(",".join, block)))
        fh.write("\r\n")


def _read_dataset(source: Union[str, Path], labelled: bool) -> tuple[tuple[str, ...], np.ndarray, Optional[np.ndarray]]:
    """The columns of a dataset CSV: ids, the (rows x n) feature matrix and,
    if ``labelled``, the labels; the trailing class column is required then,
    else optional and ignored.  A non-finite feature value, and in a
    labelled file an empty id or a negative class, is rejected with its
    ``path:line``."""
    path = Path(source)

    def kinds(header: list[str]) -> list[_Kind]:
        has_class = header[-1:] == ["class"]
        if len(header) < 2 + has_class or header[0] != "id" or labelled and not has_class:
            raise DataFormatError(f"{path}: bad header {header!r}")
        n = _check_feature_header(header[1 : len(header) - has_class])
        return [str, (float, n)] + [int if labelled else None] * has_class

    header, ((names, codes), X, *labels), where, malformed, unread = _read_csv(path, kinds)
    n, labels = X.shape[1], labels[0] if labelled else None
    ids = tuple(map(names.__getitem__, codes.tolist()))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow or inf - inf is just not finite, unwarned
        total = X.sum()
    non_finite = None if math.isfinite(total) else (  # a sum is finite only when each term is
        ~np.isfinite(X).all(axis=1), lambda k: f"{where(k)}: non-finite value for {ids[k]!r}"
    )
    checks = [malformed, *unread[1 : n + 1], non_finite, *unread[n + 1 :]]
    if labelled:
        checks += [
            (codes == (names.index("") if "" in names else -1), lambda k: f"{where(k)}: object_id must be nonempty"),
            (labels < 0, lambda k: f"{where(k)}: negative class index {labels[k]}"),
        ]
    _raise_first(checks)
    return ids, X, labels


def load_learning_set(source: Union[str, Path], mode: str = "real") -> LearningSet:
    """Read a dataset CSV into a validated LearningSet."""
    return LearningSet(*_read_dataset(source, labelled=True), mode.lower())


def _reprs(column: np.ndarray) -> list[str]:
    """The ``repr`` of each value of a numeric column, as written to a CSV
    file: computed once per distinct bit pattern, so -0.0 stays -0.0."""
    bits, _, inverse = _unique(column.view(f"u{column.itemsize}"))
    return np.array(list(map(repr, bits.view(column.dtype).tolist())), dtype=object)[inverse].tolist()


def save_dataset(ids: Sequence[str], x: np.ndarray, labels: np.ndarray, dest: Union[str, Path]) -> None:
    """Write a dataset CSV, unvalidated: one row per id, its features a
    row of the (rows x n) matrix ``x`` and its class a label."""
    _write_csv(
        dest,
        ["id"] + [f"f{j}" for j in range(1, x.shape[1] + 1)] + ["class"],
        zip(_csv_texts(ids), *map(_reprs, x.T), _reprs(labels)),
    )


def save_learning_set(ls: LearningSet, dest: Union[str, Path]) -> None:
    """Write a dataset CSV that round-trips through load_learning_set."""
    save_dataset(ls.ids, ls.X, ls.labels, dest)


def _trace_table(
    object_ids: Sequence[str], obj: np.ndarray, step: np.ndarray, timestamp: np.ndarray, state: np.ndarray,
    label: np.ndarray, names: Sequence[str], action: np.ndarray, where: Optional[Callable[[int], str]] = None,
    unread: tuple = (None,), origin: str = "",
) -> TraceTable:
    """The checked table of trace rows given in input order.

    ``obj`` indexes ``object_ids``, in order of first appearance, and
    ``action`` indexes ``names``, where "" is no action; every name is
    used.  The rows are checked as if one at a time, and the first to fail
    a check raises: its fields must read (``unread``: a file's field
    count, step and numeric columns, then class column), its values be
    finite, step and timestamp nonnegative, an action given exactly when
    its class is deviated, its class nonnegative and its object id
    nonempty.  Then within each object steps must run 0, 1, ... and
    timestamps strictly increase; the first object to break this raises, a
    gap before a timestamp at the same step.  ``where(k)`` is the
    ``path:line`` of row k of a file, and ``origin`` names the file.
    """
    actions = tuple(sorted(set(names) - {""}))
    rank = {name: k for k, name in enumerate(actions)} | {"": -1}
    action = np.array([rank[name] for name in names], np.int64)[action]
    at = (lambda k: "") if where is None else (lambda k: f"{where(k)}: ")
    object_id = lambda k: repr(object_ids[obj[k]])
    normal, event = label == NORMAL_CLASS, lambda k: f"event ({object_id(k)}, step {step[k]})"
    *fields, class_field = unread
    finite = np.isfinite(timestamp)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow or inf - inf is just not finite, unwarned
        total = state.sum()
    if not math.isfinite(total):  # a sum is finite only when each term is
        finite &= np.isfinite(state).all(axis=1)
    _raise_first([
        *fields,
        (~finite, lambda k: f"{at(k)}non-finite value for {object_id(k)}"),
        class_field,
        (step < 0, lambda k: "step must be nonnegative"),
        (timestamp < 0, lambda k: "timestamp must be nonnegative"),
        (normal & (action >= 0), lambda k: f"action present on a normal-class {event(k)}"),
        (~normal & (action < 0), lambda k: f"missing action on deviated-class {event(k)}"),
        (label < 0, lambda k: f"{at(k)}negative class index {label[k]}"),
        (obj == (object_ids.index("") if "" in object_ids else -1), lambda k: f"{at(k)}object_id must be nonempty"),
    ])
    ahead, rise = np.diff(obj), np.diff(step)
    if (ahead < 0).any() or (rise[ahead == 0] < 0).any():  # not yet by object, then step
        order = np.lexsort((step, obj))
        obj, step, timestamp, state, label, action = (
            column[order] for column in (obj, step, timestamp, state, label, action)
        )
        ahead, rise = np.diff(obj), np.diff(step)
    same = ahead == 0  # row r + 1 is of row r's object
    k = lambda r: r - int(np.searchsorted(obj, obj[r]))  # the place of row r in its object
    gap = lambda r: f"{origin}gap in step numbering for {object_id(r)} (expected step {k(r)}, got {step[r]})"
    late = lambda r: f"{origin}non-increasing timestamp for {object_id(r)} at step {k(r)}"
    # The first row whose step is not its place is the first whose step is
    # neither 0 at its object's first row nor one more than the step before.
    steps = np.concatenate((step[:1] != 0, np.where(same, rise, step[1:] + 1) != 1))
    _raise_first([(steps, gap), (np.append(False, same & (timestamp[1:] <= timestamp[:-1]))[: len(obj)], late)])
    return TraceTable(tuple(object_ids), obj, step, timestamp, state, label, actions, action)


def load_trace_log(source: Union[str, Path]) -> TraceTable:
    """Read a trace log CSV into a TraceTable.

    The rows are checked first to last, a field that does not read and a
    non-finite timestamp or state value with its ``path:line``; then each
    object's steps must be consecutive from 0 and its timestamps strictly
    increasing.
    """
    path = Path(source)

    def kinds(header: list[str]) -> list[_Kind]:
        if len(header) < 6 or header[:3] != ["id", "step", "timestamp"] or header[-2:] != ["class", "action"]:
            raise DataFormatError(f"{path}: bad header {header!r}")
        return [str, int, float, (float, _check_feature_header(header[3:-2])), int, str]

    _, columns, where, malformed, unread = _read_csv(path, kinds)
    (object_ids, obj), step, timestamp, state, label, (names, action) = columns
    return _trace_table(
        object_ids, obj, step, timestamp, state, label, names, action, where, (malformed, *unread[1:-1]), f"{path}: ",
    )


def save_trace_log(traces: Traces, dest: Union[str, Path]) -> None:
    """Write a trace log CSV, objects in id order, that round-trips
    through load_trace_log; a table of no rows is written as its header."""
    table = TraceTable.from_events(traces)
    if not table.state.shape[1]:
        raise DataFormatError("cannot save a trace log with no feature columns")
    order, ids, names = table.id_order(), _csv_texts(table.object_ids), _csv_texts(table.actions + ("",))
    numbers = (table.step[order], table.timestamp[order], *table.state[order].T, table.label[order])
    _write_csv(
        dest,
        ["id", "step", "timestamp"] + [f"f{j}" for j in range(1, table.state.shape[1] + 1)] + ["class", "action"],
        zip(
            [ids[o] for o in table.obj[order].tolist()],
            *map(_reprs, numbers),
            [names[a] for a in table.action[order].tolist()],
        ),
    )
