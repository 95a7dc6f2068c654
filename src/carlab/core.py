"""Core data model: learning sets and trace logs, with their file readers.

File formats
------------
Dataset CSV      header ``id,f1,...,fn,class``; ``class`` is an integer
                 class index and 0 is the normal class.
Trace log CSV    header ``id,step,timestamp,f1,...,fn,class,action``; the
                 ``action`` field is empty exactly when ``class`` is 0.
                 It is read into a columnar ``TraceTable``.

Every CSV file is read by ``_read_csv`` and written by ``_write_csv``,
every JSON file by ``load_json`` and ``save_json``.  ``_read_csv`` returns
typed columns, as the reader of the format names their kinds.  An ASCII
file with no quote or NUL whose lines hold one field per column is read
in C by ``np.loadtxt`` (``_loadtxt_read``); a file it does not take, or
whose fields do not all read, goes through ``csv.reader``, the general
path, which finds the errors.  Columns are checked whole, and
``_raise_first`` reports the row a row-at-a-time reader would stop at.
``save_json`` writes the bytes of
``json.dumps(doc, sort_keys=True, indent=2)`` without ``json``'s
pure-Python indent encoder: every scalar and every container of scalars
(a leaf) is encoded by json's C encoder, whose item separator is the
newline and indent of its depth.  A list or dict of leaves of one kind
is one C call, and a table (a list or dict of more plain dicts than
they have keys, all with the same str keys, holding scalars and leaves)
is written column by column; only the brackets of the leaves and the
other containers that hold containers are written here, in the order
and with the key conversion of the indent encoder.  Values are not
changed after construction, a constructor checks what it stores and a
value read off stored fields is a read-only property; every function
here is pure.
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
from itertools import chain, compress, repeat
from operator import itemgetter
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
    """A labeled sample collection with n features, each finite (0 or 1 in
    boolean mode); labels run from 0 (the designated normal class) through
    ``deviated_count``, and every class share must be nonempty.
    """

    samples: tuple[LearningSample, ...]
    mode: str  # "real" | "boolean"

    def __post_init__(self) -> None:
        if self.mode not in ("real", "boolean"):
            raise DataFormatError(f"unknown mode {self.mode!r}")
        if not self.samples:
            raise DataFormatError("learning set has no samples")
        if not self.n:
            raise DataFormatError("feature count must be positive")
        for s in self.samples:
            if len(s.features) != self.n:
                raise DataFormatError(
                    f"inconsistent feature count for {s.object_id!r}: "
                    f"expected {self.n}, got {len(s.features)}"
                )
            if not all(math.isfinite(v) for v in s.features):
                raise DataFormatError(f"non-finite value for {s.object_id!r}")
            if self.mode == "boolean":
                for v in s.features:
                    if v not in (0.0, 1.0):
                        raise DataFormatError(f"non-Boolean value {v!r} for {s.object_id!r}")
        empty = set(range(self.deviated_count + 1)) - {s.label for s in self.samples}
        if empty:
            raise DataFormatError(f"empty class share {min(empty)}")

    @cached_property
    def n(self) -> int:
        return len(self.samples[0].features)

    @cached_property
    def deviated_count(self) -> int:
        return max(s.label for s in self.samples)

    @property
    def m(self) -> int:
        return len(self.samples)

    def class_share(self, index: int) -> tuple[LearningSample, ...]:
        return tuple(s for s in self.samples if s.label == index)

    @staticmethod
    def build(samples: Sequence[LearningSample], mode: str = "real") -> "LearningSet":
        """The LearningSet of ``samples``, with the mode in any case."""
        return LearningSet(samples=tuple(samples), mode=mode.lower())


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

    def __eq__(self, other: object) -> bool:
        """Tables are equal when their names and columns are equal."""
        if not isinstance(other, TraceTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in self.__dataclass_fields__)

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


def _count_rows(*columns: np.ndarray, weights: Optional[np.ndarray] = None) -> list[tuple]:
    """The distinct rows of int columns, ascending, each as (v1, ..., count):
    one int key per row, over the sorted distinct values of each column.
    With int ``weights``, a row's count is the sum of its rows' weights,
    added as Python ints."""
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


def load_json(source: Union[str, Path], parse: Callable[[Any], T]) -> T:
    """Build an object from the JSON document at ``source`` with ``parse``.

    Invalid JSON, the non-standard literals ``NaN``, ``Infinity`` and
    ``-Infinity``, a document nested too deep to read, a missing key, a
    value of the wrong type and a value the object rejects each raise one
    DataFormatError naming the file.
    """
    path = Path(source)
    try:
        return parse(json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant))
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing key {exc}") from None
    except RecursionError:
        raise DataFormatError(f"{path}: nested too deep") from None
    except (CarlabError, AttributeError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None


_CONTAINERS = (dict, list, tuple)


def _holds_container(boxes: Sequence, kinds: set) -> bool:
    """Whether a dict, list or tuple is inside one of ``boxes``, the exact
    dicts, lists and tuples of the types ``kinds``."""
    if kinds == {dict}:
        items = chain.from_iterable(map(dict.values, boxes))
    else:
        items = chain.from_iterable(box.values() if type(box) is dict else box for box in boxes)
    return any(map(issubclass, set(map(type, items)), repeat(_CONTAINERS)))


def _indented_json(doc: Any) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, made by json's C encoder.

    Two shapes of container are written in bulk, made only of plain
    dicts, lists and tuples.  A list or dict of leaf containers of one
    kind (dicts, or lists and tuples, with no container inside) is one C
    call.  A table, a list or dict of more dicts than they have keys, all
    with the same str keys and holding only scalars and leaf containers,
    is written column by column: one C call for a column's scalars, one
    for its leaf containers, and each row from one %-template (``%``
    escaped in the keys).  The C text of many leaves is cut between them
    without parsing: json escapes every newline inside a string, and a
    separator inside a leaf is followed by a scalar, so ``]`` or ``}``,
    the separator and ``[`` or ``{`` occur only between leaves.

    Any other container that holds containers is walked on an explicit
    stack, with no Python frame per level, so any depth ``json.loads``
    reads is written.  Items are visited, keys sorted and converted, and
    cycles refused in the pure-Python indent encoder's order, and a bulk
    shape that fails to encode is walked instead, so an unserialisable
    document raises the same exception type.
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
            return None  # a subclass of dict, list or tuple
        if not boxes:
            return scalars(cells)
        flags = list(map(isinstance, cells, repeat(_CONTAINERS)))
        boxed = list(compress(cells, flags))
        if _holds_container(boxed, boxes):
            return None
        if len(boxed) == len(cells):
            return leaves(cells, depth)
        texts = iter(scalars([c for c, flag in zip(cells, flags) if not flag])), iter(leaves(boxed, depth))
        return [next(texts[flag]) for flag in flags]

    def bulk(value: Any, kinds: set, depth: int) -> Optional[str]:
        """The text of ``value`` written at ``depth`` if it is a list or
        dict of leaf containers of one kind, or a table; None otherwise."""
        if kinds != {dict} and not kinds <= {list, tuple}:
            return None
        reach(depth + 3)
        inner = pads[depth + 1]
        is_dict = isinstance(value, dict)
        heads, cells = zip(*sorted(value.items())) if is_dict else ((), value)
        if not _holds_container(cells, kinds):
            items = leaves(cells, depth + 1)
        elif kinds != {dict}:
            return None
        else:
            names = cells[0].keys()
            if len(cells) <= len(names) or set(map(len, cells)) != {len(names)} or set(map(type, names)) != {str}:
                return None
            names = sorted(names)  # a row without one of them raises KeyError
            columns = []
            for k in names:
                columns.append(column(list(map(itemgetter(k), cells)), depth + 2))
                if columns[-1] is None:
                    return None
            cell = "," + pads[depth + 2]
            row = "{" + cell[1:] + cell.join(string(k).replace("%", "%%") + ": %s" for k in names)
            items = map((row + inner + "}").__mod__, zip(*columns))
        if is_dict:
            heads = map(string if set(map(type, heads)) == {str} else key, heads)
            items = map("%s: %s".__mod__, zip(heads, items))
        opener, closer = ("{", "}") if is_dict else ("[", "]")
        return opener + inner + ("," + inner).join(items) + pads[depth] + closer

    reach(1)
    scalar, containers = encoders[0], repeat(_CONTAINERS)
    out: list[str] = []
    opened: set[int] = set()  # ids of the containers being written, to refuse a cycle
    stack = [(iter([("", doc)]), 0, "", None)]  # (heads and values, depth, closer, id)
    while stack:
        items, depth, closer, mark = stack[-1]
        for head, value in items:
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
                text = bulk(value, kinds, depth)
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
    return "".join(out)


_WRITE_CHUNK = 1 << 16  # characters handed to the file at a time


def save_json(doc: Any, dest: Union[str, Path, None]) -> None:
    """Write ``doc`` as key-sorted, indented JSON with a trailing newline;
    to stdout when ``dest`` is None or empty.  The text is written in
    slices, so no second copy of it, encoded or with its newline, is made."""
    text = _indented_json(doc)
    with contextlib.nullcontext(sys.stdout) if not dest else open(dest, "w", encoding="utf-8") as out:
        for start in range(0, len(text), _WRITE_CHUNK):
            out.write(text[start : start + _WRITE_CHUNK])
        out.write("\n")


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

# A column's kind: float, int, str, or None for a column that is not read.
# A str column is read as its distinct texts, in order of first appearance,
# and the index of each row's text among them.
_Kinds = Callable[[list[str]], Sequence[Optional[type]]]

# A quote, which only csv.reader parses, and the line breaks of str.splitlines
# that are not line breaks to csv.reader: a file with none of them has no
# field size limit.
_NOT_SPLIT = '"\v\f\x1c\x1d\x1e\x85\u2028\u2029'

# The ASCII bytes that keep a file from np.loadtxt: those of _NOT_SPLIT, since
# csv.reader reads such a file under its field limit (and only it parses a
# quote), and NUL, which an ``S`` field drops at its end.
_NOT_LOADTXT = [b'"', b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e", b"\x00"]


def _codes(column: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct values of ``column`` in order of first appearance, and
    the index of each row's value among them."""
    values, first, inverse = np.unique(column, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return values[order].tolist(), rank[inverse]


def _loadtxt_read(data: bytes, kinds: _Kinds) -> Optional[tuple[list[str], list]]:
    """The header of the nonempty ASCII CSV text ``data``, which holds none
    of _NOT_LOADTXT, and the columns of its rows, each read by its kind,
    as ``csv.reader`` reads them; None unless it has rows and two columns
    or more (a blank line would pass for a row of one empty field), each
    line after the header holds one field per column and ends as the
    others do, in LF or in CRLF (the last line may lack its LF), and each
    field reads.

    np.loadtxt reads the rows in C: a float column as float64, parsed by
    the function ``float()`` calls, and any other as ``S<w>``, where w is
    the widest field of the column.  None, too, when those fixed-width
    columns would take more bytes than the text.  An int column is read
    as canonical decimal once per distinct text."""
    first, _, body = data.partition(b"\n")
    first = first.removesuffix(b"\r")
    if b"\r" in first:
        return None
    header = first.decode("ascii").split(",") if first else []
    types = kinds(header)
    if len(types) < 2 or not body.strip(b"\r\n"):
        return None
    body = body if body.endswith(b"\n") else body + b"\n"
    chars = np.frombuffer(body, np.uint8)
    ends = np.flatnonzero((chars == ord(",")) | (chars == ord("\r")) | (chars == ord("\n")))
    line = [ord(",")] * (len(types) - 1) + [ord("\r")] * body.endswith(b"\r\n") + [ord("\n")]
    rows = len(ends) // len(line)
    if len(ends) != rows * len(line) or (chars[ends].reshape(rows, len(line)) != line).any():
        return None  # a blank, ragged or whitespace-only line, a lone CR, or two kinds of line end
    widths = (np.diff(np.concatenate(([-1], ends))) - 1).reshape(rows, len(line)).max(axis=0).tolist()
    if rows * sum(w for w, kind in zip(widths, types) if kind is not float) > len(data):
        return None
    dtype = [(f"c{j}", "f8" if kind is float else f"S{max(w, 1)}") for j, (w, kind) in enumerate(zip(widths, types))]
    try:
        table = np.loadtxt(io.StringIO(body.decode("ascii")), dtype, comments=None, delimiter=",", quotechar=None,
                           ndmin=1)
    except ValueError:
        return None
    columns = []
    for name, kind in zip(table.dtype.names, types):
        if kind is float or kind is None:  # a copy, so no column keeps the table alive
            columns.append(None if kind is None else table[name].copy())
            continue
        texts, codes = _codes(table[name]) if kind is str else np.unique(table[name], return_inverse=True)
        texts = [text.decode("ascii") for text in texts]
        try:  # np.array refuses a None with TypeError and an int past int64 with OverflowError
            columns.append((texts, codes) if kind is str else np.array(list(map(_decimal, texts)), np.int64)[codes])
        except (TypeError, OverflowError):
            return None
    return header, columns


def _read_csv(path: Path, kinds: _Kinds) -> tuple[list[str], list, Callable[[int], str], Optional[_Check], list]:
    """The header of a CSV file, which must not be empty, the columns of its
    nonblank rows, ``where(k)``, the ``path:line`` of row k, the check that
    each row has as many fields as the header (None when all do) and one
    check per column that each of its fields reads (None when all do).

    ``kinds(header)`` checks the header and gives the kind of each column
    (see ``_Kinds``); ``_column`` reads a column of each kind.  An ASCII
    file that ``_loadtxt_read`` reads is read there; any other goes
    through ``csv.reader``, its errors naming the file, and a row with the
    wrong field count is read as that many empty fields, so it fails that
    check first."""
    data = path.read_bytes()
    if data and data.isascii() and not any(c in data for c in _NOT_LOADTXT):
        read = _loadtxt_read(data, kinds)
        if read is not None:
            header, columns = read
            return header, columns, lambda k: f"{path}:{k + 2}", None, [None] * len(columns)
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
    fields = list(chain.from_iterable(records))
    read = [_column(fields[j::width], kind, where) for j, kind in enumerate(types)]
    return header, [column for column, _ in read], where, malformed, [check for _, check in read]


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

    def kinds(header: list[str]) -> list[Optional[type]]:
        has_class = header[-1:] == ["class"]
        if len(header) < 2 + has_class or header[0] != "id" or labelled and not has_class:
            raise DataFormatError(f"{path}: bad header {header!r}")
        n = _check_feature_header(header[1 : len(header) - has_class])
        return [str] + [float] * n + [int if labelled else None] * has_class

    header, columns, where, malformed, unread = _read_csv(path, kinds)
    (names, codes), n = columns[0], len(header) - 1 - (header[-1] == "class")
    ids = [names[k] for k in codes.tolist()]
    x = np.column_stack(columns[1 : n + 1])
    non_finite = (~np.isfinite(x).all(axis=1), lambda k: f"{where(k)}: non-finite value for {ids[k]!r}")
    _raise_first([malformed, *unread[1 : n + 1], non_finite, *unread[n + 1 :]])
    labels = columns[-1].tolist() if labelled else [None] * len(ids)
    return list(zip(ids, map(tuple, x.tolist()), labels))


def load_learning_set(source: Union[str, Path], mode: str = "real") -> LearningSet:
    """Read a dataset CSV into a validated LearningSet."""
    rows = _read_dataset(source, labelled=True)
    return LearningSet.build([LearningSample(*row) for row in rows], mode=mode)


def load_vectors(source: Union[str, Path]) -> list[tuple[str, FeatureVector]]:
    """Read ``id,f1,...,fn[,class]`` rows; a trailing class column is ignored.

    Raises DataFormatError, naming ``path:line``, on a non-finite value.
    """
    return [row[:2] for row in _read_dataset(source, labelled=False)]


def _reprs(column: np.ndarray) -> list[str]:
    """The ``repr`` of each value of a numeric column, as written to a CSV
    file: computed once per distinct bit pattern, so -0.0 stays -0.0."""
    bits, inverse = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
    return np.array(list(map(repr, bits.view(column.dtype).tolist())), dtype=object)[inverse].tolist()


def save_dataset(ids: Sequence[str], x: np.ndarray, labels: np.ndarray, dest: Union[str, Path]) -> None:
    """Write a dataset CSV, unvalidated: one row per id, its features a
    row of the (rows x n) matrix ``x`` and its class a label."""
    _write_csv(
        dest,
        ["id"] + [f"f{j}" for j in range(1, x.shape[1] + 1)] + ["class"],
        zip(ids, *map(_reprs, x.T), _reprs(labels)),
    )


def save_learning_set(ls: LearningSet, dest: Union[str, Path]) -> None:
    """Write a dataset CSV that round-trips through load_learning_set."""
    samples = ls.samples
    x, labels = np.array([s.features for s in samples]), np.array([s.label for s in samples])
    save_dataset([s.object_id for s in samples], x, labels, dest)


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
    finite = np.isfinite(timestamp) & np.isfinite(state).all(axis=1)
    object_id = lambda k: repr(object_ids[obj[k]])
    normal, event = label == NORMAL_CLASS, lambda k: f"event ({object_id(k)}, step {step[k]})"
    *fields, class_field = unread
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
    ahead = np.diff(obj)
    if (ahead < 0).any() or (np.diff(step)[ahead == 0] < 0).any():  # not yet by object, then step
        order = np.lexsort((step, obj))
        obj, step, timestamp, state, label, action = (
            column[order] for column in (obj, step, timestamp, state, label, action)
        )
    k = np.arange(len(obj)) - np.searchsorted(obj, obj)  # position within the object
    gap = lambda r: f"{origin}gap in step numbering for {object_id(r)} (expected step {k[r]}, got {step[r]})"
    late = lambda r: f"{origin}non-increasing timestamp for {object_id(r)} at step {k[r]}"
    _raise_first([(step != k, gap), ((k > 0) & (timestamp <= np.roll(timestamp, 1)), late)])
    return TraceTable(tuple(object_ids), obj, step, timestamp, state, label, actions, action)


def load_trace_log(source: Union[str, Path]) -> TraceTable:
    """Read a trace log CSV into a TraceTable.

    The rows are checked first to last, a field that does not read and a
    non-finite timestamp or state value with its ``path:line``; then each
    object's steps must be consecutive from 0 and its timestamps strictly
    increasing.
    """
    path = Path(source)

    def kinds(header: list[str]) -> list[type]:
        if len(header) < 6 or header[:3] != ["id", "step", "timestamp"] or header[-2:] != ["class", "action"]:
            raise DataFormatError(f"{path}: bad header {header!r}")
        return [str, int] + [float] * (_check_feature_header(header[3:-2]) + 1) + [int, str]

    _, columns, where, malformed, unread = _read_csv(path, kinds)
    (object_ids, obj), step, timestamp, *state, label, (names, action) = columns
    return _trace_table(
        object_ids, obj, step, timestamp, np.column_stack(state), label, names, action, where,
        (malformed, *unread[1:-1]), f"{path}: ",
    )


def save_trace_log(traces: Traces, dest: Union[str, Path]) -> None:
    """Write a trace log CSV, objects in id order, that round-trips
    through load_trace_log."""
    table = TraceTable.from_events(traces)
    if not len(table):
        raise DataFormatError("cannot save an empty trace log")
    order, names = table.id_order(), table.actions + ("",)
    numbers = (table.step[order], table.timestamp[order], *table.state[order].T, table.label[order])
    _write_csv(
        dest,
        ["id", "step", "timestamp"] + [f"f{j}" for j in range(1, table.state.shape[1] + 1)] + ["class", "action"],
        zip(
            [table.object_ids[o] for o in table.obj[order].tolist()],
            *map(_reprs, numbers),
            [names[a] for a in table.action[order].tolist()],
        ),
    )
