"""Key columns coded through a table against the sort they replace.

``core._unique`` must return what ``np.unique(..., return_index=True,
return_inverse=True)`` returns, ``core._codes`` the distinct values in order
of first appearance, and ``core._count_rows`` the counts of a row-at-a-time
tally, whether a column fits a table or is sorted: int columns of every
width with spans just inside and just outside the table, int64 and uint64
extremes, and ``S1``/``S2`` byte columns, one-byte texts padded with NUL.
``_unique`` sorts a column that does not fit a table by its run heads, so
both are also checked on columns made of runs, as a trace log's id column is.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carlab.core import _TABLE_SPAN, _codes, _count_rows, _offsets, _unique

INT_TYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint64]


def _same_as_sort(column: np.ndarray) -> None:
    expected = np.unique(column, return_index=True, return_inverse=True)
    got = _unique(column)
    for want, have in zip(expected, got):
        assert have.dtype == want.dtype
        assert have.tolist() == want.tolist()


def _first_seen(column: np.ndarray) -> tuple[list, list]:
    """The distinct values of ``column`` in order of first appearance and
    each row's index among them, one row at a time."""
    seen: dict = {}
    codes = [seen.setdefault(v, len(seen)) for v in column.tolist()]
    return list(seen), codes


@st.composite
def int_columns(draw, spans=None):
    """An int column of a drawn width and length whose span is drawn near
    the table's limit for that length, placed anywhere in the type's range;
    ``spans`` fixes the span as a function of the length."""
    kind = np.dtype(draw(st.sampled_from(INT_TYPES)))
    info = np.iinfo(kind)
    rows = draw(st.integers(1, 40))
    limit = _TABLE_SPAN * rows
    span = spans(limit) if spans else draw(st.sampled_from([1, 2, limit - 1, limit, limit + 1, 3 * limit]))
    span = max(1, min(span, int(info.max) - int(info.min) + 1))
    low = draw(st.sampled_from([int(info.min), int(info.max) - span + 1, 0 if info.min == 0 else -span // 2]))
    low = draw(st.integers(int(info.min), int(info.max) - span + 1)) if draw(st.booleans()) else low
    offsets = draw(st.lists(st.integers(0, span - 1), min_size=rows, max_size=rows))
    if rows > 1:  # both ends present, so the span is exactly ``span``
        offsets[draw(st.integers(0, rows - 1))] = 0
        offsets[draw(st.integers(0, rows - 1))] = span - 1
    return np.array([low + o for o in offsets], kind)


# Texts of zero to two bytes, NUL and 0xff among them, so that padding,
# collisions and the ends of the byte order all occur.
BYTES = st.binary(max_size=2) | st.sampled_from([b"", b"\x00", b"a", b"a\x00", b"\x00a", b"\xff\xff", b"9", b"10"])


@st.composite
def byte_columns(draw):
    width = draw(st.sampled_from([1, 2, 3]))
    texts = draw(st.lists(BYTES.map(lambda b: b[:width]), max_size=40))
    return np.array(texts, f"S{width}")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(column=int_columns())
def test_int_columns_code_as_the_sort_does(column):
    _same_as_sort(column)
    values, codes = _first_seen(column)
    assert _codes(column)[0] == values
    assert _codes(column)[1].tolist() == codes
    assert _count_rows(column) == sorted(Counter(column.tolist()).items())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(column=byte_columns())
def test_byte_columns_code_as_the_sort_does(column):
    _same_as_sort(column)
    values, codes = _first_seen(column)
    assert _codes(column)[0] == values
    assert _codes(column)[1].tolist() == codes


@st.composite
def run_columns(draw):
    """A column of runs of one to four rows, as wide byte texts, objects or
    ints too far apart for a table: a value may come back after a gap, and
    runs of one row and texts equal but for NUL padding occur."""
    pool = draw(st.lists(st.binary(max_size=6) | st.sampled_from([b"o00001", b"o00001\x00", b"o1"]), min_size=1,
                         max_size=6))
    runs = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.sampled_from([1, 1, 2, 4])), max_size=25))
    texts = [pool[k] for k, length in runs for _ in range(length)]
    kind = draw(st.sampled_from(["S1", "S2", "S3", "S6", "object", "int64"]))
    if kind == "int64":
        return np.array([(k - 2) * 10**15 for k, length in runs for _ in range(length)], kind)
    if kind == "object":
        return np.array([text.decode("latin-1") for text in texts], object)
    return np.array([text[: int(kind[1:])] for text in texts], kind)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(column=run_columns())
def test_columns_of_runs_code_in_order_of_first_appearance(column):
    _same_as_sort(column)
    values, codes = _first_seen(column)
    got_values, got_codes = _codes(column)
    assert got_values == values
    assert got_codes.dtype == np.intp
    assert got_codes.tolist() == codes


@pytest.mark.parametrize(
    "texts",
    [
        ["b", "b", "a", "a", "a", "c"],  # grouped
        ["b", "a", "a", "b", "b", "c", "a"],  # runs that come back after a gap
        ["c", "a", "b", "a", "c", "b"],  # every run one row
        ["a"],
        [],
    ],
    ids=["grouped", "recurring", "one-row-runs", "one-row", "empty"],
)
def test_runs_of_wide_and_object_texts(texts):
    for column in (np.array([t * 3 for t in texts], "S3"), np.array(texts, object)):
        _same_as_sort(column)
        values, codes = _first_seen(column)
        assert _codes(column)[0] == values
        assert _codes(column)[1].tolist() == codes


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), extra=st.sampled_from([-1, 0, 1]))
def test_the_table_is_taken_up_to_its_limit(data, extra):
    """A span of _TABLE_SPAN cells per row fits the table and one cell
    more does not; each codes as the sort does."""
    column = data.draw(int_columns(spans=lambda limit: limit + extra))
    span = int(column.max()) - int(column.min()) + 1
    assert (_offsets(column) is not None) == (span <= _TABLE_SPAN * len(column))
    _same_as_sort(column)


def test_a_column_at_the_limit_fits_and_one_cell_more_does_not():
    fits = np.array([0, _TABLE_SPAN * 3 - 1, 5])
    assert _offsets(fits) is not None
    assert _offsets(fits + np.array([0, 1, 0])) is None
    _same_as_sort(fits)
    _same_as_sort(fits + np.array([0, 1, 0]))


@pytest.mark.parametrize(
    "values, kind",
    [
        ([-(2**63), -(2**63) + 3, -(2**63), -(2**63) + 1], np.int64),
        ([2**63 - 1, 2**63 - 4, 2**63 - 2, 2**63 - 1], np.int64),
        ([-(2**63), 2**63 - 1, 0], np.int64),
        ([2**64 - 1, 2**64 - 3, 2**63, 2**64 - 1], np.uint64),
        ([2**64 - 1, 2**64 - 2, 2**64 - 3], np.uint64),
        ([-128, 127, 0, -128], np.int8),
        ([255, 0, 255], np.uint8),
        ([], np.int64),
        ([7], np.int64),
        ([-5], np.int8),
    ],
    ids=["int64-min", "int64-max", "int64-both-ends", "uint64-high", "uint64-top", "int8-full", "uint8-full",
         "empty", "one-row", "one-negative-row"],
)
def test_extreme_and_short_int_columns(values, kind):
    column = np.array(values, kind)
    _same_as_sort(column)
    assert _codes(column)[0] == _first_seen(column)[0]
    assert _count_rows(column) == sorted(Counter(column.tolist()).items())
    assert _count_rows(column, column) == [(v, v, c) for v, c in sorted(Counter(column.tolist()).items())]


@pytest.mark.parametrize(
    "texts, width",
    [
        ([b"a", b"ab", b"a", b"", b"b"], 2),  # b"a" is stored as a\x00
        ([b"\x00a", b"a", b"", b"\xff\xff", b"a\xff"], 2),
        ([b"1", b"10", b"9", b"1", b"0"], 2),  # byte order, not number order
        ([b"x", b"", b"\xff", b"x"], 1),
        ([], 2),
        ([b"a"], 1),
    ],
    ids=["padded", "nul-and-ff", "digits", "s1", "empty", "one-row"],
)
def test_short_byte_columns(texts, width):
    column = np.array(texts, f"S{width}")
    _same_as_sort(column)
    assert _codes(column)[0] == _first_seen(column)[0]


def test_a_field_of_a_record_array_codes_as_the_sort_does():
    """The C reader hands over its fields as strided views."""
    table = np.array([(b"7", 1.5, b"a2"), (b"12", 0.5, b""), (b"7", 2.5, b"a1")], [("c", "S2"), ("x", "f8"), ("a", "S2")])
    for name in ("c", "a"):
        _same_as_sort(table[name])


def test_long_columns_code_as_the_sort_does():
    rng = np.random.default_rng(20)
    steps = rng.integers(0, 61, 40_000)
    _same_as_sort(np.array([str(s).encode() for s in steps.tolist()], "S2"))
    _same_as_sort(steps)
    _same_as_sort(rng.integers(0, 10**9, 40_000))  # a sparse column takes the sort
    labels, actions = rng.integers(0, 30, 40_000), rng.integers(-1, 3, 40_000)
    rows = list(zip(labels.tolist(), actions.tolist(), np.roll(labels, 1).tolist()))
    assert _count_rows(labels, actions, np.roll(labels, 1)) == [(*k, c) for k, c in sorted(Counter(rows).items())]


@st.composite
def count_columns(draw):
    rows = draw(st.integers(0, 60))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        span = draw(st.sampled_from([1, 3, 30, 2**40]))
        low = draw(st.sampled_from([0, -7, -(2**63), 2**63 - span]))
        columns.append(np.array(draw(st.lists(st.integers(low, low + span - 1), min_size=rows, max_size=rows)),
                                np.int64))
    return columns


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(columns=count_columns(), weighted=st.booleans())
def test_row_counts_match_a_tally(columns, weighted):
    weights = np.arange(1, len(columns[0]) + 1, dtype=np.int64) * 2**40 if weighted else None
    tally: Counter = Counter()
    for k, row in enumerate(zip(*(c.tolist() for c in columns))):
        tally[row] += 1 if weights is None else int(weights[k])
    got = _count_rows(*columns, weights=weights)
    assert got == [(*row, count) for row, count in sorted(tally.items())]
    assert all(type(v) is int for row in got for v in row)


def test_the_joint_key_table_holds_only_small_keys():
    """Columns that each fit a table but whose joint key does not are
    counted by the sort."""
    rows = 8
    columns = [np.arange(rows) * _TABLE_SPAN for _ in range(3)]
    assert all(_offsets(c) is not None for c in columns)
    assert _count_rows(*columns) == [(k * _TABLE_SPAN,) * 3 + (1,) for k in range(rows)]
    assert math.prod(_offsets(c)[2] for c in columns) > _TABLE_SPAN * rows
