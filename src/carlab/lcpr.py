"""Box-rule mining and similarity voting.

A logical dependency (LD) is an axis-aligned box predicate

    P(x) = AND_{j in w1} (lower_j <= x_j)  AND_{j in w2} (x_j <= upper_j)

attached to one class.  An LD is admissible when it covers at least one
training point of its own class and at most ``budget`` points of
the other classes (zero by default).  Mining grows, from every own-class
seed, the admissible box that is maximal on the finite grid of training
feature values: no single bound can be moved to the adjacent grid value,
or removed, without covering counter-class points beyond the budget.
All seeds are grown together by one kernel that reproduces the greedy
walk of ``grow_maximal_ld`` exactly: each counter point can block only
the box side of the last feature where it differs from the seed, so
each side scans, over one sort of the points, just the counter points
that can block it, nearest first, and finds where the walk stops by one
search on the feature's grid instead of stepping through it.  An LD set
is its bound matrices: one row per box, -inf / +inf on an open side, rows
grouped by class; mined boxes go straight into them, ordered by one sort.

Classification scores an object per class as the fraction of that class's
LDs covering it, then takes the argmax; ties and all-zero score vectors
are reported as indeterminate rather than broken silently.  Voting reads
the bound matrices with no compile step: rows are tested against every
box in chunks of bounded size, and the argmax and ties compare integer
cover counts, never float scores.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .core import (
    CarlabError, LearningSample, LearningSet, _parse_index, _parse_key, _parse_number, load_json,
    save_json,
)


class UnseparableSeedError(CarlabError):
    """A seed point coincides with counter-class points beyond the budget."""


@dataclass(frozen=True)
class LogicalDependency:
    """Axis-aligned box predicate for one class.

    ``lower`` and ``upper`` map 1-based feature indices to closed bound
    values; features absent from a mapping are unbounded on that side.
    """

    class_index: int
    lower: dict[int, float]
    upper: dict[int, float]

    def __post_init__(self) -> None:
        _check_box(self.lower, self.upper)

    def key(self) -> tuple:
        """Canonical sort/dedup key."""
        return (
            self.class_index,
            tuple(sorted(self.lower.items())),
            tuple(sorted(self.upper.items())),
        )


def _check_box(lower: dict[int, float], upper: dict[int, float], n: Optional[int] = None) -> None:
    """Refuse a feature index below 1, or above ``n`` when given, a NaN bound and an empty box."""
    for bounds in (lower, upper):
        for j, v in bounds.items():
            if j < 1:
                raise CarlabError(f"feature index {j} out of range")
            if n is not None and j > n:
                raise CarlabError(f"feature index {j} out of range for n={n}")
            if math.isnan(v):
                raise CarlabError(f"NaN bound on feature {j}")
    for j, lo in lower.items():
        hi = upper.get(j)
        if hi is not None and lo > hi:
            raise CarlabError(f"empty box on feature {j}: [{lo}, {hi}]")


def _matrices(boxes: Sequence[tuple[dict[int, float], dict[int, float]]]) -> np.ndarray:
    """The lower and upper bound matrices of (lower, upper) bound dicts, one
    row per box, as wide as the largest feature index named."""
    width = max((j for box in boxes for side in box for j in side), default=0)
    try:
        matrices = np.full((2, len(boxes), width), np.inf)
    except (MemoryError, ValueError):  # ValueError: a size numpy cannot address
        raise CarlabError(f"feature index {width} out of range: no memory for bound matrices that wide") from None
    matrices[0] = -np.inf
    for matrix, sides in zip(matrices, zip(*boxes)):
        rows = [k for k, side in enumerate(sides) for _ in side]
        matrix[rows, [j - 1 for side in sides for j in side]] = [v for side in sides for v in side.values()]
    return matrices


@dataclass(frozen=True, eq=False, init=False)
class LDSet:
    """Per-class logical dependencies as the rows of one bound matrix pair.

    Row k of ``lower`` / ``upper`` (read-only, column-major) is one box,
    column j - 1 its bounds on feature j; class ``class_ids[c]`` owns the
    next ``sizes[c]`` rows.  ``LDSet(by_class=...)`` keeps the given order.
    Two sets are equal when ``by_class`` and ``warnings`` are."""

    class_ids: tuple[int, ...]
    sizes: tuple[int, ...]
    lower: np.ndarray
    upper: np.ndarray
    warnings: tuple[str, ...]

    def __new__(cls, by_class: Mapping[int, Iterable[LogicalDependency]], warnings: Iterable[str] = ()) -> LDSet:
        members = {i: tuple(by_class[i]) for i in sorted(by_class)}
        codes = np.repeat(np.arange(len(members)), [len(m) for m in members.values()])
        boxes = [(ld.lower, ld.upper) for m in members.values() for ld in m]
        return _ldset(tuple(members), codes, *_matrices(boxes), warnings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LDSet):
            return NotImplemented
        return self.by_class == other.by_class and self.warnings == other.warnings

    def __reduce__(self) -> tuple:
        codes = np.repeat(np.arange(len(self.sizes)), self.sizes)
        return _ldset, (self.class_ids, codes, self.lower, self.upper, self.warnings)

    @cached_property
    def by_class(self) -> Mapping[int, tuple[LogicalDependency, ...]]:
        """Each class's boxes as LogicalDependency rows, in row order."""
        rows = (LogicalDependency(*row) for row in _bounded_sides(self, range(1, self.lower.shape[1] + 1)))
        return MappingProxyType({i: tuple(islice(rows, n)) for i, n in zip(self.class_ids, self.sizes)})

    def all_lds(self) -> Iterable[LogicalDependency]:
        return chain.from_iterable(self.by_class.values())


def _ldset(class_ids, codes, lower, upper, warnings=()) -> LDSet:
    """The LDSet of the boxes ``lower`` / ``upper`` of classes
    ``class_ids[codes]``, the codes ascending."""
    if min(class_ids, default=0) < 0:
        raise CarlabError(f"negative class index {min(class_ids)}")
    ldset = object.__new__(LDSet)
    lower, upper = np.asfortranarray(lower), np.asfortranarray(upper)
    lower.flags.writeable = upper.flags.writeable = False
    sizes = tuple(np.bincount(codes, minlength=len(class_ids)).tolist())
    vars(ldset).update(class_ids=tuple(class_ids), sizes=sizes, lower=lower, upper=upper, warnings=tuple(warnings))
    return ldset


def _by_key(codes, lower, upper, unique=False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows sorted by class, then stably by ``LogicalDependency.key``,
    and with ``unique`` only the first of equal boxes.  The key compares
    each side's (feature, bound) items, open sides left out, so a feature
    side sorts by (tag, value): tag 1 and the bound if bounded; if open,
    tag 0 (the items end first) when no later feature of the side is
    bounded, else tag 2 (the next item names a later feature).  A feature
    side no row bounds is not keyed: its tags are 0 or 2, and the next
    side some row bounds orders the rows the same way."""
    keys = [codes]
    for bounds, bounded in ((lower, lower > -np.inf), (upper, upper < np.inf)):
        later = np.cumsum(bounded[:, ::-1], axis=1)[:, ::-1] > bounded
        tags, values = np.where(bounded, 1, np.where(later, 2, 0)), np.where(bounded, bounds, 0.0)
        for j in np.flatnonzero(bounded.any(axis=0)).tolist():
            keys += [tags[:, j], values[:, j]]
    order = np.lexsort(keys[::-1])
    if unique and len(order):
        boxes = np.column_stack([codes, lower, upper])[order]
        order = order[np.concatenate(([True], (boxes[1:] != boxes[:-1]).any(axis=1)))]
    return codes[order], lower[order], upper[order]


def _bounded_sides(lds: LDSet, names: Sequence) -> Iterator[tuple[int, dict, dict]]:
    """Each row's class and bounded sides, as {names[j - 1]: bound} dicts."""
    rows = zip(np.repeat(lds.class_ids, lds.sizes).tolist(), lds.lower.tolist(), lds.upper.tolist())
    for index, lower, upper in rows:
        lower = {j: v for j, v in zip(names, lower) if v != -math.inf}
        yield index, lower, {j: v for j, v in zip(names, upper) if v != math.inf}


@dataclass(frozen=True)
class Admissibility:
    admissible: bool
    own_covered: int
    counter_covered: int


@dataclass(frozen=True)
class ClassifyOutcome:
    """Result of similarity voting: a class, or an explained abstention."""

    label: Optional[int]
    reason: Optional[str]  # None | "tied" | "all-zero"
    scores: dict[int, float]


def eval_ld(ld: LogicalDependency, x: Sequence[float]) -> int:
    """Evaluate the box predicate on one vector: 1 if covered, else 0."""
    for j, lo in ld.lower.items():
        if j > len(x):
            raise CarlabError(f"feature index {j} out of range for n={len(x)}")
        if x[j - 1] < lo:
            return 0
    for j, hi in ld.upper.items():
        if j > len(x):
            raise CarlabError(f"feature index {j} out of range for n={len(x)}")
        if x[j - 1] > hi:
            return 0
    return 1


def is_admissible(
    ld: LogicalDependency, learning_set: LearningSet, budget: int = 0
) -> Admissibility:
    """Check the coverage/exclusion conditions against a learning set."""
    covered = np.array([eval_ld(ld, x) for x in learning_set.X.tolist()], bool)
    own = int(np.count_nonzero(covered & (learning_set.labels == ld.class_index)))
    counter = int(np.count_nonzero(covered)) - own
    return Admissibility(admissible=own >= 1 and counter <= budget, own_covered=own, counter_covered=counter)


# Cells per kernel chunk, row-by-LD when voting and seed-by-candidate when
# mining: bounds the kernels' scratch memory.
_CHUNK_CELLS = 1 << 16


def _grids(X: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per feature, the sorted distinct training values for the lower-bound
    walk and their negation for the upper-bound walk, each padded with
    +inf so that "the next grid value" always exists."""
    return [(np.append(grid, np.inf), np.append(-grid[::-1], np.inf)) for grid in map(np.unique, X.T)]


def _grow_boxes(X: np.ndarray, labels: np.ndarray, seeds, grids: list[tuple[np.ndarray, np.ndarray]], budget: int):
    """Run the greedy walk of ``grow_maximal_ld`` from the rows ``seeds``
    of X in lockstep, each against the rows of X labelled otherwise.

    Returns the seeds' lower and upper bound arrays (-inf / +inf where a
    bound was dropped) and, per seed, the number of counter points
    coinciding with it; a seed whose count exceeds the budget is
    unseparable and its bounds are meaningless.  A budget that is a bool,
    not an integer or negative raises.

    A counter point can block only the side of the last feature j where
    it differs from the seed: until then the point box after j excludes
    it, and after it the point stays where that side left it.  So side j
    is blocked by the counter points equal to the seed after j, beyond it
    on j and inside the box before j.  Sorted by reversed coordinates,
    those equal after j are one run, split by the seed's value on j, and
    each side scans its part outward from the seed (``_scan``).
    """
    if isinstance(budget, (bool, np.bool_)) or not hasattr(type(budget), "__index__") or budget < 0:
        raise CarlabError(f"violation_budget must be >= 0 and an integer, got {budget!r}")
    budget = min(operator.index(budget), len(X))
    # The returned arrays are made before the scratch arrays, so that they
    # do not sit above them on the heap.
    lower, upper, coincident = X[seeds].copy(), X[seeds].copy(), np.empty(len(seeds), np.intp)
    order = np.lexsort(X.T)
    codes, at = np.unique(labels[order], return_inverse=True)[1], np.argsort(order)[seeds]
    # Each class scans only its counter rows: ``counter`` holds them in
    # sorted order, one block per class, and ``place[c * m + q]`` is the
    # position in class c's block of the first of them at or after row q.
    classes, own = np.unique(codes[at], return_inverse=True)
    other = codes != classes[:, None]
    counter, place = order[np.nonzero(other)[1]], np.concatenate(([0], np.cumsum(other)))
    # Column i: a sorted row differs from the one before on a feature i or later.
    changes = np.zeros((len(X) - 1, X.shape[1] + 1), bool)
    for j in reversed(range(X.shape[1])):
        column = X[order, j]
        changes[:, j] = (column[1:] != column[:-1]) | changes[:, j + 1]

    def run(i: int) -> list[np.ndarray]:
        """Each seed's run of rows not differing in column i, in its block."""
        key = np.concatenate(([0], np.cumsum(changes[:, i])))
        sizes = np.bincount(key)
        end = np.cumsum(sizes)
        return [place[own * len(X) + bound[key[at]]] for bound in (end - sizes, end)]

    runs = map(run, range(X.shape[1] + 1))  # made as the walk needs them
    here_lo, here_hi = next(runs)
    np.subtract(here_hi, here_lo, out=coincident)
    # Unseparable seeds get zero slack so the walk stays defined.
    slack = np.maximum(budget - coincident, 0)
    for j, ((grid, neg_grid), (after_lo, after_hi)) in enumerate(zip(grids, runs)):
        # The upper bound is walked as a lower bound of the negated feature.
        for bounds, sign, walk, first, step, count in (
            (lower, 1, grid, here_lo - 1, -1, here_lo - after_lo),
            (upper, -1, neg_grid, here_hi, 1, after_hi - here_hi),
        ):
            stop, beyond = _scan(X, counter, lower, upper, j, sign, first, step, count, slack, budget)
            # The walk ends on the grid value just past ``stop``, or stays
            # put when that value is not beyond the bound (an off-grid seed).
            bound = sign * bounds[:, j]
            nearest = walk[np.searchsorted(walk, stop, side="right")]
            new = np.where(nearest < bound, nearest, bound)
            new[stop == -np.inf] = -np.inf
            bounds[:, j] = sign * new
            slack -= beyond
        here_lo, here_hi = after_lo, after_hi
    return lower, upper, coincident


def _scan(X, counter, lower, upper, j, sign, first, step, count, slack, budget):
    """Per seed s, over the rows ``counter[first[s] + step * i]``, i below
    ``count[s]``, that lie inside the box ``lower`` / ``upper`` before
    feature j: the (slack+1)-th largest ``sign * X[q, j]``, -inf when at
    most slack rows are there, and how many lie strictly beyond it.  The
    rows come largest first; the seeds scan them in lockstep blocks,
    doubled each round up to about ``_CHUNK_CELLS`` cells, and a seed
    leaves once its stop is found or its rows end."""
    tests = [k for k in range(j) if (lower[:, k] > -np.inf).any() or (upper[:, k] < np.inf).any()]
    stop, beyond = np.full(len(first), -np.inf), np.zeros(len(first), np.intp)
    active, offset, width = np.flatnonzero(count), 0, 1
    # Per active seed: the rows found inside, and with a budget, those found
    # before the run of equal values the last block ended in, and its value.
    (found, before_run), last = np.zeros((2, len(active)), np.intp), np.full(len(active), np.nan)
    while len(active):
        block = min(width, max(1, _CHUNK_CELLS // len(active)))
        offsets = offset + np.arange(block)
        inside = offsets < count[active, None]
        rows = counter[first[active, None] + step * np.minimum(offsets, count[active, None] - 1)]
        for k in tests:
            values = X[:, k][rows]
            inside &= (values >= lower[active, k, None]) & (values <= upper[active, k, None])
        rank = found[:, None] + np.cumsum(inside, axis=1)
        seeds, at = np.nonzero(inside & (rank == slack[active, None] + 1))
        stop[active[seeds]] = sign * X[:, j][rows[seeds, at]]
        if budget:
            values = X[:, j][rows]
            edge = values != np.column_stack([last, values[:, :-1]])
            run = np.maximum.accumulate(np.where(edge, np.arange(block), -1), axis=1)
            prior = np.take_along_axis(rank - inside, np.maximum(run, 0), axis=1)
            prior = np.where(run < 0, before_run[:, None], prior)
            beyond[active[seeds]] = prior[seeds, at]
            before_run, last = prior[:, -1], values[:, -1]
        short, more = rank[:, -1] <= slack[active], offset + block < count[active]
        beyond[active[short & ~more]] = rank[short & ~more, -1]
        going = short & more
        active, found, before_run, last = active[going], rank[going, -1], before_run[going], last[going]
        offset, width = offset + block, 2 * block
    return stop, beyond


def _unseparable(object_id: str, coincident: int) -> str:
    return (
        f"unseparable seed {object_id!r}: coincides with "
        f"{coincident} counter-class point(s)"
    )


def grow_maximal_ld(seed: LearningSample, learning_set: LearningSet, budget: int = 0) -> LogicalDependency:
    """Grow the maximal admissible box around one seed.

    Starts from the point box at the seed and relaxes bounds greedily:
    features in ascending index, lower bound before upper bound, one
    training-grid value at a time, dropping a bound once it passes the
    grid extreme.  A step is kept while total counter-class coverage
    stays within the budget.  Relaxation only enlarges the box, so a
    blocked step stays blocked and a single sweep yields a box on which
    no single-bound relaxation is admissible.
    """
    X, y = learning_set.X, learning_set.labels
    point = np.array([seed.features], dtype=float)
    if point.shape[1] != X.shape[1]:
        raise CarlabError(
            f"seed {seed.object_id!r} has {point.shape[1]} features, expected {X.shape[1]}"
        )
    if np.isnan(point).any():
        raise CarlabError(f"seed {seed.object_id!r} has a NaN feature")
    grids, X, y = _grids(X), np.vstack([X, point]), np.append(y, seed.label)
    lower, upper, coincident = _grow_boxes(X, y, [len(X) - 1], grids, budget)
    if coincident[0] > budget:
        raise UnseparableSeedError(_unseparable(seed.object_id, int(coincident[0])))
    return next(_ldset((seed.label,), np.zeros(1, np.intp), lower, upper).all_lds())


def mine_lds(learning_set: LearningSet, budget: int = 0) -> LDSet:
    """Mine maximal admissible LDs from every seed of every class.

    Each seed's box is the one ``grow_maximal_ld`` grows; every seed is
    grown in one lockstep walk over one sort of the set (``_grow_boxes``).
    Unseparable seeds become warnings, not failures; duplicate boxes are
    removed, the first seed's kept, and each class's boxes are sorted
    canonically (see ``_by_key``).
    """
    X, y = learning_set.X, learning_set.labels
    lower, upper, coincident = _grow_boxes(X, y, np.arange(len(X)), _grids(X), budget)
    keep = coincident <= budget
    warnings = [_unseparable(learning_set.ids[k], coincident[k]) for k in np.flatnonzero(~keep).tolist()]
    # As wide as the largest feature bounded, which is all the vote checks a row for.
    width = max(np.flatnonzero(((lower > -np.inf) | (upper < np.inf))[keep].any(axis=0)) + 1, default=0)
    boxes = _by_key(y[keep], lower[keep, :width], upper[keep, :width], unique=True)
    return _ldset(range(learning_set.deviated_count + 1), *boxes, warnings)


def similarity(x: Sequence[float], lds: LDSet, class_index: int) -> float:
    """Fraction of the class's LDs covering x; 0 when the class has none."""
    return classify(x, lds).scores.get(class_index, 0.0)


_REASONS = (None, "tied", "all-zero")
_TIED, _ALL_ZERO = 1, 2


@dataclass(frozen=True, eq=False)
class VoteBatch:
    """Similarity votes for a batch of rows.

    ``counts[r, c]`` is the number of class ``classes[c]``'s ``sizes[c]``
    LDs covering row r; ``labels[r]`` (int64) is row r's class, -1 where
    it abstains, and ``reasons[r]`` (int8) its index into ``_REASONS``.
    """

    classes: tuple[int, ...]
    sizes: tuple[int, ...]
    counts: np.ndarray
    labels: np.ndarray
    reasons: np.ndarray

    def scores(self, rows=slice(None)) -> np.ndarray:
        """The per-class scores ``count / size`` of ``rows``, 0.0 for an
        empty class.  float64 division rounds as Python's ``k / size``
        does, since counts and sizes are exact in float64."""
        return self.counts[rows] / np.maximum(np.array(self.sizes, dtype=np.int64), 1)

    def outcome(self, row: int) -> ClassifyOutcome:
        """One row's verdict with its per-class scores."""
        label, scores = self.labels[row].item(), dict(zip(self.classes, self.scores(row).tolist()))
        return ClassifyOutcome(None if label < 0 else label, _REASONS[self.reasons[row]], scores)


def label_codes(labels: Union[np.ndarray, Sequence[Optional[int]]]) -> np.ndarray:
    """Labels as int64 codes, -1 for an abstention (None in a list).  A
    code below -1, or a negative label in a list, raises rather than be
    read as an abstention; the smallest one is named."""
    if isinstance(labels, np.ndarray):
        codes = labels.astype(np.int64, copy=False)
        wrong = codes.min(initial=-1) < -1
    else:
        codes = np.array([-1 if c is None else c for c in labels], dtype=np.int64)
        wrong = np.count_nonzero(codes < 0) > labels.count(None)
    if wrong:
        raise CarlabError(f"negative class index {codes.min()}")
    return codes


def vote(classes: tuple[int, ...], sizes: tuple[int, ...], counts: np.ndarray) -> VoteBatch:
    """Votes of rows whose cover counts are ``counts[r, c]`` of ``sizes[c]``
    for class ``classes[c]``.  Class c scores above class b exactly when
    ``count_c * size_b > count_b * size_c``: integers, no rounding.  The
    first class no other scores above wins, unless one scores level with
    it (tied) or its count is 0 (all-zero)."""
    rows = np.arange(len(counts))
    best = np.zeros(len(counts), dtype=np.intp)
    if not classes:
        reason = np.full(len(counts), _ALL_ZERO)
    else:
        # An empty class scores 0 whatever it is compared with; size 1
        # keeps its cross-multiplied comparisons exact.
        size = np.maximum(np.array(sizes, dtype=np.int64), 1)
        above = lambda count_a, size_a, count_b, size_b: count_a * size_b > count_b * size_a
        for c in range(1, len(classes)):
            best[above(counts[:, c], size[c], counts[rows, best], size[best])] = c
        top = counts[rows, best]
        tied = np.count_nonzero(~above(top[:, None], size[best, None], counts, size), axis=1) > 1
        reason = np.where(top == 0, _ALL_ZERO, np.where(tied, _TIED, 0))
    # Index -1 of the class ids with -1 appended is the abstention code.
    labels = np.array((*classes, -1), dtype=np.int64)[np.where(reason, -1, best)]
    return VoteBatch(classes, sizes, counts, labels, reason.astype(np.int8))


def _cover_counts(lds: LDSet, X: np.ndarray) -> np.ndarray:
    """Per-class cover counts of each row of X, shape (rows, classes): one
    comparison per bounded feature side, then one sum per class."""
    inside = np.ones((len(X), len(lds.lower)), dtype=bool)
    scratch = np.empty_like(inside)
    for bounds, compare, open_side in ((lds.lower, np.greater_equal, -np.inf), (lds.upper, np.less_equal, np.inf)):
        for j in np.flatnonzero((bounds != open_side).any(axis=0)).tolist():
            compare(X[:, j, None], bounds[:, j], out=scratch)
            inside &= scratch
    counts = np.zeros((len(X), len(lds.sizes)), dtype=np.int64)
    filled = np.flatnonzero(lds.sizes)  # reduceat would give an empty class the column at its start
    if len(filled):
        counts[:, filled] = np.add.reduceat(inside, (np.cumsum(lds.sizes) - lds.sizes)[filled], axis=1)
    return counts


def classify_batch(X, lds: LDSet) -> VoteBatch:
    """Vote every row of X by per-class similarity, as ``classify`` does.

    X is a (rows x n) array or a sequence of rows: rows are converted and
    tested one fixed-size chunk at a time, so the scratch memory stays
    bounded whatever the number of rows.  Raises CarlabError on a
    non-finite row or an LD bounding a feature beyond n.
    """
    total, width = len(X), lds.lower.shape[1]
    step = max(1, _CHUNK_CELLS // max(1, len(lds.lower)))
    counts = np.zeros((total, len(lds.class_ids)), dtype=np.int64)
    for a in range(0, total, step):
        block = np.asarray(X[a : a + step], dtype=float)
        if block.ndim != 2:
            raise CarlabError("rows to classify must form a 2-D array")
        if block.shape[1] < width:
            raise CarlabError(f"feature index {width} out of range for n={block.shape[1]}")
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            raise CarlabError(f"non-finite feature value in row {a + int(np.argmin(finite))}")
        counts[a : a + len(block)] = _cover_counts(lds, block)
    return vote(lds.class_ids, lds.sizes, counts)


def classify(x: Sequence[float], lds: LDSet) -> ClassifyOutcome:
    """Vote by per-class similarity; argmax when unique and positive."""
    return classify_batch((x,), lds).outcome(0)


@dataclass(frozen=True)
class _LDClassifier:
    lds: LDSet

    def __call__(self, x: Sequence[float]) -> ClassifyOutcome:
        return classify(x, self.lds)

    def batch(self, rows) -> VoteBatch:
        return classify_batch(rows, self.lds)


def ld_classifier(lds: LDSet) -> Callable[[Sequence[float]], ClassifyOutcome]:
    """Bind an LDSet into a reusable classifier callable; its ``batch``
    method votes many rows in one kernel call."""
    return _LDClassifier(lds)


def ld_overlap(
    a: LogicalDependency, b: LogicalDependency
) -> Optional[tuple[dict[int, float], dict[int, float]]]:
    """Intersection box of two LDs, or None when they are disjoint."""
    lower: dict[int, float] = {}
    upper: dict[int, float] = {}
    for j in set(a.lower) | set(b.lower):
        lower[j] = max(a.lower.get(j, -np.inf), b.lower.get(j, -np.inf))
    for j in set(a.upper) | set(b.upper):
        upper[j] = min(a.upper.get(j, np.inf), b.upper.get(j, np.inf))
    for j, lo in lower.items():
        if j in upper and lo > upper[j]:
            return None
    return lower, upper


def indeterminateness_areas(
    lds: LDSet,
) -> list[tuple[int, int, dict[int, float], dict[int, float]]]:
    """All pairwise overlap boxes between LDs of distinct classes.

    Each entry is (class_a, class_b, lower, upper) with class_a < class_b;
    points inside such a box score positively for both classes.
    """
    areas = []
    classes = lds.class_ids
    for ia, ca in enumerate(classes):
        for cb in classes[ia + 1 :]:
            for ld_a in lds.by_class[ca]:
                for ld_b in lds.by_class[cb]:
                    box = ld_overlap(ld_a, ld_b)
                    if box is not None:
                        areas.append((ca, cb, box[0], box[1]))
    return areas


def ldset_to_json(lds: LDSet) -> list[dict]:
    """JSON form: array of {class, lower: {j: v}, upper: {j: v}}, 1-based."""
    names = [str(j) for j in range(1, lds.lower.shape[1] + 1)]
    return [{"class": i, "lower": lower, "upper": upper} for i, lower, upper in _bounded_sides(lds, names)]


def ldset_from_json(data: list[dict], n: Optional[int] = None) -> LDSet:
    """The first bad entry raises: lower, upper, class, then the box
    checks, which refuse a feature past ``n`` when n is given, before any
    matrix is built; a negative class raises once every entry is read."""
    labels, boxes = [], []
    for entry in data:
        box = tuple(
            {_parse_key(j, side): _parse_number(v, side) for j, v in entry.get(side, {}).items()}
            for side in ("lower", "upper")
        )
        labels.append(_parse_index(entry["class"], "class"))
        _check_box(*box, n)
        boxes.append(box)
    class_ids, codes = np.unique(np.array(labels, object), return_inverse=True)
    return _ldset(class_ids, *_by_key(codes, *_matrices(boxes)))


def save_ldset(lds: LDSet, dest: Union[str, Path]) -> None:
    save_json(ldset_to_json(lds), dest)


def load_ldset(source: Union[str, Path], n: Optional[int] = None) -> LDSet:
    """The LD set of a JSON file; with ``n``, one bounding a feature past n raises."""
    return load_json(source, lambda data: ldset_from_json(data, n))
