"""Box-rule mining and similarity voting.

A logical dependency (LD) is an axis-aligned box predicate

    P(x) = AND_{j in w1} (lower_j <= x_j)  AND_{j in w2} (x_j <= upper_j)

attached to one class.  An LD is admissible when it covers at least one
training point of its own class and at most ``budget`` points of
the other classes (zero by default).  Mining grows, from every own-class
seed, the admissible box that is maximal on the finite grid of training
feature values: no single bound can be moved to the adjacent grid value,
or removed, without covering counter-class points beyond the budget.
The seeds of one class are grown together, in chunks of bounded size,
by one kernel that reproduces the greedy walk of ``grow_maximal_ld``
exactly: it keeps, per seed and counter point, the number of box sides
excluding that point, and finds where each bound's walk stops by one
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


# Cells per kernel chunk, row-by-LD when voting and seed-by-counter-point
# when mining: bounds the kernels' scratch memory.
_CHUNK_CELLS = 1 << 16


def _grids(X: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per feature, the sorted distinct training values for the lower-bound
    walk and their negation for the upper-bound walk, each padded with
    +inf so that "the next grid value" always exists."""
    sides = []
    for j in range(X.shape[1]):
        grid = np.unique(X[:, j])
        sides.append((np.append(grid, np.inf), np.append(-grid[::-1], np.inf)))
    return sides


def _nth_largest(values: np.ndarray, blocked: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per row of ``blocked``, the (r+1)-th largest of the blocked
    ``values``, duplicates counted; -inf for a row with none blocked."""
    top = int(r.max(initial=0))
    if top == 0:
        # No float matrix is materialised on the common zero-budget path.
        return np.max(
            np.broadcast_to(values, blocked.shape), axis=1, where=blocked, initial=-np.inf
        )
    ranked = np.where(blocked, values, -np.inf)
    width = ranked.shape[1]
    part = np.partition(ranked, np.arange(width - 1 - top, width), axis=1)
    return part[np.arange(len(ranked)), width - 1 - r]


def _grow_boxes(
    points: np.ndarray,
    counter: np.ndarray,
    grids: list[tuple[np.ndarray, np.ndarray]],
    budget: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grow the boxes around seed ``points`` of one class in lockstep.

    ``counter`` holds the other classes' training points.  Returns the
    lower and upper bound arrays (-inf / +inf where a bound was dropped)
    and, per seed, the number of counter points coinciding with it; a
    seed whose count exceeds the budget is unseparable and its bounds
    are meaningless.  Seeds are grown in chunks of at most about
    ``_CHUNK_CELLS`` seed-by-counter cells.  A budget of at least the
    counter points cannot bind, and is read as their count; a negative
    one raises.
    """
    if budget < 0:
        raise CarlabError("violation_budget must be >= 0")
    budget = min(budget, len(counter))
    lower = points.copy()
    # The upper bound is walked as a lower bound of the negated feature:
    # negation is exact, so both sides share one walk.
    neg_upper = -points
    coincident = np.empty(len(points), dtype=np.intp)
    step = max(1, _CHUNK_CELLS // max(1, len(counter)))
    for a in range(0, len(points), step):
        coincident[a : a + step] = _grow_chunk(
            counter, grids, budget, lower[a : a + step], neg_upper[a : a + step]
        )
    return lower, -neg_upper, coincident


def _grow_chunk(
    counter: np.ndarray,
    grids: list[tuple[np.ndarray, np.ndarray]],
    budget: int,
    lower: np.ndarray,
    neg_upper: np.ndarray,
) -> np.ndarray:
    """Run the greedy walk of ``grow_maximal_ld`` for a chunk of seeds,
    updating the point boxes ``lower`` / ``neg_upper`` in place; returns
    the coincident counter counts.

    ``excluded[s, r]`` counts the sides of seed s's box that exclude
    counter point r, so the points blocked only by the side being relaxed
    are those excluded once and lying beyond that side.  With slack
    r = budget - violations, the walk steps past a blocked value while at
    most r blocked points lie at or beyond it, so it ends just past the
    (r+1)-th nearest blocked value, or drops the bound when at most r
    points are blocked.
    """
    n = counter.shape[1]
    excluded = np.zeros((len(lower), len(counter)), dtype=np.min_scalar_type(n))
    for j in range(n):
        excluded += counter[:, j] != lower[:, j, None]
    coincident = np.count_nonzero(excluded == 0, axis=1)
    # Unseparable seeds get zero slack so the walk stays defined; their
    # boxes are discarded.
    slack = np.maximum(budget - coincident, 0)
    out = np.empty(excluded.shape, dtype=bool)
    blocked = np.empty_like(out)
    scratch = np.empty_like(out)
    for j, (grid, neg_grid) in enumerate(grids):
        for bound, values, walk in (
            (lower, counter[:, j], grid),
            (neg_upper, -counter[:, j], neg_grid),
        ):
            np.less(values, bound[:, j, None], out=out)
            np.equal(excluded, 1, out=blocked)
            blocked &= out
            drop = np.count_nonzero(blocked, axis=1) <= slack
            stop = _nth_largest(values, blocked, np.where(drop, 0, slack))
            stop[drop] = -np.inf
            # The walk ends on the grid value just past ``stop``, or stays
            # put when that value is not beyond the bound (an off-grid seed).
            nearest = walk[np.searchsorted(walk, stop, side="right")]
            new = np.where(nearest < bound[:, j], nearest, bound[:, j])
            new[drop] = -np.inf
            if budget:  # at zero budget the slack stays all zeros
                np.greater(values, stop[:, None], out=scratch)
                scratch &= blocked
                slack -= np.count_nonzero(scratch, axis=1)
            np.greater_equal(values, new[:, None], out=scratch)
            scratch &= out
            excluded -= scratch
            bound[:, j] = new
    return coincident


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
    lower, upper, coincident = _grow_boxes(point, X[y != seed.label], _grids(X), budget)
    if coincident[0] > budget:
        raise UnseparableSeedError(_unseparable(seed.object_id, int(coincident[0])))
    return next(_ldset((seed.label,), np.zeros(1, np.intp), lower, upper).all_lds())


def mine_lds(learning_set: LearningSet, budget: int = 0) -> LDSet:
    """Mine maximal admissible LDs from every seed of every class.

    Each seed's box is the one ``grow_maximal_ld`` grows; the seeds of a
    class are grown together.  Unseparable seeds become warnings, not
    failures; duplicate boxes are removed, the first seed's kept, and each
    class's boxes are sorted canonically (see ``_by_key``).
    """
    X, y = learning_set.X, learning_set.labels
    grids = _grids(X)
    lower = np.empty_like(X)
    upper = np.empty_like(X)
    coincident = np.empty(len(X), dtype=np.intp)
    for label in np.unique(y):
        seeds = y == label
        lower[seeds], upper[seeds], coincident[seeds] = _grow_boxes(
            X[seeds], X[~seeds], grids, budget
        )
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
