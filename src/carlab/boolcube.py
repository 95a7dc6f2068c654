"""Binary-domain engine: subcube covers of partial Boolean functions,
always/sometimes region splits, and backward reachability of the normal
class under per-class actions.

Vertices of the n-cube are binary words like "0110"; subcubes are ternary
words like "0*1" where ``*`` frees a coordinate; every cube membership
test is one int test on the subcube's (mask, value) pair.  Exact
computations are capped at n = 20 and refuse larger inputs rather than
approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence

import numpy as np

from .core import CarlabError, LearningSet
from .lcpr import LDSet, LogicalDependency, VoteBatch, vote

MAX_EXACT_N = 20


@dataclass(frozen=True)
class Subcube:
    """Ternary word over {0,1,*}; fixed positions select a cube face."""

    word: str

    def __post_init__(self) -> None:
        if not self.word or any(c not in "01*" for c in self.word):
            raise CarlabError(f"bad subcube word {self.word!r}")
        # Not a field, so equality, hashing and repr see only the word.
        mask, value = self.word.replace("0", "1").replace("*", "0"), self.word.replace("*", "0")
        object.__setattr__(self, "_mask_value", (int(mask, 2), int(value, 2)))

    @property
    def n(self) -> int:
        return len(self.word)

    def fixed_positions(self) -> tuple[int, ...]:
        return tuple(k for k, c in enumerate(self.word) if c != "*")

    def mask_value(self) -> tuple[int, int]:
        """Int form: vertex code v lies in the cube iff ``v & mask == value``,
        with position 0 as the most significant bit, as in ``all_vertices``."""
        return self._mask_value

    def contains(self, vertex: str) -> bool:
        if len(vertex) != len(self.word):
            raise CarlabError("dimension mismatch")
        mask, value = self._mask_value
        return int(vertex, 2) & mask == value

    def vertices(self) -> Iterable[str]:
        free = [k for k, c in enumerate(self.word) if c == "*"]
        chars = list(self.word)
        for bits in product("01", repeat=len(free)):
            for k, b in zip(free, bits):
                chars[k] = b
            yield "".join(chars)


@dataclass(frozen=True)
class PartialBooleanFunction:
    """Disjoint positive and negative vertex sets; the rest is open."""

    n: int
    positives: frozenset[str]
    negatives: frozenset[str]

    def __post_init__(self) -> None:
        overlap = self.positives & self.negatives
        if overlap:
            raise CarlabError(
                f"positives and negatives overlap on {sorted(overlap)[:3]}"
            )
        for v in self.positives | self.negatives:
            if len(v) != self.n or any(c not in "01" for c in v):
                raise CarlabError(f"bad vertex {v!r} for n={self.n}")


@dataclass(frozen=True)
class BooleanAction:
    """Total update function on the n-cube: explicit table or per-output
    substitution rule.

    Rule tokens, one per output coordinate: "0", "1", "xK" (copy input
    coordinate K, 1-based), "~xK" (negate input coordinate K).
    """

    action_id: str
    n: int
    table: Optional[dict[str, str]] = None
    exprs: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if (self.table is None) == (self.exprs is None):
            raise CarlabError("exactly one of table/exprs must be given")
        if self.table is not None:
            words = set(all_vertices(self.n))
            if set(self.table) != words:
                raise CarlabError(f"table keys must cover all {self.n}-bit words")
            for out in self.table.values():
                if not (isinstance(out, str) and out in words):
                    raise CarlabError(f"bad table output {out!r} for n={self.n}")
        if self.exprs is not None:
            if len(self.exprs) != self.n:
                raise CarlabError("rule must give one expression per coordinate")
            object.__setattr__(
                self, "_rule", tuple(self._parse_expr(ex) for ex in self.exprs)
            )

    def _parse_expr(self, ex: str) -> tuple[str, int]:
        if ex in ("0", "1"):
            return ("const", int(ex))
        body, negate = (ex[1:], True) if ex.startswith("~") else (ex, False)
        if body.startswith("x") and body[1:].isdigit():
            k = int(body[1:])
            if 1 <= k <= self.n:
                return ("neg" if negate else "copy", k - 1)
        raise CarlabError(f"bad rule expression {ex!r}")

    def apply(self, vertex: str) -> str:
        if len(vertex) != self.n:
            raise CarlabError("dimension mismatch")
        if self.table is not None:
            return self.table[vertex]
        out = []
        for kind, arg in self._rule:
            if kind == "const":
                out.append(str(arg))
            elif kind == "copy":
                out.append(vertex[arg])
            else:
                out.append("1" if vertex[arg] == "0" else "0")
        return "".join(out)


@dataclass(frozen=True)
class RegionPartition:
    """Split of the positive cover: certain, ambiguous, and uncovered."""

    forall_region: frozenset[str]
    exists_region: frozenset[str]
    uncovered: frozenset[str]


@dataclass(frozen=True)
class StepResult:
    region: frozenset[str]
    indeterminate: frozenset[str]


@dataclass(frozen=True)
class ReachResult:
    """Per-depth backward regions plus their running union."""

    depths: tuple[frozenset[str], ...]
    cumulative: tuple[frozenset[str], ...]
    indeterminate: frozenset[str]


def all_vertices(n: int) -> Iterable[str]:
    if n > MAX_EXACT_N:
        raise CarlabError(f"exact enumeration capped at n={MAX_EXACT_N}")
    return ("".join(bits) for bits in product("01", repeat=n))


def _minimal_transversals(sets: list[frozenset[int]]) -> list[frozenset[int]]:
    """All minimal hitting sets of a family of nonempty position sets."""
    # Supersets are redundant: hitting a subset hits them too.
    kernel = [s for s in sets if not any(t < s for t in sets)]
    kernel = sorted(set(kernel), key=lambda s: (len(s), sorted(s)))
    transversals: list[frozenset[int]] = [frozenset()]
    for s in kernel:
        extended: list[frozenset[int]] = []
        for t in transversals:
            if t & s:
                extended.append(t)
            else:
                extended.extend(t | {v} for v in sorted(s))
        transversals = [
            t for t in extended if not any(u < t for u in extended)
        ]
        transversals = sorted(set(transversals), key=lambda t: sorted(t))
    return transversals


def reduced_dnf(f: PartialBooleanFunction) -> set[Subcube]:
    """All maximal subcubes covering at least one positive and no negative.

    For each positive p, the subcubes through p avoiding every negative q
    correspond to free-position sets containing no full difference set
    D(p, q); the maximal ones are complements of minimal transversals of
    the D(p, q) family.
    """
    if f.n > MAX_EXACT_N:
        raise CarlabError(f"exact computation capped at n={MAX_EXACT_N}")
    result: set[Subcube] = set()
    negatives = sorted(f.negatives)
    for p in sorted(f.positives):
        diffs = [
            frozenset(k for k in range(f.n) if p[k] != q[k]) for q in negatives
        ]
        for hit in _minimal_transversals(diffs):
            word = "".join(p[k] if k in hit else "*" for k in range(f.n))
            result.add(Subcube(word))
    return result


def cover_counts(cubes: Iterable[Subcube], n: int) -> np.ndarray:
    """How many of ``cubes`` hold each vertex, in ``all_vertices`` order."""
    if n > MAX_EXACT_N:
        raise CarlabError(f"exact enumeration capped at n={MAX_EXACT_N}")
    codes = np.arange(1 << n)
    counts = np.zeros(1 << n, dtype=np.int64)
    for cube in cubes:
        mask, value = cube.mask_value()
        counts += codes & mask == value
    return counts


def vote_vertices(rdnfs: Mapping[int, Collection[Subcube]], n: int) -> VoteBatch:
    """Votes of all 2^n vertices, in ``all_vertices`` order, by the
    fraction of each class's cubes holding them, as ``classify`` votes."""
    classes = tuple(sorted(rdnfs))
    counts = np.zeros((1 << n, len(classes)), dtype=np.int64)
    for c, index in enumerate(classes):
        counts[:, c] = cover_counts(rdnfs[index], n)
    return vote(classes, tuple(len(rdnfs[i]) for i in classes), counts)


def forall_exists_partition(
    pos_rdnf: Iterable[Subcube],
    neg_rdnf: Iterable[Subcube],
    n: Optional[int] = None,
) -> RegionPartition:
    """Split vertices by cover side: positive-only (certain), both
    (ambiguous), neither (uncovered)."""
    pos_rdnf = list(pos_rdnf)
    neg_rdnf = list(neg_rdnf)
    dims = {c.n for c in pos_rdnf} | {c.n for c in neg_rdnf}
    if n is not None:
        dims.add(n)
    if len(dims) != 1:
        raise CarlabError(f"dimension mismatch or unknown: {sorted(dims)}")
    n = dims.pop()

    def words(selected: np.ndarray) -> frozenset[str]:
        return frozenset(format(v, f"0{n}b") for v in np.flatnonzero(selected).tolist())

    pos = cover_counts(pos_rdnf, n) > 0
    neg = cover_counts(neg_rdnf, n) > 0
    return RegionPartition(
        forall_region=words(pos & ~neg),
        exists_region=words(pos & neg),
        uncovered=words(~(pos | neg)),
    )


ClassifyFn = Callable[[str], Optional[int]]


def backward_step(
    region: Iterable[str],
    actions: Mapping[int, BooleanAction],
    classify_fn: ClassifyFn,
    n: int,
) -> StepResult:
    """One-step preimage: vertices that land in ``region`` after one
    classify-act step, or are already normal inside it.

    Indeterminately classified vertices are excluded and tallied.
    """
    region = frozenset(region)
    hit: set[str] = set()
    indeterminate: set[str] = set()
    for v in all_vertices(n):
        label = classify_fn(v)
        if label is None:
            indeterminate.add(v)
        elif label == 0:
            if v in region:
                hit.add(v)
        else:
            if label not in actions:
                raise CarlabError(f"no action bound to class {label}")
            if actions[label].apply(v) in region:
                hit.add(v)
    return StepResult(region=frozenset(hit), indeterminate=frozenset(indeterminate))


def backward_reach(
    region: Iterable[str],
    actions: Mapping[int, BooleanAction],
    classify_fn: ClassifyFn,
    k: int,
    n: int,
) -> ReachResult:
    """Iterate backward_step k times; depth 0 is the input region.

    The classifier is evaluated once per vertex and memoized across
    depths.
    """
    if k < 0:
        raise CarlabError("depth must be >= 0")
    labels = {v: classify_fn(v) for v in all_vertices(n)}
    memo_classify = labels.__getitem__
    depths = [frozenset(region)]
    cumulative = [depths[0]]
    indeterminate: frozenset[str] = frozenset(
        v for v, lab in labels.items() if lab is None
    )
    for _ in range(k):
        step = backward_step(depths[-1], actions, memo_classify, n)
        depths.append(step.region)
        cumulative.append(cumulative[-1] | step.region)
    return ReachResult(
        depths=tuple(depths),
        cumulative=tuple(cumulative),
        indeterminate=indeterminate,
    )


def multiclass_rdnf(learning_set: LearningSet) -> dict[int, set[Subcube]]:
    """One-vs-rest subcube covers, one per class (Boolean mode only)."""
    if learning_set.mode != "boolean":
        raise CarlabError("multiclass_rdnf requires a Boolean-mode learning set")
    n = learning_set.n
    words = {
        i: frozenset(vector_to_vertex(s.features) for s in learning_set.class_share(i))
        for i in range(learning_set.deviated_count + 1)
    }
    result = {}
    for i in range(learning_set.deviated_count + 1):
        rest = frozenset().union(*(words[j] for j in words if j != i))
        f = PartialBooleanFunction(n=n, positives=words[i], negatives=rest)
        result[i] = reduced_dnf(f)
    return result


def subcubes_to_ldset(rdnfs: Mapping[int, Iterable[Subcube]]) -> LDSet:
    """Convert per-class subcube covers into box predicates so the voting
    classifier applies unchanged in the Boolean domain."""
    by_class = {}
    for index in sorted(rdnfs):
        lds = []
        for cube in rdnfs[index]:
            bounds = {k + 1: float(cube.word[k]) for k in cube.fixed_positions()}
            lds.append(
                LogicalDependency(class_index=index, lower=dict(bounds), upper=dict(bounds))
            )
        by_class[index] = tuple(sorted(lds, key=LogicalDependency.key))
    return LDSet(by_class=by_class)


def vertex_to_vector(vertex: str) -> tuple[float, ...]:
    return tuple(float(c) for c in vertex)


def vector_to_vertex(vector: Sequence[float]) -> str:
    chars = []
    for v in vector:
        if v not in (0.0, 1.0):
            raise CarlabError(f"non-Boolean coordinate {v!r}")
        chars.append(str(int(v)))
    return "".join(chars)


def subcube_cover(region: Iterable[str], n: int) -> tuple[Subcube, ...]:
    """Greedy cover of a vertex set by maximal subcubes inside it.

    Rendering aid for reports; the vertex set stays the exact
    representation.
    """
    region = frozenset(region)
    remaining = sorted(region)
    cover: list[Subcube] = []
    covered: set[str] = set()
    for v in remaining:
        if v in covered:
            continue
        chars = list(v)
        for k in range(n):
            saved = chars[k]
            chars[k] = "*"
            candidate = Subcube("".join(chars))
            if not all(u in region for u in candidate.vertices()):
                chars[k] = saved
        cube = Subcube("".join(chars))
        cover.append(cube)
        covered.update(cube.vertices())
    return tuple(cover)
