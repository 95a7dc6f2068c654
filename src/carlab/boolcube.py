"""Binary-domain engine: subcube covers of partial Boolean functions (one
subset-lattice closure per positive, O(|pos| * n * 2^n)), always/sometimes
region splits (``carlab inverse`` takes them from the vote's per-class
counts), and backward reachability of the normal class under per-class
actions.

A vertex is its int code (coordinate 1 is the high bit, so code order is
``all_vertices`` order), a vertex set an ascending code array at the API and
a bool mask over all codes inside, an action an array of image codes, a
subcube its stored (mask, value) pair.  Binary words like "0110" are
checked where they enter; a subcube's ternary word like "0*1" (``*`` frees
a coordinate) is only derived, for the JSON edge.  The vote tests a code
against a cube as two half-tests, on its high and on its low bits, and
counts every code at once as a chunked matrix product of those tests,
exact by construction (``cover_counts``).
Exact computations are capped at n = 20 and refuse larger inputs.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from itertools import islice, product
from typing import Collection, Iterable, Mapping, Optional, Sequence

import numpy as np

from .core import CarlabError, LearningSet, _decimal
from .lcpr import LDSet, LogicalDependency, VoteBatch, vote

MAX_EXACT_N = 20
_CUBE_CHUNK = 8192  # cubes per matrix product in cover_counts: bounds its scratch memory


@dataclass(frozen=True)
class Subcube:
    """A face of the n-cube: vertex code v lies in it iff ``v & mask == value``,
    with position 0 as the most significant bit, as in ``all_vertices``."""

    n: int
    mask: int
    value: int

    def __post_init__(self) -> None:
        if not (self.n >= 1 and 0 <= self.mask < 1 << self.n and self.value & ~self.mask == 0):
            raise CarlabError(f"bad subcube (n={self.n!r}, mask={self.mask!r}, value={self.value!r})")

    @property
    def word(self) -> str:
        """Ternary word over {0,1,*}; ``*`` frees a coordinate."""
        bits = format(self.value, f"0{self.n}b")
        return "".join(b if self.mask >> (self.n - 1 - k) & 1 else "*" for k, b in enumerate(bits))

    def fixed_positions(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.n) if self.mask >> (self.n - 1 - k) & 1)

    def contains(self, vertex: str) -> bool:
        return _code(vertex, self.n) & self.mask == self.value

    def vertices(self) -> Iterable[str]:
        """Member words in ascending code order: the submasks of the free bits."""
        free, sub = (1 << self.n) - 1 ^ self.mask, 0
        while True:
            yield format(self.value | sub, f"0{self.n}b")
            sub = (sub - free) & free
            if not sub:
                return


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
            _code(v, self.n)


@dataclass(frozen=True, eq=False)
class BooleanAction:
    """Total update function on the n-cube: explicit table or per-output
    substitution rule.

    Rule tokens, one per output coordinate: "0", "1", "xK" (copy input
    coordinate K, 1-based), "~xK" (negate input coordinate K).  Compiled
    once into ``image`` (not a field): the image code of every vertex code.
    A table is not kept once compiled; ``table_words`` writes it back from
    ``image``.  Actions are equal when their names, rules and images are.
    """

    action_id: str
    n: int
    table: InitVar[Optional[dict[str, str]]] = None
    exprs: Optional[tuple[str, ...]] = None

    def __post_init__(self, table: Optional[dict[str, str]]) -> None:
        if (table is None) == (self.exprs is None):
            raise CarlabError("exactly one of table/exprs must be given")
        n, codes = self.n, _all_codes(self.n)
        if table is not None:
            keys, outputs = _word_codes(list(table), n), _word_codes(list(table.values()), n)
            # Keys are distinct, so 2^n n-bit keys are all the n-bit words.
            if len(table) != codes.size or keys is None:
                raise CarlabError(f"table keys must cover all {n}-bit words")
            if outputs is None:
                out = next(out for out in table.values() if not _is_word(out, n))
                raise CarlabError(f"bad table output {out!r} for n={n}")
            image = np.empty_like(codes)
            image[keys] = outputs
        else:
            if len(self.exprs) != n:
                raise CarlabError("rule must give one expression per coordinate")
            image = np.zeros_like(codes)
            for k, ex in enumerate(self.exprs):
                image |= self._compile_expr(ex, codes) << (n - 1 - k)
        object.__setattr__(self, "image", image)

    def _compile_expr(self, ex: str, codes: np.ndarray) -> int | np.ndarray:
        """One output bit of every vertex code."""
        if ex in ("0", "1"):
            return int(ex)
        body, negate = (ex[1:], True) if ex.startswith("~") else (ex, False)
        k = _decimal(body[1:]) if body.startswith("x") else None
        if k is not None and 1 <= k <= self.n:
            return (codes >> (self.n - k) & 1) ^ negate
        raise CarlabError(f"bad rule expression {ex!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanAction):
            return NotImplemented
        same = (self.action_id, self.n, self.exprs) == (other.action_id, other.n, other.exprs)
        return same and np.array_equal(self.image, other.image)

    def __hash__(self) -> int:
        return hash((self.action_id, self.n, self.exprs))

    def apply(self, vertex: str) -> str:
        return format(self.image[_code(vertex, self.n)], f"0{self.n}b")

    def table_words(self) -> dict[str, str]:
        """The table of the action, word to image word, in code order."""
        words = [format(code, f"0{self.n}b") for code in range(len(self.image))]
        return dict(zip(words, map(words.__getitem__, self.image.tolist())))


@dataclass(frozen=True, eq=False)
class RegionPartition:
    """Split of the positive cover: certain, ambiguous, and uncovered;
    each an ascending array of vertex codes."""

    forall_region: np.ndarray
    exists_region: np.ndarray
    uncovered: np.ndarray

    @classmethod
    def from_masks(cls, pos: np.ndarray, neg: np.ndarray) -> "RegionPartition":
        """Split by two bool masks over all codes: positive and negative cover."""
        return cls(
            forall_region=np.flatnonzero(pos & ~neg),
            exists_region=np.flatnonzero(pos & neg),
            uncovered=np.flatnonzero(~(pos | neg)),
        )


@dataclass(frozen=True, eq=False)
class ReachResult:
    """Per-depth backward regions plus their running union, and the
    indeterminately classified vertices; each an ascending code array."""

    depths: tuple[np.ndarray, ...]
    cumulative: tuple[np.ndarray, ...]
    indeterminate: np.ndarray


def all_vertices(n: int) -> Iterable[str]:
    if n > MAX_EXACT_N:
        raise CarlabError(f"exact enumeration capped at n={MAX_EXACT_N}")
    return ("".join(bits) for bits in product("01", repeat=n))


def _all_codes(n: int) -> np.ndarray:
    """Every vertex code of the n-cube, in ``all_vertices`` order."""
    if n > MAX_EXACT_N:
        raise CarlabError(f"exact enumeration capped at n={MAX_EXACT_N}")
    return np.arange(1 << n)


def _is_word(vertex: object, n: int) -> bool:
    return isinstance(vertex, str) and len(vertex) == n and not vertex.strip("01")


def _word_codes(words: list, n: int) -> Optional[np.ndarray]:
    """The codes of n-bit binary words; None if an item is not one."""
    try:
        text = "".join(words)
    except TypeError:  # an item that is not a string
        return None
    bits = np.frombuffer(text.encode(), np.uint8) - ord("0")  # any other byte wraps above 1
    if set(map(len, words)) - {n} or (bits > 1).any():
        return None
    codes = np.zeros(len(words), np.int64)
    for column in bits.reshape(len(words), n).T:  # most significant bit first
        codes = codes << 1 | column
    return codes


def _code(vertex: str, n: int) -> int:
    """The code of an n-bit binary word; anything else is refused."""
    if not _is_word(vertex, n):
        raise CarlabError(f"bad vertex {vertex!r} for n={n}")
    return int(vertex, 2)


def _region(codes: Sequence[int], n: int) -> np.ndarray:
    """A vertex set, given as 1-D integer codes in [0, 2^n), as a bool mask
    over all vertex codes; anything else is refused."""
    mask, array = np.zeros_like(_all_codes(n), dtype=bool), np.asarray(codes)
    if array.ndim != 1 or array.size and array.dtype.kind not in "iu":
        raise CarlabError(f"a vertex set must be 1-D integer codes, got {array.dtype} {array.shape}")
    if array.size and not (0 <= array.min() and array.max() < mask.size):
        raise CarlabError(f"vertex code out of range [0, {mask.size}) for n={n}")
    mask[array.astype(np.intp, copy=False)] = True  # an empty list reads as floats
    return mask


def reduced_dnf(f: PartialBooleanFunction) -> set[Subcube]:
    """All maximal subcubes covering at least one positive and no negative.

    The subcubes through a positive p are its free-position sets F: the one
    freeing F holds a negative q iff F contains the difference set p ^ q.
    Marking every p ^ q and closing the marks upward over the subset
    lattice, one bit at a time (the zeta transform), blocks exactly the F
    whose cube holds a negative; the maximal cubes are the unblocked F whose
    every one-bit extension is blocked.  Each cube's mask is ~F and its
    value p & mask.  Cost O(|pos| * n * 2^n), whatever the output size.
    """
    n = f.n
    if n > MAX_EXACT_N:
        raise CarlabError(f"exact computation capped at n={MAX_EXACT_N}")
    negatives = np.array([int(q, 2) for q in f.negatives], dtype=np.int64)
    keys: set[int] = set()
    for p in (int(p, 2) for p in f.positives):
        blocked = np.zeros(1 << n, dtype=bool)
        blocked[p ^ negatives] = True
        # Bit b splits the sets into pairs (F without b, F with b).
        for b in range(n):
            blocked.reshape(-1, 2, 1 << b)[:, 1] |= blocked.reshape(-1, 2, 1 << b)[:, 0]
        keep = ~blocked
        for b in range(n):
            keep.reshape(-1, 2, 1 << b)[:, 0] &= blocked.reshape(-1, 2, 1 << b)[:, 1]
        masks = (1 << n) - 1 ^ np.flatnonzero(keep)
        keys.update((masks << n | p & masks).tolist())
    return {Subcube(n, key >> n, key & (1 << n) - 1) for key in keys}


def cover_counts(cubes: Iterable[Subcube], n: int) -> np.ndarray:
    """How many of ``cubes`` hold each vertex, in ``all_vertices`` order:
    on the grid of (high n // 2 bits, low bits) codes, the sum of ``A.T @ B``
    over chunks of cubes, A and B their 0/1 tests on each half.  Exact: a
    float64 sum is an integer at most the cube count, and no list nears 2^53."""
    grid, cubes = _all_codes(n).reshape(1 << n // 2, -1), iter(cubes)  # a row per high half
    counts = np.zeros(grid.shape)
    while chunk := list(islice(cubes, _CUBE_CHUNK)):
        for cube in chunk:
            if cube.n != n:
                raise CarlabError(f"dimension mismatch: subcube {cube.word!r} for n={n}")
        mask, value = np.array([(c.mask, c.value) for c in chunk]).T[..., None]
        # The last code of each half has all of that half's bits set.
        half = lambda codes: (codes & mask == value & codes[-1]).astype(float)
        counts += half(grid[:, 0]).T @ half(grid[0])
    return counts.astype(np.int64).ravel()


def vote_vertices(rdnfs: Mapping[int, Collection[Subcube]], n: int) -> VoteBatch:
    """Votes of all 2^n vertices, in ``all_vertices`` order, by the
    fraction of each class's cubes holding them, as ``classify`` votes."""
    classes = tuple(sorted(rdnfs))
    counts = np.array([cover_counts(rdnfs[i], n) for i in classes], np.int64)  # a row per class
    return vote(classes, tuple(len(rdnfs[i]) for i in classes), counts.reshape(-1, 1 << n).T)


def forall_exists_partition(
    pos_rdnf: Iterable[Subcube],
    neg_rdnf: Iterable[Subcube],
    n: Optional[int] = None,
) -> RegionPartition:
    """Split vertices by cover side: positive-only (certain), both
    (ambiguous), neither (uncovered)."""
    pos_rdnf, neg_rdnf = list(pos_rdnf), list(neg_rdnf)
    if n is None and not pos_rdnf + neg_rdnf:
        raise CarlabError("dimension unknown: no cubes and no n")
    n = (pos_rdnf + neg_rdnf)[0].n if n is None else n
    return RegionPartition.from_masks(cover_counts(pos_rdnf, n) > 0, cover_counts(neg_rdnf, n) > 0)


def backward_reach(
    region: Sequence[int],
    actions: Mapping[int, BooleanAction],
    labels: Sequence[Optional[int]],
    k: int,
    n: int,
) -> ReachResult:
    """Backward regions of depths 0..k: depth d holds the vertices whose
    state after d classify-act steps lies in ``region`` (a normal vertex
    stays put; depth 0 is ``region`` itself).

    ``labels`` gives the class of every vertex code, or None for an
    indeterminately classified one; those are excluded and tallied.
    """
    if k < 0:
        raise CarlabError("depth must be >= 0")
    hit = _region(region, n)
    if len(labels) != hit.size:
        raise CarlabError(f"need one label per vertex: {hit.size} for n={n}, got {len(labels)}")
    labels = np.array([-1 if c is None else c for c in labels])  # -1: indeterminate
    depths = [np.flatnonzero(hit)]
    cumulative = [depths[0]]
    reached = hit.copy()
    for _ in range(k):
        # A code hits if it is normal inside the last region, or if the
        # action bound to its class takes it there.
        last, hit = hit, (labels == 0) & hit
        for c in sorted(set(labels[labels > 0].tolist())):
            if c not in actions:
                raise CarlabError(f"no action bound to class {c}")
            if actions[c].n != n:
                raise CarlabError("dimension mismatch")
            at = labels == c
            hit[at] = last[actions[c].image[at]]
        reached |= hit
        depths.append(np.flatnonzero(hit))
        cumulative.append(np.flatnonzero(reached))
    return ReachResult(
        depths=tuple(depths),
        cumulative=tuple(cumulative),
        indeterminate=np.flatnonzero(labels == -1),
    )


def multiclass_rdnf(learning_set: LearningSet) -> dict[int, set[Subcube]]:
    """One-vs-rest subcube covers, one per class (Boolean mode only)."""
    if learning_set.mode != "boolean":
        raise CarlabError("multiclass_rdnf requires a Boolean-mode learning set")
    words = {
        i: frozenset(vector_to_vertex(s.features) for s in learning_set.class_share(i))
        for i in range(learning_set.deviated_count + 1)
    }
    rest = lambda i: frozenset().union(*(words[j] for j in words if j != i))
    return {i: reduced_dnf(PartialBooleanFunction(learning_set.n, words[i], rest(i))) for i in words}


def subcubes_to_ldset(rdnfs: Mapping[int, Iterable[Subcube]]) -> LDSet:
    """Convert per-class subcube covers into box predicates so the voting
    classifier applies unchanged in the Boolean domain."""
    bounds = lambda c: {k + 1: float(c.value >> (c.n - 1 - k) & 1) for k in c.fixed_positions()}
    by_class = {}
    for index in sorted(rdnfs):
        lds = (LogicalDependency(index, bounds(c), bounds(c)) for c in rdnfs[index])
        by_class[index] = tuple(sorted(lds, key=LogicalDependency.key))
    return LDSet(by_class=by_class)


def vector_to_vertex(vector: Sequence[float]) -> str:
    bad = [v for v in vector if v not in (0.0, 1.0)]
    if bad:
        raise CarlabError(f"non-Boolean coordinate {bad[0]!r}")
    return "".join(str(int(v)) for v in vector)


def subcube_cover(region: Sequence[int], n: int) -> tuple[Subcube, ...]:
    """Greedy cover of a vertex set, given as codes, by maximal subcubes
    inside it.

    Rendering aid for reports; the vertex set stays the exact
    representation.  Each cube grows from the first uncovered vertex by
    freeing coordinates 1..n in turn, each while the cube stays inside.
    """
    inside = _region(region, n)
    covered = np.zeros_like(inside)
    cover = []
    for v in np.flatnonzero(inside).tolist():
        if covered[v]:
            continue
        cube, mask = np.array([v]), (1 << n) - 1
        for k in range(n):
            flipped = cube ^ 1 << (n - 1 - k)
            if inside[flipped].all():
                cube, mask = np.concatenate([cube, flipped]), mask ^ 1 << (n - 1 - k)
        cover.append(Subcube(n, mask, v & mask))
        covered[cube] = True
    return tuple(cover)
