"""Binary-domain engine: subcube covers of partial Boolean functions (one
subset-lattice closure per distinct positive on 2^n flags packed 64 to a
uint64 word, O(|pos| * n * 2^n / 64) word operations: 1.3-2 ms per
positive at n = 20 on a 2-vCPU VM, in chunks of bounded scratch memory), always/sometimes region splits (``carlab
inverse`` takes them from the vote's per-class counts), and backward
reachability of the normal class under per-class actions.

A vertex is its int code (coordinate 1 is the high bit, so code order is
``all_vertices`` order), a vertex set an ascending code array at the API and
a bool mask over all codes inside, an action an array of image codes, a
subcube its stored (mask, value) pair, and a cover a ``CubeSet`` of (mask,
value) arrays, read by the vote as they are, with ``Subcube`` its member
view.  Binary words like "0110" are checked where they enter; a subcube's
ternary word like "0*1" (``*`` frees a coordinate) is only derived, for the
JSON edge.  Exact computations are capped at n = 20 and refuse larger inputs.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import product, repeat
from typing import Collection, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .core import CarlabError, LearningSet, _decimal
from .lcpr import LDSet, VoteBatch, _by_key, _ldset, label_codes, vote

MAX_EXACT_N = 20
_CUBE_CHUNK = 8192  # cubes per matrix product in cover_counts: bounds its scratch memory
_CLOSURE_WORDS = 1 << 17  # per chunk of positives in _cover, its uint64 words and its marks: bounds its scratch memory
# _LOW[b]: the positions in a word whose bit b is clear, for the in-word passes b < 6.
_LOW = [np.uint64(sum(1 << i for i in range(64) if not i >> b & 1)) for b in range(6)]


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


@dataclass(frozen=True, eq=False)
class CubeSet(Set):
    """Subcubes of the n-cube as two read-only int64 arrays, ascending by
    (mask, value), one cube a row.  The members are built as ``Subcube``s
    when first read, by iteration or ``in``; set operators return plain
    sets."""

    n: int
    masks: np.ndarray
    values: np.ndarray
    _from_iterable = set

    def __post_init__(self) -> None:
        self.masks.flags.writeable = self.values.flags.writeable = False

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[Subcube]:
        return iter(self._members)

    def __contains__(self, cube: object) -> bool:
        return cube in self._members

    @cached_property
    def _members(self) -> dict[Subcube, None]:
        """The members in row order, as the keys of a dict."""
        return dict.fromkeys(map(Subcube, repeat(self.n), self.masks.tolist(), self.values.tolist()))


@dataclass(frozen=True)
class PartialBooleanFunction:
    """Disjoint positive and negative vertex sets; the rest is open."""

    n: int
    positives: frozenset[str]
    negatives: frozenset[str]

    def __post_init__(self) -> None:
        overlap = self.positives & self.negatives
        if overlap:
            raise _overlap(sorted(overlap))
        for v in self.positives | self.negatives:
            _code(v, self.n)


@dataclass(frozen=True, eq=False)
class BooleanAction:
    """Total update function on the n-cube: explicit table or per-output
    substitution rule.

    Rule tokens, one per output coordinate: "0", "1", "xK" (copy input
    coordinate K, 1-based), "~xK" (negate input coordinate K).  A table is
    a dict of n-bit words, or its image codes in code order, an int64 array,
    as ``carsim.load_actions`` reads a fixed-width table.  Compiled once
    into ``image`` (not a field): the image code of every vertex code.  A
    table is not kept once compiled; ``table_words`` writes it back from
    ``image``.  Actions are equal when their names, rules and images are.
    """

    action_id: str
    n: int
    table: InitVar[Union[dict[str, str], np.ndarray, None]] = None
    exprs: Optional[tuple[str, ...]] = None

    def __post_init__(self, table: Union[dict[str, str], np.ndarray, None]) -> None:
        if self.n < 1:
            raise CarlabError(f"bad Boolean action size n={self.n!r}")
        if (table is None) == (self.exprs is None):
            raise CarlabError("exactly one of table/exprs must be given")
        n, codes = self.n, _all_codes(self.n)
        if isinstance(table, np.ndarray):
            if table.shape != codes.shape or table.dtype != codes.dtype or table.min() < 0 or table.max() >= codes.size:
                raise CarlabError(f"a table image must be {codes.size} int64 codes in [0, {codes.size})")
            image = table
        elif table is not None:
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
        words = code_words(np.arange(len(self.image)), self.n).astype(str).tolist()
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
    return _bit_codes(bits.reshape(len(words), n))


def _bit_codes(bits: np.ndarray) -> np.ndarray:
    """The codes of rows of bits, the first column the high bit.  Only the
    low bit of each entry is read, so rows of 0/1 integers and of ASCII
    "0"/"1" digits read alike."""
    codes = np.zeros(len(bits), np.int64)
    for column in bits.T:
        codes = codes << 1 | column & 1
    return codes


def code_words(codes: np.ndarray, n: int) -> np.ndarray:
    """Vertex codes as their n-bit words, an ``S<n>`` array, which
    ``core.save_json`` writes as the JSON list of the words."""
    bytes_ = np.asarray(codes, ">u4").view(np.uint8).reshape(-1, 4)  # big-endian: the high bit first
    return (np.unpackbits(bytes_, axis=1)[:, 32 - n :] + ord("0")).view(f"S{n}").ravel()


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


def reduced_dnf(f: PartialBooleanFunction) -> CubeSet:
    """All maximal subcubes covering at least one positive and no negative."""
    return _cover(_word_codes(list(f.positives), f.n), _word_codes(list(f.negatives), f.n), f.n)


def _cover(positives: np.ndarray, negatives: np.ndarray, n: int) -> CubeSet:
    """The maximal subcubes through the positive codes that hold no
    negative code.

    The subcubes through a positive p are its free-position sets F: the one
    freeing F holds a negative q iff F contains the difference set p ^ q.
    Marking every p ^ q and closing the marks upward over the subset
    lattice, one bit at a time (the zeta transform), blocks exactly the F
    whose cube holds a negative; the maximal cubes are the unblocked F whose
    every one-bit extension is blocked.  Each cube's mask is ~F and its
    value p & mask.  A chunk of positives is a row each of a uint64 matrix,
    flag F at bit F & 63 of word F >> 6: a pass on bit b < 6 shifts within
    words, and one on a higher bit pairs whole words.  Cost O(|pos| * n *
    2^n / 64) word operations, whatever the output size.  The codes on each
    side are distinct, and a chunk holds at most ``_CLOSURE_WORDS`` words
    and as many marks, or else one positive: scratch memory stays
    O(2^17 + 2^n / 64 + |neg|) words.
    """
    if n > MAX_EXACT_N:
        raise CarlabError(f"exact computation capped at n={MAX_EXACT_N}")
    width = max(1, (1 << n) >> 6)
    keys = [np.zeros(0, np.int64)]
    step = max(1, _CLOSURE_WORDS // max(width, len(negatives)))  # a chunk marks len(negatives) per row
    for p in (positives[start : start + step] for start in range(0, len(positives), step)):
        blocked = np.zeros((len(p), width), np.uint64)
        marks = (p[:, None] ^ negatives).ravel()
        rows = np.repeat(np.arange(len(p)), len(negatives))
        np.bitwise_or.at(blocked, (rows, marks >> 6), np.uint64(1) << (marks & 63).astype(np.uint64))
        # Bit b splits the sets into pairs (F without b, F with b).
        pairs = lambda x, b: x.reshape(len(p), -1, 2, 1 << (b - 6))
        scratch = np.empty_like(blocked)
        for b in range(n):
            if b < 6:
                np.bitwise_and(blocked, _LOW[b], out=scratch)
                blocked |= np.left_shift(scratch, np.uint64(1 << b), out=scratch)
            else:
                pairs(blocked, b)[:, :, 1] |= pairs(blocked, b)[:, :, 0]
        keep = ~blocked
        for b in range(n):
            if b < 6:
                np.right_shift(blocked, np.uint64(1 << b), out=scratch)
                keep &= np.bitwise_or(scratch, ~_LOW[b], out=scratch)
            else:
                pairs(keep, b)[:, :, 0] &= pairs(blocked, b)[:, :, 1]
        if n < 6:  # a part-used word: positions 2^n and up are no sets
            keep &= np.uint64((1 << (1 << n)) - 1)
        row, word = np.nonzero(keep)
        bits = np.unpackbits(keep[row, word].astype("<u8").view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
        at, bit = np.nonzero(bits)
        masks = (1 << n) - 1 ^ (word[at] << 6 | bit)
        keys.append(masks << n | p[row[at]] & masks)
    keys = np.unique(np.concatenate(keys))
    return CubeSet(n, keys >> n, keys & (1 << n) - 1)


def cover_counts(cubes: Iterable[Subcube], n: int) -> np.ndarray:
    """How many of ``cubes`` hold each vertex, in ``all_vertices`` order:
    on the grid of (high n // 2 bits, low bits) codes, the sum of ``A.T @ B``
    over chunks of cubes, A and B their 0/1 tests on each half.  Exact: a
    float64 sum is an integer at most the cube count, and no list nears 2^53."""
    grid = _all_codes(n).reshape(1 << n // 2, -1)  # a row per high half
    widths, masks, values = _cube_arrays(cubes)
    if (widths != n).any():
        wrong = Subcube(*(int(a[np.argmax(widths != n)]) for a in (widths, masks, values)))
        raise CarlabError(f"dimension mismatch: subcube {wrong.word!r} for n={n}")
    counts = np.zeros(grid.shape)
    for start in range(0, len(masks), _CUBE_CHUNK):
        mask, value = (a[start : start + _CUBE_CHUNK, None] for a in (masks, values))
        # The last code of each half has all of that half's bits set.
        half = lambda codes: (codes & mask == value & codes[-1]).astype(float)
        counts += half(grid[:, 0]).T @ half(grid[0])
    return counts.astype(np.int64).ravel()


def _cube_arrays(cubes: Iterable[Subcube]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The widths, masks and values of ``cubes``: a CubeSet's arrays as
    they are, any other iterable of Subcube read once."""
    if isinstance(cubes, CubeSet):
        return np.full(len(cubes), cubes.n), cubes.masks, cubes.values
    return tuple(np.array([(c.n, c.mask, c.value) for c in cubes], np.int64).reshape(-1, 3).T)


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
    sides = [c if isinstance(c, Collection) else tuple(c) for c in (pos_rdnf, neg_rdnf)]
    if n is None:  # a CubeSet's width, else the first cube's
        widths = [side.n if isinstance(side, CubeSet) else next(iter(side)).n for side in sides if side]
        if not widths:
            raise CarlabError("dimension unknown: no cubes and no n")
        n = widths[0]
    return RegionPartition.from_masks(*(cover_counts(side, n) > 0 for side in sides))


def backward_reach(
    region: Sequence[int],
    actions: Mapping[int, BooleanAction],
    labels: Union[np.ndarray, Sequence[Optional[int]]],
    k: int,
    n: int,
) -> ReachResult:
    """Backward regions of depths 0..k: depth d holds the vertices whose
    state after d classify-act steps lies in ``region`` (a normal vertex
    stays put; depth 0 is ``region`` itself).

    ``labels`` gives every vertex code's class, or -1 (None in a list) for
    an indeterminately classified one; those are excluded and tallied.
    """
    if k < 0:
        raise CarlabError("depth must be >= 0")
    hit = _region(region, n)
    if len(labels) != hit.size:
        raise CarlabError(f"need one label per vertex: {hit.size} for n={n}, got {len(labels)}")
    labels = label_codes(labels)  # -1: indeterminate
    steps = []  # per deviated class, when a step is taken: its codes and their images
    for c in np.unique(labels[labels > 0]).tolist() if k else ():
        if c not in actions:
            raise CarlabError(f"no action bound to class {c}")
        if actions[c].n != n:
            raise CarlabError("dimension mismatch")
        at = labels == c
        steps.append((at, actions[c].image[at]))
    normal = labels == 0
    depths = [np.flatnonzero(hit)]
    cumulative = [depths[0]]
    reached = hit.copy()
    for _ in range(k):
        # A code hits if it is normal inside the last region, or if the
        # action bound to its class takes it there.
        last, hit = hit, normal & hit
        for at, image in steps:
            hit[at] = last[image]
        reached |= hit
        depths.append(np.flatnonzero(hit))
        cumulative.append(np.flatnonzero(reached))
    return ReachResult(
        depths=tuple(depths),
        cumulative=tuple(cumulative),
        indeterminate=np.flatnonzero(labels == -1),
    )


def multiclass_rdnf(learning_set: LearningSet) -> dict[int, CubeSet]:
    """One-vs-rest subcube covers, one per class (Boolean mode only)."""
    if learning_set.mode != "boolean":
        raise CarlabError("multiclass_rdnf requires a Boolean-mode learning set")
    n, labels = learning_set.n, learning_set.labels
    if n > MAX_EXACT_N:
        raise CarlabError(f"exact computation capped at n={MAX_EXACT_N}")
    codes = _bit_codes(learning_set.X.astype(np.int64))
    rdnfs = {}
    for i in range(learning_set.deviated_count + 1):
        positives, negatives = np.unique(codes[labels == i]), np.unique(codes[labels != i])
        overlap = np.intersect1d(positives, negatives, assume_unique=True)
        if overlap.size:
            raise _overlap([format(code, f"0{n}b") for code in overlap.tolist()])
        rdnfs[i] = _cover(positives, negatives, n)
    return rdnfs


def _overlap(words: list[str]) -> CarlabError:
    """The error of a vertex that is positive and negative, naming the
    first three such ``words``, given in order."""
    return CarlabError(f"positives and negatives overlap on {words[:3]}")


def subcubes_to_ldset(rdnfs: Mapping[int, Iterable[Subcube]]) -> LDSet:
    """Convert per-class subcube covers into box predicates so the voting
    classifier applies unchanged in the Boolean domain: a fixed coordinate
    is bounded to its bit on both sides, a free one is open."""
    classes = sorted(rdnfs)
    arrays = [np.stack(_cube_arrays(rdnfs[i])) for i in classes]  # rows: widths, masks, values
    codes = np.repeat(np.arange(len(classes)), [a.shape[1] for a in arrays])
    widths, masks, values = np.concatenate([np.zeros((3, 0), np.int64), *arrays], axis=1)[..., None]
    shift = widths - 1 - np.arange(widths.max(initial=0))  # feature j + 1's bit, negative past the cube
    fixed = (shift >= 0) & (masks >> shift.clip(0) & 1 == 1)
    width = max(np.flatnonzero(fixed.any(axis=0)) + 1, default=0)  # as wide as the last feature bounded
    bits = (values >> shift.clip(0) & 1)[:, :width].astype(float)
    lower, upper = (np.where(fixed[:, :width], bits, bound) for bound in (-np.inf, np.inf))
    return _ldset(tuple(classes), *_by_key(codes, lower, upper))


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
    Freeing coordinate k moves the seed's k-neighbour in, so only the
    coordinates whose neighbour is inside are tried.  The next seed is
    found by a byte search over the codes still uncovered.
    """
    inside = _region(region, n)
    left = bytearray(inside.tobytes())  # 1 at each inside code not yet covered
    uncovered = np.frombuffer(left, bool)  # the same bytes
    bits = 1 << np.arange(n - 1, -1, -1)  # coordinate k's bit
    cover = []
    v = left.find(1)
    while v >= 0:
        cube, mask = np.array([v]), (1 << n) - 1
        for bit in bits[inside[v ^ bits]].tolist():
            flipped = cube ^ bit
            if inside[flipped].all():
                cube, mask = np.concatenate([cube, flipped]), mask ^ bit
        cover.append(Subcube(n, mask, v & mask))
        uncovered[cube] = False
        v = left.find(1, v + 1)
    return tuple(cover)
