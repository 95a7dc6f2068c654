"""Independent brute-force oracles for the test suite.

Everything here recomputes expected results by exhaustive enumeration or
exact linear algebra, deliberately avoiding the library's own algorithms
so oracle and implementation can only agree by being right.
"""

from __future__ import annotations

import csv
import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

INF = float("inf")


# ---------------------------------------------------------------------------
# Grid-box enumeration for rule mining


def enumerate_maximal_boxes(
    points: Sequence[Sequence[float]],
    labels: Sequence[int],
    class_index: int,
    budget: int = 0,
) -> set[tuple]:
    """All inclusion-maximal admissible grid boxes for one class.

    A box is a per-feature pair (lo, hi) with lo in grid+{-inf}, hi in
    grid+{+inf}; admissible means it covers >= 1 own-class point and at
    most ``budget`` counter points.  Intended for tiny instances only.
    """
    points = [tuple(p) for p in points]
    n = len(points[0])
    grids = [sorted({p[j] for p in points}) for j in range(n)]
    lower_choices = [[-INF] + grids[j] for j in range(n)]
    upper_choices = [grids[j] + [INF] for j in range(n)]

    def covers(box, p):
        return all(lo <= v <= hi for (lo, hi), v in zip(box, p))

    admissible = []
    for lowers in itertools.product(*lower_choices):
        for uppers in itertools.product(*upper_choices):
            box = tuple(zip(lowers, uppers))
            if any(lo > hi for lo, hi in box):
                continue
            own = sum(
                1 for p, y in zip(points, labels) if y == class_index and covers(box, p)
            )
            counter = sum(
                1 for p, y in zip(points, labels) if y != class_index and covers(box, p)
            )
            if own >= 1 and counter <= budget:
                admissible.append(box)

    def contains(big, small):
        return all(
            blo <= slo and shi <= bhi
            for (blo, bhi), (slo, shi) in zip(big, small)
        )

    maximal = set()
    for box in admissible:
        if not any(other != box and contains(other, box) for other in admissible):
            maximal.add(box)
    return maximal


def box_of_ld(ld, n: int) -> tuple:
    """Canonical box form of a LogicalDependency for oracle comparison."""
    return tuple(
        (ld.lower.get(j + 1, -INF), ld.upper.get(j + 1, INF)) for j in range(n)
    )


def greedy_box(
    points: Sequence[Sequence[float]],
    labels: Sequence[int],
    seed: Sequence[float],
    label: int,
    budget: int = 0,
) -> tuple[Optional[tuple], int]:
    """(box, coincident) of the documented greedy walk from the point
    ``seed`` of class ``label`` over the grid of the training ``points``.

    The walk starts at the point box, then for each feature in ascending
    order relaxes the lower bound and then the upper bound one grid value
    at a time, keeping a step while at most ``budget`` counter points are
    covered, and drops the bound once every grid value beyond it was
    accepted.  Counter points are recounted by loops after every step.
    ``coincident`` counts the counter points equal to the seed; when it
    exceeds the budget the seed is unseparable and the box is None.
    """
    points = [tuple(p) for p in points]
    n = len(points[0])
    grids = [sorted({p[j] for p in points}) for j in range(n)]
    counters = [p for p, y in zip(points, labels) if y != label]
    box = [[v, v] for v in seed]

    def covered() -> int:
        return sum(
            1 for p in counters if all(lo <= v <= hi for (lo, hi), v in zip(box, p))
        )

    coincident = covered()
    if coincident > budget:
        return None, coincident
    for j in range(n):
        for side, beyond, open_value in (
            (0, [v for v in reversed(grids[j]) if v < box[j][0]], -INF),
            (1, [v for v in grids[j] if v > box[j][1]], INF),
        ):
            for v in beyond + [open_value]:
                kept = box[j][side]
                box[j][side] = v
                if covered() > budget:
                    box[j][side] = kept
                    break
    return tuple((lo, hi) for lo, hi in box), coincident


# ---------------------------------------------------------------------------
# Similarity voting with exact fractions


def vote_oracle(x: Sequence[float], lds) -> tuple[Optional[int], Optional[str], dict]:
    """(label, reason, scores) of similarity voting, recomputed by plain
    loops over each LD's dict bounds with Fraction scores.

    A class scores the share of its boxes containing x (0 when it has
    none); the unique positive maximum wins, otherwise the reason is
    "all-zero" (no positive score) or "tied".
    """
    scores = {}
    for index, members in lds.by_class.items():
        hits = 0
        for ld in members:
            inside = True
            for j, lo in ld.lower.items():
                if not lo <= x[j - 1]:
                    inside = False
            for j, hi in ld.upper.items():
                if not x[j - 1] <= hi:
                    inside = False
            if inside:
                hits += 1
        scores[index] = Fraction(hits, len(members)) if members else Fraction(0)
    if not scores or max(scores.values()) == 0:
        return None, "all-zero", scores
    best = max(scores.values())
    winners = [index for index, v in scores.items() if v == best]
    if len(winners) > 1:
        return None, "tied", scores
    return winners[0], None, scores


# ---------------------------------------------------------------------------
# Exhaustive subcube enumeration


class SubcubeSpace:
    """All 3^n subcubes of the n-cube as (mask, bits) integer pairs.

    Bit k of the integer encoding corresponds to string position
    n-1-k, so ``int(word, 2)`` is the vertex code.
    """

    def __init__(self, n: int):
        self.n = n
        cubes: list[tuple[int, int]] = []

        def rec(k: int, mask: int, bits: int) -> None:
            if k == n:
                cubes.append((mask, bits))
                return
            b = 1 << (n - 1 - k)
            rec(k + 1, mask, bits)
            rec(k + 1, mask | b, bits)
            rec(k + 1, mask | b, bits | b)

        rec(0, 0, 0)
        self.cubes = cubes
        self.masks = np.array([c[0] for c in cubes], dtype=np.int64)
        self.bits = np.array([c[1] for c in cubes], dtype=np.int64)
        self.index = {c: i for i, c in enumerate(cubes)}

    def word(self, mask: int, bits: int) -> str:
        chars = []
        for k in range(self.n):
            b = 1 << (self.n - 1 - k)
            if not mask & b:
                chars.append("*")
            else:
                chars.append("1" if bits & b else "0")
        return "".join(chars)


def brute_force_rdnf(space: SubcubeSpace, positives: Iterable[str], negatives: Iterable[str]) -> set[str]:
    """Filter all 3^n subcubes for consistency and maximality."""
    pos_hit = np.zeros(len(space.cubes), dtype=bool)
    neg_hit = np.zeros(len(space.cubes), dtype=bool)
    for word in positives:
        v = int(word, 2)
        pos_hit |= (v & space.masks) == space.bits
    for word in negatives:
        v = int(word, 2)
        neg_hit |= (v & space.masks) == space.bits
    consistent = pos_hit & ~neg_hit
    result = set()
    for i in np.nonzero(consistent)[0]:
        mask, bits = space.cubes[i]
        maximal = True
        mm = mask
        while mm:
            low = mm & -mm
            freed = space.index[(mask ^ low, bits & ~low)]
            if not neg_hit[freed]:
                maximal = False
                break
            mm ^= low
        if maximal:
            result.add(space.word(mask, bits))
    return result


# ---------------------------------------------------------------------------
# Forward simulation of the classify-act recursion on the Boolean cube


def forward_state(
    vertex: str,
    classify_fn,
    actions: Mapping[int, object],
    depth: int,
) -> Optional[str]:
    """State after exactly ``depth`` classify-act steps, or None on stall.

    Normal classifications freeze the state; indeterminate ones stall it.
    """
    state = vertex
    for _ in range(depth):
        label = classify_fn(state)
        if label is None:
            return None
        if label == 0:
            continue
        state = actions[label].apply(state)
    return state


def forward_depth_region(
    n: int, classify_fn, actions, region: set[str], depth: int
) -> set[str]:
    out = set()
    for code in range(2 ** n):
        vertex = format(code, f"0{n}b")
        state = forward_state(vertex, classify_fn, actions, depth)
        if state is not None and state in region:
            out.add(vertex)
    return out


# ---------------------------------------------------------------------------
# Materialized closed relation and direct axiom evaluation


def closed_relation(classes: Iterable[int], pairs: Iterable[tuple[int, int]]):
    """Reflexive-transitive closure as a boolean matrix (repeated squaring)."""
    order = sorted(classes)
    idx = {c: i for i, c in enumerate(order)}
    m = np.eye(len(order), dtype=bool)
    for s, d in pairs:
        m[idx[s], idx[d]] = True
    while True:
        nxt = m | (m @ m)
        if (nxt == m).all():
            return order, m
        m = nxt


def axioms_on_closure(order: Sequence[int], m: np.ndarray) -> dict:
    eye = np.eye(len(order), dtype=bool)
    reflexive = bool(m.diagonal().all())
    antisymmetric = not bool((m & m.T & ~eye).any())
    transitive = not bool(((m @ m) & ~m).any())
    minimal = [
        c for i, c in enumerate(order) if not (m[i] & ~eye[i]).any()
    ]
    return {
        "reflexive": reflexive,
        "antisymmetric": antisymmetric,
        "transitive": transitive,
        "minimal": minimal,
    }


def all_reach_normal(order: Sequence[int], m: np.ndarray) -> bool:
    if 0 not in order:
        return False
    col = order.index(0)
    return bool(m[:, col].all())


# ---------------------------------------------------------------------------
# Exact MDP policy evaluation and exhaustive policy enumeration


def exact_policy_value(mdp, decision: Mapping[int, Mapping[str, float]]) -> dict[int, float]:
    """Solve (I - gamma * P_pi) V = r_pi directly."""
    idx = {s: i for i, s in enumerate(mdp.states)}
    size = len(mdp.states)
    p = np.zeros((size, size))
    r = np.zeros(size)
    for s in mdp.states:
        for a, w in decision[s].items():
            for dst, prob, reward in mdp.transitions[s][a]:
                p[idx[s], idx[dst]] += w * prob
                r[idx[s]] += w * prob * reward
    v = np.linalg.solve(np.eye(size) - mdp.gamma * p, r)
    return {s: float(v[idx[s]]) for s in mdp.states}


def best_deterministic_values(mdp) -> dict[int, float]:
    """Pointwise best value over every deterministic stationary policy."""
    choices = [mdp.actions(s) for s in mdp.states]
    best: Optional[dict[int, float]] = None
    for combo in itertools.product(*choices):
        decision = {s: {a: 1.0} for s, a in zip(mdp.states, combo)}
        v = exact_policy_value(mdp, decision)
        if best is None:
            best = dict(v)
        else:
            for s in mdp.states:
                best[s] = max(best[s], v[s])
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Small graph helpers


def undirected_components(vertices: Iterable, edges: Iterable[tuple]) -> int:
    vertices = list(vertices)
    adjacency: dict = {v: set() for v in vertices}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = set()
    count = 0
    for v in vertices:
        if v in seen:
            continue
        count += 1
        stack = [v]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(adjacency[cur] - seen)
    return count


# ---------------------------------------------------------------------------
# Row-at-a-time trace log reading and transition counting


def trace_log_oracle(path) -> tuple:
    """Read a trace log CSV one row at a time, then count per object.

    Returns (relation, policy).  The relation is the (s, a, s') -> count
    map of consecutive events with the set of classes visited plus the
    normal class 0, or, when an object steps out of the normal class, the
    message of that error.  The policy is {s: {a: frequency}} over the
    deviated events, with the stay decision at 0.  A file the format
    rejects raises DataFormatError with the reader's message; negative
    classes and empty object ids are not checked here.
    """
    from carlab.core import DataFormatError

    def decimal(text):
        try:
            value = int(text)
        except ValueError:
            return None
        return value if str(value) == text else None

    def integer(text, where):
        value = decimal(text)
        if value is None:
            raise DataFormatError(f"{where}: bad integer value {text!r}")
        return value

    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    if not records:
        raise DataFormatError(f"{path}: empty file")
    header = records[0]
    if len(header) < 6 or header[:3] != ["id", "step", "timestamp"] or header[-2:] != ["class", "action"]:
        raise DataFormatError(f"{path}: bad header {header!r}")
    features = header[3:-2]
    if features != [f"f{j}" for j in range(1, len(features) + 1)]:
        raise DataFormatError(f"bad feature columns {features!r}")
    by_object: dict[str, list[tuple]] = {}
    for lineno, row in enumerate(records[1:], start=2):
        if not row:
            continue
        where = f"{path}:{lineno}"
        if len(row) != len(header):
            raise DataFormatError(f"{where}: malformed row, expected {len(header)} fields")
        object_id, step = row[0], integer(row[1], where)
        values = []
        for text in row[2:-2]:
            try:
                values.append(float(text))
            except ValueError:
                raise DataFormatError(f"{where}: bad numeric value {text!r}") from None
        if not all(math.isfinite(v) for v in values):
            raise DataFormatError(f"{where}: non-finite value for {object_id!r}")
        label, action = integer(row[-2], where), row[-1] or None
        if step < 0:
            raise DataFormatError("step must be nonnegative")
        if values[0] < 0:
            raise DataFormatError("timestamp must be nonnegative")
        if label == 0 and action is not None:
            raise DataFormatError(
                f"action present on a normal-class event ({object_id!r}, step {step})"
            )
        if label != 0 and action is None:
            raise DataFormatError(
                f"missing action on deviated-class event ({object_id!r}, step {step})"
            )
        by_object.setdefault(object_id, []).append((step, values[0], label, action))
    counts: dict[tuple, int] = {}
    classes = {0}
    frequencies: dict[int, dict[str, int]] = {}
    for object_id, events in by_object.items():
        events.sort(key=lambda e: e[0])
        for k, (step, timestamp, _, _) in enumerate(events):
            if step != k:
                raise DataFormatError(
                    f"{path}: gap in step numbering for {object_id!r} (expected step {k}, got {step})"
                )
            if k > 0 and timestamp <= events[k - 1][1]:
                raise DataFormatError(f"{path}: non-increasing timestamp for {object_id!r} at step {k}")
    relation = None
    for object_id, events in by_object.items():
        for (step, _, label, action), (_, _, nxt, _) in zip(events, events[1:]):
            if label == 0 and relation is None:
                relation = f"transition out of the normal class in trace {object_id!r} at step {step}"
            counts[label, action, nxt] = counts.get((label, action, nxt), 0) + 1
        for _, _, label, action in events:
            classes.add(label)
            if label != 0:
                row = frequencies.setdefault(label, {})
                row[action] = row.get(action, 0) + 1
    policy = {0: {"stay": 1.0}}
    for s, row in sorted(frequencies.items()):
        policy[s] = {a: c / sum(row.values()) for a, c in sorted(row.items())}
    return relation or (counts, frozenset(classes)), policy
