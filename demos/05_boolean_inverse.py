"""Inverse recognition on the Boolean cube.

From a Boolean learning set, build one subcube cover per class, split
the normal class's cover into its certain and ambiguous parts, then walk
backward: which states are certain to be normal after one action?  After
two?  Which states never get there?

Run:  python demos/05_boolean_inverse.py
"""

import numpy as np

from carlab import synth
from carlab.boolcube import (
    all_vertices,
    backward_reach,
    forall_exists_partition,
    multiclass_rdnf,
    subcube_cover,
    subcubes_to_ldset,
)
from carlab.lcpr import classify

n = 4
rng = synth.default_rng()
dataset = synth.random_boolean_learning_set(rng, n=n, classes=2, per_class=4)
print(f"Boolean dataset: n={n}, classes 0..{dataset.deviated_count}")
for i in range(dataset.deviated_count + 1):
    words = sorted(
        "".join(str(int(v)) for v in s.features) for s in dataset.class_share(i)
    )
    print(f"  class {i}: {words}")

# One-vs-rest subcube covers, one per class.
rdnfs = multiclass_rdnf(dataset)
for i, cubes in sorted(rdnfs.items()):
    print(f"  class {i} cover: {sorted(c.word for c in cubes)}")

# Vertex sets come back as ascending vertex codes; code order is word order.
names = list(all_vertices(n))
words = lambda codes: [names[c] for c in codes]

# Certain vs ambiguous: vertices covered only by the normal side are the
# "always normal" region; covered by both sides means the vote can tie.
deviated_cubes = set().union(*(rdnfs[i] for i in range(1, dataset.deviated_count + 1)))
part = forall_exists_partition(rdnfs[0], deviated_cubes, n=n)
print(f"\nalways-normal region: {words(part.forall_region)}")
print(f"ambiguous region:     {words(part.exists_region)}")
print(f"uncovered vertices:   {len(part.uncovered)}")

# The classifier votes over the class covers; the action rewrites bits.
lds = subcubes_to_ldset(rdnfs)
labels = [classify([float(c) for c in v], lds).label for v in names]
action = synth.random_boolean_action(rng, "a1", n)
reach = backward_reach(part.forall_region, {1: action}, labels, k=4, n=n)

print("\nbackward reach from the always-normal region:")
for depth, (region, union) in enumerate(zip(reach.depths, reach.cumulative)):
    cover = [c.word for c in subcube_cover(region, n)]
    print(f"  depth {depth}: |region|={len(region):2d} cover={cover}")
print(f"reached within 4 steps: {len(reach.cumulative[-1])} of {2 ** n}")
never = np.setdiff1d(np.arange(2 ** n), reach.cumulative[-1])
print(f"never reached: {words(never)}")
print(f"indeterminate: {words(reach.indeterminate)}")
