"""Mine box rules from a small dataset and classify by similarity voting.

Walks through the core loop: generate a labeled set, grow the maximal
admissible box around every training point, inspect the per-class rule
lists, then score a few probe points and look at where classes overlap.

Run:  python demos/01_mine_and_classify.py
Seed: set CARLAB_SEED to vary the dataset.
"""

from carlab import synth
from carlab.lcpr import (
    classify,
    indeterminateness_areas,
    mine_lds,
    similarity,
)

rng = synth.default_rng()
dataset = synth.random_learning_set(rng, n=2, classes=3, m=24, grid=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0))
print(f"dataset: {dataset.m} samples, {dataset.n} features, classes 0..{dataset.deviated_count}")
for i in range(dataset.deviated_count + 1):
    points = [s.features for s in dataset.class_share(i)]
    print(f"  class {i}: {sorted(points)}")

# Every training point seeds one maximal admissible box; duplicates merge.
rules = mine_lds(dataset)
print("\nmined rules per class:")
for i, boxes in sorted(rules.by_class.items()):
    print(f"  class {i}: {len(boxes)} rules")
    for box in boxes:
        lo = " and ".join(f"{v} <= f{j}" for j, v in sorted(box.lower.items()))
        hi = " and ".join(f"f{j} <= {v}" for j, v in sorted(box.upper.items()))
        print(f"    {' and '.join(p for p in (lo, hi) if p) or 'always true'}")

# Score a few probes: the label is the unique positive argmax, and ties
# or all-zero score vectors are reported instead of silently broken.
print("\nclassification of probe points:")
for probe in [(0.5, 0.5), (2.5, 2.5), (4.5, 4.5), (9.0, 9.0)]:
    outcome = classify(probe, rules)
    scores = {i: round(similarity(probe, rules, i), 3) for i in rules.class_ids}
    label = outcome.label if outcome.label is not None else f"indeterminate ({outcome.reason})"
    print(f"  {probe} -> {label}   scores={scores}")

# Overlap boxes are the indetermineness areas: anything inside one scores
# positively for two different classes at once.
areas = indeterminateness_areas(rules)
print(f"\ncross-class overlap boxes: {len(areas)}")
for ca, cb, lo, hi in areas[:5]:
    print(f"  classes {ca}/{cb}: lower={lo} upper={hi}")
