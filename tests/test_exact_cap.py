"""Exact Boolean computations refuse n > MAX_EXACT_N before they allocate.

Every exact computation over the n-cube holds arrays of 2^n entries; at
n = 21 each must raise CarlabError at once, with no 2^21-entry array
allocated first, and ``carlab inverse`` must exit 1 with one ``error:``
line.
"""

import json
import tracemalloc

import numpy as np
import pytest

from carlab import boolcube
from carlab.boolcube import MAX_EXACT_N, BooleanAction, PartialBooleanFunction
from carlab.cli import main
from carlab.core import CarlabError, LearningSet

N = MAX_EXACT_N + 1
WORD = "0" * N

REFUSALS = {
    "all_vertices": lambda: boolcube.all_vertices(N),
    "BooleanAction": lambda: BooleanAction("a", N, exprs=("x1",) * N),
    "reduced_dnf": lambda: boolcube.reduced_dnf(PartialBooleanFunction(N, frozenset([WORD]), frozenset(["1" * N]))),
    "multiclass_rdnf": lambda: boolcube.multiclass_rdnf(
        LearningSet(("a", "b"), np.array([[0.0] * N, [1.0] * N]), np.array([0, 1]), "boolean")
    ),
    "cover_counts": lambda: boolcube.cover_counts([], N),
    "backward_reach": lambda: boolcube.backward_reach([0], {}, [0], 1, N),
    "subcube_cover": lambda: boolcube.subcube_cover([0], N),
    "forall_exists_partition": lambda: boolcube.forall_exists_partition([], [], N),
    "vote_vertices": lambda: boolcube.vote_vertices({0: []}, N),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_n_past_the_cap_is_refused_before_any_cube_array(name):
    assert MAX_EXACT_N == 20
    tracemalloc.start()
    try:
        with pytest.raises(CarlabError, match=f"capped at n={MAX_EXACT_N}"):
            REFUSALS[name]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << N  # bytes: under one byte per vertex


def test_inverse_on_a_21_feature_file_exits_one_with_one_error_line(tmp_path, capsys):
    data, actions, out = tmp_path / "bool.csv", tmp_path / "actions.json", tmp_path / "inv.json"
    header = ",".join(["id", *(f"f{j}" for j in range(1, N + 1)), "class"])
    data.write_text(f"{header}\na,{','.join('0' * N)},0\nb,{','.join('1' * N)},1\n", encoding="utf-8")
    actions.write_text(json.dumps([{"action": "a1", "class": 1, "kind": "rule", "n": N, "exprs": ["0"] * N}]))
    assert main(["inverse", "--data", str(data), "--actions", str(actions), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and f"capped at n={MAX_EXACT_N}" in err
    assert not out.exists()
