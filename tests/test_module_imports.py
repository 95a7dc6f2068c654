"""The package is its modules: importing one loads only what it imports.

``carlab/__init__.py`` holds a docstring and nothing else, so each
library name is imported from the module that defines it, and a module
loads only the ``carlab`` modules it imports itself.  Each closure is
read in a fresh interpreter, where no earlier import has loaded any.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# import -> the carlab modules a fresh interpreter holds after it.
ALL = ["carlab", "carlab.boolcube", "carlab.carsim", "carlab.core", "carlab.lcpr", "carlab.mdp", "carlab.poset"]
CLOSURES = {
    "carlab": ["carlab"],
    "carlab.core": ["carlab", "carlab.core"],
    "carlab.lcpr": ["carlab", "carlab.core", "carlab.lcpr"],
    "carlab.poset": ["carlab", "carlab.core", "carlab.poset"],
    "carlab.mdp": ["carlab", "carlab.core", "carlab.mdp", "carlab.poset"],
    "carlab.boolcube": ["carlab", "carlab.boolcube", "carlab.core", "carlab.lcpr"],
    "carlab.carsim": ["carlab", "carlab.boolcube", "carlab.carsim", "carlab.core", "carlab.lcpr"],
    "carlab.synth": sorted(ALL + ["carlab.synth"]),
    "carlab.cli": sorted(ALL + ["carlab.cli"]),
}

# Where each library name lives: the names the package once re-exported.
NAMES = {
    "boolcube": [
        "BooleanAction", "PartialBooleanFunction", "RegionPartition", "Subcube", "backward_reach",
        "forall_exists_partition", "multiclass_rdnf", "reduced_dnf", "subcube_cover", "subcubes_to_ldset",
    ],
    "carsim": ["ActionSpec", "CarRunReport", "convergence_metrics", "register_actions", "run_car"],
    "core": [
        "CarlabError", "DataFormatError", "LearningSample", "LearningSet", "TraceEvent", "TraceTable",
        "load_learning_set", "load_trace_log", "save_learning_set", "save_trace_log",
    ],
    "lcpr": [
        "ClassifyOutcome", "LDSet", "LogicalDependency", "UnseparableSeedError", "classify", "eval_ld",
        "grow_maximal_ld", "is_admissible", "ld_classifier", "ld_overlap", "mine_lds", "similarity",
    ],
    "mdp": [
        "MDPModel", "Policy", "compare_policies", "estimate_mdp", "extract_observed_policy",
        "policy_evaluation", "reward_from_levels", "value_iteration",
    ],
    "poset": [
        "ClassTransitionGraph", "LevelDiagram", "Transition", "build_level_diagram", "check_poset",
        "counter_class", "distance_to_normal", "extract_relation", "has_unique_minimum", "neighborhood",
        "validate_to_normal",
    ],
}


def _python(*argv: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("module", sorted(CLOSURES))
def test_an_import_loads_only_the_modules_it_imports(module):
    listing = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('carlab')))"
    done = _python("-c", listing)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == repr(CLOSURES[module])


def test_the_package_has_no_public_attribute():
    done = _python("-c", "import carlab; print([n for n in vars(carlab) if not n.startswith('_')])")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("module, name", [(m, n) for m, names in NAMES.items() for n in names])
def test_each_library_name_resolves_from_its_module(module, name):
    obj = getattr(importlib.import_module("carlab." + module), name)
    assert obj.__module__ == "carlab." + module


def test_python_dash_m_carlab_runs_the_cli():
    done = _python("-m", "carlab", "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout and "Traceback" not in done.stderr
