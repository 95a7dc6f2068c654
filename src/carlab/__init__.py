"""carlab: a toolkit for dynamic "classification, action" recognition.

The library mines box-shaped logical dependencies from a learning set,
classifies by similarity voting, validates that observed class
transitions order toward a designated normal class, fits and evaluates
MDP policies over classification traces, simulates the classify-act
recursion forward, and computes backward-reachable regions in the
Boolean domain.
"""

from .boolcube import (
    BooleanAction,
    PartialBooleanFunction,
    RegionPartition,
    Subcube,
    backward_reach,
    forall_exists_partition,
    multiclass_rdnf,
    reduced_dnf,
    subcube_cover,
    subcubes_to_ldset,
)
from .carsim import (
    ActionSpec,
    CarRunReport,
    convergence_metrics,
    register_actions,
    run_car,
)
from .core import (
    CarlabError,
    DataFormatError,
    LearningSample,
    LearningSet,
    TraceEvent,
    TraceTable,
    load_learning_set,
    load_trace_log,
    save_learning_set,
    save_trace_log,
)
from .lcpr import (
    ClassifyOutcome,
    LDSet,
    LogicalDependency,
    UnseparableSeedError,
    classify,
    eval_ld,
    grow_maximal_ld,
    is_admissible,
    ld_classifier,
    ld_overlap,
    mine_lds,
    similarity,
)
from .mdp import (
    MDPModel,
    Policy,
    compare_policies,
    estimate_mdp,
    extract_observed_policy,
    policy_evaluation,
    reward_from_levels,
    value_iteration,
)
from .poset import (
    ClassTransitionGraph,
    LevelDiagram,
    Transition,
    build_level_diagram,
    check_poset,
    counter_class,
    distance_to_normal,
    extract_relation,
    has_unique_minimum,
    neighborhood,
    validate_to_normal,
)

__version__ = "0.1.0"
