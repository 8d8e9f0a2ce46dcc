"""Conditional convex risk measures over finite spaces, their dual theory, and
a finite Boolean-valued model engine for verifying the equivalences between
the conditional picture and its per-block classical scalarizations."""

from .boolalg import (
    AlgebraMismatchError,
    BooleanAlgebra,
    BoolElem,
    NotCoveringError,
    NotDisjointError,
    PartitionOfUnity,
    iter_partitions,
    lattice_ops,
    partition_validate,
)
from .bvm import (
    Name,
    Universe,
    atom_collapse,
    canonical_name,
    maximum_witness,
    name_to_literal,
    parse_name_literal,
    truth_atomic,
    verify_interp_props,
)
from .duality import (
    DualResult,
    DualSearchConfig,
    DualVariable,
    admissible_dual,
    dual_representation,
    fenchel,
    penalty_map,
    penalty_of,
    stable_sublevel_check,
    verify_representation,
)
from .errors import CondriskError, ParseError
from .formulalang import (
    FormulaError,
    UnboundVariableError,
    collapse_eval,
    evaluate,
    free_variables,
    parse,
    print_formula,
    witness,
)
from .modelspaces import (
    ModuleSpec,
    YoungFunction,
    holder_conjugate,
    inequality_check,
    module_gauge,
    young_conjugate,
    young_power,
)
from .probspace import (
    ConditionalValue,
    FiniteProbSpace,
    RandomVariable,
    SpaceError,
    seq_index,
)
from .riskcore import (
    AXIOMS,
    CondRiskMeasure,
    ShrinkingPerturbationSeq,
    check_all_axioms,
    check_axiom,
    check_convergence_property,
    cond_avar,
    cond_entropic,
    cond_worst_case,
    neg_cond_expectation,
)
from .transfer import (
    TransferReport,
    fenchel_consistency,
    scalarize,
    transfer_verify,
)

__version__ = "0.1.0"
