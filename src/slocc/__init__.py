"""SLOCC entanglement classification of pure multiqubit states.

Decides the entanglement class of a pure state under stochastic local
operations and classical communication: Schmidt-rank classes for bipartite
systems of any dimensions, the six three-qubit classes with explicit
invertible local operators reducing a state to its canonical vector, and
right-singular-subspace structure descriptors for four or more qubits.
"""

from .bipartite import BipartiteClass, SchmidtForm, classify_bipartite, schmidt
from .errors import (
    ArityMismatch,
    BadPivot,
    DegenerateParameter,
    DependentGenerators,
    DimensionMismatch,
    EmptySpectrum,
    InconsistentRanks,
    NonFinite,
    ReductionFailed,
    SingularMatrix,
    SingularOperator,
    SloccError,
    StateFileError,
    ToleranceBreakdown,
    UnsupportedDepth,
    WrongArity,
    ZeroState,
    ZeroVector,
)
from .multiqubit import (
    ClassCountBound,
    StructureDescriptor,
    class_count_bound,
    cluster_state_4,
    descriptor,
    example_4partite_canonical,
    factor_support,
    ghz_state,
    hyperdeterminant,
    same_broad_class,
)
from .numerics import DEFAULT_POLICY, SvdResult, TolerancePolicy, inv2, numerical_rank, svd
from .states import (
    CoeffMatrix,
    LocalOperatorSet,
    PureState,
    apply_local_operators,
    coefficient_matrix,
    make_state,
    permute_subsystems,
)
from .subspaces import (
    RootKind,
    RootReport,
    StructureTag,
    SubspaceStructure,
    classify_line,
    classify_span,
    one_product_span_basis,
    product_factors,
    product_roots,
    slice_matrix,
    unslice,
)
from .tripartite import (
    ClassificationReport,
    IloTriple,
    TripartiteClass,
    canonical_vector,
    classify3,
    reduce_to_canonical,
)

__version__ = "0.1.0"
