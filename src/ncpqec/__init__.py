"""Reversibility analysis for Hermiticity-preserving quantum maps.

The package decomposes a Hermiticity-preserving (not necessarily
completely positive) map into a signed operator sum, checks the signed
error-correction conditions on a code space, constructs syndrome
measurements and recovery channels, and decides whether the code space
lies inside the domain where the evolution is physical.  Supporting
modules provide linear algebra over indefinite metrics and the
pseudounitary freedom connecting equal decompositions.
"""

from .errors import (
    LinearDependence,
    MapsNotEqual,
    NotHermitian,
    NotPseudoHermitian,
    NotPseudoUnitary,
    NullNormEncountered,
    NumericalFailure,
    OperatorsNotEqual,
    OrthogonalityViolation,
    PseudoDiagonalizationFailure,
    SingularCoefficientMatrix,
    WitnessSearchFailed,
    ZeroTrace,
)
from .pseudolinalg import (
    DEFAULT_TOL,
    PseudoDiagonalization,
    Signature,
    eta_metric,
    is_pseudohermitian,
    is_pseudounitary,
    pseudo_diagonalize,
    pseudo_gram_schmidt,
    pseudo_inner,
)
from .superop import (
    AMatrix,
    BMatrix,
    MapClass,
    SignedOperatorSum,
    a_from_operator_sum,
    apply_a_matrix,
    apply_map,
    b_from_operator_sum,
    check_hermiticity_preserving,
    check_trace_preserving,
    classify,
    is_positive_semidefinite,
    operator_sum_from_b,
    reshuffle,
    split_cp_parts,
    transform_by_pseudounitary,
    unvec,
    validate_density_matrix,
    vec,
)
from .qec import (
    CodeSpace,
    ConditionMatrix,
    NegativityWitness,
    QecReport,
    Recovery,
    Syndrome,
    SyndromeSet,
    Verdict,
    analyze,
    build_recovery,
    cp_condition_matrix,
    negative_part_on_code,
    projector_from_basis,
    repetition_bitflip,
    verify_recovery,
)
from .equivalence import (
    ConnectionResult,
    SignedEnsemble,
    connecting_pseudounitary,
    ensemble_connection,
    maps_equal,
    pad_to_signature,
    to_base_map,
)

__version__ = "0.1.0"
