"""Exception types raised by the analysis routines.

Plain input mistakes (wrong shapes, mismatched dimensions, malformed
documents) raise ``ValueError``.  The classes below mark *numerical or
structural* failures of the analysis itself; the command line maps them
to a dedicated exit code.
"""


class NumericalFailure(Exception):
    """Base class for numerical/structural analysis failures."""


class NullNormEncountered(NumericalFailure):
    """An intermediate vector has (numerically) zero indefinite norm."""


class LinearDependence(NumericalFailure):
    """The supplied vectors are linearly dependent within tolerance."""


class NotPseudoHermitian(NumericalFailure):
    """The matrix is not pseudohermitian with respect to the given metric."""


class PseudoDiagonalizationFailure(NumericalFailure):
    """No pseudounitary similarity reduces the matrix to real diagonal form."""


class NotHermitian(NumericalFailure):
    """The matrix is not Hermitian within tolerance."""


class NotPseudoUnitary(NumericalFailure):
    """The matrix does not preserve the indefinite metric within tolerance."""


class OrthogonalityViolation(NumericalFailure):
    """Syndrome isometries are not orthonormal with pairwise-orthogonal ranges within tolerance."""


class WitnessSearchFailed(NumericalFailure):
    """The witness's cross-checked outcome is not negative: the syndromes do not belong to the map."""


class MapsNotEqual(NumericalFailure):
    """The two decompositions do not generate the same map."""


class OperatorsNotEqual(NumericalFailure):
    """The two vector ensembles do not generate the same operator."""


class SingularCoefficientMatrix(NumericalFailure):
    """The change-of-decomposition coefficients are not invertible.

    This flags an input that is not a base decomposition plus zero
    padding (for example one extended by a canceling pair of terms).
    """


class ZeroTrace(NumericalFailure):
    """A recovered state has (numerically) zero trace."""
