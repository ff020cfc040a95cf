"""Superoperator representations of Hermiticity-preserving maps.

Three interconvertible forms of a linear map on d x d matrices are
supported:

* the transition matrix ``A`` acting on row-major vectorized states,
  ``vec(rho')[r'*d+s'] = sum_{r,s} A[r'*d+s', r*d+s] vec(rho)[r*d+s]``;
* the dynamical matrix ``B`` obtained from ``A`` by swapping the middle
  indices of the underlying 4-tensor, ``B[r'*d+r, s'*d+s] = A[r'*d+s',
  r*d+s]`` (Hermitian exactly when the map preserves Hermiticity);
* a *signed operator sum* ``rho -> sum_i sign_i E_i rho E_i^dag`` with
  ``sign_i = +1/-1``, obtained from the eigendecomposition of ``B``.
  Completely positive maps are the special case with no negative signs.

Vectorization is row-major throughout: ``vec(M)[r*d + s] = M[r, s]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NotHermitian, NotPseudoUnitary
from .pseudolinalg import DEFAULT_TOL, Signature, eta_metric, is_pseudounitary
from .pseudolinalg import _cut, _frozen, _max_abs, _signed_eigensystem

__all__ = [
    "AMatrix",
    "BMatrix",
    "SignedOperatorSum",
    "MapClass",
    "vec",
    "unvec",
    "reshuffle",
    "check_trace_preserving",
    "a_from_operator_sum",
    "b_from_operator_sum",
    "operator_sum_from_b",
    "apply_map",
    "classify",
    "transform_by_pseudounitary",
]


def vec(m: np.ndarray) -> np.ndarray:
    """Row-major vectorization: ``vec(M)[r*d + s] = M[r, s]``."""
    return np.asarray(m, dtype=complex).reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape(d, d)


def _check_map_matrix(x: AMatrix | BMatrix, name: str) -> None:
    """Check that ``x.matrix`` is a finite ``d^2 x d^2`` array and hold it read-only (:func:`_frozen`)."""
    m = _frozen(x.matrix)
    d2 = x.dim * x.dim
    if x.dim < 1:
        raise ValueError("dim must be positive")
    if m.shape != (d2, d2):
        raise ValueError(f"{name} for dim {x.dim} must have shape ({d2}, {d2}), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    object.__setattr__(x, "matrix", m)


@dataclass(frozen=True, eq=False)
class AMatrix:
    """Transition-matrix form acting on row-major vectorized states."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        _check_map_matrix(self, "A-matrix")


@dataclass(frozen=True, eq=False)
class BMatrix:
    """Dynamical-matrix form; Hermitian iff the map preserves Hermiticity."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        _check_map_matrix(self, "B-matrix")


class _SignedTerms:
    """Sign handling shared by the signed term lists (+1 block first)."""

    dim: int
    signs: tuple[int, ...]

    def _check_terms(self, field: str, shape: tuple[int, ...]) -> None:
        """Validate ``signs`` and the terms in ``field``, then store both frozen.

        The signs pass :meth:`_check_signs`, one per term; every term
        must be a finite array of ``shape``.  The terms are stored as one
        read-only ``(n_terms, *shape)`` array (:func:`~ncpqec.pseudolinalg._frozen`).
        """
        if self.dim < 1:
            raise ValueError("dim must be positive")
        raw = getattr(self, field)
        terms = [np.asarray(t) for t in raw]
        object.__setattr__(self, "signs", self._check_signs(self.signs, len(terms), field))
        for k, t in enumerate(terms):
            if t.shape != shape:
                raise ValueError(f"{field[:-1]} {k} has shape {t.shape}, expected {shape}")
        stack = _frozen(raw).reshape((len(terms),) + shape)
        self._check_finite(stack, field)
        object.__setattr__(self, field, stack)

    @staticmethod
    def _check_signs(signs: Sequence[int], n: int, field: str) -> tuple[int, ...]:
        """The sign rule of every signed record: ``signs`` for ``n`` terms in ``field``, as a tuple of ints.

        Each sign must equal +1 or -1 exactly (bools and arrays are
        rejected), there must be one per term and the +1 block must come first.
        """
        signs = tuple(signs)
        if len(signs) != n:
            raise ValueError(f"{len(signs)} signs but {n} {field}")
        if any(isinstance(s, (bool, np.bool_, np.ndarray)) or s not in (1, -1) for s in signs):
            raise ValueError(f"signs must be +1 or -1, got {signs}")
        if any(a < b for a, b in zip(signs, signs[1:])):
            raise ValueError(f"positive-sign terms must precede negative-sign terms, got {signs}")
        return tuple(int(s) for s in signs)

    @staticmethod
    def _check_finite(stack: np.ndarray, field: str) -> None:
        bad = ~np.isfinite(stack).all(axis=tuple(range(1, stack.ndim)))
        if bad.any():
            raise ValueError(f"{field[:-1]} {int(np.argmax(bad))} contains non-finite entries")

    @property
    def n_terms(self) -> int:
        return len(self.signs)

    @property
    def signature(self) -> Signature:
        p = sum(1 for s in self.signs if s > 0)
        return Signature(p, len(self.signs) - p)


@dataclass(frozen=True, eq=False)
class SignedOperatorSum(_SignedTerms):
    """Decomposition ``rho -> sum_i signs[i] * operators[i] rho operators[i]^dag``.

    Terms are stored with all +1 signs before all -1 signs; the
    signature ``(p, q)`` counts the two blocks.  ``operators`` is one
    read-only ``(n_terms, dim, dim)`` array (``(0, dim, dim)`` for an
    empty sum), so instances are immutable and safe to share.
    """

    dim: int
    signs: tuple[int, ...]
    operators: np.ndarray

    def __post_init__(self) -> None:
        self._check_terms("operators", (self.dim, self.dim))

    @classmethod
    def from_terms(
        cls,
        signs: Sequence[int],
        operators: Sequence[np.ndarray],
        dim: int | None = None,
    ) -> "SignedOperatorSum":
        """Build a sum, inferring ``dim`` from the first operator if omitted."""
        if dim is None:
            if not len(operators):
                raise ValueError("dim is required for an empty term list")
            dim = int(np.asarray(operators[0]).shape[0])
        return cls(dim, tuple(signs), operators)


class MapClass(NamedTuple):
    """Classification of a Hermiticity-preserving map."""

    kind: str  # "CP" or "NCP"
    signature: Signature


def reshuffle(x: AMatrix | BMatrix) -> BMatrix | AMatrix:
    """Swap the middle indices of the 4-tensor behind ``x``.

    Maps an :class:`AMatrix` to the corresponding :class:`BMatrix` and
    vice versa.  The operation is an exact involution (a pure index
    permutation, no arithmetic).
    """
    if not isinstance(x, (AMatrix, BMatrix)):
        raise TypeError(f"expected AMatrix or BMatrix, got {type(x).__name__}")
    d = x.dim
    t = x.matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return BMatrix(d, t) if isinstance(x, AMatrix) else AMatrix(d, t)


def _is_hermitian(m: np.ndarray, tol: float) -> bool:
    """True iff ``max|M - M^dag|`` is at most ``tol`` times ``max|M|``.

    The square ``M`` is compared in row bands of its upper triangle,
    ``M[i:i+k, i:]`` against ``M[i:, i:i+k]^dag`` with ``k = 64``, so no
    full-size ``M^dag`` or ``M - M^dag`` is formed and no strided
    transpose spans the whole matrix.  The bands hold every value
    ``|M_ij - conj(M_ji)|`` of the full difference (each pair up to the
    order of its terms, which leaves the modulus unchanged), so the
    decision is that of the full comparison; a NaN fails its band.
    """
    cut, k = _cut(tol, _max_abs(m)), 64
    return all(_max_abs(m[i : i + k, i:] - m[i:, i : i + k].conj().T) <= cut for i in range(0, len(m), k))


def check_trace_preserving(x: AMatrix | SignedOperatorSum, tol: float = DEFAULT_TOL) -> bool:
    """True iff the map preserves the trace of its input.

    For an :class:`AMatrix` this checks ``sum_{r'} A[r'*d+r', r*d+s] =
    delta_{rs}``; for a :class:`SignedOperatorSum` it checks
    ``sum_i sign_i E_i^dag E_i = 1`` within the absolute ``tol``.
    """
    if isinstance(x, AMatrix):
        d = x.dim
        t = x.matrix.reshape(d, d, d, d)
        return _max_abs(np.einsum("iirs->rs", t) - np.eye(d)) <= _cut(tol)
    if isinstance(x, SignedOperatorSum):
        return _max_abs(_signed_gram(x.signs, x.operators) - np.eye(x.dim)) <= _cut(tol)
    raise TypeError(f"expected AMatrix or SignedOperatorSum, got {type(x).__name__}")


def _signed_gram(signs: Sequence[int], terms: np.ndarray) -> np.ndarray:
    """``sum_k signs[k] terms[k]^dag terms[k]`` over a stack of matrices, +1 block first.

    One GEMM per sign block, so a negative block equal to the positive one cancels exactly.
    The ``1 x m`` rows ``conj(v_k)`` give the signed outer sum ``sum_k signs[k] v_k v_k^dag``.
    """
    p = sum(1 for s in signs if s > 0)
    plus, minus = (block.reshape(-1, terms.shape[-1]) for block in (terms[:p], terms[p:]))
    return plus.conj().T @ plus - minus.conj().T @ minus


def b_from_operator_sum(ops: SignedOperatorSum) -> BMatrix:
    """Dynamical matrix ``sum_i sign_i vec(E_i) vec(E_i)^dag``."""
    return BMatrix(ops.dim, _signed_gram(ops.signs, ops.operators.reshape(ops.n_terms, 1, ops.dim**2).conj()))


def a_from_operator_sum(ops: SignedOperatorSum) -> AMatrix:
    """Transition matrix of a signed operator sum (via :func:`reshuffle`)."""
    return reshuffle(b_from_operator_sum(ops))


def _as_b_matrix(channel: AMatrix | BMatrix | SignedOperatorSum) -> BMatrix:
    """The dynamical matrix of a channel in any of the three forms; a :class:`BMatrix` is returned as it is."""
    if isinstance(channel, SignedOperatorSum):
        return b_from_operator_sum(channel)
    return reshuffle(channel) if isinstance(channel, AMatrix) else channel


def _checked_b(b: BMatrix, tol: float) -> np.ndarray:
    """``B``'s matrix, once it is Hermitian within ``tol`` times its largest entry.

    It is real (float64) when ``B`` has no imaginary part, as for any
    signed mixture of Pauli strings, so the arithmetic on it is real.
    """
    m = b.matrix
    if not _is_hermitian(m, tol):
        raise NotHermitian("B is not Hermitian: the map does not preserve Hermiticity")
    return m if m.imag.any() else m.real


def _hermitian_part(b: BMatrix, tol: float) -> np.ndarray:
    """``(B + B^dag) / 2`` of the :func:`_checked_b` matrix."""
    m = _checked_b(b, tol)
    return (m + m.conj().T) / 2


def _signed_factors(h: np.ndarray, tol: float) -> tuple[tuple[int, ...], np.ndarray]:
    """Signs and rows ``sqrt(|lambda|) v^T`` of the canonical signed eigensystem of the Hermitian ``h``.

    Eigenvalues up to ``tol * max|lambda|`` drop; the rest are ordered and
    their eigenspaces given bases as :func:`_signed_eigensystem` says.
    """
    lam, v = np.linalg.eigh(h)
    values, basis = _signed_eigensystem(lam, v, _cut(tol, _max_abs(lam)))
    return tuple(np.sign(values).astype(int)), (basis * np.sqrt(np.abs(values))).T


def operator_sum_from_b(b: BMatrix, tol: float = DEFAULT_TOL) -> SignedOperatorSum:
    """Signed operator sum from the eigendecomposition of ``B``.

    Each retained eigenpair contributes ``sqrt(|eigenvalue|) * unvec(v)``
    with the eigenvalue's sign; eigenvalues of magnitude at most
    ``tol * max|eigenvalue|`` are dropped, so ``B = 0`` yields an empty
    term list; gaps up to the cut join one eigenspace at its mean.  Terms
    come out +1 block first, each block by descending Frobenius norm.
    Each eigenspace's basis projects the standard basis onto it in index
    order: the first entry of ``vec(E_i) / ||E_i||`` above ``1e-8`` is real
    and positive, and degenerate terms follow those entries' indices.  A
    real ``B`` (no imaginary part at all) is diagonalized in real
    arithmetic; the canonical basis makes the terms those of the complex
    eigensolver up to rounding.

    Raises
    ------
    NotHermitian
        If ``B`` is not Hermitian within ``tol`` (scaled by the largest
        entry), i.e. the map does not preserve Hermiticity.
    """
    signs, rows = _signed_factors(_hermitian_part(b, tol), tol)
    return SignedOperatorSum(b.dim, signs, rows.reshape(-1, b.dim, b.dim))


def apply_map(ops: SignedOperatorSum, rho: np.ndarray) -> np.ndarray:
    """Evaluate ``sum_i sign_i E_i rho E_i^dag``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ops.dim, ops.dim):
        raise ValueError(f"state has shape {rho.shape}, expected ({ops.dim}, {ops.dim})")
    out = np.zeros_like(rho)
    for s, op in zip(ops.signs, ops.operators):
        out += s * (op @ rho @ op.conj().T)
    return out


def classify(b: BMatrix, tol: float = DEFAULT_TOL) -> MapClass:
    """Classify a Hermiticity-preserving map as CP or NCP.

    The map is completely positive iff no eigenvalue of ``B`` is below
    ``-tol * max|eigenvalue|``, the cut of :func:`operator_sum_from_b`;
    the signature counts eigenvalues beyond it on either side.  As there,
    a real ``B`` is diagonalized in real arithmetic.

    Raises
    ------
    NotHermitian
        If ``B`` is not Hermitian within tolerance.
    """
    lam = np.linalg.eigvalsh(_hermitian_part(b, tol))
    cut = _cut(tol, _max_abs(lam))
    p, q = int(np.sum(lam > cut)), int(np.sum(lam < -cut))
    kind = "CP" if q == 0 else "NCP"
    return MapClass(kind, Signature(p, q))


def transform_by_pseudounitary(
    ops: SignedOperatorSum, u: np.ndarray, tol: float = DEFAULT_TOL
) -> SignedOperatorSum:
    """Mix the terms by a pseudounitary: ``F_j = sum_k E_k u[k, j]``.

    The sign pattern is unchanged and the resulting decomposition
    generates the same map, because ``u`` preserves the metric built
    from the signature.

    Raises
    ------
    NotPseudoUnitary
        If ``u`` fails ``u eta u^dag = eta`` at ``tol`` for the metric of
        ``ops.signature``.
    """
    u = np.asarray(u, dtype=complex)
    n = ops.n_terms
    if u.shape != (n, n):
        raise ValueError(f"u has shape {u.shape}, expected ({n}, {n})")
    eta = eta_metric(ops.signature)
    if not is_pseudounitary(u, eta, tol):
        raise NotPseudoUnitary("u does not preserve the metric of the term signature")
    mixed = np.tensordot(u, ops.operators, axes=([0], [0]))  # F_j = sum_k E_k u[k, j]
    return SignedOperatorSum(ops.dim, ops.signs, mixed)
