"""Pseudounitary freedom between signed decompositions.

Two signed ensembles of vectors that assemble the same Hermitian
operator ``sum_i sign_i v_i v_i^dag`` are related by a pseudounitary
mixing matrix once both are reduced to *base* ensembles (no zero
vectors, no canceling structure) and zero-padded to a common signature.
The connection is computed by expressing both padded lists in the
canonical eigenbasis of the shared operator: if ``w`` and ``v`` are the
two coefficient matrices, the mixing matrix ``u`` solves ``u v = w``.

A signed operator sum is such an ensemble one level up: its terms
``vec(E_k)`` assemble the dynamical matrix, and two sums generate the
same map exactly when their dynamical matrices agree.  The map
connection is therefore the ensemble connection on ``vec(E_k)``,
transposed to the column convention of
:func:`~ncpqec.superop.transform_by_pseudounitary`.

A coefficient matrix that is singular after padding flags an input with
a non-trivial extension -- e.g. a canceling pair ``(+K, -K)`` -- whose
terms cannot be reached from the base decomposition by appending zero
terms.  That case is reported rather than regularized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MapsNotEqual, OperatorsNotEqual, SingularCoefficientMatrix
from .pseudolinalg import DEFAULT_TOL, Signature, _cut, _frozen, _max_abs, _signed_eigensystem
from .superop import (
    SignedOperatorSum,
    _SignedTerms,
    _signed_gram,
    b_from_operator_sum,
    operator_sum_from_b,
)

__all__ = [
    "SignedEnsemble",
    "ConnectionResult",
    "maps_equal",
    "to_base_map",
    "pad_to_signature",
    "connecting_pseudounitary",
    "ensemble_connection",
]


@dataclass(frozen=True, eq=False)
class SignedEnsemble(_SignedTerms):
    """Signed vectors assembling ``sum_i signs[i] * v_i v_i^dag``.

    ``vectors`` is stored as one read-only ``(n_terms, dim)`` array.
    """

    dim: int
    signs: tuple[int, ...]
    vectors: np.ndarray

    def __post_init__(self) -> None:
        self._check_terms("vectors", (self.dim,))

    def operator(self) -> np.ndarray:
        """The Hermitian operator the ensemble assembles."""
        return _signed_gram(self.signs, self.vectors.reshape(self.n_terms, 1, self.dim).conj())


@dataclass(frozen=True, eq=False)
class ConnectionResult:
    """Pseudounitary connecting two decompositions after zero padding.

    ``u`` acts on the padded term lists; ``padding_added`` records how
    many zero terms were appended to the first and second inputs to
    reach the common ``signature``.  ``residual`` is the worst entrywise
    error of the reproduced term list.
    """

    u: np.ndarray
    signature: Signature
    padding_added: tuple[int, int]
    residual: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", _frozen(self.u))


def _differ(x: np.ndarray, y: np.ndarray, tol: float) -> bool:
    """True iff ``x`` and ``y`` differ entrywise by more than ``tol`` times the larger's largest entry."""
    return _max_abs(x - y) > _cut(tol, max(_max_abs(x), _max_abs(y)))


def maps_equal(a: SignedOperatorSum, b: SignedOperatorSum, tol: float = DEFAULT_TOL) -> bool:
    """True iff the two decompositions generate the same map.

    Compares the dynamical matrices entrywise within ``tol`` times their largest entry.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return not _differ(b_from_operator_sum(a).matrix, b_from_operator_sum(b).matrix, tol)


def to_base_map(ops: SignedOperatorSum, tol: float = DEFAULT_TOL) -> SignedOperatorSum:
    """Canonical base decomposition of the map generated by ``ops``.

    Re-derives the terms from the eigendecomposition of the dynamical
    matrix, which drops zero operators and canceling structure; the term
    count equals the rank of the dynamical matrix.  Idempotent.
    """
    return operator_sum_from_b(b_from_operator_sum(ops), tol)


def _pad(terms: np.ndarray, sig: Signature, target: Signature) -> np.ndarray:
    """Sign-ordered ``terms`` (one per row) with zero rows closing each block up to ``target``."""
    out = np.zeros((target.size,) + terms.shape[1:], dtype=complex)
    out[: sig.p] = terms[: sig.p]
    out[target.p : target.p + sig.q] = terms[sig.p :]
    return out


def pad_to_signature(ops: SignedOperatorSum, signature: Signature) -> SignedOperatorSum:
    """Append zero operators to reach ``signature`` (blockwise at the end)."""
    sig = ops.signature
    if signature.p < sig.p or signature.q < sig.q:
        raise ValueError(f"cannot shrink signature ({sig.p}, {sig.q}) to ({signature.p}, {signature.q})")
    signs = (1,) * signature.p + (-1,) * signature.q
    return SignedOperatorSum(ops.dim, signs, _pad(ops.operators, sig, signature))


def _coefficients(
    x: np.ndarray, basis: np.ndarray, mag: np.ndarray, spanned: Signature, target: Signature, tol: float
) -> np.ndarray:
    """Coefficients of the padded rows ``x`` over the padded canonical basis.

    ``basis`` holds the canonical unit vectors (one per row, signature
    ``spanned``) with eigenvalue magnitudes ``mag``; the padded basis
    appends zero vectors to each sign block up to ``target``.  Zero rows
    -- the padding together with any explicit zero terms of the input --
    are paired one-to-one, in order, with zero basis columns of the same
    sign, giving the canonical square completion.  A row with a component
    outside the span of the basis makes the expansion infeasible.  Both
    gates are relative to the largest entry of ``x``.
    """
    coeffs = x @ basis.conj().T / np.sqrt(mag)
    size = np.abs(x).max(axis=1)
    cut = _cut(tol, size.max(initial=0.0))
    zero = size <= cut
    error = np.abs(x - (coeffs * np.sqrt(mag)) @ basis).max(axis=1)
    outside = np.flatnonzero(~zero & (error > 10 * cut))
    if outside.size:
        raise SingularCoefficientMatrix(
            f"term {outside[0]} has a component outside the shared eigenbasis span "
            "(input is not a base decomposition plus zero padding)"
        )
    # Column layout: [+ canonical | + zeros | - canonical | - zeros]
    w = _pad(coeffs.T, spanned, target).T
    w[zero] = 0.0
    for rows, first, stop in (
        (np.flatnonzero(zero[: target.p]), spanned.p, target.p),
        (target.p + np.flatnonzero(zero[target.p :]), target.p + spanned.q, target.size),
    ):
        if first + rows.size > stop:
            raise SingularCoefficientMatrix("more zero terms than zero basis columns of matching sign")
        w[rows, first + np.arange(rows.size)] = 1.0
    return w


def _connect(
    xa: np.ndarray, sig_a: Signature, xb: np.ndarray, sig_b: Signature, shared: np.ndarray, tol: float
) -> ConnectionResult:
    """Connection ``u`` with ``pad(xa) = u pad(xb)`` for sign-ordered terms assembling ``shared``.

    Both term lists (one vector per row) are zero-padded to the larger
    signature and expanded over the canonical eigenbasis of ``shared``.
    A ``shared`` without retained eigenvalues is trivially connected.
    """
    lam, vectors = np.linalg.eigh(shared)
    values, basis = _signed_eigensystem(lam, vectors, _cut(tol, _max_abs(lam)))
    if not values.size:
        return ConnectionResult(np.zeros((0, 0), dtype=complex), Signature(0, 0), (0, 0), 0.0)
    target = Signature(max(sig_a.p, sig_b.p), max(sig_a.q, sig_b.q))
    r_plus = int(np.sum(values > 0))
    spanned = Signature(r_plus, values.size - r_plus)
    if spanned.p > target.p or spanned.q > target.q:
        raise SingularCoefficientMatrix(
            f"shared eigenbasis signature ({spanned.p}, {spanned.q}) exceeds the term signature "
            f"({target.p}, {target.q})"
        )
    pa, pb = _pad(xa, sig_a, target), _pad(xb, sig_b, target)
    w, v = (_coefficients(x, basis.T, np.abs(values), spanned, target, tol) for x in (pa, pb))
    for m in (w, v):
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[-1] <= _cut(tol, sv[0]):
            raise SingularCoefficientMatrix(
                f"a coefficient matrix is singular after padding (smallest singular value "
                f"{sv[-1]:.3e}): an input has a non-base residual such as a canceling pair"
            )
    u = np.linalg.solve(v.T, w.T).T
    padding = (target.size - sig_a.size, target.size - sig_b.size)
    return ConnectionResult(u, target, padding, _max_abs(pb.T @ u.T - pa.T))


def connecting_pseudounitary(
    a: SignedOperatorSum, b: SignedOperatorSum, tol: float = DEFAULT_TOL
) -> ConnectionResult:
    """Pseudounitary ``u`` with ``transform_by_pseudounitary(a, u) = b``.

    The ensemble connection of the vectorized terms ``vec(E_k)``, which
    assemble the dynamical matrix, with the roles of ``a`` and ``b``
    swapped and ``u`` transposed to the column convention.  Both inputs
    are zero-padded to the larger signature; ``padding_added`` is in the
    order ``(a, b)``.  All decompositions of the zero map are treated as
    trivially connected and yield an empty ``u``.

    Raises
    ------
    MapsNotEqual
        If the dynamical matrices differ at ``tol``, relative as in :func:`maps_equal`.
    SingularCoefficientMatrix
        If either padded coefficient matrix is singular or a term leaves
        the span of the shared eigenbasis -- i.e. an input is not a base
        decomposition plus zero padding.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    ba, bb = b_from_operator_sum(a).matrix, b_from_operator_sum(b).matrix
    if _differ(ba, bb, tol):
        raise MapsNotEqual("decompositions generate different maps")
    xa, xb = (x.operators.reshape(x.n_terms, x.dim**2) for x in (a, b))
    res = _connect(xb, b.signature, xa, a.signature, (ba + bb) / 2, tol)
    return ConnectionResult(res.u.T, res.signature, res.padding_added[::-1], res.residual)


def ensemble_connection(
    a: SignedEnsemble, b: SignedEnsemble, tol: float = DEFAULT_TOL
) -> ConnectionResult:
    """Pseudounitary ``u`` with ``a.vectors[i] = sum_j u[i, j] b.vectors[j]``.

    Both ensembles must assemble the same Hermitian operator.  Note the
    row convention -- rows of ``u`` mix the *second* ensemble's (padded)
    vectors into the first's, both zero-padded blockwise to the larger
    signature; ``padding_added`` is in the order ``(a, b)``.  Ensembles
    assembling the zero operator are trivially connected (empty ``u``).

    Raises
    ------
    OperatorsNotEqual
        If the assembled operators differ at ``tol``, relative to their
        largest entry as in :func:`maps_equal`.
    SingularCoefficientMatrix
        As for :func:`connecting_pseudounitary`.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    oa, ob = a.operator(), b.operator()
    if _differ(oa, ob, tol):
        raise OperatorsNotEqual("ensembles assemble different operators")
    return _connect(a.vectors, a.signature, b.vectors, b.signature, (oa + ob) / 2, tol)
