"""Pseudounitary freedom between signed decompositions.

Two signed operator sums generate the same map exactly when their
dynamical matrices agree, and in that case their term lists are related
by a pseudounitary mixing matrix once both are reduced to *base*
decompositions (no zero operators, no canceling structure) and
zero-padded to a common signature.  The connection is computed by
expressing both term lists in the canonical eigenbasis of the shared
dynamical matrix: if ``w`` and ``v`` are the two coefficient matrices,
the mixing matrix is ``v w^-1`` (transposed to the column convention of
:func:`~ncpqec.superop.transform_by_pseudounitary`).

A coefficient matrix that is singular after padding flags an input with
a non-trivial extension -- e.g. a canceling pair ``(+K, -K)`` -- whose
terms cannot be reached from the base decomposition by appending zero
operators.  That case is reported rather than regularized.  The same
construction one level down connects signed ensembles of vectors that
assemble the same Hermitian operator ``sum_i sign_i v_i v_i^dag``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MapsNotEqual, OperatorsNotEqual, SingularCoefficientMatrix
from .pseudolinalg import DEFAULT_TOL, Signature, _max_abs
from .superop import (
    SignedOperatorSum,
    b_from_operator_sum,
    canonical_signed_eigensystem,
    operator_sum_from_b,
    vec,
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


@dataclass(frozen=True)
class SignedEnsemble:
    """Signed vectors assembling ``sum_i signs[i] * v_i v_i^dag``."""

    dim: int
    signs: tuple[int, ...]
    vectors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be positive")
        signs = tuple(int(s) for s in self.signs)
        vectors = tuple(np.asarray(v, dtype=complex) for v in self.vectors)
        if len(signs) != len(vectors):
            raise ValueError(f"{len(signs)} signs but {len(vectors)} vectors")
        if any(s not in (1, -1) for s in signs):
            raise ValueError(f"signs must be +1 or -1, got {signs}")
        if any(signs[i] < signs[i + 1] for i in range(len(signs) - 1)):
            raise ValueError("positive-sign terms must precede negative-sign terms")
        frozen = []
        for k, v in enumerate(vectors):
            if v.shape != (self.dim,):
                raise ValueError(f"vector {k} has shape {v.shape}, expected ({self.dim},)")
            fv = np.array(v, copy=True)
            fv.setflags(write=False)
            frozen.append(fv)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "vectors", tuple(frozen))

    @property
    def n_terms(self) -> int:
        return len(self.signs)

    @property
    def signature(self) -> Signature:
        p = sum(1 for s in self.signs if s > 0)
        return Signature(p, len(self.signs) - p)

    def operator(self) -> np.ndarray:
        """The Hermitian operator the ensemble assembles."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for s, v in zip(self.signs, self.vectors):
            out += s * np.outer(v, v.conj())
        return out


@dataclass(frozen=True)
class ConnectionResult:
    """Pseudounitary connecting two decompositions after zero padding.

    ``u`` acts on the padded term lists; ``padding_added`` records how
    many zero terms were appended to the first and second inputs to
    reach the common ``signature``.  ``residual`` is the worst entrywise
    error of the reproduced second term list.
    """

    u: np.ndarray
    signature: Signature
    padding_added: tuple[int, int]
    residual: float


def maps_equal(a: SignedOperatorSum, b: SignedOperatorSum, tol: float = DEFAULT_TOL) -> bool:
    """True iff the two decompositions generate the same map.

    Compares the dynamical matrices entrywise within ``tol``.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return _max_abs(b_from_operator_sum(a).matrix - b_from_operator_sum(b).matrix) <= tol


def to_base_map(ops: SignedOperatorSum, tol: float = DEFAULT_TOL) -> SignedOperatorSum:
    """Canonical base decomposition of the map generated by ``ops``.

    Re-derives the terms from the eigendecomposition of the dynamical
    matrix, which drops zero operators and canceling structure; the term
    count equals the rank of the dynamical matrix.  Idempotent.
    """
    return operator_sum_from_b(b_from_operator_sum(ops), tol)


def pad_to_signature(ops: SignedOperatorSum, signature: Signature) -> SignedOperatorSum:
    """Append zero operators to reach ``signature`` (blockwise at the end)."""
    sig = ops.signature
    if signature.p < sig.p or signature.q < sig.q:
        raise ValueError(f"cannot shrink signature ({sig.p}, {sig.q}) to ({signature.p}, {signature.q})")
    zero = np.zeros((ops.dim, ops.dim), dtype=complex)
    plus = [op for s, op in zip(ops.signs, ops.operators) if s > 0]
    minus = [op for s, op in zip(ops.signs, ops.operators) if s < 0]
    plus += [zero] * (signature.p - sig.p)
    minus += [zero] * (signature.q - sig.q)
    signs = (1,) * signature.p + (-1,) * signature.q
    return SignedOperatorSum(ops.dim, signs, tuple(plus) + tuple(minus))


def _coefficient_matrix(
    columns: list[np.ndarray],
    signs: list[int],
    appended: list[int],
    basis: list[tuple[int, float, np.ndarray]],
    pad_plus: int,
    pad_minus: int,
    tol: float,
) -> np.ndarray:
    """Coefficients of ``columns`` over the padded canonical basis.

    ``basis`` holds the canonical ``(sign, magnitude, unit vector)``
    triples; the padded basis appends ``pad_plus`` zero vectors after
    the + block and ``pad_minus`` after the - block.  Zero rows -- the
    terms added by padding (listed in ``appended``) together with any
    explicit zero terms already present in the input -- are paired
    one-to-one with zero basis columns of the same sign, giving the
    canonical square completion.  A row with a component outside the
    span of the basis makes the expansion infeasible.
    """
    n = len(columns)
    r_plus = sum(1 for s, _, _ in basis if s > 0)
    r = len(basis)
    # Column layout: [+ canonical | + zeros | - canonical | - zeros]
    col_of_basis = list(range(r_plus)) + list(range(r_plus + pad_plus, r + pad_plus))
    zero_plus_cols = list(range(r_plus, r_plus + pad_plus))
    zero_minus_cols = list(range(r + pad_plus, r + pad_plus + pad_minus))
    zero_rows = set(appended) | {i for i in range(n) if _max_abs(columns[i]) <= tol}
    w = np.zeros((n, n), dtype=complex)
    for i, col in enumerate(columns):
        if i in zero_rows:
            continue
        recon = np.zeros_like(col)
        for k, (_, mag, u) in enumerate(basis):
            c = np.vdot(u, col) / np.sqrt(mag)
            w[i, col_of_basis[k]] = c
            recon = recon + c * np.sqrt(mag) * u
        if _max_abs(col - recon) > 10 * tol * max(1.0, _max_abs(col)):
            raise SingularCoefficientMatrix(
                f"term {i} has a component outside the shared eigenbasis span "
                "(input is not a base decomposition plus zero padding)"
            )
    next_plus = iter(zero_plus_cols)
    next_minus = iter(zero_minus_cols)
    for i in sorted(zero_rows):
        try:
            w[i, next(next_plus) if signs[i] > 0 else next(next_minus)] = 1.0
        except StopIteration:
            raise SingularCoefficientMatrix(
                "more zero terms than zero basis columns of matching sign"
            ) from None
    return w


def _connect(
    cols_a: list[np.ndarray],
    signs_a: list[int],
    appended_a: list[int],
    cols_b: list[np.ndarray],
    signs_b: list[int],
    appended_b: list[int],
    basis: list[tuple[int, float, np.ndarray]],
    target: Signature,
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient matrices ``(w, v)`` of both padded lists, checked invertible."""
    r_plus = sum(1 for s, _, _ in basis if s > 0)
    r_minus = len(basis) - r_plus
    pad_plus = target.p - r_plus
    pad_minus = target.q - r_minus
    if pad_plus < 0 or pad_minus < 0:
        raise SingularCoefficientMatrix(
            f"shared eigenbasis signature ({r_plus}, {r_minus}) exceeds the term signature "
            f"({target.p}, {target.q})"
        )
    w = _coefficient_matrix(cols_a, signs_a, appended_a, basis, pad_plus, pad_minus, tol)
    v = _coefficient_matrix(cols_b, signs_b, appended_b, basis, pad_plus, pad_minus, tol)
    for name, m in (("first", w), ("second", v)):
        sv = np.linalg.svd(m, compute_uv=False) if m.size else np.zeros(0)
        if m.size and sv[-1] <= tol * max(1.0, sv[0]):
            raise SingularCoefficientMatrix(
                f"coefficient matrix of the {name} decomposition is singular after padding "
                "(non-base residual such as a canceling pair)"
            )
    return w, v


def connecting_pseudounitary(
    a: SignedOperatorSum, b: SignedOperatorSum, tol: float = DEFAULT_TOL
) -> ConnectionResult:
    """Pseudounitary ``u`` with ``transform_by_pseudounitary(a, u) = b``.

    Both inputs are zero-padded to the larger signature, then expressed
    in the canonical eigenbasis of the shared dynamical matrix; the
    mixing matrix is the quotient of the two coefficient matrices.  All
    decompositions of the zero map are treated as trivially connected
    and yield an empty ``u``.

    Raises
    ------
    MapsNotEqual
        If the dynamical matrices differ at ``tol``.
    SingularCoefficientMatrix
        If either padded coefficient matrix is singular or a term leaves
        the span of the shared eigenbasis -- i.e. an input is not a base
        decomposition plus zero padding.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if not maps_equal(a, b, tol):
        raise MapsNotEqual("decompositions generate different maps")
    shared = (b_from_operator_sum(a).matrix + b_from_operator_sum(b).matrix) / 2
    basis = canonical_signed_eigensystem(shared, tol)
    if not basis:
        return ConnectionResult(np.zeros((0, 0), dtype=complex), Signature(0, 0), (0, 0), 0.0)
    sig_a, sig_b = a.signature, b.signature
    target = Signature(max(sig_a.p, sig_b.p), max(sig_a.q, sig_b.q))
    a_pad = pad_to_signature(a, target)
    b_pad = pad_to_signature(b, target)
    appended_a = [i for i in range(target.p + target.q) if _appended(i, sig_a, target)]
    appended_b = [i for i in range(target.p + target.q) if _appended(i, sig_b, target)]
    w, v = _connect(
        [vec(op) for op in a_pad.operators],
        list(a_pad.signs),
        appended_a,
        [vec(op) for op in b_pad.operators],
        list(b_pad.signs),
        appended_b,
        basis,
        target,
        tol,
    )
    u = np.linalg.solve(w.T, v.T)
    va = np.column_stack([vec(op) for op in a_pad.operators])
    vb = np.column_stack([vec(op) for op in b_pad.operators])
    residual = _max_abs(va @ u - vb)
    return ConnectionResult(u, target, (target.size - a.n_terms, target.size - b.n_terms), residual)


def _appended(index: int, original: Signature, target: Signature) -> bool:
    """Whether position ``index`` of the padded list is an appended zero."""
    if index < target.p:
        return index >= original.p
    return index - target.p >= original.q


def ensemble_connection(
    a: SignedEnsemble, b: SignedEnsemble, tol: float = DEFAULT_TOL
) -> ConnectionResult:
    """Pseudounitary ``u`` with ``a.vectors[i] = sum_j u[i, j] b.vectors[j]``.

    The ensemble analogue of :func:`connecting_pseudounitary`, one level
    down: both ensembles must assemble the same Hermitian operator.
    Note the row convention -- rows of ``u`` mix the *second* ensemble's
    (padded) vectors into the first's.  Ensembles assembling the zero
    operator are trivially connected (empty ``u``).

    Raises
    ------
    OperatorsNotEqual
        If the assembled operators differ at ``tol``.
    SingularCoefficientMatrix
        As for :func:`connecting_pseudounitary`.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if _max_abs(a.operator() - b.operator()) > tol:
        raise OperatorsNotEqual("ensembles assemble different operators")
    shared = (a.operator() + b.operator()) / 2
    basis = canonical_signed_eigensystem(shared, tol)
    if not basis:
        return ConnectionResult(np.zeros((0, 0), dtype=complex), Signature(0, 0), (0, 0), 0.0)
    sig_a, sig_b = a.signature, b.signature
    target = Signature(max(sig_a.p, sig_b.p), max(sig_a.q, sig_b.q))
    zero = np.zeros(a.dim, dtype=complex)

    def padded(e: SignedEnsemble) -> list[np.ndarray]:
        plus = [v for s, v in zip(e.signs, e.vectors) if s > 0]
        minus = [v for s, v in zip(e.signs, e.vectors) if s < 0]
        return plus + [zero] * (target.p - len(plus)) + minus + [zero] * (target.q - len(minus))

    signs = [1] * target.p + [-1] * target.q
    appended_a = [i for i in range(target.size) if _appended(i, sig_a, target)]
    appended_b = [i for i in range(target.size) if _appended(i, sig_b, target)]
    w, v = _connect(padded(a), signs, appended_a, padded(b), signs, appended_b, basis, target, tol)
    u = np.linalg.solve(v.T, w.T).T  # u v = w
    va = np.column_stack(padded(a))
    vb = np.column_stack(padded(b))
    residual = _max_abs(vb @ u.T - va)
    return ConnectionResult(u, target, (target.size - a.n_terms, target.size - b.n_terms), residual)
