"""Error-correction analysis for signed operator sums on a code space.

Given a code space (logical isometry ``B``, projector ``P = B B^dag``)
and a signed decomposition ``rho -> sum_i sign_i E_i rho E_i^dag``, the
correctability conditions take the signed form
``sign_i P E_i^dag E_j P = c_ij P``.  :func:`analyze` decides them on the
map restricted to the code: one Hermitian eigendecomposition gives its
canonical terms ``F = E T``, whose conditions are diagonal when the
conditions hold.  The analysis reads the map only through the terms on
the code, the ``n x d x r`` stack ``V_k = E_k B``.  The conditions come
from one Gram GEMM of ``[V_1, V_2, ...]``, the ``r x r`` blocks
``V_k^dag V_l``, which also give the canonical blocks (an ``n x n``
congruence by ``T``) and the trace check; the syndrome overlaps are the
same Gram of the ``W_k``.  One batched polar decomposition of
``F B = V T`` yields ``d x r`` isometries ``W_k`` with pairwise-orthogonal
ranges, the syndrome projectors ``W_k W_k^dag`` of the completely
positive theory.  ``F`` itself is never formed.

The sign structure adds one genuinely new outcome: if a negative
canonical term acts on the code space, its syndrome returns the
*negative* probability ``-d_k`` on every code state.  Such a state
certifies that the code space lies outside the domain where the map is
a physical evolution, and :func:`analyze` reports it as a witness.
Otherwise the evolution restricted to the code is reversible with
positive output, and the recovery is the Knill-Laflamme one (PRA 55,
900, 1997): measure syndrome ``j``, then undo its isometry,
``R_j = B W_j^dag``.  The :class:`SyndromeSet` holds it once, factored as
``B`` and the ``W_j``, so no ``d x d`` array is formed after ``V``.
Analysis gates compare against ``tol`` times the map's scale on the
code; trace preservation, scale-dependent by definition, uses ``tol``.
"""

from __future__ import annotations

import enum
import functools
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConditionsViolated,
    LinearDependence,
    OrthogonalityViolation,
    WitnessSearchFailed,
    ZeroTrace,
)
from .pseudolinalg import DEFAULT_TOL, _check_tol, _frozen, _max_abs, _signed_eigensystem, polar_on_code
from .superop import SignedOperatorSum

__all__ = [
    "CodeSpace",
    "ConditionMatrix",
    "Syndrome",
    "SyndromeSet",
    "Recovery",
    "NegativityWitness",
    "Verdict",
    "QecReport",
    "projector_from_basis",
    "repetition_bitflip",
    "cp_condition_matrix",
    "ph_condition_matrix",
    "diagonalize_conditions",
    "build_syndromes",
    "negative_part_on_code",
    "build_recovery",
    "domain_witness",
    "analyze",
    "verify_recovery",
]

_VERIFY_SEED = 424033


@dataclass(frozen=True, eq=False)
class CodeSpace:
    """A code space as its ``d x r`` logical isometry ``B`` (orthonormal columns).

    Construction raises ``ValueError`` unless ``B`` is a finite ``d x r``
    array with ``1 <= r <= d`` and ``max|B^dag B - I| <= DEFAULT_TOL``,
    so every analysis may take ``B`` to be an isometry.
    """

    isometry: np.ndarray

    def __post_init__(self) -> None:
        b = _frozen(self.isometry)
        if b.ndim != 2 or not 1 <= b.shape[1] <= b.shape[0]:
            raise ValueError(f"code isometry has shape {b.shape}, expected (d, r) with 1 <= r <= d")
        if not np.all(np.isfinite(b)):
            raise ValueError("code isometry contains non-finite entries")
        error = _max_abs(b.conj().T @ b - np.eye(b.shape[1]))
        if error > DEFAULT_TOL:
            raise ValueError(f"code isometry has non-orthonormal columns: max|B^dag B - I| = {error:.3e}")
        object.__setattr__(self, "isometry", b)

    @property
    def dim(self) -> int:
        return self.isometry.shape[0]

    @property
    def rank(self) -> int:
        return self.isometry.shape[1]

    @property
    def projector(self) -> np.ndarray:
        """The code projector ``B B^dag``."""
        return self.isometry @ self.isometry.conj().T


@dataclass(frozen=True, eq=False)
class ConditionMatrix:
    """Correctability condition coefficients and the residual of the fit.

    ``form`` is ``"hermitian"`` for the unsigned (CP) conditions and
    ``"pseudohermitian"`` for the signed ones, where ``eta entries`` is
    Hermitian instead of ``entries`` itself.
    """

    entries: np.ndarray
    residual: float
    form: str

    def __post_init__(self) -> None:
        if self.form not in ("hermitian", "pseudohermitian"):
            raise ValueError(f"unknown condition form {self.form!r}")
        object.__setattr__(self, "entries", _frozen(self.entries))


@dataclass(frozen=True, eq=False)
class Syndrome:
    """One measurement branch of diagonal term ``F_k``, on the code space: a :class:`SyndromeSet` item.

    ``isometry``, a view of the set's stack, is the ``d x r`` polar
    isometry ``W_k`` with ``F_k B = sqrt(weight) W_k``.
    """

    isometry: np.ndarray
    weight: float
    sign: int
    term_index: int

    @property
    def projector(self) -> np.ndarray:
        """The syndrome projector ``W_k W_k^dag``."""
        return self.isometry @ self.isometry.conj().T


@dataclass(frozen=True, eq=False)
class Recovery:
    """The syndrome recovery ``rho -> sum_j B W_j^dag rho W_j B^dag``, in factored form.

    ``code_isometry`` is the code's ``d x r`` isometry ``B`` and
    ``isometries`` the read-only ``(m, d, r)`` stack of syndrome
    isometries ``W_j``; an input that is read-only and owns its memory
    is held without a copy.  Every term ``R_j = B W_j^dag`` has rank
    ``r``.  ``dim``, ``signs`` (all +1) and ``n_terms`` read as on a
    :class:`~ncpqec.superop.SignedOperatorSum`, and ``operators`` forms
    the dense ``(m, d, d)`` terms on each read, so ``apply_map`` takes
    either.
    """

    code_isometry: np.ndarray
    isometries: np.ndarray

    def __post_init__(self) -> None:
        b, w = (
            a if a.dtype == complex and not a.flags.writeable and a.base is None else _frozen(a)
            for a in map(np.asarray, (self.code_isometry, self.isometries))
        )
        if b.ndim != 2 or w.ndim != 3 or w.shape[1:] != b.shape:
            raise ValueError(f"isometries of shape {w.shape} do not stack d x r like the code's {b.shape}")
        object.__setattr__(self, "code_isometry", b)
        object.__setattr__(self, "isometries", w)

    @property
    def dim(self) -> int:
        return self.code_isometry.shape[0]

    @property
    def n_terms(self) -> int:
        return self.isometries.shape[0]

    @property
    def signs(self) -> tuple[int, ...]:
        return (1,) * self.n_terms

    @property
    def operators(self) -> np.ndarray:
        """The dense terms ``B W_j^dag``, ``(m, d, d)``."""
        return self.code_isometry @ self.isometries.conj().swapaxes(1, 2)


@dataclass(frozen=True, eq=False)
class SyndromeSet:
    """The retained syndromes of the diagonal terms, held once as arrays.

    ``recovery``, their Knill-Laflamme recovery, holds the code's ``B``
    and the ``(m, d, r)`` stack of the ``W_j``.  ``weights`` (float),
    ``signs`` (each +1 or -1) and ``term_indices`` (int) are read-only
    length-``m`` copies.  Indexing and iteration give the
    :class:`Syndrome` views.
    """

    recovery: Recovery
    weights: np.ndarray
    signs: np.ndarray
    term_indices: np.ndarray

    def __post_init__(self) -> None:
        if not {*np.asarray(self.signs).tolist()} <= {1, -1}:
            raise ValueError(f"syndrome signs must be +1 or -1, got {np.asarray(self.signs)}")
        for name, dtype in (("weights", float), ("signs", int), ("term_indices", int)):
            object.__setattr__(self, name, a := _frozen(getattr(self, name), dtype))
            if a.shape != (len(self),):
                raise ValueError(f"{name} has shape {a.shape}, expected ({len(self)},), one per isometry")

    @property
    def isometries(self) -> np.ndarray:
        return self.recovery.isometries

    def __len__(self) -> int:
        return self.recovery.n_terms

    def __getitem__(self, j: int) -> Syndrome:
        return Syndrome(self.isometries[j], float(self.weights[j]), int(self.signs[j]), int(self.term_indices[j]))


@dataclass(frozen=True, eq=False)
class NegativityWitness:
    """Pure code state ``vector`` whose syndrome outcome has negative probability."""

    vector: np.ndarray
    syndrome_index: int
    probability: float

    @property
    def state(self) -> np.ndarray:
        """The witness density matrix ``v v^dag``."""
        return np.outer(self.vector, self.vector.conj())


class Verdict(str, enum.Enum):
    REVERSIBLE_POSITIVE = "reversible_positive"
    CODE_OUTSIDE_DOMAIN = "code_outside_domain"
    CONDITIONS_VIOLATED = "conditions_violated"


@dataclass(frozen=True, eq=False)
class QecReport:
    """Full outcome of :func:`analyze`.

    ``condition`` holds the canonical conditions that decided the
    verdict (the ``1 x 1`` zero matrix for a map that annihilates the
    code).  ``diagonalizer`` (``T``), ``diagonal`` (``d``) and
    ``syndromes`` come from :func:`diagonalize_conditions` and are absent
    when the conditions fail.  ``witness`` is present exactly for the
    outside-domain verdict; ``recovery`` is the syndromes' own factored
    :class:`Recovery` for the reversible verdict and ``None`` otherwise.
    """

    condition: ConditionMatrix
    diagonalizer: np.ndarray | None
    diagonal: np.ndarray | None
    syndromes: SyndromeSet | None
    verdict: Verdict
    witness: NegativityWitness | None

    def __post_init__(self) -> None:
        if self.verdict == Verdict.REVERSIBLE_POSITIVE and (not self.syndromes or (self.syndromes.signs != 1).any()):
            raise ValueError("reversible verdict requires syndromes, all of sign +1")
        if (self.witness is None) == (self.verdict == Verdict.CODE_OUTSIDE_DOMAIN):
            raise ValueError("the outside-domain verdict requires a witness, and no other verdict carries one")

    @property
    def recovery(self) -> Recovery | None:
        return self.syndromes.recovery if self.verdict == Verdict.REVERSIBLE_POSITIVE else None


def projector_from_basis(vectors: Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> CodeSpace:
    """The code space of ``vectors``, orthonormalized by Gram-Schmidt in input order.

    Raises
    ------
    LinearDependence
        If the vectors do not have full rank within tolerance: a vector's
        part orthogonal to its predecessors has norm at most ``tol`` times
        its own norm.
    """
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    if not vecs:
        raise ValueError("at least one basis vector is required")
    for k, v in enumerate(vecs):
        if v.ndim != 1:
            raise ValueError(f"vector {k} has shape {v.shape}, expected a 1-D array")
        if v.shape != vecs[0].shape:
            raise ValueError(f"vector {k} has shape {v.shape}, expected {vecs[0].shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"vector {k} contains non-finite entries")
    dim = vecs[0].size
    m = np.column_stack(vecs)
    q, r = np.linalg.qr(m)
    # |R_kk| is the norm of vector k orthogonal to its predecessors; past
    # column dim every vector is dependent.
    diag = np.diag(r)
    small = np.abs(diag) <= tol * np.linalg.norm(m, axis=0)[: diag.size]
    if small.any() or len(vecs) > dim:
        k = int(np.argmax(small)) if small.any() else dim
        raise LinearDependence(f"basis vector {k} lies in the span of its predecessors")
    return CodeSpace(q * (diag / np.abs(diag)))  # the phases of Gram-Schmidt in input order


def repetition_bitflip(n: int, c0: float) -> tuple[SignedOperatorSum, CodeSpace]:
    """The map ``c0 rho + c1 sum_k X_k rho X_k``, ``c1 = (1 - c0) / n``, and the n-qubit repetition code.

    ``c0 < 0`` gives the paper's inverted (NCP) mixture.  The terms are
    ``sqrt(|c|)`` times ``X_0 .. X_{n-1}`` (qubit 0 leftmost) and ``I``,
    signed like their weights ``c``, with the +1 block first.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    d, x = 2**n, np.array([[0, 1], [1, 0]], dtype=complex)
    weighted = [((1.0 - c0) / n, np.kron(np.kron(np.eye(2**k), x), np.eye(2 ** (n - k - 1)))) for k in range(n)]
    weighted.append((c0, np.eye(d, dtype=complex)))
    terms = sorted(((1 if c > 0 else -1, np.sqrt(abs(c)) * op) for c, op in weighted), key=lambda t: -t[0])
    ops = SignedOperatorSum.from_terms([s for s, _ in terms], [op for _, op in terms])
    zeros, ones = np.zeros((2, d), dtype=complex)
    zeros[0] = ones[-1] = 1.0
    return ops, projector_from_basis([zeros, ones])


def _on_code(ops: SignedOperatorSum, code: CodeSpace, start: int = 0) -> np.ndarray:
    """Terms on the code ``V_k = E_k B`` for ``k >= start``, ``(n - start, d, r)``."""
    if ops.dim != code.dim:
        raise ValueError(f"operator dimension {ops.dim} does not match code dimension {code.dim}")
    return ops.operators[start:] @ code.isometry


def _blocks(v: np.ndarray) -> np.ndarray:
    """The ``(n, n, r, r)`` blocks ``V_k^dag V_l`` of an ``(n, d, r)`` stack, as one Gram GEMM."""
    n, d, r = v.shape
    rows = v.transpose(0, 2, 1).reshape(n * r, d)  # [V_1, V_2, ...]^T
    return (rows.conj() @ rows.T).reshape(n, r, n, r).transpose(0, 2, 1, 3)


def _condition_fit(blocks: np.ndarray, signs: Sequence[int] | None, form: str) -> ConditionMatrix:
    r = blocks.shape[-1]
    entries = np.einsum("klaa->kl", blocks / r)  # divided first: the sum of r entries may overflow
    residual = _max_abs(blocks - entries[:, :, None, None] * np.eye(r))
    if signs is not None:
        entries = np.asarray(signs)[:, None] * entries
    return ConditionMatrix(entries, residual, form)


def cp_condition_matrix(operators: Sequence[np.ndarray], code: CodeSpace) -> ConditionMatrix:
    """Fit ``P E_i^dag E_j P = c_ij P`` for an unsigned operator list.

    The residual is the largest entrywise deviation of any block
    ``B^dag E_i^dag E_j B`` from ``c_ij`` times the identity, in the
    logical basis ``B``.
    """
    if not len(operators):
        raise ValueError("at least one operator is required")
    ops = SignedOperatorSum(code.dim, (1,) * len(operators), operators)
    return _condition_fit(_blocks(_on_code(ops, code)), None, "hermitian")


def ph_condition_matrix(ops: SignedOperatorSum, code: CodeSpace) -> ConditionMatrix:
    """Fit the signed conditions ``sign_i P E_i^dag E_j P = c_ij P``.

    The resulting coefficient matrix is pseudohermitian for the metric
    of ``ops.signature``.  The residual is measured as in
    :func:`cp_condition_matrix`.
    """
    return _condition_fit(_blocks(_on_code(ops, code)), ops.signs, "pseudohermitian")


def _canonical_terms(
    signs: Sequence[int], blocks: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, ConditionMatrix, float]:
    """Canonical decomposition of the map restricted to the code.

    With ``G = tr_r(blocks) / r = R^dag R`` the Gram matrix of the terms
    on the code and ``R eta R^dag = W L W^dag`` (``L`` is the spectrum of
    the restricted dynamical matrix over ``r``), returns ``(signs, d, T,
    condition, scale)`` of the canonical terms ``F = E T``:
    ``T = R^+ W |L|^(1/2)``, ``d = |L|``, ``signs = sign(L)`` and
    ``scale = max eig G``.  Eigenvalues up to ``tol * scale`` drop.
    """
    r = blocks.shape[-1]
    mu, q = np.linalg.eigh(np.einsum("klaa->kl", blocks / r))
    scale = float(mu.max(initial=0.0))
    keep = mu > tol * scale
    root = np.sqrt(mu[keep])
    factor = root[:, None] * q[:, keep].conj().T  # R, with G = R^dag R
    lam, w = np.linalg.eigh((factor * np.asarray(signs)) @ factor.conj().T)
    # Each eigenspace gets the basis spanned by the input terms (columns
    # of R) in index order, so already-diagonal conditions give T = I.
    values, w_fixed = _signed_eigensystem(lam, w, tol * scale, factor)
    d, new_signs = np.abs(values), np.sign(values)
    t = (q[:, keep] / root) @ w_fixed * np.sqrt(d)
    # The traced part of T^dag blocks T is diag(d) by construction, so the
    # fit's residual is the deviation from diag(d) x identity.
    canonical = (t.conj().T @ blocks.transpose(2, 3, 0, 1) @ t).transpose(2, 3, 0, 1)
    condition = _condition_fit(canonical, new_signs, "pseudohermitian")
    return new_signs, d, t, condition, scale


def diagonalize_conditions(
    ops: SignedOperatorSum, code: CodeSpace, tol: float = DEFAULT_TOL
) -> tuple[SignedOperatorSum, np.ndarray, np.ndarray]:
    """Canonical terms of the map on the code, with diagonal conditions.

    Returns ``(F, d, T)`` where ``F = E T`` satisfies
    ``P F_k^dag F_l P = d[k] delta_kl P`` with ``d > 0``, positive signs
    first, then descending ``d``.  ``T`` is ``n x m`` with ``m`` the rank
    of the map restricted to the code; it is the square pseudounitary
    connecting the two decompositions whenever the terms are linearly
    independent on the code.  ``F`` generates the same map as ``ops`` on
    operators supported on the code space.  A NaN, infinite or negative
    ``tol`` raises ``ValueError``.

    Raises
    ------
    ConditionsViolated
        If the canonical residual exceeds ``tol`` times the map's scale on
        the code.
    """
    signs, d, t, condition, scale = _canonical_terms(ops.signs, _blocks(_on_code(ops, code)), _check_tol(tol))
    if condition.residual > tol * scale:
        raise ConditionsViolated(
            f"signed correctability conditions fail: residual {condition.residual:.3e} "
            f"> {tol:.1e} x scale {scale:.3e}"
        )
    return SignedOperatorSum(ops.dim, signs, np.tensordot(t, ops.operators, axes=([0], [0]))), d, t


def _syndromes(
    signs: Sequence[int], products: np.ndarray, code: CodeSpace, d: np.ndarray, tol: float
) -> SyndromeSet:
    """Syndromes of the diagonal terms from their ``(m, d, r)`` products ``F_k B``; see :func:`build_syndromes`."""
    d = np.asarray(d, dtype=float)
    if d.shape != (len(products),):
        raise ValueError(f"weight vector has shape {d.shape}, expected ({len(products)},)")
    keep = np.flatnonzero(d > tol * d.max(initial=0.0))
    w = polar_on_code(products[keep] / np.sqrt(d[keep])[:, None, None]).isometry
    w.setflags(write=False)  # held by the record without a copy
    overlaps = np.abs(_blocks(w)).max(axis=(2, 3))
    np.fill_diagonal(overlaps, 0.0)
    if overlaps.max(initial=0.0) > 10 * tol:
        a, c = np.unravel_index(np.argmax(overlaps), overlaps.shape)
        raise OrthogonalityViolation(f"syndromes {a} and {c} overlap by {overlaps[a, c]:.3e}")
    return SyndromeSet(Recovery(code.isometry, w), d[keep], np.asarray(signs)[keep], keep)


def build_syndromes(
    f_ops: SignedOperatorSum, code: CodeSpace, d: np.ndarray, tol: float = DEFAULT_TOL
) -> SyndromeSet:
    """Syndrome isometries for diagonalized terms.

    Term ``k`` with weight ``d[k] > tol * max(d)`` satisfies
    ``F_k B = sqrt(d[k]) W_k`` with ``W_k`` the polar isometry of
    ``F_k B / sqrt(d[k])``, whose singular values are all 1 at any scale
    of the map; its syndrome projector is ``W_k W_k^dag``.  Lighter terms
    act trivially on the code space and are skipped.  All retained
    terms share one batched :func:`~ncpqec.pseudolinalg.polar_on_code`.
    A NaN, infinite or negative ``tol`` raises ``ValueError``.

    Raises
    ------
    OrthogonalityViolation
        If two retained syndromes overlap (an entry of ``W_a^dag W_b``
        exceeds ``10 tol``), which signals that the conditions were not
        actually diagonal.
    """
    return _syndromes(f_ops.signs, f_ops.operators @ code.isometry, code, d, _check_tol(tol))


def negative_part_on_code(ops: SignedOperatorSum, code: CodeSpace) -> float:
    """Largest Frobenius norm of ``E_k P = E_k B`` over the negative-sign block.

    Zero exactly when the negative part of the decomposition annihilates
    the code space (the reversibility-with-positivity requirement).
    """
    v = _on_code(ops, code, ops.signature.p)  # the -1 block comes last
    return max((float(np.linalg.norm(x)) for x in v), default=0.0)


def build_recovery(syndromes: SyndromeSet) -> Recovery:
    """Recovery channel ``rho -> sum_j B W_j^dag rho W_j B^dag``: the set's own factored :class:`Recovery`.

    One (+1) term ``B W_j^dag`` per syndrome: measure the syndrome, then
    map its range back onto the code (``U_j^dag P_j`` in the polar form
    ``F_j P = sqrt(d_j) U_j P``).  Raises ``ValueError`` for an empty set.
    """
    if not syndromes:
        raise ValueError("cannot build a recovery from an empty syndrome set")
    return syndromes.recovery


def domain_witness(
    ops: SignedOperatorSum,
    code: CodeSpace,
    syndromes: SyndromeSet,
    tol: float = DEFAULT_TOL,
) -> NegativityWitness | None:
    """Code state with a negative syndrome probability, in closed form.

    On a code state ``rho``, the syndrome of a retained negative-sign
    diagonal term ``F_j`` has outcome probability
    ``tr(W_j^dag E(rho) W_j) = -d_j tr(rho)``.  Returns ``None`` when no
    retained syndrome has a negative sign (nothing to witness).
    Otherwise returns the first logical basis state ``b_0`` against the
    first negative syndrome, with its probability cross-checked once on
    the input terms as ``sum_k s_k |W_j^dag E_k b_0|^2``.  A NaN,
    infinite or negative ``tol`` raises ``ValueError``.

    Raises
    ------
    WitnessSearchFailed
        If the cross-checked probability is not at most ``-tol`` times the
        largest syndrome weight, i.e. the syndromes do not belong to
        ``ops`` on this code.
    """
    _check_tol(tol)
    if not (syndromes.signs < 0).any():
        return None
    b0 = code.isometry[:, 0]
    return _witness(ops.signs, ops.operators @ b0, b0, syndromes, tol)


def _witness(
    signs: Sequence[int], first: np.ndarray, b0: np.ndarray, syndromes: SyndromeSet, tol: float
) -> NegativityWitness:
    """Witness against the first negative syndrome from the ``(n, d)`` terms ``E_k b_0``; see :func:`domain_witness`."""
    j = int(np.argmax(syndromes.signs < 0))
    amplitudes = first @ syndromes.isometries[j].conj()  # row k: W_j^dag E_k b_0
    prob = float(np.asarray(signs, dtype=float) @ np.sum(np.abs(amplitudes) ** 2, axis=1))
    if prob > -tol * syndromes.weights.max():
        raise WitnessSearchFailed(
            f"negative syndrome {j} has probability {prob:.3e} on the first logical basis state, "
            f"expected {-syndromes.weights[j]:.3e}"
        )
    return NegativityWitness(b0, j, prob)


def analyze(ops: SignedOperatorSum, code: CodeSpace, tol: float = DEFAULT_TOL) -> QecReport:
    """Decide reversibility of a signed operator sum on a code space.

    The verdict is

    * ``conditions_violated`` when the canonical residual exceeds ``tol``
      times the map's scale on the code, when the map annihilates the
      code space, or when the conditions hold but the map does not
      preserve trace on the code space (at the absolute ``tol``), so no
      physically meaningful recovery exists;
    * ``code_outside_domain`` when the conditions hold and a negative
      canonical term acts on the code space -- a witness state with a
      negative outcome probability is attached;
    * ``reversible_positive`` when the conditions hold and every
      canonical term acting on the code space is positive --
      ``recovery`` reads the syndromes' factored :class:`Recovery`.

    The verdict depends on the map and the code, not on the signed
    decomposition that represents the map.  A NaN, infinite or negative
    ``tol`` raises ``ValueError``.
    """
    _check_tol(tol)
    v = _on_code(ops, code)
    blocks = _blocks(v)
    signs, d, t, condition, scale = _canonical_terms(ops.signs, blocks, tol)
    if not d.size:
        zero = ConditionMatrix(np.zeros((1, 1)), 0.0, "pseudohermitian")
        return QecReport(zero, None, None, None, Verdict.CONDITIONS_VIOLATED, None)
    if condition.residual > tol * scale:
        return QecReport(condition, None, None, None, Verdict.CONDITIONS_VIOLATED, None)
    syndromes = _syndromes(signs, np.tensordot(t, v, axes=([0], [0])), code, d, tol)  # F B = V T
    if (syndromes.signs < 0).any():
        witness = _witness(ops.signs, v[:, :, 0], code.isometry[:, 0], syndromes, tol)
        return QecReport(condition, t, d, syndromes, Verdict.CODE_OUTSIDE_DOMAIN, witness)
    # sum_k s_k V_k^dag V_k, from the diagonal blocks
    if _max_abs(np.diagonal(blocks) @ np.asarray(ops.signs, dtype=float) - np.eye(code.rank)) > tol:
        return QecReport(condition, t, d, syndromes, Verdict.CONDITIONS_VIOLATED, None)
    return QecReport(condition, t, d, syndromes, Verdict.REVERSIBLE_POSITIVE, None)


@functools.lru_cache(maxsize=8)
def _recovery_samples(r: int, trials: int) -> np.ndarray:
    """Unit logical vectors ``u`` of the pure samples ``sigma = u u^dag``, read-only ``(s, r)``."""
    eye = np.eye(r)
    coeffs = list(eye) + [eye[i] + phase * eye[j] for i in range(r) for j in range(i + 1, r) for phase in (1, 1j)]
    rng = random.Random(_VERIFY_SEED)  # stdlib, so no command imports numpy.random
    coeffs += [[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(r)] for _ in range(trials)]
    c = np.array(coeffs)
    return _frozen(c / np.linalg.norm(c, axis=1, keepdims=True))


def _deviation(coords: np.ndarray, signs: np.ndarray, u: np.ndarray, tol: float) -> float:
    """Largest ``||X||_F`` over the samples ``u``, from the ``k x (1 + N) r`` coordinates of ``[B, M_1, ...]``.

    The coordinates are taken in one orthonormal frame ``Q``, so
    ``X = sum_n s_n M_n u u^dag M_n^dag / t - B u u^dag B^dag`` has the
    norm of its ``k x k`` image.  The terms are divided by their largest
    entry, which leaves ``X`` unchanged and keeps every square finite at
    any float scale.
    """
    k, r = coords.shape[0], u.shape[1]
    blocks = coords[:, r:].reshape(k, -1, r)
    live = blocks.any(axis=(0, 2))  # a zero block adds nothing to X
    m, signs = blocks[:, live], signs[live]
    y = np.concatenate([coords[:, None, :r], m / (_max_abs(m) or 1.0)], axis=1) @ u.T  # y[:, n] = [B u, M_1 u, ...]
    power = np.einsum("kns,kns->ns", y[:, 1:], y[:, 1:].conj()).real  # ||M_n u||^2
    t, unsigned = signs @ power, power.sum(axis=0)
    small = np.abs(t) <= tol * unsigned
    if small.any():
        i = int(np.argmax(small))
        ratio = abs(t[i]) / unsigned[i] if unsigned[i] else 0.0
        raise ZeroTrace(
            f"recovered trace cancels to {ratio:.3e} of its unsigned trace sum |s| ||M u||^2 (tol {tol:.1e})"
        )
    weights = np.concatenate([-np.ones((1, t.size)), signs[:, None] / t])
    x = np.einsum("ans,ns,bns->sab", y, weights, y.conj())
    return float(np.sqrt(np.einsum("sab,sab->s", x, x.conj()).real.max()))


def verify_recovery(
    ops: SignedOperatorSum,
    recovery: SignedOperatorSum | Recovery,
    code: CodeSpace,
    trials: int = 20,
    tol: float = DEFAULT_TOL,
) -> float:
    """Largest per-sample ``|| R(E(B sigma B^dag)) / t - B sigma B^dag ||_F``, to rounding.

    ``t`` normalizes the recovered state to unit trace, so a recovery
    that restores states only up to a constant factor still verifies.
    Samples ``sigma`` are the logical basis states, their pairwise
    superpositions with phases 1 and i, and ``trials`` reproducible
    random logical states, whose real and imaginary parts are standard
    normal draws from the stdlib ``random.Random`` at a fixed seed.  Map
    and recovery enter only through the ``d x r`` terms
    ``M_jk = R_j E_k B``: each deviation ``X = A Z A^dag`` lies in the
    column span of ``A = [B, M_11, M_12, ...]``, and its norm is taken on
    the coordinates of ``A`` in an orthonormal frame, with no ``d x d``
    state and no rank cut.

    A dense :class:`~ncpqec.superop.SignedOperatorSum` recovery gets the
    frame from one thin Householder QR of ``A`` (accurate per column
    beside much larger ones), without the exactly zero blocks ``M_jk``.
    A factored :class:`Recovery` with isometry ``L`` has ``M_jk = L G_jk``
    with ``r x r`` blocks ``G_jk = W_j^dag E_k B``: its frame is ``B``
    itself when ``L`` is ``B`` (orthonormal by the :class:`CodeSpace`
    check; nothing ``d x d``), else from a QR of ``[B, L]``.  The
    Frobenius norm bounds every entry of ``X``, leakage off the code included.

    Raises
    ------
    ValueError
        If ``tol`` is not a finite non-negative number, ``trials`` is not
        a non-negative integer, or the dimensions differ.
    ZeroTrace
        If a recovered trace ``t`` is at most ``tol`` times the unsigned
        trace ``sum_jk |s_jk| ||M_jk u||^2``: it has cancelled to
        rounding (or the recovery annihilates the state), so the check
        cannot decide.
    """
    _check_tol(tol)
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 0:
        raise ValueError(f"trials must be a non-negative integer, got {trials!r}")
    if ops.dim != code.dim or recovery.dim != code.dim:
        raise ValueError("map, recovery and code must share one dimension")
    b = code.isometry
    d, r = b.shape
    v = (ops.operators.reshape(-1, d) @ b).reshape(-1, d, r).transpose(1, 0, 2).reshape(d, -1)  # [E_1 B, E_2 B, ...]
    signs = np.outer(recovery.signs, ops.signs).ravel()  # s_jk, n = j K + k
    if isinstance(recovery, Recovery):
        left = recovery.code_isometry
        g = recovery.isometries.conj().swapaxes(1, 2).reshape(-1, d) @ v  # block (j, k): G_jk = W_j^dag V_k
        g = g.reshape(-1, r, v.shape[1]).swapaxes(0, 1).reshape(r, -1)  # [G_11, G_12, ...]
        if left is b or np.array_equal(left, b):  # M_jk = B G_jk: the frame is B
            coords = np.concatenate([np.eye(r), g], axis=1)
        else:  # [B, L] = Q upper
            upper = np.linalg.qr(np.concatenate([b, left], axis=1), mode="r")
            coords = np.concatenate([upper[:, :r], upper[:, r:] @ g], axis=1)
    else:
        m = (recovery.operators @ v).transpose(1, 0, 2).reshape(d, -1, r)  # m[:, n] = M_jk
        live = m.any(axis=(0, 2))  # kept out of the QR as well
        coords = np.linalg.qr(np.concatenate([b, m[:, live].reshape(d, -1)], axis=1), mode="r")
        signs = signs[live]
    return _deviation(coords, signs, _recovery_samples(r, trials), tol)
