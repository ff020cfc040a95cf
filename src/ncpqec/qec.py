"""Error-correction analysis for signed operator sums on a code space.

Given a code space (logical isometry ``B``, projector ``P = B B^dag``)
and a signed decomposition ``rho -> sum_i sign_i E_i rho E_i^dag``, the
correctability conditions take the signed form
``sign_i P E_i^dag E_j P = c_ij P``.  :func:`analyze` decides them on the
map restricted to the code: one Hermitian eigendecomposition gives its
canonical terms ``F = E T``, whose conditions are diagonal when the
conditions hold; polar-decomposing each ``F_k B`` then yields
``d x r`` isometries ``W_k`` with pairwise-orthogonal ranges, the
syndrome projectors ``W_k W_k^dag`` of the completely positive theory.

The sign structure adds one genuinely new outcome: if a negative
canonical term acts on the code space, its syndrome returns the
*negative* probability ``-d_k`` on every code state.  Such a state
certifies that the code space lies outside the domain where the map is
a physical evolution, and :func:`analyze` reports it as a witness.
Otherwise the evolution restricted to the code is reversible with
positive output and a recovery channel is built from the syndromes.
Analysis gates compare against ``tol`` times the map's scale on the
code; trace preservation, scale-dependent by definition, uses ``tol``.
"""

from __future__ import annotations

import enum
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
from .pseudolinalg import DEFAULT_TOL, _cluster_indices, _frozen, _max_abs, _projected_basis, polar_on_code
from .superop import SignedOperatorSum, _signed_gram, _stacked, apply_map

__all__ = [
    "CodeSpace",
    "ConditionMatrix",
    "Syndrome",
    "SyndromeSet",
    "NegativityWitness",
    "Verdict",
    "QecReport",
    "projector_from_basis",
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


@dataclass(frozen=True)
class CodeSpace:
    """Orthonormal logical basis together with the projector it spans."""

    dim: int
    logical_basis: tuple[np.ndarray, ...]
    projector: np.ndarray

    def __post_init__(self) -> None:
        basis = tuple(_frozen(v) for v in self.logical_basis)
        proj = _frozen(self.projector)
        if not basis:
            raise ValueError("code space needs at least one logical basis vector")
        for v in basis:
            if v.shape != (self.dim,):
                raise ValueError(f"basis vector has shape {v.shape}, expected ({self.dim},)")
        if proj.shape != (self.dim, self.dim):
            raise ValueError(f"projector has shape {proj.shape}, expected ({self.dim}, {self.dim})")
        object.__setattr__(self, "logical_basis", basis)
        object.__setattr__(self, "projector", proj)

    @property
    def rank(self) -> int:
        return len(self.logical_basis)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Syndrome:
    """One measurement branch of diagonal term ``F_k``, on the code space.

    ``isometry`` is the ``d x r`` polar isometry ``W_k`` with
    ``F_k B = sqrt(weight) W_k``; ``code_isometry`` is the code's ``B``,
    one array shared by all syndromes of a set.
    """

    isometry: np.ndarray
    code_isometry: np.ndarray
    weight: float
    sign: int
    term_index: int

    @property
    def projector(self) -> np.ndarray:
        """The syndrome projector ``W_k W_k^dag``."""
        return self.isometry @ self.isometry.conj().T


SyndromeSet = tuple[Syndrome, ...]


@dataclass(frozen=True)
class NegativityWitness:
    """Code state whose syndrome outcome has negative probability."""

    state: np.ndarray
    syndrome_index: int
    probability: float


class Verdict(str, enum.Enum):
    REVERSIBLE_POSITIVE = "reversible_positive"
    CODE_OUTSIDE_DOMAIN = "code_outside_domain"
    CONDITIONS_VIOLATED = "conditions_violated"


@dataclass(frozen=True)
class QecReport:
    """Full outcome of :func:`analyze`.

    ``condition`` holds the canonical conditions that decided the
    verdict (the ``1 x 1`` zero matrix for a map that annihilates the
    code).  ``diagonalizer`` (``T``), ``diagonal`` (``d``) and
    ``syndromes`` come from :func:`diagonalize_conditions` and are absent
    when the conditions fail; ``recovery`` is present exactly for the
    reversible verdict and ``witness`` exactly for the outside-domain
    verdict.
    """

    condition: ConditionMatrix
    diagonalizer: np.ndarray | None
    diagonal: np.ndarray | None
    syndromes: SyndromeSet | None
    recovery: SignedOperatorSum | None
    verdict: Verdict
    witness: NegativityWitness | None

    def __post_init__(self) -> None:
        if self.verdict == Verdict.REVERSIBLE_POSITIVE:
            if self.recovery is None or self.witness is not None:
                raise ValueError("reversible verdict requires a recovery and no witness")
        if self.verdict == Verdict.CODE_OUTSIDE_DOMAIN and self.witness is None:
            raise ValueError("outside-domain verdict requires a witness")
        if self.verdict == Verdict.CONDITIONS_VIOLATED and self.witness is not None:
            raise ValueError("conditions-violated verdict carries no witness")


def projector_from_basis(vectors: Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> CodeSpace:
    """Orthonormalize ``vectors`` and build the code-space projector.

    Raises
    ------
    LinearDependence
        If the vectors do not have full rank within tolerance.
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
    small = np.abs(diag) <= tol * np.maximum(1.0, np.linalg.norm(m, axis=0)[: diag.size])
    if small.any() or len(vecs) > dim:
        k = int(np.argmax(small)) if small.any() else dim
        raise LinearDependence(f"basis vector {k} lies in the span of its predecessors")
    b = q * (diag / np.abs(diag))  # the phases of Gram-Schmidt in input order
    return CodeSpace(dim, tuple(b.T), b @ b.conj().T)


def _on_code(ops: SignedOperatorSum, code: CodeSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked terms ``E``, terms on the code ``V_k = E_k B`` and blocks.

    ``B`` is the ``d x r`` logical isometry; the blocks
    ``B^dag E_k^dag E_l B`` have shape ``(n, n, r, r)``.
    """
    if ops.dim != code.dim:
        raise ValueError(f"operator dimension {ops.dim} does not match code dimension {code.dim}")
    stack = _stacked(ops)
    v = stack @ np.column_stack(code.logical_basis)
    return stack, v, np.einsum("kda,ldb->klab", v.conj(), v)


def _condition_fit(blocks: np.ndarray, signs: Sequence[int] | None, form: str) -> ConditionMatrix:
    r = blocks.shape[-1]
    entries = np.einsum("klaa->kl", blocks) / r
    residual = _max_abs(blocks - entries[:, :, None, None] * np.eye(r))
    if signs is not None:
        entries = np.asarray(signs)[:, None] * entries
    return ConditionMatrix(entries, residual, form)


def cp_condition_matrix(
    operators: Sequence[np.ndarray], code: CodeSpace, tol: float = DEFAULT_TOL
) -> ConditionMatrix:
    """Fit ``P E_i^dag E_j P = c_ij P`` for an unsigned operator list.

    The residual is the largest entrywise deviation of any block
    ``B^dag E_i^dag E_j B`` from ``c_ij`` times the identity, in the
    logical basis ``B``.
    """
    if not len(operators):
        raise ValueError("at least one operator is required")
    ops = SignedOperatorSum(code.dim, (1,) * len(operators), tuple(operators))
    return _condition_fit(_on_code(ops, code)[2], None, "hermitian")


def ph_condition_matrix(
    ops: SignedOperatorSum, code: CodeSpace, tol: float = DEFAULT_TOL
) -> ConditionMatrix:
    """Fit the signed conditions ``sign_i P E_i^dag E_j P = c_ij P``.

    The resulting coefficient matrix is pseudohermitian for the metric
    of ``ops.signature``.  The residual is measured as in
    :func:`cp_condition_matrix`.
    """
    return _condition_fit(_on_code(ops, code)[2], ops.signs, "pseudohermitian")


def _canonical_terms(
    signs: Sequence[int], stack: np.ndarray, blocks: np.ndarray, tol: float
) -> tuple[SignedOperatorSum, np.ndarray, np.ndarray, ConditionMatrix, float]:
    """Canonical decomposition of the map restricted to the code.

    With ``G = tr_r(blocks) / r = R^dag R`` the Gram matrix of the terms
    on the code and ``R eta R^dag = W L W^dag`` (``L`` is the spectrum of
    the restricted dynamical matrix over ``r``), returns ``(F, d, T,
    condition, scale)``: ``T = R^+ W |L|^(1/2)``, ``F = E T``, ``d = |L|``
    and ``scale = max eig G``.  Eigenvalues up to ``tol * scale`` drop.
    """
    r = blocks.shape[-1]
    mu, q = np.linalg.eigh(np.einsum("klaa->kl", blocks) / r)
    scale = float(mu.max(initial=0.0))
    keep = mu > tol * scale
    root = np.sqrt(mu[keep])
    factor = root[:, None] * q[:, keep].conj().T  # R, with G = R^dag R
    lam, w = np.linalg.eigh((factor * np.asarray(signs)) @ factor.conj().T)
    kept = np.flatnonzero(np.abs(lam) > tol * scale)
    clusters = [kept[c] for c in _cluster_indices(lam[kept], tol * scale)]
    clusters.sort(key=lambda c: (lam[c[0]] < 0, -abs(lam[c[0]])))  # clusters are contiguous runs
    values = np.array([np.mean(lam[c]) for c in clusters for _ in c])
    # Each eigenspace gets the basis spanned by the input terms (columns
    # of R) in index order, so already-diagonal conditions give T = I.
    columns = [_projected_basis(w[:, c], factor) for c in clusters]
    w_fixed = np.concatenate([np.zeros((root.size, 0))] + columns, axis=1)
    d, new_signs = np.abs(values), np.sign(values)
    t = (q[:, keep] / root) @ w_fixed * np.sqrt(d)
    # The traced part of T^dag blocks T is diag(d) by construction, so the
    # fit's residual is the deviation from diag(d) x identity.
    canonical = np.einsum("ki,klab,lj->ijab", t.conj(), blocks, t)
    condition = _condition_fit(canonical, new_signs, "pseudohermitian")
    f = SignedOperatorSum(stack.shape[1], new_signs, tuple(np.tensordot(t, stack, axes=([0], [0]))))
    return f, d, t, condition, scale


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
    operators supported on the code space.

    Raises
    ------
    ConditionsViolated
        If the canonical residual exceeds ``tol`` times the map's scale on
        the code.
    """
    stack, _, blocks = _on_code(ops, code)
    f, d, t, condition, scale = _canonical_terms(ops.signs, stack, blocks, tol)
    if condition.residual > tol * scale:
        raise ConditionsViolated(
            f"signed correctability conditions fail: residual {condition.residual:.3e} "
            f"> {tol:.1e} x scale {scale:.3e}"
        )
    return f, d, t


def build_syndromes(
    f_ops: SignedOperatorSum, code: CodeSpace, d: np.ndarray, tol: float = DEFAULT_TOL
) -> SyndromeSet:
    """Syndrome isometries for diagonalized terms.

    Term ``k`` with weight ``d[k] > tol * max(d)`` satisfies
    ``F_k B = sqrt(d[k]) W_k`` with ``W_k`` the polar isometry of
    ``F_k B / sqrt(d[k])``, whose singular values are all 1 at any scale
    of the map; its syndrome projector is ``W_k W_k^dag``.  Lighter terms
    act trivially on the code space and are skipped.

    Raises
    ------
    OrthogonalityViolation
        If two retained syndromes overlap (an entry of ``W_a^dag W_b``
        exceeds ``10 tol``), which signals that the conditions were not
        actually diagonal.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (f_ops.n_terms,):
        raise ValueError(f"weight vector has shape {d.shape}, expected ({f_ops.n_terms},)")
    b = _frozen(np.column_stack(code.logical_basis))
    cut = tol * float(d.max()) if d.size else 0.0
    syndromes = tuple(
        Syndrome(polar_on_code(f_ops.operators[k] / np.sqrt(d[k]), b, tol).isometry, b, float(d[k]), f_ops.signs[k], k)
        for k in range(f_ops.n_terms)
        if d[k] > cut
    )
    if syndromes:
        w = np.stack([s.isometry for s in syndromes])
        overlaps = np.abs(np.einsum("adi,bdj->abij", w.conj(), w)).max(axis=(2, 3))
        np.fill_diagonal(overlaps, 0.0)
        a, c = np.unravel_index(np.argmax(overlaps), overlaps.shape)
        if overlaps[a, c] > 10 * tol:
            raise OrthogonalityViolation(f"syndromes {a} and {c} overlap by {overlaps[a, c]:.3e}")
    return syndromes


def negative_part_on_code(ops: SignedOperatorSum, code: CodeSpace) -> float:
    """Largest Frobenius norm of ``E_k P = E_k B`` over the negative-sign block.

    Zero exactly when the negative part of the decomposition annihilates
    the code space (the reversibility-with-positivity requirement).
    """
    v = _on_code(ops, code)[1]
    return max((float(np.linalg.norm(v[k])) for k, s in enumerate(ops.signs) if s < 0), default=0.0)


def build_recovery(syndromes: SyndromeSet) -> SignedOperatorSum:
    """Recovery channel ``rho -> sum_j B W_j^dag rho W_j B^dag``.

    One (+1) term ``B W_j^dag`` per syndrome: measure the syndrome, then
    map its range back onto the code.  In the polar form
    ``F_j P = sqrt(d_j) U_j P`` this is ``U_j^dag P_j``.
    """
    if not syndromes:
        raise ValueError("cannot build a recovery from an empty syndrome set")
    operators = tuple(s.code_isometry @ s.isometry.conj().T for s in syndromes)
    return SignedOperatorSum(operators[0].shape[0], (1,) * len(syndromes), operators)


def domain_witness(
    ops: SignedOperatorSum,
    code: CodeSpace,
    syndromes: SyndromeSet,
    tol: float = DEFAULT_TOL,
) -> NegativityWitness | None:
    """Code state with a negative syndrome probability, in closed form.

    On a code state ``rho``, the syndrome of a retained negative-sign
    diagonal term ``F_j`` has outcome probability
    ``tr(P_j E(rho) P_j) = -d_j tr(rho)``.  Returns ``None`` when no
    retained syndrome has a negative sign (nothing to witness).
    Otherwise returns the first logical basis state against the first
    negative syndrome, with its probability from one
    :func:`~ncpqec.superop.apply_map` cross-check.

    Raises
    ------
    WitnessSearchFailed
        If the cross-checked probability is not at most ``-tol`` times the
        largest syndrome weight, i.e. the syndromes do not belong to
        ``ops`` on this code.
    """
    j = next((j for j, s in enumerate(syndromes) if s.sign < 0), None)
    if j is None:
        return None
    b = code.logical_basis[0]
    state = np.outer(b, b.conj())
    w = syndromes[j].isometry
    prob = float(np.trace(w.conj().T @ apply_map(ops, state) @ w).real)
    if prob > -tol * max(s.weight for s in syndromes):
        raise WitnessSearchFailed(
            f"negative syndrome {j} has probability {prob:.3e} on the first logical basis state, "
            f"expected {-syndromes[j].weight:.3e}"
        )
    return NegativityWitness(state, j, prob)


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
      canonical term acting on the code space is positive -- a recovery
      channel built from the syndromes is attached.

    The verdict depends on the map and the code, not on the signed
    decomposition that represents the map.
    """
    stack, v, blocks = _on_code(ops, code)
    f, d, t, condition, scale = _canonical_terms(ops.signs, stack, blocks, tol)
    if not d.size:
        zero = ConditionMatrix(np.zeros((1, 1)), 0.0, "pseudohermitian")
        return QecReport(zero, None, None, None, None, Verdict.CONDITIONS_VIOLATED, None)
    if condition.residual > tol * scale:
        return QecReport(condition, None, None, None, None, Verdict.CONDITIONS_VIOLATED, None)
    syndromes = build_syndromes(f, code, d, tol)
    if any(s.sign < 0 for s in syndromes):
        witness = domain_witness(ops, code, syndromes, tol)
        return QecReport(condition, t, d, syndromes, None, Verdict.CODE_OUTSIDE_DOMAIN, witness)
    if _max_abs(_signed_gram(ops.signs, v) - np.eye(code.rank)) > tol:
        return QecReport(condition, t, d, syndromes, None, Verdict.CONDITIONS_VIOLATED, None)
    recovery = build_recovery(syndromes)
    return QecReport(condition, t, d, syndromes, recovery, Verdict.REVERSIBLE_POSITIVE, None)


def _recovery_samples(r: int, trials: int) -> np.ndarray:
    """Logical pure states ``sigma = c c^dag / |c|^2`` as an ``(s, r, r)`` stack."""
    eye = np.eye(r)
    coeffs = list(eye) + [eye[i] + phase * eye[j] for i in range(r) for j in range(i + 1, r) for phase in (1, 1j)]
    rng = np.random.default_rng(_VERIFY_SEED)
    coeffs += [rng.standard_normal(r) + 1j * rng.standard_normal(r) for _ in range(trials)]
    c = np.array(coeffs)
    return np.einsum("si,sj->sij", c, c.conj()) / np.einsum("si,si->s", c.conj(), c).real[:, None, None]


def verify_recovery(
    ops: SignedOperatorSum,
    recovery: SignedOperatorSum,
    code: CodeSpace,
    trials: int = 20,
    tol: float = DEFAULT_TOL,
) -> float:
    """Worst-case entry of ``R(E(B sigma B^dag)) / t - B sigma B^dag``.

    ``t`` normalizes the recovered state to unit trace, so a recovery
    that restores states only up to a constant factor still verifies.
    Samples ``sigma`` are the logical basis states, their pairwise
    superpositions with phases 1 and i, and ``trials`` reproducible
    random logical states.  All samples go through one batched product
    with the ``d x r`` terms ``R_j E_k B``, so the deviation covers the
    full ``d x d`` output, including any leakage off the code.

    Raises
    ------
    ZeroTrace
        If a recovered state has trace at most ``tol`` in magnitude.
    """
    if ops.dim != code.dim or recovery.dim != code.dim:
        raise ValueError("map, recovery and code must share one dimension")
    b = np.column_stack(code.logical_basis)
    terms = np.einsum("jde,kef->jkdf", _stacked(recovery), _stacked(ops) @ b)
    signs = np.outer(recovery.signs, ops.signs)
    sigma = _recovery_samples(code.rank, trials)
    recovered = np.einsum("jk,jkdf,sfg,jkeg->sde", signs, terms, sigma, terms.conj(), optimize=True)
    t = np.einsum("sdd->s", recovered).real
    small = np.abs(t) <= tol
    if small.any():
        raise ZeroTrace(f"recovered state has trace {t[np.argmax(small)]:.3e}")
    encoded = np.einsum("df,sfg,eg->sde", b, sigma, b.conj(), optimize=True)
    return _max_abs(recovered / t[:, None, None] - encoded)
