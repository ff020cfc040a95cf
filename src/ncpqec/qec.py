"""Error-correction analysis for signed operator sums on a code space.

Given a code space (logical isometry ``B``, projector ``P = B B^dag``)
and a signed decomposition ``rho -> sum_i sign_i E_i rho E_i^dag``, the
correctability conditions take the signed form
``sign_i P E_i^dag E_j P = c_ij P``.  :func:`analyze` decides them on the
map restricted to the code: one Hermitian eigendecomposition gives its
canonical terms ``F = E T``, whose conditions are diagonal when the
conditions hold.  When the Gram of the terms on the code is already
diagonal, every off-diagonal entry exactly zero (Pauli errors on a
stabilizer code), the canonical terms are the kept input terms, read
from its diagonal with no eigensolver; this route agrees with the
eigendecomposition to rounding.  The analysis reads the map only
through the terms on the code, the ``n x d x r`` stack ``V_k = E_k B``,
held with the signs as one :class:`CodeTerms` record.  :func:`on_code`
makes it once: from an operator sum as the product ``E B``, read only
on the code's support when that is a few basis states, and from
a ``B`` or ``A`` matrix as the signed eigenvectors of the ``d r x d r``
dynamical matrix of the map restricted to the code, with no
``d^2 x d^2`` eigendecomposition.
Such terms need not be any ``E_k B`` of the map's own operator sum, so
the diagonalizer refers to the record's terms.
:func:`analyze`, :func:`verify_recovery` and :func:`negative_part_on_code`
take the record or any channel :func:`on_code` takes, through the one
dispatch that :func:`on_code` uses, which checks the dimension and the
type once; on a channel they give what they give on its record.  The
conditions come from one Gram GEMM of ``[V_1, V_2, ...]``, the
``r x r`` blocks ``V_k^dag V_l``, which also give the canonical blocks
(an ``n x n`` congruence by ``T``) and the trace check.  The syndromes are the polar
isometries ``W_k = F_k B H_k^(-1/2)``, ``H_k = (F_k B)^dag F_k B``:
``d x r`` isometries with pairwise-orthogonal ranges, the syndrome
projectors ``W_k W_k^dag`` of the completely positive theory.  One GEMM
of ``T`` with ``V`` gives the products ``F B = V T``, their ``r x r``
Grams give the ``H_k``, and the overlaps ``W_a^dag W_b`` are the same
Gram GEMM of the ``W_k``; no SVD is taken.  ``F`` itself is never formed.

The sign structure adds one genuinely new outcome: if a negative
canonical term acts on the code space, its syndrome returns the
*negative* probability ``-d_k`` on every code state.  Such a state
certifies that the code space lies outside the domain where the map is
a physical evolution, and :func:`analyze` reports it as a witness.
Otherwise the evolution restricted to the code is reversible with
positive output, and the recovery is the Knill-Laflamme one (PRA 55,
900, 1997): measure syndrome ``j``, then undo its isometry,
``R_j = B W_j^dag``.  The :class:`Recovery` holds the syndromes and that
recovery once, factored as ``B`` and the ``W_j``, so no ``d x d`` array
is formed after ``V``.
Every gate takes its bound from ``pseudolinalg._cut``: relative to the
map's scale on the code, absolute for trace preservation and isometry.

Each rule of the records is written once, in the record that owns it.
The canonical conditions are exactly ``diag(sign_k d_k)``, the signed
values of the canonical terms, which :class:`QecReport` holds once as
``values``: they give each syndrome its weight and its sign, checked by
``superop._SignedTerms._check_signs``, the sign rule of every signed
record.  Only the fit's residual is computed from the canonical blocks.
:class:`QecReport` states the outcomes above (a syndrome of sign -1 only
outside the domain, a witness exactly there, naming the first such
syndrome).  The analysis document parser builds these records, so it
states none of their rules again.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import (
    LinearDependence,
    OrthogonalityViolation,
    WitnessSearchFailed,
    ZeroTrace,
)
from .pseudolinalg import DEFAULT_TOL, _check_tol, _cut, _frozen, _max_abs, _signed_clusters, _signed_eigensystem
from .superop import AMatrix, BMatrix, SignedOperatorSum, _as_b_matrix, _checked_b, _signed_factors, _SignedTerms

_FLOAT_MAX = sys.float_info.max

__all__ = [
    "CodeSpace",
    "CodeTerms",
    "ConditionMatrix",
    "Recovery",
    "NegativityWitness",
    "Verdict",
    "QecReport",
    "projector_from_basis",
    "repetition_bitflip",
    "on_code",
    "cp_condition_matrix",
    "negative_part_on_code",
    "build_recovery",
    "analyze",
    "verify_recovery",
]

@dataclass(frozen=True, eq=False)
class CodeSpace:
    """A code space as its ``d x r`` logical isometry ``B`` (orthonormal columns).

    Construction raises ``ValueError`` unless ``B`` is a finite ``d x r``
    array with ``1 <= r <= d`` and ``max|B^dag B - I| <= DEFAULT_TOL``,
    so every analysis may take ``B`` to be an isometry.  ``support``, the
    rows where ``B`` is nonzero, is found once, on first read, and held
    read-only.
    """

    isometry: np.ndarray

    def __post_init__(self) -> None:
        b = _frozen(self.isometry)
        if b.ndim != 2 or not 1 <= b.shape[1] <= b.shape[0]:
            raise ValueError(f"code isometry has shape {b.shape}, expected (d, r) with 1 <= r <= d")
        if not np.all(np.isfinite(b)):
            raise ValueError("code isometry contains non-finite entries")
        error = _max_abs(b.conj().T @ b - np.eye(b.shape[1]))
        if error > _cut(DEFAULT_TOL):
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

    @cached_property
    def support(self) -> np.ndarray:
        """The increasing indices of the rows where ``B`` is nonzero."""
        return _frozen(np.flatnonzero(self.isometry.any(axis=1)), int)


@dataclass(frozen=True, eq=False)
class CodeTerms(_SignedTerms):
    """A map's signed terms on a code space, ``V_k = E_k B``: all that the analysis reads of the map.

    ``signs`` (each +1 or -1, the +1 block first) and ``terms``, the
    read-only ``(n, d, r)`` stack of the ``V_k``, which must be finite.
    ``dim`` (``d``), ``rank`` (``r``), ``n_terms`` and
    ``signature`` read as on a :class:`~ncpqec.superop.SignedOperatorSum`.
    :func:`on_code` makes the record once, so :func:`analyze`,
    :func:`verify_recovery` and :func:`negative_part_on_code` share one
    pass over the map's ``d x d`` terms; they read ``V`` as the terms on
    the code they are given, checking only its shape.
    """

    signs: tuple[int, ...]
    terms: np.ndarray

    def __post_init__(self) -> None:
        v = _frozen(self.terms)
        if v.ndim != 3:
            raise ValueError(f"terms have shape {v.shape}, expected (n, d, r)")
        object.__setattr__(self, "signs", self._check_signs(self.signs, v.shape[0], "terms"))
        self._check_finite(v, "terms")
        object.__setattr__(self, "terms", v)

    @property
    def dim(self) -> int:
        return self.terms.shape[1]

    @property
    def rank(self) -> int:
        return self.terms.shape[2]


@dataclass(frozen=True, eq=False)
class ConditionMatrix:
    """The fitted ``c_ij`` of the unsigned conditions and the fit's residual.

    What :func:`cp_condition_matrix` returns; a :class:`QecReport` holds
    the signed canonical conditions as their diagonal, ``values``.
    """

    entries: np.ndarray
    residual: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _frozen(self.entries))


@dataclass(frozen=True, eq=False)
class Syndrome:
    """One measurement branch of canonical term ``F_k``, on the code space: item ``k`` of a :class:`Recovery`.

    ``isometry``, a view of the recovery's stack, is the ``d x r`` polar
    isometry ``W_k`` with ``F_k B = sqrt(d_k) W_k``, held as every
    record holds its arrays.
    """

    isometry: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "isometry", _frozen(self.isometry))

    @property
    def projector(self) -> np.ndarray:
        """The syndrome projector ``W_k W_k^dag``."""
        return self.isometry @ self.isometry.conj().T


@dataclass(frozen=True, eq=False)
class Recovery:
    """The syndromes and their recovery ``rho -> sum_j B W_j^dag rho W_j B^dag``, in factored form.

    ``code_isometry`` is the code's ``d x r`` isometry ``B`` and
    ``isometries`` the read-only ``(m, d, r)`` stack of syndrome
    isometries ``W_j``, both finite.  Every term ``R_j = B W_j^dag`` has
    rank ``r``.  ``dim``, ``signs`` (all +1) and ``n_terms`` read as on a
    :class:`~ncpqec.superop.SignedOperatorSum`, and ``operators`` forms
    the dense ``(m, d, d)`` terms on each read, so ``apply_map`` takes
    either.  Its length is ``m``, and indexing and iteration give the
    :class:`Syndrome` views.
    """

    code_isometry: np.ndarray
    isometries: np.ndarray

    def __post_init__(self) -> None:
        b, w = _frozen(self.code_isometry), _frozen(self.isometries)
        if b.ndim != 2 or w.ndim != 3 or w.shape[1:] != b.shape:
            raise ValueError(f"isometries of shape {w.shape} do not stack d x r like the code's {b.shape}")
        if not (np.isfinite(b).all() and np.isfinite(w).all()):
            raise ValueError("recovery isometries contain non-finite entries")
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

    def __len__(self) -> int:
        return self.n_terms

    def __getitem__(self, j: int) -> Syndrome:
        return Syndrome(self.isometries[j])


@dataclass(frozen=True, eq=False)
class NegativityWitness:
    """Pure code state ``vector`` whose syndrome outcome has negative probability.

    ``probability`` must be a negative number that a float holds
    finitely; it is held as a float.
    """

    vector: np.ndarray
    syndrome_index: int
    probability: float

    def __post_init__(self) -> None:
        if not -_FLOAT_MAX <= self.probability < 0:  # also NaN, and an int beyond the float range
            raise ValueError(f"witness probability must be negative and finite, got {self.probability!r}")
        object.__setattr__(self, "vector", _frozen(self.vector))
        object.__setattr__(self, "probability", float(self.probability))

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

    ``values`` is the canonical spectrum that decided the verdict, the
    signed values ``sign_k d_k`` of the canonical terms, held once as a
    read-only 1-D float array: the canonical conditions are
    ``diag(values)``.  There is at least one value, and each value given
    must be a real number that a float holds finitely, so a bool or an
    int beyond the float range raises; a map that annihilates the code
    has ``values = [0.0]``.
    ``residual`` is the fit's residual on the canonical blocks.
    ``diagonalizer`` (``T``) and ``syndromes`` (a :class:`Recovery`)
    belong to the canonical terms ``F = E T`` (never formed) and are
    absent when the conditions fail: column ``k`` of ``T`` is the term of
    syndrome ``k``, whose weight and sign are those of ``values[k]``.  So
    with syndromes there is one nonzero value per isometry, and their
    signs pass ``superop._SignedTerms._check_signs``, the sign rule of
    every signed record; ``diagonal`` (``d``) reads ``|values|``.
    Construction checks these rules and the outcome rule, raising
    ``ValueError`` unless they hold.  The reversible verdict has
    syndromes.  A syndrome of sign -1 returns a negative probability on
    every code state, so only the outside-domain verdict may hold one,
    exactly that verdict has a ``witness``, and the witness names the
    first such syndrome, as :func:`analyze` picks it, with one entry per
    row of the syndrome isometries.  ``recovery`` is ``syndromes`` for
    the reversible verdict and ``None`` otherwise.
    """

    values: np.ndarray
    residual: float
    diagonalizer: np.ndarray | None
    syndromes: Recovery | None
    verdict: Verdict
    witness: NegativityWitness | None

    def __post_init__(self) -> None:
        given = np.asarray(self.values, dtype=object)  # as given, before any float conversion
        finite = lambda x: isinstance(x, Real) and not isinstance(x, (bool, np.bool_)) and -_FLOAT_MAX <= x <= _FLOAT_MAX
        if given.ndim != 1 or not given.size or not all(map(finite, given.tolist())):
            raise ValueError(f"values must be a non-empty list of finite numbers, got {given.tolist()}")
        values, t, syndromes, signs = _frozen(self.values, float), self.diagonalizer, self.syndromes, ()
        object.__setattr__(self, "values", values)
        if syndromes is not None:
            signs = _SignedTerms._check_signs(np.sign(values).astype(int).tolist(), len(syndromes), "isometries")
        if (t is None) != (syndromes is None) or t is not None and np.shape(t)[1:] != (len(syndromes),):
            raise ValueError("a diagonalizer comes with its syndromes, one per column, and syndromes with it")
        if t is not None:
            object.__setattr__(self, "diagonalizer", _frozen(t))
        verdict, witness = self.verdict, None if self.witness is None else self.witness.syndrome_index
        if verdict == Verdict.REVERSIBLE_POSITIVE and not signs:
            raise ValueError("a reversible_positive verdict requires syndromes, got none")
        outside, first = verdict == Verdict.CODE_OUTSIDE_DOMAIN, signs.index(-1) if -1 in signs else None
        if first is not None and not outside:
            raise ValueError(f"syndromes[{first}].sign must be +1 under a {verdict.value} verdict, got -1")
        if (witness is None) == outside:
            raise ValueError(f"a witness comes with code_outside_domain only, got index {witness} under {verdict.value}")
        if outside and witness != first:
            raise ValueError(f"witness.syndrome_index is {witness}: it must name the first syndrome of sign -1, {first}")
        if outside and (shape := self.witness.vector.shape) != (rows := syndromes.dim,):
            raise ValueError(f"witness.vector: shape {shape} does not match the {rows} rows of the isometries")

    @property
    def diagonal(self) -> np.ndarray | None:
        return None if self.syndromes is None else np.abs(self.values)

    @property
    def recovery(self) -> Recovery | None:
        return self.syndromes if self.verdict == Verdict.REVERSIBLE_POSITIVE else None


def projector_from_basis(vectors: Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> CodeSpace:
    """The code space of ``vectors``, orthonormalized by Gram-Schmidt in input order.

    The returned ``B`` holds no ``-0.0``: an entry that is zero is ``+0.0``.

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
    small = np.abs(diag) <= _cut(tol, np.linalg.norm(m, axis=0)[: diag.size])
    if small.any() or len(vecs) > dim:
        k = int(np.argmax(small)) if small.any() else dim
        raise LinearDependence(f"basis vector {k} lies in the span of its predecessors")
    # The phases of Gram-Schmidt in input order; + 0.0 turns the QR's -0.0 entries into +0.0,
    # so a zero row of B is all zero bits and a row-sparse document leaves it out.
    return CodeSpace(q * (diag / np.abs(diag)) + 0.0)


def repetition_bitflip(n: int, c0: float) -> tuple[SignedOperatorSum, CodeSpace]:
    """The map ``c0 rho + c1 sum_k X_k rho X_k``, ``c1 = (1 - c0) / n``, and the n-qubit repetition code.

    ``c0 < 0`` gives the paper's inverted (NCP) mixture.  The terms are
    ``sqrt(|c|)`` times ``X_0 .. X_{n-1}`` (qubit 0 leftmost) and ``I``,
    signed like their weights ``c``, with the +1 block first.  Raises
    ``ValueError`` for ``n < 1`` or a NaN or infinite ``c0``.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    if not np.isfinite(c0):
        raise ValueError(f"c0 must be a finite number, got c0={c0}")
    d, x = 2**n, np.array([[0, 1], [1, 0]], dtype=complex)
    weighted = [((1.0 - c0) / n, np.kron(np.kron(np.eye(2**k), x), np.eye(2 ** (n - k - 1)))) for k in range(n)]
    weighted.append((c0, np.eye(d, dtype=complex)))
    terms = sorted(((1 if c > 0 else -1, np.sqrt(abs(c)) * op) for c, op in weighted), key=lambda t: -t[0])
    ops = SignedOperatorSum.from_terms([s for s, _ in terms], [op for _, op in terms])
    zeros, ones = np.zeros((2, d), dtype=complex)
    zeros[0] = ones[-1] = 1.0
    return ops, projector_from_basis([zeros, ones])


def _on_code(
    channel: CodeTerms | SignedOperatorSum | BMatrix | AMatrix, code: CodeSpace, tol: float
) -> tuple[tuple[int, ...], np.ndarray]:
    """The signs and the ``(n, d, r)`` terms on the code ``V_k = E_k B`` of a channel or its record.

    The one dispatch of :func:`on_code` and of every reader.  A
    :class:`CodeTerms` record gives its own terms.  An operator sum gives
    one GEMM ``(n d x |S|) @ (|S| x r)`` over the code's support ``S``,
    the rows where ``B`` is nonzero (``code.support``, found once per
    code), when ``d >= 64`` and ``|S| <= d / 4``,
    and over all ``d`` rows otherwise; at small ``d`` it beats numpy's
    batch of ``n`` products.  A matrix channel gives :func:`_restricted_terms`.
    """
    if not isinstance(channel, (CodeTerms, SignedOperatorSum, BMatrix, AMatrix)):
        raise TypeError(f"expected SignedOperatorSum, BMatrix, AMatrix or CodeTerms, got {type(channel).__name__}")
    if channel.dim != code.dim:
        raise ValueError(f"map dimension {channel.dim} does not match code dimension {code.dim}")
    if isinstance(channel, CodeTerms):
        if channel.rank != code.rank:
            raise ValueError(f"terms of rank {channel.rank} do not match the code's rank {code.rank}")
        return channel.signs, channel.terms
    if not isinstance(channel, SignedOperatorSum):
        return _restricted_terms(_as_b_matrix(channel), code, tol)
    e, b = channel.operators, code.isometry
    d, r = b.shape
    if d >= 64:
        # Where B has a zero row, E's column adds exact zeros (records hold
        # finite terms), so E is read on the support S only.  The gather
        # costs about 10 us, so on one core (7 terms, r = 2) the full GEMM
        # stays faster below d = 64 (13 vs 16 us at d = 32, |S| = 2) and on
        # a support over d / 4 (26 vs 34 us at d = 64, |S| = 32); at d = 64,
        # |S| = 2 it took 37 vs 19 us, at d = 128, |S| = 32 150 vs 117.
        if 4 * code.support.size <= d:
            e, b = e[:, :, code.support], b[code.support]
    return channel.signs, (e.reshape(-1, b.shape[0]) @ b).reshape(channel.n_terms, d, r)


def _restricted_terms(b: BMatrix, code: CodeSpace, tol: float) -> tuple[tuple[int, ...], np.ndarray]:
    """The terms on the code of the map restricted to it, from one ``d r x d r`` signed eigensystem.

    ``R[i r + a, k r + c] = sum_jl Bmat[i d + j, k d + l] B[j, a] conj(B[l, c])``
    is the dynamical matrix of ``sigma -> E(B sigma B^dag)``: for any
    decomposition of the map it equals ``sum_k s_k vec(V_k) vec(V_k)^dag``.
    So each signed eigenvector, unvec'ed to ``d x r`` and scaled by the
    square root of its eigenvalue's magnitude, is a term ``V``, returned
    complex, as a :class:`CodeTerms` record holds it.
    """
    m, iso = _checked_b(b, tol), code.isometry
    if m.dtype == float and not iso.imag.any():
        iso = iso.real
    d, r = iso.shape
    x = (m.reshape(d**3, d) @ iso.conj()).reshape(d, d, d * r)  # x[i, j, k r + c]: the l sum
    restricted = (iso.T @ x).reshape(d * r, d * r)  # the j sum: row i r + a
    signs, rows = _signed_factors((restricted + restricted.conj().T) / 2, tol)
    return signs, np.asarray(rows.reshape(-1, d, r), dtype=complex)


def on_code(channel: SignedOperatorSum | BMatrix | AMatrix, code: CodeSpace, tol: float = DEFAULT_TOL) -> CodeTerms:
    """The map's terms on the code, ``V_k = E_k B``, as the record that the analysis reads.

    A :class:`~ncpqec.superop.SignedOperatorSum` keeps its signs and
    terms: ``V`` is the one product ``E B``, one GEMM over the columns of
    ``E`` where ``B`` has a nonzero row when ``d >= 64`` and at most
    ``d / 4`` rows are nonzero, else one GEMM over all ``d`` columns.  A
    :class:`~ncpqec.superop.BMatrix`, or an
    :class:`~ncpqec.superop.AMatrix` reshuffled to one, must pass the
    Hermiticity gate of :func:`~ncpqec.superop.operator_sum_from_b` on
    the whole ``B``.  Its terms are then the signed eigenvectors of the
    ``d r x d r`` dynamical matrix ``(I x B)^dag Bmat (I x B)`` of the map
    restricted to the code, cut, ordered and scaled as in
    ``operator_sum_from_b``; they need not be any ``E_k B`` of the map's
    own operator sum.  The readers take each of these channels through
    the same terms, so a record made here gives their answers bit for bit.

    Raises
    ------
    ValueError
        For a NaN, infinite or negative ``tol``, or mismatched dimensions.
    TypeError
        For a channel of another type, a :class:`CodeTerms` record included.
    NotHermitian
        If a matrix channel's ``B`` is not Hermitian within ``tol`` times
        its largest entry.
    """
    _check_tol(tol)
    if isinstance(channel, CodeTerms):
        raise TypeError("expected SignedOperatorSum, BMatrix or AMatrix, got CodeTerms")
    return CodeTerms(*_on_code(channel, code, tol))


def _gram(v: np.ndarray) -> np.ndarray:
    """The ``(n r, n r)`` Gram of the columns of an ``(n, d, r)`` stack, those of ``V_1`` first, as one GEMM."""
    n, d, r = v.shape
    rows = v.transpose(0, 2, 1).reshape(n * r, d)  # [V_1, V_2, ...]^T
    return rows.conj() @ rows.T


def _blocks(v: np.ndarray) -> np.ndarray:
    """The ``(n, n, r, r)`` blocks ``V_k^dag V_l`` of an ``(n, d, r)`` stack, as one Gram GEMM."""
    n, _, r = v.shape
    return _gram(v).reshape(n, r, n, r).transpose(0, 2, 1, 3)


def _condition_fit(blocks: np.ndarray) -> tuple[np.ndarray, float]:
    """The ``c_kl = tr(blocks_kl) / r`` and the largest entry of any ``blocks_kl - c_kl I``."""
    r = blocks.shape[-1]
    entries = np.einsum("klaa->kl", blocks / r)  # divided first: the sum of r entries may overflow
    return entries, _max_abs(blocks - entries[:, :, None, None] * np.eye(r))


def cp_condition_matrix(operators: Sequence[np.ndarray], code: CodeSpace) -> ConditionMatrix:
    """Fit ``P E_i^dag E_j P = c_ij P`` for an unsigned operator list.

    The residual is the largest entrywise deviation of any block
    ``B^dag E_i^dag E_j B`` from ``c_ij`` times the identity, in the
    logical basis ``B``.
    """
    if not len(operators):
        raise ValueError("at least one operator is required")
    ops = SignedOperatorSum(code.dim, (1,) * len(operators), operators)
    return ConditionMatrix(*_condition_fit(_blocks(_on_code(ops, code, DEFAULT_TOL)[1])))


def _eigen_terms(signs: np.ndarray, g: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The signed values ``L``, ``T`` and the scale of the canonical terms of any Gram ``G``.

    With ``G = R^dag R`` and ``R eta R^dag = W L W^dag`` (``L`` is the
    spectrum of the restricted dynamical matrix over ``r``),
    ``T = R^+ W |L|^(1/2)`` and ``scale = max eig G``.  Eigenvalues of
    ``G`` up to ``tol * scale`` drop, and the signed values are cut at
    the same bound.
    """
    mu, q = np.linalg.eigh(g)
    scale = float(mu.max(initial=0.0))
    keep = mu > _cut(tol, scale)
    root, q = np.sqrt(mu[keep]), q[:, keep]
    factor = root[:, None] * q.conj().T  # R, with G = R^dag R
    lam, w = np.linalg.eigh((factor * signs) @ factor.conj().T)
    # Each eigenspace gets the basis spanned by the input terms (columns
    # of R) in index order, so already-diagonal conditions give T = I.
    values, w_fixed = _signed_eigensystem(lam, w, _cut(tol, scale), factor)
    return values, (q / root) @ w_fixed * np.sqrt(np.abs(values)), scale


def _direct_terms(signs: np.ndarray, g: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    """What :func:`_eigen_terms` gives, to rounding, for an exactly diagonal ``G``, with no eigensolver.

    The eigenvalues of ``G`` are its diagonal ``mu``, and ``R eta R^dag``
    is ``diag(s_k (sqrt mu_k)^2)``, so the kept terms are the input terms:
    column ``j`` of ``T`` selects term ``k_j``, scaled by
    ``sqrt(d_j) / sqrt(mu_k_j)``, in term order inside a cluster, as the
    eigen route's Gram-Schmidt of the input terms orders them.  The one
    cut is that of the signed values: ``|s_k mu_k| = mu_k``.
    """
    mu = g.diagonal().real
    scale = float(mu.max(initial=0.0))
    root = np.sqrt(mu)
    clusters, values = _signed_clusters(signs * root * root, _cut(tol, scale))
    rows = [i for c in clusters for i in sorted(c)]
    t = np.zeros((g.shape[0], len(rows)), dtype=complex)
    t[rows, np.arange(len(rows))] = np.sqrt(np.abs(values)) / root[rows]
    return values, t, scale


def _canonical_terms(signs: Sequence[int], blocks: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Canonical decomposition of the map restricted to the code.

    With ``G = tr_r(blocks) / r`` the Gram matrix of the terms on the
    code, returns ``(values, T, residual, scale)`` of the canonical terms
    ``F = E T``: the signed values ``L``, whose ``d = |L|`` and
    ``sign(L)`` are the terms' weights and signs, and ``scale = max eig
    G``.  ``residual`` is how far each canonical block
    ``T_k^dag (V^dag V) T_l`` is from a multiple of ``I``: the largest
    entry of any block less its trace over ``r`` times ``I``.
    Eigenvalues up to ``tol * scale`` drop, and so do signed values up
    to it, so every ``d_k`` exceeds ``tol * scale`` and each term is one
    syndrome.  A ``G`` whose off-diagonal entries are all exactly zero,
    as for Pauli errors on a stabilizer code, takes
    :func:`_direct_terms`; every other ``G`` takes :func:`_eigen_terms`.
    """
    r = blocks.shape[-1]
    g = np.einsum("klaa->kl", blocks / r)
    route = _direct_terms if np.count_nonzero(g) == np.count_nonzero(g.diagonal()) else _eigen_terms
    values, t, scale = route(np.asarray(signs), g, tol)
    canonical = (t.conj().T @ blocks.transpose(2, 3, 0, 1) @ t).transpose(2, 3, 0, 1)
    return values, t, _condition_fit(canonical)[1], scale


def _syndromes(v: np.ndarray, t: np.ndarray, tol: float) -> np.ndarray:
    """The ``(m, d, r)`` polar isometries ``W_k = F_k B H_k^(-1/2)``, ``H_k = (F_k B)^dag F_k B``.

    ``t`` holds the columns ``T_k`` of the ``m`` syndromes, so the products
    ``F_k B = (V T)_k`` are one GEMM of ``T^T`` with the ``(n, d r)`` stack
    ``V``.  ``H_k`` is the ``r x r`` Gram of that product, not the canonical
    block ``T_k^dag (V^dag V) T_k``, whose rounding grows with ``|T|^2``.
    An ``H_k`` whose smallest eigenvalue is not above ``tol`` times its
    largest is refused before any square root, and the Gram of the
    returned ``W`` must be the identity, every pair and the diagonal
    included, within ``10 tol``; either gate refuses a NaN.
    """
    (n, dim, r), m = v.shape, t.shape[1]
    products = (t.T @ v.reshape(n, dim * r)).reshape(m, dim, r)  # F_k B = (V T)_k
    lam, u = np.linalg.eigh(products.conj().swapaxes(1, 2) @ products)  # H_k, eigenvalues ascending
    low = ~(lam[:, 0] > _cut(tol, lam[:, -1]))
    if low.any():
        j = int(np.argmax(low))
        raise OrthogonalityViolation(
            f"syndrome {j} has (F B)^dag F B with smallest eigenvalue {lam[j, 0]:.3e} of largest {lam[j, -1]:.3e}"
        )
    w = products @ ((u / np.sqrt(lam)[:, None, :]) @ u.conj().swapaxes(1, 2))  # F_k B H_k^(-1/2)
    gram = _gram(w)
    gram.ravel()[:: m * r + 1] -= 1.0  # W_a^dag W_c - delta_ac I, in place
    if not np.abs(gram).max(initial=0.0) <= 10 * _cut(tol):
        errors = np.abs(gram.reshape(m, r, m, r)).max(axis=(1, 3))  # per pair (a, c)
        a, c = np.unravel_index(np.argmax(errors), errors.shape)
        raise OrthogonalityViolation(
            f"syndromes {a} and {c} are not orthonormal: max|W_a^dag W_b - delta_ab I| = {errors[a, c]:.3e}"
        )
    return w


def negative_part_on_code(ops: SignedOperatorSum | BMatrix | AMatrix | CodeTerms, code: CodeSpace) -> float:
    """Largest Frobenius norm ``sqrt(r d_k)`` of a negative canonical term on the code, ``F_k B``.

    Zero exactly when no negative canonical term acts on the code space
    (the reversibility-with-positivity requirement).  The canonical terms
    are those :func:`analyze` finds, at the default tolerance, so the
    value depends on the map and the code, not on the signed
    decomposition: a canceling pair of terms adds nothing.  A
    :class:`CodeTerms` record gives its own terms ``V_k``, a channel
    those :func:`on_code` makes of it.

    Raises
    ------
    ValueError
        For mismatched dimensions.
    TypeError
        For a map of another type.
    NotHermitian
        If a matrix channel's ``B`` is not Hermitian within the default
        tolerance times its largest entry.
    """
    signs, v = _on_code(ops, code, DEFAULT_TOL)
    values = _canonical_terms(signs, _blocks(v), DEFAULT_TOL)[0]
    # ||F_k B||_F^2 = tr H_k = r d_k: the traced canonical blocks are diag(d)
    return float(np.sqrt(code.rank * (-values).max(initial=0.0)))


def build_recovery(syndromes: Recovery) -> Recovery:
    """Recovery channel ``rho -> sum_j B W_j^dag rho W_j B^dag``: the syndromes' own factored :class:`Recovery`.

    One (+1) term ``B W_j^dag`` per syndrome: measure the syndrome, then
    map its range back onto the code (``U_j^dag P_j`` in the polar form
    ``F_j P = sqrt(d_j) U_j P``).  A report's syndromes are already that
    record, so it is returned as given.  Raises ``ValueError`` for an
    empty set.
    """
    if not syndromes:
        raise ValueError("cannot build a recovery from an empty syndrome set")
    return syndromes


def _witness(
    signs: Sequence[int], first: np.ndarray, b0: np.ndarray, values: np.ndarray, w: np.ndarray, tol: float
) -> NegativityWitness:
    """Witness ``b_0`` against the first negative syndrome ``j``, from the ``(n, d)`` terms ``E_k b_0``.

    ``values`` are the signed canonical values and ``w`` the ``(m, d, r)``
    stack of syndrome isometries.  The outcome probability on a code state
    is ``values[j] = -d_j``, cross-checked once on the input terms as
    ``sum_k s_k |W_j^dag E_k b_0|^2``.
    """
    j = int(np.argmax(values < 0))
    amplitudes = first @ w[j].conj()  # row k: W_j^dag E_k b_0
    prob = float(np.asarray(signs, dtype=float) @ np.sum(np.abs(amplitudes) ** 2, axis=1))
    if not prob <= -_cut(tol, np.abs(values).max()):  # NaN too
        raise WitnessSearchFailed(
            f"negative syndrome {j} has probability {prob:.3e} on the first logical basis state, "
            f"expected {values[j]:.3e}"
        )
    return NegativityWitness(b0, j, prob)


def analyze(
    ops: SignedOperatorSum | BMatrix | AMatrix | CodeTerms, code: CodeSpace, tol: float = DEFAULT_TOL
) -> QecReport:
    """Decide reversibility of a map, or of its :class:`CodeTerms`, on a code space.

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
      ``recovery`` is the syndromes' factored :class:`Recovery`.

    The verdict depends on the map and the code, not on the signed
    decomposition that represents the map.  ``ops`` enters only through
    its terms on the code, ``V_k = E_k B``: a :class:`CodeTerms` record's
    own, else those :func:`on_code` makes of the channel, the one product
    ``E B`` of an operator sum or the restricted eigensystem of a matrix.

    Raises
    ------
    ValueError
        For a NaN, infinite or negative ``tol``, or mismatched dimensions.
    TypeError
        For a map of another type.
    NotHermitian
        If a matrix channel's ``B`` is not Hermitian within ``tol`` times
        its largest entry.
    OrthogonalityViolation
        If a syndrome's block ``H_k = (F_k B)^dag F_k B`` has its smallest
        eigenvalue at most ``tol`` times its largest, so its polar
        isometry is undetermined; or if an entry of
        ``W_a^dag W_b - delta_ab I``, for every pair of the returned
        syndromes, exceeds ``10 tol``: the conditions were not actually
        diagonal, or ``H_k`` is too ill-conditioned for an isometric ``W_k``.
    WitnessSearchFailed
        If the witness's cross-checked probability is not at most ``-tol``
        times the largest syndrome weight.
    """
    signs, v = _on_code(ops, code, tol)
    blocks = _blocks(v)
    values, t, residual, scale = _canonical_terms(signs, blocks, tol)
    if not values.size:
        return QecReport(np.zeros(1), 0.0, None, None, Verdict.CONDITIONS_VIOLATED, None)
    if residual > _cut(tol, scale):
        return QecReport(values, residual, None, None, Verdict.CONDITIONS_VIOLATED, None)
    w = _syndromes(v, t, tol)
    syndromes = Recovery(code.isometry, w)
    if values[-1] < 0:  # the +1 block comes first
        witness = _witness(signs, v[:, :, 0], code.isometry[:, 0], values, w, tol)
        return QecReport(values, residual, t, syndromes, Verdict.CODE_OUTSIDE_DOMAIN, witness)
    # sum_k s_k V_k^dag V_k, from the diagonal blocks
    if _max_abs(np.diagonal(blocks) @ np.asarray(signs, dtype=float) - np.eye(code.rank)) > _cut(tol):
        return QecReport(values, residual, t, syndromes, Verdict.CONDITIONS_VIOLATED, None)
    return QecReport(values, residual, t, syndromes, Verdict.REVERSIBLE_POSITIVE, None)


def _deviation(coords: np.ndarray, signs: np.ndarray, r: int, tol: float) -> float:
    """``||D||_2`` from the ``k x (1 + N) r`` coordinates of ``[B, M_1, ...]`` in one orthonormal frame.

    ``X = sum_n s_n M_n sigma M_n^dag / c - B sigma B^dag`` has the norm of
    its ``k x k`` image in the frame, and ``vec X = D vec sigma`` with the
    ``k^2 x r^2`` matrix ``D = sum_n (s_n / c) M_n x conj(M_n) - B x conj(B)``,
    so ``||X||_F <= ||D||_2 ||sigma||_F`` for every ``sigma``, with equality
    at the top singular vector.  ``c = sum_n s_n ||M_n||_F^2 / r`` is the
    recovered trace of the maximally mixed code state.  ``D`` is formed,
    so its entries cancel before any square is taken; ``||D||_2`` is then
    the root of the largest eigenvalue of ``D^dag D``.  The terms are
    divided by their largest entry, which leaves ``D`` unchanged and keeps
    every square finite at any float scale.
    """
    k = coords.shape[0]
    blocks = coords[:, r:].reshape(k, -1, r)
    live = blocks.any(axis=(0, 2))  # a zero block adds nothing to D
    m, signs = blocks[:, live], signs[live]
    m = m / (_max_abs(m) or 1.0)
    power = np.einsum("kns,kns->n", m, m.conj()).real / r  # ||M_n||_F^2 / r
    c, unsigned = signs @ power, power.sum()
    if abs(c) <= _cut(tol, unsigned):
        ratio = abs(c) / unsigned if unsigned else 0.0
        raise ZeroTrace(
            f"recovered trace cancels to {ratio:.3e} of its unsigned trace sum |s| ||M||^2 / r (tol {tol:.1e})"
        )
    y = np.concatenate([coords[:, None, :r], m], axis=1)  # y[:, n] = [B, M_1, ...]
    left = (y * np.concatenate([[-1.0], signs / c])[:, None]).transpose(0, 2, 1).reshape(k * r, -1)  # row a r + i
    right = y.conj().transpose(1, 0, 2).reshape(-1, k * r)  # column b r + j
    d = (left @ right).reshape(k, r, k, r).transpose(0, 2, 1, 3).reshape(k * k, r * r)  # D[a k + b, i r + j]
    return float(np.sqrt(max(np.linalg.eigvalsh(d.conj().T @ d)[-1], 0.0)))


def verify_recovery(
    ops: SignedOperatorSum | BMatrix | AMatrix | CodeTerms,
    recovery: SignedOperatorSum | Recovery,
    code: CodeSpace,
    *,
    tol: float = DEFAULT_TOL,
) -> float:
    """Largest ``|| R(E(B sigma B^dag)) / c - B sigma B^dag ||_F`` over ``||sigma||_F <= 1``, to rounding.

    ``c`` is the recovered trace of the maximally mixed code state, so a
    recovery that restores the code only up to a constant factor, the
    Knill-Laflamme ``R E = c id`` on the code, still verifies.  ``R E`` is
    linear, so the value is the spectral norm of one operator ``D`` on the
    ``r x r`` logical ``sigma`` and bounds the deviation of every code
    state, pure or mixed; it is zero exactly when ``R E = c id`` on the
    code.  ``tol`` is keyword-only.  Map and recovery enter only through
    the ``d x r`` terms ``M_jk = R_j E_k B``: each deviation
    ``X = A Z A^dag`` lies in the column span of ``A = [B, M_11, M_12,
    ...]``, and ``D`` is taken on the coordinates of ``A`` in an
    orthonormal frame, with no ``d x d`` state and no rank cut.

    The map enters only through its terms on the code ``V_k = E_k B``, as
    in :func:`analyze`, so a :class:`CodeTerms` record made once for
    :func:`analyze` serves here too and gives the value of its channel bit
    for bit.
    The frame comes from one thin Householder QR of ``A`` (accurate per
    column beside much larger ones), without the exactly zero blocks
    ``M_jk``.  A factored :class:`Recovery` with ``d x r'`` isometry ``L``
    has ``M_jk = L G_jk`` with ``r' x r`` blocks ``G_jk = W_j^dag E_k B``:
    when ``L`` is ``B`` (orthonormal by the :class:`CodeSpace` check) the
    frame is ``B`` itself and nothing ``d x d`` or QR is formed; any other
    ``L`` forms the ``M_jk`` and takes that QR.  The Frobenius norm bounds
    every entry of ``X``, leakage off the code included.

    Raises
    ------
    ValueError
        If ``tol`` is not a finite non-negative number, or the dimensions differ.
    TypeError
        For a map or a recovery of another type.
    NotHermitian
        If a matrix channel's ``B`` is not Hermitian within ``tol`` times
        its largest entry.
    ZeroTrace
        If ``|c|`` is at most ``tol`` times the unsigned trace
        ``sum_jk |s_jk| ||M_jk||_F^2 / r``: it has cancelled to rounding
        (or the map or the recovery annihilates the code, as a map with
        no terms does), so the check cannot decide.
    """
    if not isinstance(recovery, (SignedOperatorSum, Recovery)):
        raise TypeError(f"expected a SignedOperatorSum or Recovery recovery, got {type(recovery).__name__}")
    if recovery.dim != code.dim:
        raise ValueError(f"recovery dimension {recovery.dim} does not match code dimension {code.dim}")
    b = code.isometry
    d, r = b.shape
    signs, v = _on_code(ops, code, tol)
    v = v.transpose(1, 0, 2).reshape(d, -1)  # [E_1 B, E_2 B, ...]
    signs = np.outer(recovery.signs, signs).ravel()  # s_jk, n = j K + k
    if isinstance(recovery, Recovery):
        left = recovery.code_isometry
        # Row a m + j is row a of W_j^dag [V_1, V_2, ...], so the r' rows of the reshape are [G_11, G_12, ...].
        g = (recovery.isometries.conj().transpose(2, 0, 1).reshape(-1, d) @ v).reshape(left.shape[1], -1)
        if left is b or np.array_equal(left, b):  # M_jk = B G_jk: the frame is B
            return _deviation(np.concatenate([np.eye(r), g], axis=1), signs, r, tol)
        m = (left @ g).reshape(d, -1, r)  # m[:, n] = M_jk = L G_jk
    else:
        m = (recovery.operators @ v).transpose(1, 0, 2).reshape(d, -1, r)  # m[:, n] = M_jk
    live = m.any(axis=(0, 2))  # kept out of the QR as well
    coords = np.linalg.qr(np.concatenate([b, m[:, live].reshape(d, -1)], axis=1), mode="r")
    return _deviation(coords, signs[live], r, tol)
