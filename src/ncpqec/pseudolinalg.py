"""Linear algebra over an indefinite diagonal metric.

The metric is ``eta = diag(+1, ..., +1, -1, ..., -1)`` with signature
``(p, q)``.  A matrix ``H`` is *pseudohermitian* when
``H^dag = eta H eta`` and a matrix ``U`` is *pseudounitary* when
``U eta U^dag = eta``.  The two notions play the roles Hermitian and
unitary matrices play for the ordinary inner product: ``eta H`` is
Hermitian iff ``H`` is pseudohermitian, and ``exp(-i H t)`` of a
pseudohermitian ``H`` is pseudounitary.

Unlike the definite case, a pseudohermitian matrix need not be
diagonalizable by a pseudounitary: the reduction fails when the
spectrum leaves the real axis or when an eigenvector has zero
indefinite norm.  :func:`pseudo_diagonalize` detects both failure modes
and raises :class:`~ncpqec.errors.PseudoDiagonalizationFailure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    LinearDependence,
    NotPseudoHermitian,
    NullNormEncountered,
    PseudoDiagonalizationFailure,
)

__all__ = [
    "DEFAULT_TOL",
    "Signature",
    "PseudoDiagonalization",
    "eta_metric",
    "pseudo_inner",
    "is_pseudohermitian",
    "is_pseudounitary",
    "pseudo_gram_schmidt",
    "pseudo_diagonalize",
]

#: Default tolerance used across the package, applied as :func:`_cut` says.
DEFAULT_TOL = 1e-9


def _check_tol(tol: float) -> float:
    """``tol`` itself; ``ValueError`` unless it is a finite non-negative number."""
    if not 0 <= tol < np.inf:  # false for NaN
        raise ValueError(f"tolerance must be a finite non-negative number, got {tol!r}")
    return tol


def _cut(tol: float, scale: float | np.ndarray = 1.0) -> float | np.ndarray:
    """The bound ``tol * scale`` of one gate, once :func:`_check_tol` accepts ``tol``.

    This is the one tolerance policy.  Every gate takes its bound from
    here, so every public function that takes ``tol`` refuses a NaN,
    infinite or negative one.  Each spectrum cut, cluster gap and
    consistency bound is relative to the gated input's own scale (its
    largest entry, eigenvalue, singular value or norm), so rescaling the
    input does not change the answer.  Only the quantities that are
    scale-dependent by definition are gated absolutely (``scale = 1``):
    trace preservation, unit trace, pseudounitarity and isometry (a code's
    ``B^dag B = I``, the syndromes' ``W_a^dag W_b = delta_ab I``).
    """
    return _check_tol(tol) * scale


@dataclass(frozen=True)
class Signature:
    """Counts of +1 and -1 entries of a diagonal indefinite metric."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError(f"signature counts must be non-negative, got ({self.p}, {self.q})")

    @property
    def size(self) -> int:
        return self.p + self.q


class PseudoDiagonalization(NamedTuple):
    """Result of :func:`pseudo_diagonalize`.

    ``transform`` is pseudounitary with respect to the input metric and
    satisfies ``transform^-1 H transform = diag(eigenvalues)``.  Columns
    are arranged so that the indefinite norm of column ``i`` matches the
    ``i``-th metric entry (recorded in ``metric_signs``); ``permutation``
    maps each output column to its position in the discovery order used
    internally (descending eigenvalue magnitude).
    """

    transform: np.ndarray
    eigenvalues: np.ndarray
    metric_signs: np.ndarray
    permutation: tuple[int, ...]


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def _frozen(a: np.ndarray, dtype: type = complex) -> np.ndarray:
    """``a`` as a read-only array of ``dtype`` (complex by default) that no write can change: what a record holds.

    An array of ``dtype`` whose base chain ends at an immutable ``bytes``
    object, as ``np.frombuffer`` gives a parser, is ``a`` itself: numpy
    refuses to make it writeable.  Any other input is copied once into
    such an array.  The records that hold these arrays are ``eq=False``
    dataclasses: they compare by identity and hash, as ``==`` on arrays
    has no truth value (``maps_equal`` compares maps by value).
    """
    owner = a.base if isinstance(a, np.ndarray) else None
    while isinstance(owner, np.ndarray):
        owner = owner.base
    if isinstance(owner, bytes) and a.dtype == dtype:
        return a
    a = np.asarray(a, dtype=dtype)
    return np.frombuffer(a.tobytes(), dtype).reshape(a.shape)


def _as_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _check_metric(eta: np.ndarray, n: int) -> np.ndarray:
    eta = _as_square(eta, "eta")
    if eta.shape[0] != n:
        raise ValueError(f"metric size {eta.shape[0]} does not match dimension {n}")
    d = np.diag(eta)
    if _max_abs(eta - np.diag(d)) > 0 or (n and _max_abs(np.abs(d.real) - 1) > 0) or (n and _max_abs(d.imag) > 0):
        raise ValueError("eta must be a diagonal matrix with entries +1/-1")
    return eta


def eta_metric(signature: Signature) -> np.ndarray:
    """Return ``diag(+1 x p, -1 x q)`` for the given signature."""
    d = np.concatenate([np.ones(signature.p), -np.ones(signature.q)])
    return np.diag(d).astype(complex)


def pseudo_inner(u: np.ndarray, v: np.ndarray, eta: np.ndarray) -> complex:
    """Indefinite inner product ``u^dag eta v``."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"expected two vectors of equal length, got {u.shape} and {v.shape}")
    eta = _check_metric(eta, u.shape[0])
    return complex(np.vdot(u, eta @ v))


def is_pseudohermitian(h: np.ndarray, eta: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``H^dag = eta H eta`` entrywise within ``tol`` times ``max|H|``."""
    h = _as_square(h, "H")
    eta = _check_metric(eta, h.shape[0])
    return _max_abs(h.conj().T - eta @ h @ eta) <= _cut(tol, _max_abs(h))


def is_pseudounitary(u: np.ndarray, eta: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``U eta U^dag = eta`` entrywise within the absolute ``tol``."""
    u = _as_square(u, "U")
    eta = _check_metric(eta, u.shape[0])
    return _max_abs(u @ eta @ u.conj().T - eta) <= _cut(tol)


def pseudo_gram_schmidt(
    vectors: Sequence[np.ndarray], eta: np.ndarray, tol: float = DEFAULT_TOL
) -> list[np.ndarray]:
    """Orthogonalize ``vectors`` with respect to the indefinite inner product.

    Returns vectors normalized to indefinite norm +1 or -1, pairwise
    orthogonal under ``eta``, spanning the same space as the input.

    Raises
    ------
    LinearDependence
        If a vector is (numerically) in the span of its predecessors: its
        residual norm is at most ``tol`` times its own norm.
    NullNormEncountered
        If an orthogonalized vector has indefinite norm of magnitude
        at most ``tol`` (after unit Euclidean scaling), so it cannot be
        normalized.
    """
    _check_tol(tol)
    vectors = [np.asarray(v, dtype=complex) for v in vectors]
    if not vectors:
        return []
    n = vectors[0].shape[0]
    eta = _check_metric(eta, n)
    for k, v in enumerate(vectors):
        if v.shape != (n,):
            raise ValueError(f"vector {k} has shape {v.shape}, expected ({n},)")
    return _gram_schmidt(vectors, eta, tol)


def _gram_schmidt(vectors: list[np.ndarray], eta: np.ndarray, tol: float) -> list[np.ndarray]:
    """:func:`pseudo_gram_schmidt` of complex ``(n,)`` vectors on an ``n x n`` metric ``eta`` already checked."""
    null = _cut(tol)  # the indefinite norm is taken on unit vectors
    out: list[np.ndarray] = []
    norms: list[float] = []
    for k, v in enumerate(vectors):
        w = v.copy()
        for u, g in zip(out, norms):
            w = w - u * (complex(np.vdot(u, eta @ w)) / g)  # u^dag eta w: pseudo_inner on the metric checked once
        wn = float(np.linalg.norm(w))
        if wn <= _cut(tol, float(np.linalg.norm(v))):
            raise LinearDependence(f"vector {k} lies in the span of its predecessors")
        w = w / wn
        g = np.vdot(w, eta @ w).real
        if abs(g) <= null:
            raise NullNormEncountered(f"vector {k} has null indefinite norm after orthogonalization")
        w = w / np.sqrt(abs(g))
        out.append(w)
        norms.append(1.0 if g > 0 else -1.0)
    return out


def _cluster_indices(values: list[float], gap: float) -> list[list[int]]:
    """Group indices of ``values`` whose sorted gaps are at most ``gap``; ties keep input order."""
    clusters: list[list[int]] = []
    for i in sorted(range(len(values)), key=values.__getitem__):
        if clusters and values[i] <= values[clusters[-1][-1]] + gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def _column_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=0)`` by numpy's own formula, without its dispatch."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=0))


def _coordinate_basis(x: np.ndarray, floor: float) -> np.ndarray:
    """Gram-Schmidt of the columns of ``x`` (``k x m``) in index order, to a basis of ``C^k``.

    A column is kept when its residual norm exceeds ``floor``; the first
    ``k`` kept give the basis, as columns of a ``k x k`` unitary.
    """
    k = x.shape[0]
    basis: list[np.ndarray] = []
    for w in x.T[_column_norms(x) > floor]:
        for b in basis:
            w = w - b * np.vdot(b, w)
        wn = np.sqrt(w.real.dot(w.real) + w.imag.dot(w.imag))  # np.linalg.norm(w), without its dispatch
        if wn > floor:
            basis.append(w / wn)
            if len(basis) == k:
                return np.column_stack(basis)
    raise RuntimeError("failed to construct a deterministic basis")  # pragma: no cover - candidates span


def _signed_clusters(lam: np.ndarray, cut: float) -> tuple[list[list[int]], np.ndarray]:
    """The canonical order of a signed spectrum: its kept clusters, and one value per kept index.

    Keeps ``|lam| > cut``, clusters sorted gaps up to ``cut`` (ties keep
    index order) at their mean, and orders the clusters positive first,
    then by descending magnitude.  Returns the clusters, each a list of
    indices of ``lam`` in ascending value, and the values in the order of
    their concatenation.
    """
    spectrum = lam.tolist()
    kept = [i for i, x in enumerate(spectrum) if abs(x) > cut]
    clusters = [[kept[j] for j in c] for c in _cluster_indices([spectrum[i] for i in kept], cut)]
    clusters.sort(key=lambda c: (spectrum[c[0]] < 0, -abs(spectrum[c[0]])))  # clusters are contiguous runs
    values = lam[[i for c in clusters for i in c]]
    start = 0
    for c in clusters:
        if len(c) > 1:
            values[start : start + len(c)] = lam[c].sum() / len(c)  # np.mean's sum and division
        start += len(c)
    return clusters, values


def _signed_eigensystem(
    lam: np.ndarray, vectors: np.ndarray, cut: float, candidates: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical ``(values, basis)`` from an ``eigh`` output, one value per basis column.

    The values and their order are :func:`_signed_clusters`'s.  Each
    eigenspace's basis is the Gram-Schmidt, in index order, of the
    projections of the columns of ``candidates`` (the standard basis
    when ``None``) whose residual norm exceeds ``1e-8`` times the
    largest candidate norm.  It is formed from the candidates'
    coordinates ``x = V^dag C`` in the eigenspace: a simple eigenvalue's
    vector ``v`` becomes ``v p / |p|`` with ``p`` its first coordinate
    above that floor.  The result ignores the eigensolver's basis choices.
    """
    clusters, values = _signed_clusters(lam, cut)
    order = [i for c in clusters for i in c]
    v = vectors[:, order]
    if not order:
        return values, v
    if candidates is None:
        x, floor = v.conj().T, 1e-8
    else:
        x, floor = v.conj().T @ candidates, 1e-8 * float(np.max(_column_norms(candidates)))
    p = x[np.arange(len(order)), np.argmax(np.abs(x) > floor, axis=1)]
    basis = v * (p / np.abs(p))
    start = 0
    for c in clusters:
        if len(c) > 1:
            block = slice(start, start + len(c))
            basis[:, block] = v[:, block] @ _coordinate_basis(x[block], floor)
        start += len(c)
    return values, basis


def pseudo_diagonalize(
    h: np.ndarray, eta: np.ndarray, tol: float = DEFAULT_TOL
) -> PseudoDiagonalization:
    """Diagonalize a pseudohermitian matrix by a pseudounitary similarity.

    Finds ``S`` with ``S eta S^dag = eta`` and ``S^-1 H S`` real diagonal.
    Eigenvectors are taken in order of descending eigenvalue magnitude;
    inside a degenerate eigenspace the basis is fixed by indefinite
    Gram-Schmidt in the order the eigensolver returned the vectors.
    Columns of ``S`` are then arranged so the sign of each column's
    indefinite norm matches the corresponding diagonal entry of ``eta``
    (possible by inertia preservation), which is what makes ``S``
    pseudounitary with respect to the *input* metric.  The cluster gap is
    ``tol`` times the largest eigenvalue magnitude.

    Raises
    ------
    NotPseudoHermitian
        If ``H`` fails :func:`is_pseudohermitian` at ``tol``, relative to ``max|H|``.
    PseudoDiagonalizationFailure
        If the spectrum is not real within tolerance, an eigenvector has
        null indefinite norm, or the assembled transform fails its
        consistency checks (e.g. for defective matrices).
    """
    if not is_pseudohermitian(h, eta, tol):  # the one check of H, eta and tol
        raise NotPseudoHermitian("matrix is not pseudohermitian for the given metric")
    h, eta = np.asarray(h, dtype=complex), np.asarray(eta, dtype=complex)
    n = h.shape[0]
    if n == 0:
        return PseudoDiagonalization(np.zeros((0, 0), complex), np.zeros(0), np.zeros(0), ())

    w, v = np.linalg.eig(h)
    gap = _cut(tol, _max_abs(w))
    if _max_abs(w.imag) > gap:
        raise PseudoDiagonalizationFailure(
            f"spectrum is not real: max imaginary part {_max_abs(w.imag):.3e}"
        )
    lam = w.real

    discovered: list[tuple[float, np.ndarray]] = []  # (eigenvalue, vector)
    clusters = _cluster_indices(lam.tolist(), gap)
    clusters.sort(key=lambda c: (-abs(float(np.mean(lam[c]))), -float(np.mean(lam[c]))))
    for cluster in clusters:
        value = float(np.mean(lam[cluster]))
        try:
            basis = _gram_schmidt([v[:, j] for j in cluster], eta, tol)
        except (NullNormEncountered, LinearDependence) as exc:
            raise PseudoDiagonalizationFailure(
                f"eigenspace at {value:.6g} admits no indefinite-orthonormal basis: {exc}"
            ) from exc
        discovered += [(value, vec) for vec in basis]

    eta_diag = np.diag(eta).real
    positive = np.array([np.vdot(vec, eta @ vec).real > 0 for _, vec in discovered])
    found, n_plus = int(np.sum(positive)), int(np.sum(eta_diag > 0))
    if found != n_plus:
        raise PseudoDiagonalizationFailure(
            f"inertia mismatch: found {found} positive-norm eigenvectors, metric has {n_plus}"
        )
    # Stable sorts by sign put the i-th positive-norm vector at the i-th +1 of eta, and so for -1.
    perm = np.empty(n, dtype=int)
    perm[np.argsort(eta_diag < 0, kind="stable")] = np.argsort(~positive, kind="stable")
    s = np.column_stack([discovered[k][1] for k in perm])
    d = np.array([discovered[k][0] for k in perm])

    # Consistency: S must be pseudounitary and actually diagonalize H.
    err_pu = _max_abs(s @ eta @ s.conj().T - eta)
    s_inv = eta @ s.conj().T @ eta
    err_diag = _max_abs(s_inv @ h @ s - np.diag(d))
    if err_pu > 10 * _cut(tol) or err_diag > 10 * _cut(tol, _max_abs(h)):
        raise PseudoDiagonalizationFailure(
            f"assembled transform fails consistency checks (pseudounitarity {err_pu:.3e}, "
            f"diagonalization {err_diag:.3e})"
        )
    return PseudoDiagonalization(s, d, eta_diag.copy(), tuple(perm.tolist()))

