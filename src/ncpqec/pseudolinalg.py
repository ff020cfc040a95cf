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
    NotAProjector,
    NotPseudoHermitian,
    NullNormEncountered,
    PseudoDiagonalizationFailure,
)

#: Default tolerance used across the package.  The analysis gates of
#: :mod:`ncpqec.qec` apply it relative to the map's scale on the code;
#: checks such as trace preservation apply it as an absolute bound.
DEFAULT_TOL = 1e-9


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


@dataclass(frozen=True)
class PolarFactors:
    """Isometry and positive-semidefinite factors of a polar decomposition."""

    isometry: np.ndarray
    positive_part: np.ndarray


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only complex copy of ``a``, for the immutable records."""
    out = np.array(a, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


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
    """True iff ``H^dag = eta H eta`` entrywise within ``tol``."""
    h = _as_square(h, "H")
    eta = _check_metric(eta, h.shape[0])
    return _max_abs(h.conj().T - eta @ h @ eta) <= tol


def is_pseudounitary(u: np.ndarray, eta: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``U eta U^dag = eta`` entrywise within ``tol``."""
    u = _as_square(u, "U")
    eta = _check_metric(eta, u.shape[0])
    return _max_abs(u @ eta @ u.conj().T - eta) <= tol


def pseudo_gram_schmidt(
    vectors: Sequence[np.ndarray], eta: np.ndarray, tol: float = DEFAULT_TOL
) -> list[np.ndarray]:
    """Orthogonalize ``vectors`` with respect to the indefinite inner product.

    Returns vectors normalized to indefinite norm +1 or -1, pairwise
    orthogonal under ``eta``, spanning the same space as the input.

    Raises
    ------
    LinearDependence
        If a vector is (numerically) in the span of its predecessors.
    NullNormEncountered
        If an orthogonalized vector has indefinite norm of magnitude
        at most ``tol`` (after unit Euclidean scaling), so it cannot be
        normalized.
    """
    vectors = [np.asarray(v, dtype=complex) for v in vectors]
    if not vectors:
        return []
    n = vectors[0].shape[0]
    eta = _check_metric(eta, n)
    out: list[np.ndarray] = []
    norms: list[float] = []
    for k, v in enumerate(vectors):
        if v.shape != (n,):
            raise ValueError(f"vector {k} has shape {v.shape}, expected ({n},)")
        w = v.copy()
        for u, g in zip(out, norms):
            w = w - u * (pseudo_inner(u, w, eta) / g)
        wn = float(np.linalg.norm(w))
        if wn <= tol * max(1.0, float(np.linalg.norm(v))):
            raise LinearDependence(f"vector {k} lies in the span of its predecessors")
        w = w / wn
        g = pseudo_inner(w, w, eta).real
        if abs(g) <= tol:
            raise NullNormEncountered(f"vector {k} has null indefinite norm after orthogonalization")
        w = w / np.sqrt(abs(g))
        out.append(w)
        norms.append(1.0 if g > 0 else -1.0)
    return out


def _cluster_indices(values: np.ndarray, gap: float) -> list[list[int]]:
    """Group indices of ``values`` whose sorted gaps are at most ``gap``; ties keep input order."""
    order = np.argsort(values, kind="stable")
    clusters: list[list[int]] = []
    for idx in order:
        if clusters and values[idx] - values[clusters[-1][-1]] <= gap:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    return clusters


def _projected_basis(span: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the column span of ``span``.

    Projects the columns of ``candidates`` onto that span and
    orthonormalizes them in index order, keeping the first
    ``span.shape[1]`` whose residual norm exceeds ``1e-8`` times the
    largest candidate norm.  This removes an eigensolver's arbitrary
    choice of basis inside a degenerate eigenspace.
    """
    k = span.shape[1]
    floor = 1e-8 * float(np.max(np.linalg.norm(candidates, axis=0)))
    basis: list[np.ndarray] = []
    for w in (span @ (span.conj().T @ candidates)).T:
        if len(basis) == k:
            break
        for b in basis:
            w = w - b * np.vdot(b, w)
        wn = float(np.linalg.norm(w))
        if wn > floor:
            basis.append(w / wn)
    if len(basis) != k:  # pragma: no cover - the candidates span the whole space
        raise RuntimeError("failed to construct a deterministic basis")
    return np.column_stack(basis)


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
    pseudounitary with respect to the *input* metric.

    Raises
    ------
    NotPseudoHermitian
        If ``H`` fails the pseudohermiticity test at ``tol``.
    PseudoDiagonalizationFailure
        If the spectrum is not real within tolerance, an eigenvector has
        null indefinite norm, or the assembled transform fails its
        consistency checks (e.g. for defective matrices).
    """
    h = _as_square(h, "H")
    n = h.shape[0]
    eta = _check_metric(eta, n)
    if not is_pseudohermitian(h, eta, tol):
        raise NotPseudoHermitian("matrix is not pseudohermitian for the given metric")
    if n == 0:
        return PseudoDiagonalization(
            np.zeros((0, 0), complex), np.zeros(0), np.diag(eta).real.copy(), ()
        )

    w, v = np.linalg.eig(h)
    scale = max(1.0, _max_abs(w))
    if _max_abs(w.imag) > tol * scale:
        raise PseudoDiagonalizationFailure(
            f"spectrum is not real: max imaginary part {_max_abs(w.imag):.3e}"
        )
    lam = w.real

    discovered: list[tuple[float, np.ndarray, float]] = []  # (eigenvalue, vector, sign)
    clusters = _cluster_indices(lam, tol * scale)
    clusters.sort(key=lambda c: (-abs(float(np.mean(lam[c]))), -float(np.mean(lam[c]))))
    for cluster in clusters:
        value = float(np.mean(lam[cluster]))
        try:
            basis = pseudo_gram_schmidt([v[:, j] for j in cluster], eta, tol)
        except (NullNormEncountered, LinearDependence) as exc:
            raise PseudoDiagonalizationFailure(
                f"eigenspace at {value:.6g} admits no indefinite-orthonormal basis: {exc}"
            ) from exc
        for vec in basis:
            sign = 1.0 if pseudo_inner(vec, vec, eta).real > 0 else -1.0
            discovered.append((value, vec, sign))

    eta_diag = np.diag(eta).real
    plus = [(k, t) for k, t in enumerate(discovered) if t[2] > 0]
    minus = [(k, t) for k, t in enumerate(discovered) if t[2] < 0]
    n_plus = int(np.sum(eta_diag > 0))
    if len(plus) != n_plus or len(minus) != n - n_plus:
        raise PseudoDiagonalizationFailure(
            f"inertia mismatch: found {len(plus)} positive-norm eigenvectors, metric has {n_plus}"
        )

    s = np.zeros((n, n), dtype=complex)
    d = np.zeros(n)
    perm = [0] * n
    plus_positions = [i for i in range(n) if eta_diag[i] > 0]
    minus_positions = [i for i in range(n) if eta_diag[i] < 0]
    for pos, (k, (value, vec, _)) in zip(plus_positions, plus):
        s[:, pos] = vec
        d[pos] = value
        perm[pos] = k
    for pos, (k, (value, vec, _)) in zip(minus_positions, minus):
        s[:, pos] = vec
        d[pos] = value
        perm[pos] = k

    # Consistency: S must be pseudounitary and actually diagonalize H.
    err_pu = _max_abs(s @ eta @ s.conj().T - eta)
    s_inv = eta @ s.conj().T @ eta
    err_diag = _max_abs(s_inv @ h @ s - np.diag(d))
    bound = 10 * tol * max(1.0, _max_abs(h))
    if err_pu > bound or err_diag > bound:
        raise PseudoDiagonalizationFailure(
            f"assembled transform fails consistency checks (pseudounitarity {err_pu:.3e}, "
            f"diagonalization {err_diag:.3e})"
        )
    return PseudoDiagonalization(s, d, eta_diag.copy(), tuple(perm))


def polar_on_code(m: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> PolarFactors:
    """Polar decomposition of ``M B`` for a ``d x r`` isometry ``B``.

    Returns ``PolarFactors(W, H)`` from one thin SVD ``M B = L S R^dag``:
    the ``d x r`` isometry ``W = L R^dag`` and the ``r x r`` positive
    part ``H = R S R^dag = sqrt(B^dag M^dag M B)``, so ``M B = W H``.
    ``W`` is the canonical polar isometry on the support of ``H``.

    Raises
    ------
    NotAProjector
        If ``B^dag B`` is not the identity within ``tol``, i.e. ``B B^dag``
        is not an orthogonal projector.
    """
    m = _as_square(m, "M")
    b = np.asarray(b, dtype=complex)
    if b.ndim != 2 or b.shape[0] != m.shape[0]:
        raise ValueError(f"B has shape {b.shape}, expected ({m.shape[0]}, r)")
    if not _max_abs(b.conj().T @ b - np.eye(b.shape[1])) <= tol:  # NaN fails too
        raise NotAProjector("B is not an isometry within tolerance")
    left, sv, right_h = np.linalg.svd(m @ b, full_matrices=False)
    return PolarFactors(left @ right_h, (right_h.conj().T * sv) @ right_h)
