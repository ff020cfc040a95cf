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

#: Default tolerance used across the package.  The analysis gates of
#: :mod:`ncpqec.qec` apply it relative to the map's scale on the code;
#: checks such as trace preservation apply it as an absolute bound.
DEFAULT_TOL = 1e-9


def _check_tol(tol: float) -> float:
    """``tol`` itself; ``ValueError`` unless it is a finite non-negative number."""
    if not 0 <= tol < np.inf:  # false for NaN
        raise ValueError(f"tolerance must be a finite non-negative number, got {tol!r}")
    return tol


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


@dataclass(frozen=True, eq=False)
class PolarFactors:
    """Isometry and positive-semidefinite factors of a polar decomposition."""

    isometry: np.ndarray
    positive_part: np.ndarray


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def _frozen(a: np.ndarray, dtype: type = complex) -> np.ndarray:
    """A read-only copy of ``a`` as ``dtype`` (complex by default), for the immutable records.

    The records that hold such arrays are ``eq=False`` dataclasses: they
    compare by identity and hash, as ``==`` on arrays has no truth value
    (``maps_equal`` compares maps by value).
    """
    out = np.array(a, dtype=dtype, copy=True)
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
    """True iff ``H^dag = eta H eta`` entrywise within ``tol`` times ``max|H|``."""
    h = _as_square(h, "H")
    eta = _check_metric(eta, h.shape[0])
    return _max_abs(h.conj().T - eta @ h @ eta) <= tol * _max_abs(h)


def is_pseudounitary(u: np.ndarray, eta: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``U eta U^dag = eta`` entrywise within the absolute ``tol``."""
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
        If a vector is (numerically) in the span of its predecessors: its
        residual norm is at most ``tol`` times its own norm.
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
        if wn <= tol * float(np.linalg.norm(v)):
            raise LinearDependence(f"vector {k} lies in the span of its predecessors")
        w = w / wn
        g = pseudo_inner(w, w, eta).real
        if abs(g) <= tol:
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


def _coordinate_basis(x: np.ndarray, floor: float) -> np.ndarray:
    """Gram-Schmidt of the columns of ``x`` (``k x m``) in index order, to a basis of ``C^k``.

    A column is kept when its residual norm exceeds ``floor``; the first
    ``k`` kept give the basis, as columns of a ``k x k`` unitary.
    """
    k = x.shape[0]
    basis: list[np.ndarray] = []
    for w in x.T[np.linalg.norm(x, axis=0) > floor]:
        for b in basis:
            w = w - b * np.vdot(b, w)
        wn = np.linalg.norm(w)
        if wn > floor:
            basis.append(w / wn)
            if len(basis) == k:
                return np.column_stack(basis)
    raise RuntimeError("failed to construct a deterministic basis")  # pragma: no cover - candidates span


def _signed_eigensystem(
    lam: np.ndarray, vectors: np.ndarray, cut: float, candidates: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical ``(values, basis)`` from an ``eigh`` output, one value per basis column.

    Keeps ``|lam| > cut``, clusters sorted gaps up to ``cut`` at their
    mean, and orders the clusters positive first, then by descending
    magnitude.  Each eigenspace's basis is the Gram-Schmidt, in index
    order, of the projections of the columns of ``candidates`` (the
    standard basis when ``None``) whose residual norm exceeds ``1e-8``
    times the largest candidate norm.  It is formed from the candidates'
    coordinates ``x = V^dag C`` in the eigenspace: a simple eigenvalue's
    vector ``v`` becomes ``v p / |p|`` with ``p`` its first coordinate
    above that floor.  The result ignores the eigensolver's basis choices.
    """
    spectrum = lam.tolist()
    kept = [i for i, x in enumerate(spectrum) if abs(x) > cut]
    clusters = [[kept[j] for j in c] for c in _cluster_indices([spectrum[i] for i in kept], cut)]
    clusters.sort(key=lambda c: (spectrum[c[0]] < 0, -abs(spectrum[c[0]])))  # clusters are contiguous runs
    order = [i for c in clusters for i in c]
    v = vectors[:, order]
    if not order:
        return lam[order], v
    if candidates is None:
        x, floor = v.conj().T, 1e-8
    else:
        x, floor = v.conj().T @ candidates, 1e-8 * float(np.max(np.linalg.norm(candidates, axis=0)))
    p = x[np.arange(len(order)), np.argmax(np.abs(x) > floor, axis=1)]
    values, basis = lam[order], v * (p / np.abs(p))
    start = 0
    for c in clusters:
        if len(c) > 1:
            block = slice(start, start + len(c))
            values[block] = np.mean(lam[c])
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
    pseudounitary with respect to the *input* metric.  The real-spectrum
    test and the cluster gap scale ``tol`` by the largest eigenvalue
    magnitude, the pseudohermiticity test and the diagonalization check
    by ``max|H|``; the pseudounitarity check is absolute.

    Raises
    ------
    NotPseudoHermitian
        If ``H`` fails :func:`is_pseudohermitian` at ``tol``, relative to ``max|H|``.
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
    scale = _max_abs(w)
    if _max_abs(w.imag) > tol * scale:
        raise PseudoDiagonalizationFailure(
            f"spectrum is not real: max imaginary part {_max_abs(w.imag):.3e}"
        )
    lam = w.real

    discovered: list[tuple[float, np.ndarray, float]] = []  # (eigenvalue, vector, sign)
    clusters = _cluster_indices(lam.tolist(), tol * scale)
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
    if err_pu > 10 * tol or err_diag > 10 * tol * _max_abs(h):
        raise PseudoDiagonalizationFailure(
            f"assembled transform fails consistency checks (pseudounitarity {err_pu:.3e}, "
            f"diagonalization {err_diag:.3e})"
        )
    return PseudoDiagonalization(s, d, eta_diag.copy(), tuple(perm))


def polar_on_code(a: np.ndarray) -> PolarFactors:
    """Polar decomposition of a stack of ``d x r`` products ``A = M B`` on a code.

    ``a`` has shape ``(..., d, r)``; ``B`` is the code's isometry, which
    :class:`~ncpqec.qec.CodeSpace` already guarantees.  Returns
    ``PolarFactors(W, H)`` from one batched thin SVD ``A = L S R^dag``:
    the ``d x r`` isometries ``W = L R^dag`` and the ``r x r`` positive
    parts ``H = R S R^dag = sqrt(A^dag A)``, so ``A = W H`` for each
    matrix of the stack.  ``W`` is the canonical polar isometry on the
    support of ``H``.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] < a.shape[-1]:
        raise ValueError(f"products have shape {a.shape}, expected (..., d, r) with r <= d")
    if not np.all(np.isfinite(a)):
        raise ValueError("products contain non-finite entries")
    left, sv, right_h = np.linalg.svd(a, full_matrices=False)
    return PolarFactors(left @ right_h, (right_h.conj().swapaxes(-1, -2) * sv[..., None, :]) @ right_h)
