"""Shared generators and fixed operators for the test suite.

Everything random is driven by an explicit ``numpy.random.Generator`` so
tests are reproducible; scipy only appears here (and in tests) as an
independent oracle, never inside the library.
"""

from typing import NamedTuple

import numpy as np

from ncpqec import (
    DEFAULT_TOL,
    AMatrix,
    BMatrix,
    CodeSpace,
    NotHermitian,
    Recovery,
    Signature,
    SignedOperatorSum,
    analyze,
    apply_map,
    classify,
    cp_condition_matrix,
    eta_metric,
    operator_sum_from_b,
    projector_from_basis,
    repetition_bitflip,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}


def ket(index: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def memory_owner(a: np.ndarray):
    """The object at the end of ``a``'s base chain, whose memory ``a`` reads (``None`` if ``a`` owns it)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.base


def pauli_string(letters: str) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for c in letters:
        out = np.kron(out, PAULI[c])
    return out


class PolarFactors(NamedTuple):
    """Isometry and positive-semidefinite factors of a polar decomposition."""

    isometry: np.ndarray
    positive_part: np.ndarray


def polar_on_code(a: np.ndarray) -> PolarFactors:
    """Polar decomposition of a stack of ``d x r`` products ``A = M B`` on a code, the oracle of ``analyze``'s ``W``.

    ``a`` has shape ``(..., d, r)``.  Returns ``PolarFactors(W, H)`` from
    one batched thin SVD ``A = L S R^dag``: the ``d x r`` isometries
    ``W = L R^dag`` and the ``r x r`` positive parts
    ``H = R S R^dag = sqrt(A^dag A)``, so ``A = W H`` for each matrix of
    the stack.  ``W`` is the canonical polar isometry on the support of
    ``H``, unique where ``H > 0``.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] < a.shape[-1]:
        raise ValueError(f"products have shape {a.shape}, expected (..., d, r) with r <= d")
    if not np.all(np.isfinite(a)):
        raise ValueError("products contain non-finite entries")
    left, sv, right_h = np.linalg.svd(a, full_matrices=False)
    return PolarFactors(left @ right_h, (right_h.conj().swapaxes(-1, -2) * sv[..., None, :]) @ right_h)


def apply_a_matrix(a: AMatrix, rho: np.ndarray) -> np.ndarray:
    """``unvec(A vec(rho))``: the map in transition-matrix form, an evaluation route independent of ``apply_map``."""
    return (a.matrix @ np.asarray(rho).reshape(-1)).reshape(a.dim, a.dim)


def b_signatures(b: BMatrix, tol: float = DEFAULT_TOL) -> tuple[Signature | None, Signature | None]:
    """The signatures that ``classify`` and ``operator_sum_from_b`` give ``b``.

    Each is ``None`` where the function raises ``NotHermitian``.  Both pass
    ``b`` through one Hermiticity gate first, so both or neither raise.
    """
    out = []
    for fn in (classify, operator_sum_from_b):
        try:
            out.append(fn(b, tol).signature)
        except NotHermitian:
            out.append(None)
    assert (out[0] is None) == (out[1] is None), out
    return tuple(out)


def pair_lists(a: np.ndarray) -> list:
    """``a`` as nested lists of ``[re, im]`` pairs, whatever its imaginary parts."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def list_channel_document(channel: AMatrix | BMatrix | SignedOperatorSum) -> dict:
    """The version "1" channel document of ``channel``: its payload as ``[re, im]`` lists."""
    if isinstance(channel, SignedOperatorSum):
        rep, payload = "operator_sum", {"signs": list(channel.signs), "operators": pair_lists(channel.operators)}
    else:
        rep = "a_matrix" if isinstance(channel, AMatrix) else "b_matrix"
        payload = {"matrix": pair_lists(channel.matrix)}
    return {"schema_version": "1", "dim": channel.dim, "representation": rep, "payload": payload}


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_hermitian(rng, n: int) -> np.ndarray:
    m = random_complex(rng, (n, n))
    return (m + m.conj().T) / 2


def random_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d: int) -> np.ndarray:
    m = random_complex(rng, (d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_ph(rng, sig: Signature) -> np.ndarray:
    """Random pseudohermitian matrix eta @ (Hermitian)."""
    return eta_metric(sig) @ random_hermitian(rng, sig.size)


def random_pu(rng, sig: Signature, scale: float = 0.5) -> np.ndarray:
    """Pseudounitary via exponentiation of a PH generator (scipy oracle)."""
    from scipy.linalg import expm

    return expm(-1j * scale * random_ph(rng, sig))


def random_real_spectrum_ph(rng, sig: Signature, tol: float = 1e-9) -> np.ndarray:
    """Random eta @ Hermitian with a real spectrum and non-null eigenvectors.

    Indefinite Hermitian draws are retried at small sizes; from size five
    up they almost never have an all-real spectrum, so the Hermitian
    factor is drawn positive definite instead, which forces the product
    to be similar to a Hermitian matrix (real spectrum, no null
    eigenvectors) while still being of the eta @ Hermitian form.
    """
    n = sig.size
    eta = eta_metric(sig)
    for _ in range(400):
        if n <= 4:
            m = random_hermitian(rng, n)
        else:
            g = random_complex(rng, (n, n))
            m = g @ g.conj().T + 0.05 * np.eye(n)
        h = eta @ m
        w, v = np.linalg.eig(h)
        if np.abs(w.imag).max() > tol * max(1.0, np.abs(w).max()):
            continue
        gram = np.einsum("in,ij,jn->n", v.conj(), eta, v)
        if np.abs(gram).min() <= 1e-6:
            continue
        return h
    raise RuntimeError(f"no real-spectrum PH instance found for {sig}")


def random_ops(rng, d: int, p: int, q: int, scale: float = 1.0) -> SignedOperatorSum:
    """Random signed operator sum; p+q <= d*d keeps the terms independent."""
    assert p + q <= d * d
    ops = [scale * random_complex(rng, (d, d)) for _ in range(p + q)]
    return SignedOperatorSum.from_terms((1,) * p + (-1,) * q, ops)


def random_code(rng, d: int, rank: int) -> CodeSpace:
    u = random_unitary(rng, d)
    return projector_from_basis([u[:, k] for k in range(rank)])


def random_code_state(rng, code: CodeSpace) -> np.ndarray:
    """Haar-random pure state in the code space, as a density matrix."""
    amps = random_complex(rng, code.rank)
    psi = code.isometry @ (amps / np.linalg.norm(amps))
    return np.outer(psi, psi.conj())


def bitflip_ops(c0: float) -> SignedOperatorSum:
    """Three-qubit mixture of identity and single-qubit bit flips.

    Weights c0 and c1 = (1-c0)/3 sum (with multiplicity) to one; a
    negative c0 makes the map NCP while keeping it trace preserving.
    """
    return repetition_bitflip(3, c0)[0]


def repetition_code() -> CodeSpace:
    return repetition_bitflip(3, 0.7)[1]


def dynamical_on_code(signs, v: np.ndarray) -> np.ndarray:
    """``sum_k s_k vec(V_k) vec(V_k)^dag`` of an ``(n, d, r)`` stack ``V``: the map on the code, whatever its terms."""
    rows = v.reshape(len(signs), -1)
    return (np.asarray(signs, dtype=float)[:, None] * rows).T @ rows.conj()


def ph_conditions(ops: SignedOperatorSum, code: CodeSpace) -> np.ndarray:
    """The signed conditions ``c_ij`` of ``sign_i P E_i^dag E_j P = c_ij P``, from the unsigned fit."""
    return np.asarray(ops.signs)[:, None] * cp_condition_matrix(list(ops.operators), code).entries


def conditioned_pauli_map(rng, require_negative: bool = True) -> SignedOperatorSum:
    """Weighted Pauli strings whose condition matrix is diagonal on the
    repetition code.

    Each term flips a distinct subset of {nothing, qubit 1, qubit 2,
    qubit 3}; products of two different terms then move |000> off the
    code space, so all cross conditions vanish exactly.  Pattern
    variants (Y for X, even Z strings for the identity slot) keep the
    diagonal property.
    """
    reps = {
        "": ["III", "ZZI", "IZZ", "ZIZ"],
        "1": ["XII", "YII"],
        "2": ["IXI", "IYI"],
        "3": ["IIX", "IIY"],
    }
    keys = list(reps)
    n = int(rng.integers(2, 5))
    chosen = list(rng.choice(keys, size=n, replace=False))
    weights = rng.uniform(0.1, 1.0, size=n)
    n_neg = int(rng.integers(1, n)) if require_negative else 0
    signs = [1] * (n - n_neg) + [-1] * n_neg
    terms = []
    for key, w, s in zip(chosen, weights, signs):
        letters = reps[key][int(rng.integers(0, len(reps[key])))]
        terms.append((s, np.sqrt(w) * pauli_string(letters)))
    terms.sort(key=lambda t: -t[0])
    return SignedOperatorSum.from_terms([s for s, _ in terms], [op for _, op in terms])


def recovery_deviations(ops, recovery, code: CodeSpace, inputs) -> list:
    """``R(E(x)) / c - x`` for each ``d x d`` input ``x``, one at a time through two ``apply_map`` calls.

    ``c`` is the recovered trace of the maximally mixed code state ``P / r``,
    the normalization of ``verify_recovery``.
    """
    c = np.trace(apply_map(recovery, apply_map(ops, code.projector))).real / code.rank
    return [apply_map(recovery, apply_map(ops, x)) / c - x for x in inputs]


def dense_deviation(ops, recovery, code: CodeSpace) -> float:
    """The oracle of ``verify_recovery``: the spectral norm of the ``d^2 x r^2`` deviation over the matrix units.

    Column ``i r + j`` is the deviation of ``B e_i e_j^dag B^dag``, so the
    norm is the largest ``||R(E(B sigma B^dag)) / c - B sigma B^dag||_F``
    over ``||sigma||_F <= 1``.
    """
    b, r = code.isometry, code.rank
    units = [np.outer(b[:, i], b[:, j].conj()) for i in range(r) for j in range(r)]
    columns = [x.ravel() for x in recovery_deviations(ops, recovery, code, units)]
    return float(np.linalg.norm(np.column_stack(columns), 2))


def sample_deviations(ops, recovery, code: CodeSpace) -> np.ndarray:
    """``||R(E(rho)) / c - rho||_F`` on ``r^2 + 20`` pure code states ``rho``.

    The ``r`` logical basis states, their pairwise superpositions with
    phases 1 and i, and 20 seeded random states: each a lower bound on the
    value of ``verify_recovery``.
    """
    r, eye = code.rank, np.eye(code.rank)
    coeffs = [*eye, *(eye[i] + p * eye[j] for i in range(r) for j in range(i + 1, r) for p in (1, 1j))]
    coeffs += list(random_complex(np.random.default_rng(424033), (20, r)))
    psis = [code.isometry @ (c / np.linalg.norm(c)) for c in coeffs]
    states = [np.outer(psi, psi.conj()) for psi in psis]
    return np.array([np.linalg.norm(x) for x in recovery_deviations(ops, recovery, code, states)])


def wrong_recoveries():
    """A 3-qubit CP recovery with one ``W_j`` moved by 1e-3, with another code's ``W``, or with another ``B``."""
    ops, code = repetition_bitflip(3, 0.7)
    rec = analyze(ops, code).recovery
    w = np.array(rec.isometries)
    w[1] += 1e-3 * random_complex(np.random.default_rng(3), w[1].shape)
    other = projector_from_basis([ket(1, 8), ket(6, 8)])
    yield "perturbed W_j", Recovery(code.isometry, w)
    yield "another code's W", Recovery(code.isometry, analyze(ops, other).recovery.isometries)
    yield "another code's B", Recovery(other.isometry, rec.isometries)
    yield "logically flipped B", Recovery(code.isometry[:, ::-1], rec.isometries)
