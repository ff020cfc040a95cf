import numpy as np
import pytest

from ncpqec import (
    AMatrix,
    BMatrix,
    NotHermitian,
    NotPseudoUnitary,
    Signature,
    SignedOperatorSum,
    a_from_operator_sum,
    apply_map,
    b_from_operator_sum,
    check_trace_preserving,
    classify,
    operator_sum_from_b,
    repetition_bitflip,
    reshuffle,
    transform_by_pseudounitary,
    unvec,
    vec,
)
from ncpqec.pseudolinalg import DEFAULT_TOL, _max_abs, _signed_eigensystem
from ncpqec.superop import _signed_gram

from helpers import (
    I2,
    X,
    Z,
    apply_a_matrix,
    b_signatures,
    bitflip_ops,
    conditioned_pauli_map,
    ket,
    random_complex,
    random_density,
    random_hermitian,
    random_ops,
    random_pu,
    random_unitary,
)


def test_vec_row_major():
    m = np.array([[1.0, 2], [3, 4]])
    assert np.abs(vec(m) - [1, 2, 3, 4]).max() == 0
    assert np.abs(unvec(vec(m)) - m).max() == 0


def test_reshuffle_is_involution():
    rng = np.random.default_rng(41)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        a = AMatrix(d, random_complex(rng, (d * d, d * d)))
        back = reshuffle(reshuffle(a))
        assert np.abs(back.matrix - a.matrix).max() == 0


def test_identity_map_representations():
    d = 3
    a = AMatrix(d, np.eye(d * d, dtype=complex))
    b = reshuffle(a)
    v = vec(np.eye(d))
    assert np.abs(b.matrix - np.outer(v, v.conj())).max() < 1e-12
    lam = np.linalg.eigvalsh(b.matrix)
    assert abs(lam[-1] - d) < 1e-12 and np.abs(lam[:-1]).max() < 1e-12


def test_unitary_conjugation_a_matrix():
    rng = np.random.default_rng(43)
    u = random_unitary(rng, 3)
    ops = SignedOperatorSum.from_terms([1], [u])
    a = a_from_operator_sum(ops)
    assert np.abs(a.matrix - np.kron(u, u.conj())).max() < 1e-12


def test_a_route_matches_operator_route():
    rng = np.random.default_rng(47)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        ops = random_ops(rng, d, int(rng.integers(1, 3)), int(rng.integers(0, 3)))
        a = a_from_operator_sum(ops)
        rho = random_hermitian(rng, d)
        assert np.abs(apply_map(ops, rho) - apply_a_matrix(a, rho)).max() < 1e-10


def test_hermiticity_preservation_checks():
    # classify and operator_sum_from_b share one Hermiticity gate on B.
    rng = np.random.default_rng(53)
    ops = random_ops(rng, 3, 2, 1)
    b = b_from_operator_sum(ops)
    assert b_signatures(b) == (Signature(2, 1), Signature(2, 1))

    # transpose map is Hermiticity preserving but not CP
    d = 2
    at = np.zeros((d * d, d * d), dtype=complex)
    for rp in range(d):
        for sp in range(d):
            for r in range(d):
                for s in range(d):
                    if r == sp and s == rp:
                        at[rp * d + sp, r * d + s] = 1.0
    transpose = AMatrix(d, at)
    assert None not in b_signatures(reshuffle(transpose))
    rho = random_hermitian(rng, d)
    assert np.abs(apply_a_matrix(transpose, rho) - rho.T).max() < 1e-12

    # The gate is relative to max|B|: a nudge of twice the cut fails and one
    # of half the cut passes, at every scale.
    tol = 1e-9
    for scale in (1.0, 1e-12, 1e12):
        for factor, preserving in ((2.0, False), (0.5, True)):
            nudged = scale * b.matrix
            nudged[0, 1] += factor * tol * _max_abs(nudged)
            assert (None not in b_signatures(BMatrix(3, nudged), tol)) == preserving
    m = random_complex(np.random.default_rng(97), (4, 4))
    assert b_signatures(reshuffle(AMatrix(2, m))) == (None, None)
    assert b_signatures(reshuffle(AMatrix(2, 1e-12 * m))) == (None, None)


def test_transpose_map_classification():
    d = 2
    at = np.zeros((d * d, d * d), dtype=complex)
    for rp in range(d):
        for sp in range(d):
            at[rp * d + sp, sp * d + rp] = 1.0
    b = reshuffle(AMatrix(d, at))
    verdict = classify(b)
    assert verdict.kind == "NCP"
    assert verdict.signature == Signature(3, 1)
    assert abs(np.linalg.eigvalsh(b.matrix).min() + 1) < 1e-12


def test_trace_preservation():
    assert check_trace_preserving(SignedOperatorSum.from_terms([1], [np.eye(4)]))
    ops = bitflip_ops(-0.2)
    assert check_trace_preserving(ops)
    assert check_trace_preserving(a_from_operator_sum(ops))
    # c0 + 3 c1 = 0.9 breaks it
    broken = SignedOperatorSum(
        8,
        (1, 1, 1, -1),
        tuple(np.sqrt(1.1 / 3) * op / np.abs(op).max() for op in bitflip_ops(-0.2).operators[:3])
        + (np.sqrt(0.2) * np.eye(8),),
    )
    assert not check_trace_preserving(broken)


@pytest.mark.parametrize("shape", [(3, 3), (8, 2), (1, 1)])
def test_signed_gram_matches_its_einsum_form(shape):
    # One GEMM per sign block, on a stack with the canceling pair (+k, -k).
    rng = np.random.default_rng(61)
    plus, minus, k = random_complex(rng, (2,) + shape), random_complex(rng, (2,) + shape), random_complex(rng, shape)
    terms = np.concatenate([plus, [k], minus, [k]])
    signs = (1, 1, 1, -1, -1, -1)
    oracle = np.einsum("k,kia,kib->ab", np.asarray(signs, dtype=float), terms.conj(), terms)
    assert np.abs(_signed_gram(signs, terms) - oracle).max() <= 1e-14 * np.abs(oracle).max()
    # A negative block equal to the positive one cancels exactly.
    assert not _signed_gram(signs, np.concatenate([plus, [k], plus, [k]])).any()
    assert not _signed_gram((), np.zeros((0,) + shape)).any()


def test_b_from_single_identity_term():
    ops = SignedOperatorSum.from_terms([1], [np.eye(3)])
    lam = np.linalg.eigvalsh(b_from_operator_sum(ops).matrix)
    assert abs(lam[-1] - 3) < 1e-12 and np.abs(lam[:-1]).max() < 1e-12


def test_b_of_canceling_pair_is_zero():
    rng = np.random.default_rng(59)
    k = random_complex(rng, (3, 3))
    ops = SignedOperatorSum.from_terms([1, -1], [k, k])
    assert np.abs(b_from_operator_sum(ops).matrix).max() < 1e-12


def test_bitflip_b_eigenvalues():
    b = b_from_operator_sum(bitflip_ops(-0.2))
    lam = np.linalg.eigvalsh(b.matrix)
    big = np.sort(lam[np.abs(lam) > 1e-9])
    assert np.abs(big - [-1.6, 3.2, 3.2, 3.2]).max() < 1e-10


def test_operator_sum_from_b_identity():
    d = 3
    v = vec(np.eye(d))
    b = BMatrix(d, np.outer(v, v.conj()))
    ops = operator_sum_from_b(b)
    assert ops.signs == (1,)
    op = ops.operators[0]
    # proportional to the identity with Frobenius weight sqrt(d)
    assert np.abs(op - op[0, 0] * np.eye(d)).max() < 1e-10
    assert abs(np.abs(op[0, 0]) - 1) < 1e-10


def test_operator_sum_from_b_bitflip():
    ops = operator_sum_from_b(b_from_operator_sum(bitflip_ops(-0.2)))
    assert ops.signature == Signature(3, 1)
    neg = ops.operators[3]
    assert np.abs(neg - neg[0, 0] * np.eye(8)).max() < 1e-9
    assert abs(np.abs(neg[0, 0]) - np.sqrt(0.2)) < 1e-9
    for op in ops.operators[:3]:
        assert abs(np.linalg.norm(op) - np.sqrt(8 * 0.4)) < 1e-9


def test_operator_sum_from_zero_b():
    zero = BMatrix(2, np.zeros((4, 4)))
    assert operator_sum_from_b(zero).n_terms == 0
    assert classify(zero) == ("CP", Signature(0, 0))


def test_operator_sum_from_b_requires_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        operator_sum_from_b(BMatrix(2, m))


def _operator_sum_from_b_complex(b: BMatrix, tol: float = DEFAULT_TOL) -> SignedOperatorSum:
    """:func:`operator_sum_from_b` with the eigensolver always in complex arithmetic (the oracle)."""
    m = b.matrix
    lam, v = np.linalg.eigh((m + m.conj().T) / 2)
    values, basis = _signed_eigensystem(lam, v, tol * _max_abs(lam))
    operators = (basis * np.sqrt(np.abs(values))).T.reshape(-1, b.dim, b.dim)
    return SignedOperatorSum(b.dim, tuple(np.sign(values).astype(int)), operators)


def test_real_b_matches_the_complex_eigensolver():
    # Signed Pauli mixtures have an exactly real B, diagonalized in real arithmetic.
    rng = np.random.default_rng(107)
    maps = [repetition_bitflip(n, c0)[0] for n in range(1, 5) for c0 in (-0.2, 0.7, 0.25)]
    maps += [conditioned_pauli_map(rng, require_negative=k % 2 == 0) for k in range(40)]
    for ops in maps:
        b = b_from_operator_sum(ops)
        assert not b.matrix.imag.any()
        got, want = operator_sum_from_b(b), _operator_sum_from_b_complex(b)
        assert got.signs == want.signs
        assert _max_abs(got.operators - want.operators) <= 1e-14 * _max_abs(want.operators)


@pytest.mark.parametrize("real", [True, False])
def test_eigensolver_dtype_follows_b(monkeypatch, real):
    b = b_from_operator_sum(bitflip_ops(-0.2) if real else random_ops(np.random.default_rng(109), 2, 2, 1))
    dtypes = []

    def spy(solver):
        return lambda a: dtypes.append(a.dtype) or solver(a)

    monkeypatch.setattr(np.linalg, "eigh", spy(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", spy(np.linalg.eigvalsh))
    operator_sum_from_b(b)
    classify(b)
    assert dtypes == [np.dtype(np.float64 if real else np.complex128)] * 2


def test_b_roundtrip_random():
    rng = np.random.default_rng(61)
    for _ in range(60):
        d = int(rng.integers(2, 5))
        b = BMatrix(d, random_hermitian(rng, d * d))
        back = b_from_operator_sum(operator_sum_from_b(b))
        assert np.abs(back.matrix - b.matrix).max() < 1e-9


def test_canonical_term_ordering():
    rng = np.random.default_rng(67)
    b = BMatrix(3, random_hermitian(rng, 9))
    ops = operator_sum_from_b(b)
    norms = [np.linalg.norm(op) for op in ops.operators]
    p = ops.signature.p
    assert ops.signs == (1,) * p + (-1,) * (ops.n_terms - p)
    assert all(norms[i] >= norms[i + 1] - 1e-12 for i in range(p - 1))
    assert all(norms[i] >= norms[i + 1] - 1e-12 for i in range(p, ops.n_terms - 1))


def test_operator_sum_from_b_fixes_each_term_phase():
    # The first entry of each unit vec(E_i) above 1e-8 is real and positive,
    # whatever phase the eigensolver gave the eigenvector.
    rng = np.random.default_rng(89)
    for _ in range(50):
        ops = operator_sum_from_b(BMatrix(3, random_hermitian(rng, 9)))
        for op in ops.operators:
            unit = op.reshape(-1) / np.linalg.norm(op)
            first = unit[np.flatnonzero(np.abs(unit) > 1e-8)[0]]
            assert first.real > 0 and abs(first.imag) < 1e-12


def test_operator_sum_from_b_repetition_code_terms():
    # A threefold eigenspace: its terms come in the index order of their
    # first nonzero entries, vec(X_2) at 1, vec(X_1) at 2, vec(X_0) at 4.
    ops, _ = repetition_bitflip(3, -0.2)
    flips = [np.kron(np.kron(np.eye(2**k), X), np.eye(2 ** (2 - k))) for k in range(3)]
    terms = operator_sum_from_b(b_from_operator_sum(ops))
    assert terms.signs == (1, 1, 1, -1)
    expected = np.sqrt([0.4, 0.4, 0.4, 0.2])[:, None, None] * np.array(flips[::-1] + [np.eye(8)])
    assert np.abs(terms.operators - expected).max() < 1e-15


def test_apply_map_examples():
    rho = random_density(np.random.default_rng(71), 4)
    iden = SignedOperatorSum.from_terms([1], [np.eye(4)])
    assert np.abs(apply_map(iden, rho) - rho).max() < 1e-12

    out = apply_map(bitflip_ops(-0.2), np.outer(ket(0, 8), ket(0, 8)))
    diag = np.diag(out).real
    assert abs(diag[0] + 0.2) < 1e-12
    assert np.abs(diag[[4, 2, 1]] - 0.4).max() < 1e-12
    assert np.abs(out - np.diag(diag)).max() < 1e-12


def test_apply_map_preserves_hermiticity():
    rng = np.random.default_rng(73)
    for _ in range(20):
        ops = random_ops(rng, 3, 2, 2)
        out = apply_map(ops, random_hermitian(rng, 3))
        assert np.abs(out - out.conj().T).max() < 1e-10


def test_classify_examples():
    iden = b_from_operator_sum(SignedOperatorSum.from_terms([1], [np.eye(2)]))
    v = classify(iden)
    assert v.kind == "CP" and v.signature == Signature(1, 0)

    v = classify(b_from_operator_sum(bitflip_ops(-0.2)))
    assert v.kind == "NCP" and v.signature == Signature(3, 1)

    # depolarizing-style CP mixture
    dep = SignedOperatorSum.from_terms(
        [1, 1, 1, 1],
        [np.sqrt(w) * m for w, m in zip([0.7, 0.1, 0.1, 0.1], [I2, X, 1j * X @ Z, Z])],
    )
    assert classify(b_from_operator_sum(dep)).kind == "CP"


def test_classify_requires_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        classify(BMatrix(2, m))


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12])
def test_hermiticity_gate_is_relative_to_the_scale_of_b(scale):
    b = BMatrix(2, scale * random_complex(np.random.default_rng(97), (4, 4)))
    with pytest.raises(NotHermitian):
        classify(b)
    with pytest.raises(NotHermitian):
        operator_sum_from_b(b)


@pytest.mark.parametrize("scale", [1e-12, 1e150])
@pytest.mark.parametrize("real", [True, False])
def test_classify_signature_is_scale_invariant(scale, real):
    b = b_from_operator_sum(bitflip_ops(-0.2) if real else random_ops(np.random.default_rng(113), 3, 4, 3))
    assert classify(BMatrix(b.dim, scale * b.matrix)) == classify(b)


def test_cp_maps_give_psd_outputs():
    rng = np.random.default_rng(79)
    ops = random_ops(rng, 3, 3, 0)
    assert classify(b_from_operator_sum(ops)).kind == "CP"
    for _ in range(100):
        out = apply_map(ops, random_density(rng, 3))
        assert np.linalg.eigvalsh(out).min() > -1e-9


def test_transform_identity_u():
    rng = np.random.default_rng(89)
    ops = random_ops(rng, 2, 2, 1)
    out = transform_by_pseudounitary(ops, np.eye(3))
    for a, b in zip(out.operators, ops.operators):
        assert np.abs(a - b).max() == 0


def test_transform_cosh_sinh_example():
    ops = SignedOperatorSum.from_terms([1, -1], [I2, Z])
    u = np.array([[5.0, 3], [3, 5]]) / 4
    out = transform_by_pseudounitary(ops, u)
    assert np.abs(out.operators[0] - (5 * I2 + 3 * Z) / 4).max() < 1e-12
    assert np.abs(out.operators[1] - (3 * I2 + 5 * Z) / 4).max() < 1e-12
    assert out.signs == (1, -1)
    b0 = b_from_operator_sum(ops).matrix
    b1 = b_from_operator_sum(out).matrix
    assert np.abs(b0 - b1).max() < 1e-12


def test_transform_preserves_b_random():
    rng = np.random.default_rng(97)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(0, min(3, d * d - p + 1)))
        ops = random_ops(rng, d, p, q)
        u = random_pu(rng, Signature(p, q))
        out = transform_by_pseudounitary(ops, u, 1e-7)
        diff = b_from_operator_sum(out).matrix - b_from_operator_sum(ops).matrix
        assert np.abs(diff).max() < 1e-9 * max(1, np.abs(b_from_operator_sum(ops).matrix).max())


def test_transform_unitary_on_positive_block():
    rng = np.random.default_rng(101)
    ops = random_ops(rng, 2, 2, 1)
    u = np.eye(3, dtype=complex)
    u[:2, :2] = random_unitary(rng, 2)
    out = transform_by_pseudounitary(ops, u)
    diff = b_from_operator_sum(out).matrix - b_from_operator_sum(ops).matrix
    assert np.abs(diff).max() < 1e-10


def test_transform_rejects_non_pu():
    rng = np.random.default_rng(103)
    ops = random_ops(rng, 2, 1, 1)
    with pytest.raises(NotPseudoUnitary):
        transform_by_pseudounitary(ops, np.array([[0.0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        transform_by_pseudounitary(ops, np.eye(3))


def test_signed_sum_validation():
    with pytest.raises(ValueError):
        SignedOperatorSum.from_terms([-1, 1], [I2, X])  # wrong block order
    with pytest.raises(ValueError):
        SignedOperatorSum.from_terms([2], [I2])
    with pytest.raises(ValueError):
        SignedOperatorSum.from_terms([1], [np.zeros((2, 3))])
    ops = SignedOperatorSum.from_terms([1, 1, -1], [I2, X, Z])
    assert ops.signature == Signature(2, 1)
    assert ops.dim == 2


def test_operators_are_frozen():
    ops = SignedOperatorSum.from_terms([1], [I2])
    with pytest.raises(ValueError):
        ops.operators[0][0, 0] = 5.0


def test_operators_are_one_frozen_array():
    source = np.stack([I2, X, Z]).astype(complex)
    ops = SignedOperatorSum(2, (1, 1, -1), source)
    assert isinstance(ops.operators, np.ndarray) and ops.operators.shape == (3, 2, 2)
    assert not ops.operators.flags.writeable and not np.shares_memory(ops.operators, source)
    assert np.array_equal(ops.operators, source)
    assert SignedOperatorSum(2, (), ()).operators.shape == (0, 2, 2)
    bad = [I2, X, np.array([[np.inf, 0], [0, 1]])]
    with pytest.raises(ValueError, match="operator 2 contains non-finite"):
        SignedOperatorSum(2, (1, 1, 1), bad)


def test_empty_sum_is_the_zero_map():
    # The library builds empty sums itself: the terms of a zero B, such as
    # the B of a canceling pair.
    empty = operator_sum_from_b(BMatrix(2, np.zeros((4, 4))))
    for ops in (empty, SignedOperatorSum(2, (), ())):
        assert ops.n_terms == 0 and ops.operators.shape == (0, 2, 2)
        assert np.array_equal(b_from_operator_sum(ops).matrix, np.zeros((4, 4)))
        assert np.array_equal(a_from_operator_sum(ops).matrix, np.zeros((4, 4)))
        assert np.array_equal(apply_map(ops, I2 / 2), np.zeros((2, 2)))


@pytest.mark.parametrize("signs", [(1.0, -1.0), (np.float64(1.0), np.int64(-1)), (1, np.sign(-0.3))])
def test_signed_operator_sum_accepts_exact_unit_signs(signs):
    ops = SignedOperatorSum(2, signs, (np.eye(2), np.eye(2)))
    assert ops.signs == (1, -1)
    assert all(type(s) is int for s in ops.signs)


@pytest.mark.parametrize(
    "signs", [(1.5, -1.9), (True, -1), (1, "-1"), ("1", -1), (1, np.False_), (1, -1.0000001), (1, None)]
)
def test_signed_operator_sum_rejects_inexact_signs(signs):
    with pytest.raises(ValueError, match="signs"):
        SignedOperatorSum(2, signs, (np.eye(2), np.eye(2)))
    with pytest.raises(ValueError, match="signs"):
        SignedOperatorSum.from_terms(signs, (np.eye(2), np.eye(2)))
