import numpy as np
import pytest
import scipy.linalg

from ncpqec.equivalence import (
    SignedEnsemble,
    connecting_pseudounitary,
    ensemble_connection,
    maps_equal,
    pad_to_signature,
    to_base_map,
)
from ncpqec.errors import MapsNotEqual, OperatorsNotEqual, SingularCoefficientMatrix
from ncpqec.pseudolinalg import Signature, eta_metric, is_pseudounitary
from ncpqec.superop import (
    SignedOperatorSum,
    b_from_operator_sum,
    classify,
    operator_sum_from_b,
    transform_by_pseudounitary,
)

from helpers import I2, X, Z, bitflip_ops, random_ops, random_ph, random_pu


def _boost(t):
    # U(1,1) element: [[cosh t, sinh t], [sinh t, cosh t]]
    return np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]], dtype=complex)


def _boosted_pair(t=0.3):
    a = SignedOperatorSum.from_terms([1, -1], [np.sqrt(0.8) * I2, np.sqrt(0.3) * X])
    b = transform_by_pseudounitary(a, _boost(t))
    return a, b


# ---------------------------------------------------------------- maps_equal


def test_maps_equal_under_pseudounitary_mixing():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(2, 4))
        p = int(rng.integers(1, 3))
        q = int(rng.integers(0, min(2, d * d - p) + 1))
        ops = random_ops(rng, d, p, q)
        u = random_pu(rng, Signature(p, q))
        assert maps_equal(ops, transform_by_pseudounitary(ops, u))


def test_maps_equal_boost_example():
    a, b = _boosted_pair()
    assert maps_equal(a, b)


def test_maps_not_equal():
    a = SignedOperatorSum.from_terms([1], [I2])
    b = SignedOperatorSum.from_terms([1], [X])
    assert not maps_equal(a, b)


def test_maps_equal_dim_mismatch():
    a = SignedOperatorSum.from_terms([1], [I2])
    b = SignedOperatorSum.from_terms([1], [np.eye(3, dtype=complex)])
    with pytest.raises(ValueError):
        maps_equal(a, b)


def test_maps_equal_is_equivalence_relation():
    rng = np.random.default_rng(12)
    tol = 1e-9
    maps = []
    for _ in range(10):
        base = random_ops(rng, 2, 2, 1)
        maps.append(base)
        maps.append(transform_by_pseudounitary(base, random_pu(rng, Signature(2, 1))))
        maps.append(random_ops(rng, 2, 1, 0))
    n = len(maps)
    eq = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            eq[i, j] = maps_equal(maps[i], maps[j], tol)
    assert np.all(np.diag(eq))
    assert np.array_equal(eq, eq.T)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if eq[i, j] and eq[j, k]:
                    # transitivity can lose at most a factor-of-two in tol
                    assert maps_equal(maps[i], maps[k], 3 * tol)


@pytest.mark.parametrize("scale", [1e-150, 1e-12, 1e-5, 1.0, 1e3, 1e150])
def test_classify_and_maps_equal_do_not_depend_on_scale(scale):
    # The terms are scaled, so the maps are scaled by scale^2. The inverted
    # bit flip stays NCP with the signature of its own eigendecomposition,
    # stays apart from the CP bit flip and connects to its own boosted
    # decomposition at every scale.
    inverted, cp = (SignedOperatorSum(8, ops.signs, scale * ops.operators) for ops in map(bitflip_ops, (-0.2, 0.7)))
    b = b_from_operator_sum(inverted)
    assert operator_sum_from_b(b).signature == Signature(3, 1)
    assert classify(b) == ("NCP", Signature(3, 1))
    assert classify(b_from_operator_sum(cp)) == ("CP", Signature(4, 0))
    assert not maps_equal(inverted, cp)
    assert maps_equal(inverted, to_base_map(inverted))
    with pytest.raises(MapsNotEqual):
        connecting_pseudounitary(inverted, cp)
    pu = random_pu(np.random.default_rng(7), Signature(3, 1))
    res = connecting_pseudounitary(inverted, transform_by_pseudounitary(inverted, pu))
    assert np.abs(res.u - pu).max() < 1e-8


# ---------------------------------------------------------------- to_base_map


def test_to_base_map_strips_canceling_pair():
    extended = SignedOperatorSum.from_terms(
        [1, 1, -1], [I2, 0.5 * X, 0.5 * X]
    )
    base = to_base_map(extended)
    assert base.n_terms == 1
    assert maps_equal(extended, base)


def test_to_base_map_term_count_matches_signature():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        p = int(rng.integers(1, 3))
        q = int(rng.integers(0, min(2, d * d - p) + 1))
        ops = random_ops(rng, d, p, q)
        base = to_base_map(ops)
        sig = base.signature
        assert base.n_terms == sig.p + sig.q
        assert maps_equal(ops, base)
        evals = np.linalg.eigvalsh(b_from_operator_sum(ops).matrix)
        assert sig.p == int(np.sum(evals > 1e-9))
        assert sig.q == int(np.sum(evals < -1e-9))


def test_to_base_map_zero_map_is_empty():
    zero = SignedOperatorSum.from_terms([1, -1], [0.3 * X, 0.3 * X])
    base = to_base_map(zero)
    assert base.n_terms == 0
    assert to_base_map(base).n_terms == 0
    assert maps_equal(zero, base)
    assert np.all(b_from_operator_sum(base).matrix == 0)


def test_to_base_map_idempotent():
    rng = np.random.default_rng(14)
    ops = random_ops(rng, 3, 3, 2)
    once = to_base_map(ops)
    twice = to_base_map(once)
    assert once.n_terms == twice.n_terms
    for o1, o2 in zip(once.operators, twice.operators):
        assert np.abs(o1 - o2).max() < 1e-9


# ----------------------------------------------------------- pad_to_signature


def test_pad_to_signature_appends_zero_blocks():
    ops = SignedOperatorSum.from_terms([1, -1], [I2, 0.5 * X])
    padded = pad_to_signature(ops, Signature(3, 2))
    assert padded.signs == (1, 1, 1, -1, -1)
    assert np.abs(padded.operators[0] - I2).max() == 0
    assert np.abs(padded.operators[1]).max() == 0
    assert np.abs(padded.operators[2]).max() == 0
    assert np.abs(padded.operators[3] - 0.5 * X).max() == 0
    assert np.abs(padded.operators[4]).max() == 0


def test_pad_to_signature_rejects_shrinking():
    ops = SignedOperatorSum.from_terms([1, -1], [I2, 0.5 * X])
    with pytest.raises(ValueError):
        pad_to_signature(ops, Signature(0, 1))
    assert pad_to_signature(ops, Signature(1, 1)).n_terms == 2  # no-op


# --------------------------------------------------- connecting_pseudounitary


def test_connect_map_to_itself():
    # distinct eigenvalues => canonical basis unique up to phases, so the
    # connecting matrix is diagonal with unimodular entries
    ops = SignedOperatorSum.from_terms(
        [1, 1, -1], [np.sqrt(0.9) * I2, np.sqrt(0.4) * X, np.sqrt(0.2) * Z]
    )
    res = connecting_pseudounitary(ops, ops)
    assert res.padding_added == (0, 0)
    assert res.residual < 1e-12
    off = res.u - np.diag(np.diag(res.u))
    assert np.abs(off).max() < 1e-9
    assert np.abs(np.abs(np.diag(res.u)) - 1).max() < 1e-9


def test_connect_recovers_boost():
    a, b = _boosted_pair(0.45)
    res = connecting_pseudounitary(a, b)
    assert res.signature == Signature(1, 1)
    eta = eta_metric(res.signature)
    assert is_pseudounitary(res.u, eta)
    moved = transform_by_pseudounitary(a, res.u)
    err = max(np.abs(mo - bo).max() for mo, bo in zip(moved.operators, b.operators))
    assert err < 1e-9
    assert res.residual < 1e-9


def test_connect_random_corpus():
    rng = np.random.default_rng(15)
    for _ in range(40):
        d = int(rng.integers(2, 4))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(0, min(3, d * d - p) + 1))
        ops = random_ops(rng, d, p, q)
        u = random_pu(rng, Signature(p, q))
        target = transform_by_pseudounitary(ops, u)
        res = connecting_pseudounitary(ops, target)
        eta = eta_metric(res.signature)
        assert is_pseudounitary(res.u, eta, tol=1e-8)
        moved = transform_by_pseudounitary(
            pad_to_signature(ops, res.signature), res.u
        )
        padded_target = pad_to_signature(target, res.signature)
        err = max(
            np.abs(mo - to).max()
            for mo, to in zip(moved.operators, padded_target.operators)
        )
        assert err < 1e-8


def test_connect_exponential_pseudounitaries():
    # exp(-i t H) with H pseudohermitian stays in the pseudounitary group
    rng = np.random.default_rng(16)
    sig = Signature(2, 1)
    eta = eta_metric(sig)
    ops = random_ops(rng, 2, 2, 1)
    for t in (0.1, 0.7, 1.3):
        h = random_ph(rng, sig)
        u = scipy.linalg.expm(-1j * t * h)
        assert is_pseudounitary(u, eta, tol=1e-8)
        target = transform_by_pseudounitary(ops, u)
        res = connecting_pseudounitary(ops, target)
        moved = transform_by_pseudounitary(ops, res.u)
        err = max(np.abs(mo - to).max() for mo, to in zip(moved.operators, target.operators))
        assert err < 1e-8


def test_connect_composes_like_group():
    rng = np.random.default_rng(17)
    sig = Signature(2, 1)
    eta = eta_metric(sig)
    a = random_ops(rng, 2, 2, 1)
    b = transform_by_pseudounitary(a, random_pu(rng, sig))
    c = transform_by_pseudounitary(b, random_pu(rng, sig))
    u_ab = connecting_pseudounitary(a, b).u
    u_bc = connecting_pseudounitary(b, c).u
    composed = u_ab @ u_bc
    assert is_pseudounitary(composed, eta, tol=1e-9)
    moved = transform_by_pseudounitary(a, composed)
    err = max(np.abs(mo - co).max() for mo, co in zip(moved.operators, c.operators))
    assert err < 1e-8


def test_connect_different_maps_raises():
    a = SignedOperatorSum.from_terms([1], [I2])
    b = SignedOperatorSum.from_terms([1], [X])
    with pytest.raises(MapsNotEqual):
        connecting_pseudounitary(a, b)


def test_connect_accepts_explicit_zero_padding():
    a = SignedOperatorSum.from_terms([1, -1], [np.sqrt(0.8) * I2, np.sqrt(0.3) * X])
    b = pad_to_signature(a, Signature(3, 2))
    res = connecting_pseudounitary(a, b)
    assert res.signature == Signature(3, 2)
    assert res.padding_added == (3, 0)
    assert is_pseudounitary(res.u, eta_metric(res.signature))
    moved = transform_by_pseudounitary(pad_to_signature(a, res.signature), res.u)
    err = max(np.abs(mo - bo).max() for mo, bo in zip(moved.operators, b.operators))
    assert err < 1e-12


def test_connect_rejects_canceling_pair():
    # a canceling pair is not reachable by zero padding a base decomposition
    extended = SignedOperatorSum.from_terms([1, 1, -1], [I2, 0.5 * X, 0.5 * X])
    plain = SignedOperatorSum.from_terms([1], [I2])
    with pytest.raises(SingularCoefficientMatrix):
        connecting_pseudounitary(extended, plain)
    with pytest.raises(SingularCoefficientMatrix):
        connecting_pseudounitary(plain, extended)


def test_connect_zero_maps_trivially():
    zero_a = SignedOperatorSum.from_terms([1, -1], [0.3 * X, 0.3 * X])
    zero_b = SignedOperatorSum.from_terms([1, -1], [0.7 * I2, 0.7 * I2])
    res = connecting_pseudounitary(zero_a, zero_b)
    assert res.u.shape == (0, 0)
    assert res.signature == Signature(0, 0)
    assert res.residual == 0.0


def test_connect_dim_mismatch():
    a = SignedOperatorSum.from_terms([1], [I2])
    b = SignedOperatorSum.from_terms([1], [np.eye(3, dtype=complex)])
    with pytest.raises(ValueError):
        connecting_pseudounitary(a, b)


# ---------------------------------------------------------- ensemble_connection


def test_ensemble_connection_rotated_decompositions():
    # two signed ensembles assembling the same indefinite operator X
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    a = SignedEnsemble(2, (1, -1), (plus, minus))
    t = 0.6
    mix = _boost(t)
    vb0 = mix[0, 0] * plus + mix[1, 0] * minus
    vb1 = mix[0, 1] * plus + mix[1, 1] * minus
    b = SignedEnsemble(2, (1, -1), (vb0, vb1))
    assert np.abs(a.operator() - b.operator()).max() < 1e-12
    res = ensemble_connection(a, b)
    assert is_pseudounitary(res.u, eta_metric(res.signature))
    # rows of u mix b's vectors into a's
    for i, (va, _) in enumerate(zip(a.vectors, a.signs)):
        rebuilt = sum(res.u[i, j] * b.vectors[j] for j in range(b.n_terms))
        assert np.abs(rebuilt - va).max() < 1e-9
    assert res.residual < 1e-9


def test_ensemble_connection_identity_case():
    v0 = np.array([1.0, 0.0], dtype=complex)
    v1 = np.array([0.0, 2.0], dtype=complex)
    a = SignedEnsemble(2, (1, 1), (v0, v1))
    res = ensemble_connection(a, a)
    assert np.abs(np.abs(np.diag(res.u)) - 1).max() < 1e-9
    assert res.residual < 1e-12


def test_ensemble_connection_zero_operator():
    v = np.array([1.0, 1.0], dtype=complex)
    a = SignedEnsemble(2, (1, -1), (v, v))
    b = SignedEnsemble(2, (1, -1), (2 * v, 2 * v))
    res = ensemble_connection(a, b)
    assert res.u.shape == (0, 0)


def test_ensemble_connection_different_operators():
    a = SignedEnsemble(2, (1,), (np.array([1.0, 0.0], dtype=complex),))
    b = SignedEnsemble(2, (1,), (np.array([0.0, 1.0], dtype=complex),))
    with pytest.raises(OperatorsNotEqual):
        ensemble_connection(a, b)


@pytest.mark.parametrize("scale", [1e6, 1.0, 1e-6])
def test_ensemble_connection_gate_is_relative(scale):
    # Equal operators connect and a 0.1% change is refused at every scale.
    rng = np.random.default_rng(97)
    vecs = scale * (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))
    a = SignedEnsemble(4, (1, 1, -1), vecs)
    boost = np.eye(3, dtype=complex)
    boost[0, 0] = boost[2, 2] = np.cosh(0.5)
    boost[0, 2] = boost[2, 0] = -np.sinh(0.5)  # the inverse of the rapidity-0.5 boost
    b = SignedEnsemble(4, a.signs, boost @ vecs)
    res = ensemble_connection(a, b)
    assert is_pseudounitary(res.u, eta_metric(res.signature), 1e-8)
    assert np.abs(res.u @ b.vectors - a.vectors).max() < 1e-9 * scale
    changed = vecs.copy()
    changed[1] *= 1.001
    with pytest.raises(OperatorsNotEqual):
        ensemble_connection(SignedEnsemble(4, a.signs, changed), b)


def test_ensemble_connection_random_corpus():
    rng = np.random.default_rng(18)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        p = int(rng.integers(1, 3))
        q = int(rng.integers(0, 2 + 1))
        if p + q > d:
            continue
        vecs = []
        while True:
            cand = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(p + q)]
            if np.linalg.matrix_rank(np.column_stack(cand)) == p + q:
                vecs = cand
                break
        a = SignedEnsemble(d, tuple([1] * p + [-1] * q), tuple(vecs))
        u = random_pu(rng, Signature(p, q))
        # act with the row convention to build a matching second ensemble
        uinv = np.linalg.inv(u)
        new_vecs = tuple(
            sum(uinv[i, j] * vecs[j] for j in range(p + q)) for i in range(p + q)
        )
        b = SignedEnsemble(d, a.signs, new_vecs)
        assert np.abs(a.operator() - b.operator()).max() < 1e-8
        res = ensemble_connection(a, b, tol=1e-7)
        for i in range(a.n_terms):
            rebuilt = sum(res.u[i, j] * b.vectors[j] for j in range(b.n_terms))
            assert np.abs(rebuilt - a.vectors[i]).max() < 1e-7


def _vec_ensemble(ops):
    return SignedEnsemble(ops.dim**2, ops.signs, tuple(op.reshape(-1) for op in ops.operators))


def test_ensemble_connection_pads_the_shorter_ensemble():
    # b is a boost of a with one explicit zero vector in its + block
    v0 = np.array([1.0, 0.0], dtype=complex)
    v1 = np.array([0.0, 0.5], dtype=complex)
    a = SignedEnsemble(2, (1, -1), (v0, v1))
    inv = np.linalg.inv(_boost(0.4))
    b0 = inv[0, 0] * v0 + inv[0, 1] * v1
    b1 = inv[1, 0] * v0 + inv[1, 1] * v1
    b = SignedEnsemble(2, (1, 1, -1), (b0, np.zeros(2), b1))
    res = ensemble_connection(a, b)
    assert res.signature == Signature(2, 1)
    assert res.padding_added == (1, 0)
    assert is_pseudounitary(res.u, eta_metric(res.signature))
    # rows of u mix b's vectors into a's vectors padded blockwise: (v0, 0, v1)
    padded_a = (v0, np.zeros(2), v1)
    for i, target in enumerate(padded_a):
        rebuilt = sum(res.u[i, j] * b.vectors[j] for j in range(b.n_terms))
        assert np.abs(rebuilt - target).max() < 1e-12
    assert res.residual < 1e-12
    assert ensemble_connection(b, a).padding_added == (0, 1)


@pytest.mark.parametrize("padded", [False, True])
def test_map_connection_is_the_transposed_ensemble_connection(padded):
    a, b = _boosted_pair(0.45)
    if padded:
        b = pad_to_signature(a, Signature(3, 2))
    maps = connecting_pseudounitary(a, b)
    ensembles = ensemble_connection(_vec_ensemble(b), _vec_ensemble(a))
    assert np.array_equal(maps.u, ensembles.u.T)
    assert maps.signature == ensembles.signature
    assert maps.padding_added == ensembles.padding_added[::-1]
    assert maps.residual == ensembles.residual


@pytest.mark.parametrize("scale", [1e-10, 1e-12])
def test_ensemble_connection_connects_small_equal_ensembles(scale):
    # Equal ensembles far below the tolerance in absolute size still
    # connect: the zero-term and span gates are relative to their scale.
    rng = np.random.default_rng(97)
    vecs = scale * (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))
    a = SignedEnsemble(4, (1, 1, -1), vecs)
    boost = np.eye(3, dtype=complex)
    boost[0, 0] = boost[2, 2] = np.cosh(0.5)
    boost[0, 2] = boost[2, 0] = -np.sinh(0.5)
    b = SignedEnsemble(4, a.signs, boost @ vecs)
    res = ensemble_connection(a, b)
    assert res.padding_added == (0, 0)
    assert is_pseudounitary(res.u, eta_metric(res.signature), 1e-8)
    assert np.abs(res.u @ b.vectors - a.vectors).max() < 1e-9 * scale
