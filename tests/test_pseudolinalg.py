import numpy as np
import pytest

from ncpqec import (
    LinearDependence,
    NotAProjector,
    NotPseudoHermitian,
    NullNormEncountered,
    PseudoDiagonalizationFailure,
    Signature,
    eta_metric,
    is_pseudohermitian,
    is_pseudounitary,
    polar_on_code,
    projector_from_basis,
    pseudo_diagonalize,
    pseudo_gram_schmidt,
    pseudo_inner,
)

from helpers import (
    ket,
    random_code,
    random_complex,
    random_hermitian,
    random_ph,
    random_pu,
    random_real_spectrum_ph,
    random_unitary,
)


def test_eta_metric_values():
    assert np.abs(eta_metric(Signature(2, 0)) - np.eye(2)).max() == 0
    assert np.abs(eta_metric(Signature(1, 1)) - np.diag([1.0, -1.0])).max() == 0
    assert np.abs(eta_metric(Signature(1, 3)) - np.diag([1.0, -1, -1, -1])).max() == 0


def test_eta_metric_involution_and_hermitian():
    for p, q in [(1, 0), (2, 3), (0, 4), (3, 3)]:
        eta = eta_metric(Signature(p, q))
        assert np.abs(eta @ eta - np.eye(p + q)).max() == 0
        assert np.abs(eta - eta.conj().T).max() == 0


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(-1, 2)
    assert Signature(0, 0).size == 0


def test_pseudo_inner_values():
    eta = eta_metric(Signature(1, 1))
    assert pseudo_inner(np.array([1.0, 0]), np.array([1.0, 0]), eta) == 1
    assert pseudo_inner(np.array([0, 1.0]), np.array([0, 1.0]), eta) == -1
    null = np.array([1.0, 1.0]) / np.sqrt(2)
    assert abs(pseudo_inner(null, null, eta)) < 1e-15


def test_pseudo_inner_conjugate_linearity():
    rng = np.random.default_rng(11)
    eta = eta_metric(Signature(2, 2))
    u, v = random_complex(rng, 4), random_complex(rng, 4)
    assert abs(pseudo_inner(u, v, eta) - np.conj(pseudo_inner(v, u, eta))) < 1e-12
    assert abs(pseudo_inner(u, 2j * v, eta) - 2j * pseudo_inner(u, v, eta)) < 1e-12


def test_is_pseudohermitian_examples():
    eta = eta_metric(Signature(1, 1))
    h = random_hermitian(np.random.default_rng(0), 3)
    assert is_pseudohermitian(h, np.eye(3))
    assert is_pseudohermitian(np.array([[2.0, 1], [-1, -2]]), eta)
    assert not is_pseudohermitian(np.array([[0.0, 1], [1, 0]]), eta)


def test_ph_iff_eta_h_hermitian():
    rng = np.random.default_rng(21)
    for _ in range(25):
        sig = Signature(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        eta = eta_metric(sig)
        h = random_ph(rng, sig)
        assert is_pseudohermitian(h, eta)
        prod = eta @ h
        assert np.abs(prod - prod.conj().T).max() < 1e-12
        # and the reverse direction: eta @ Hermitian is PH
        assert is_pseudohermitian(eta @ random_hermitian(rng, sig.size), eta)


def test_is_pseudounitary_examples():
    rng = np.random.default_rng(3)
    assert is_pseudounitary(random_unitary(rng, 4), np.eye(4))
    eta = eta_metric(Signature(1, 1))
    boost = np.array([[5.0, 3], [3, 5]]) / 4  # cosh t = 5/4, sinh t = 3/4
    assert is_pseudounitary(boost, eta)
    assert not is_pseudounitary(np.array([[0.0, 1], [1, 0]]), eta)


def test_exp_of_ph_is_pu():
    rng = np.random.default_rng(7)
    for _ in range(20):
        sig = Signature(int(rng.integers(1, 4)), int(rng.integers(0, 4)))
        u = random_pu(rng, sig)
        assert is_pseudounitary(u, eta_metric(sig), 1e-8)


def test_pu_group_closure():
    rng = np.random.default_rng(8)
    sig = Signature(2, 2)
    eta = eta_metric(sig)
    a, b = random_pu(rng, sig), random_pu(rng, sig)
    assert is_pseudounitary(a @ b, eta, 1e-8)
    assert is_pseudounitary(np.linalg.inv(a), eta, 1e-8)
    # the PU inverse identity eta U^dag eta
    assert np.abs(np.linalg.inv(a) - eta @ a.conj().T @ eta).max() < 1e-9


def test_pseudo_gram_schmidt_euclidean_case():
    rng = np.random.default_rng(13)
    u = random_unitary(rng, 3)
    out = pseudo_gram_schmidt([u[:, k] for k in range(3)], np.eye(3))
    for k in range(3):
        overlap = abs(np.vdot(out[k], u[:, k]))
        assert abs(overlap - 1) < 1e-10


def test_pseudo_gram_schmidt_indefinite():
    eta = eta_metric(Signature(1, 1))
    out = pseudo_gram_schmidt([np.array([1.0, 0]), np.array([1.0, 1])], eta)
    assert np.abs(out[0] - [1, 0]).max() < 1e-12
    # second vector loses its eta-projection onto the first
    assert abs(out[1][0]) < 1e-12 and abs(abs(out[1][1]) - 1) < 1e-12


def test_pseudo_gram_schmidt_null_vector():
    eta = eta_metric(Signature(1, 1))
    with pytest.raises(NullNormEncountered):
        pseudo_gram_schmidt([np.array([1.0, 1]), np.array([1.0, 0])], eta)


def test_pseudo_gram_schmidt_dependence():
    with pytest.raises(LinearDependence):
        pseudo_gram_schmidt([np.array([1.0, 0]), np.array([2.0, 0])], np.eye(2))


def test_pseudo_gram_schmidt_pairwise_orthogonality():
    rng = np.random.default_rng(17)
    for _ in range(20):
        sig = Signature(2, 2)
        eta = eta_metric(sig)
        try:
            out = pseudo_gram_schmidt([random_complex(rng, 4) for _ in range(4)], eta)
        except NullNormEncountered:
            continue
        for i in range(4):
            for j in range(i):
                assert abs(pseudo_inner(out[i], out[j], eta)) < 1e-9
            assert abs(abs(pseudo_inner(out[i], out[i], eta)) - 1) < 1e-9


def test_pseudo_diagonalize_hermitian_case():
    rng = np.random.default_rng(29)
    h = random_hermitian(rng, 4)
    res = pseudo_diagonalize(h, np.eye(4))
    assert np.abs(np.sort(res.eigenvalues) - np.linalg.eigvalsh(h)).max() < 1e-10
    s = res.transform
    assert np.abs(s @ s.conj().T - np.eye(4)).max() < 1e-9


def test_pseudo_diagonalize_worked_example():
    eta = eta_metric(Signature(1, 1))
    h = np.array([[2.0, 1], [-1, -2]])
    res = pseudo_diagonalize(h, eta)
    assert np.abs(np.sort(res.eigenvalues) - [-np.sqrt(3), np.sqrt(3)]).max() < 1e-10
    s = res.transform
    assert is_pseudounitary(s, eta, 1e-9)
    d = np.linalg.solve(s, h @ s)
    assert np.abs(d - np.diag(res.eigenvalues)).max() < 1e-9


def test_pseudo_diagonalize_complex_spectrum_fails():
    eta = eta_metric(Signature(1, 1))
    with pytest.raises(PseudoDiagonalizationFailure):
        pseudo_diagonalize(np.array([[1.0, 1], [-1, 1]]), eta)


def test_pseudo_diagonalize_rejects_non_ph():
    eta = eta_metric(Signature(1, 1))
    with pytest.raises(NotPseudoHermitian):
        pseudo_diagonalize(np.array([[0.0, 1], [1, 0]]), eta)


def test_pseudo_diagonalize_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(40):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(0, 4 - p + 1))
        sig = Signature(p, max(q, 1) if p + q < 2 else q)
        if sig.size < 2:
            sig = Signature(1, 1)
        eta = eta_metric(sig)
        h = random_real_spectrum_ph(rng, sig)
        res = pseudo_diagonalize(h, eta)
        s = res.transform
        assert np.abs(s @ eta @ s.conj().T - eta).max() < 1e-8
        assert np.abs(np.linalg.solve(s, h @ s) - np.diag(res.eigenvalues)).max() < 1e-7
        oracle = np.sort(np.linalg.eigvals(h).real)
        assert np.abs(np.sort(res.eigenvalues) - oracle).max() < 1e-7


def test_pseudo_diagonalize_degenerate_cluster():
    # multiplicity two on the positive block — exercised by an exact repeat
    eta = eta_metric(Signature(2, 1))
    h = np.diag([2.0, 2.0, -1.0])
    res = pseudo_diagonalize(h, eta)
    assert np.abs(np.sort(res.eigenvalues) - [-1, 2, 2]).max() < 1e-12
    assert is_pseudounitary(res.transform, eta, 1e-9)


def test_pseudo_diagonalize_keeps_eigensolver_order_in_cluster():
    # The conditions of the four-qubit inverted bit-flip map: already
    # diagonal, so the transform must be the identity, not a reordering
    # inside the four-fold cluster.
    eta = eta_metric(Signature(4, 1))
    res = pseudo_diagonalize(np.diag([0.3, 0.3, 0.3, 0.3, -0.2]), eta)
    assert np.abs(res.transform - np.eye(5)).max() < 1e-12
    assert res.permutation == (0, 1, 2, 3, 4)


def test_polar_on_code_identity_and_flip():
    b0 = ket(0, 2)[:, None]
    res = polar_on_code(np.eye(2), b0)
    assert np.abs(res.isometry - b0).max() < 1e-12
    assert np.abs(res.positive_part - np.eye(1)).max() < 1e-12

    x = np.array([[0.0, 1], [1, 0]])
    res = polar_on_code(x, b0)
    assert np.abs(res.positive_part - np.eye(1)).max() < 1e-12
    assert np.abs(x @ b0 - res.isometry @ res.positive_part).max() < 1e-12
    assert np.abs(res.isometry - ket(1, 2)[:, None]).max() < 1e-12


def test_polar_on_code_zero_operator():
    b = np.eye(3)[:, :2]
    res = polar_on_code(np.zeros((3, 3)), b)
    assert res.isometry.shape == (3, 2)
    assert np.abs(res.isometry.conj().T @ res.isometry - np.eye(2)).max() < 1e-12
    assert np.abs(res.positive_part).max() == 0


def test_polar_on_code_random_reconstruction():
    rng = np.random.default_rng(37)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        rank = int(rng.integers(1, d + 1))
        code = random_code(rng, d, rank)
        b = np.column_stack(code.logical_basis)
        m = random_complex(rng, (d, d))
        res = polar_on_code(m, b)
        w, h = res.isometry, res.positive_part
        assert w.shape == (d, rank) and h.shape == (rank, rank)
        assert np.abs(w.conj().T @ w - np.eye(rank)).max() < 1e-9
        assert np.abs(m @ b - w @ h).max() < 1e-9
        assert np.abs(h - h.conj().T).max() < 1e-9
        assert np.linalg.eigvalsh(h).min() > -1e-9
        # h is the positive square root of B^dag M^dag M B
        assert np.abs(h @ h - b.conj().T @ m.conj().T @ m @ b).max() < 1e-9
        # w w^dag and the full-d form m P = (w b^dag) (b h b^dag)
        assert np.abs(m @ code.projector - (w @ b.conj().T) @ (b @ h @ b.conj().T)).max() < 1e-9


def test_polar_on_code_rejects_non_projector():
    for b in ([[0.5], [0.5]], [[1.0, 0.0], [0.0, 0.5]], [[np.nan], [0.0]]):
        with pytest.raises(NotAProjector):
            polar_on_code(np.eye(2), np.array(b))
