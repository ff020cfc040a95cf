from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ncpqec import (
    AMatrix,
    BMatrix,
    LinearDependence,
    NotPseudoHermitian,
    NullNormEncountered,
    PseudoDiagonalizationFailure,
    Signature,
    eta_metric,
    is_pseudohermitian,
    is_pseudounitary,
    projector_from_basis,
    pseudo_diagonalize,
    pseudo_gram_schmidt,
    pseudo_inner,
    pseudolinalg,
    repetition_bitflip,
    reshuffle,
    superop,
)
from ncpqec.pseudolinalg import _frozen, _max_abs, _signed_clusters, _signed_eigensystem

from helpers import (
    b_signatures,
    ket,
    memory_owner,
    polar_on_code,
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
    with pytest.raises(LinearDependence):
        pseudo_gram_schmidt([np.array([1.0, 0]), np.zeros(2)], np.eye(2))


def test_pseudo_gram_schmidt_checks_every_shape_first():
    # A malformed input is refused before any vector is orthogonalized,
    # even when an earlier vector would fail numerically.
    for first in (np.array([1.0, 0]), np.zeros(2)):
        with pytest.raises(ValueError, match=r"vector 1 has shape \(3,\), expected \(2,\)"):
            pseudo_gram_schmidt([first, np.ones(3)], np.eye(2))


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


def test_pseudo_diagonalize_null_norm_eigenvector_fails():
    # Pseudohermitian for diag(1, -1) and nilpotent: its one eigenvector
    # (1, -1) has indefinite norm 0, so no pseudounitary diagonalizes it.
    with pytest.raises(PseudoDiagonalizationFailure, match="null indefinite norm"):
        pseudo_diagonalize(np.array([[1.0, 1], [-1, -1]]), eta_metric(Signature(1, 1)))


def test_pseudo_diagonalize_empty_matrix():
    res = pseudo_diagonalize(np.zeros((0, 0)), eta_metric(Signature(0, 0)))
    assert res.transform.shape == (0, 0) and res.eigenvalues.shape == res.metric_signs.shape == (0,)
    assert res.permutation == ()


def test_pseudo_diagonalize_does_not_check_the_metric_per_cluster():
    # Once, in is_pseudohermitian: not again for the call or per eigenvalue cluster.
    with mock.patch.object(pseudolinalg, "_check_metric", wraps=pseudolinalg._check_metric) as spy:
        res = pseudo_diagonalize(np.diag(np.arange(1.0, 9)), eta_metric(Signature(4, 4)))
    assert spy.call_count == 1 and len(res.eigenvalues) == 8


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


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12, 1e-150, 1e150])
def test_pseudo_diagonalize_is_scale_invariant(scale):
    # With a max(1, .) floor on the cluster gap, the 1e-12 spectrum merged
    # at its mean and passed the consistency bound as [0.317] * 3.
    sig = Signature(2, 1)
    eta = eta_metric(sig)
    h = random_real_spectrum_ph(np.random.default_rng(5), sig)
    res = pseudo_diagonalize(scale * h, eta)
    assert np.abs(res.eigenvalues / scale - [-0.66995263, 0.18039375, 1.44020819]).max() < 1e-8
    base = pseudo_diagonalize(h, eta)
    assert np.abs(res.eigenvalues / scale - base.eigenvalues).max() < 1e-14
    assert np.abs(res.transform - base.transform).max() < 1e-12
    assert res.permutation == base.permutation


@st.composite
def gate_inputs(draw):
    """A matrix, a metric and a list of vectors at scale 1.

    The matrix is pseudohermitian (with a real spectrum or not), one
    nudged off by 1e-6, or a general complex matrix.  The vectors are
    random, with zero vectors, multiples and combinations of earlier
    ones inserted, and may outnumber the dimension.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sig = Signature(draw(st.integers(1, 3)), draw(st.integers(0, 2)))
    n = sig.size
    kind = draw(st.sampled_from(["ph", "real spectrum", "nudged", "general"]))
    if kind == "ph":
        h = random_ph(rng, sig)
    elif kind == "real spectrum":
        h = random_real_spectrum_ph(rng, sig)
    elif kind == "nudged":
        h = random_ph(rng, sig) + 1e-6 * random_complex(rng, (n, n))
    else:
        h = random_complex(rng, (n, n))
    vectors = list(random_complex(rng, (draw(st.integers(1, n + 1)), n)))
    for extra in draw(st.lists(st.sampled_from(["zero", "multiple", "combination"]), max_size=2)):
        at = int(rng.integers(1, len(vectors) + 1))
        a, b = vectors[int(rng.integers(0, at))], vectors[int(rng.integers(0, at))]
        vectors.insert(at, {"zero": 0 * a, "multiple": 2.5 * a, "combination": a + (1 + 2j) * b}[extra])
    return h, eta_metric(sig), vectors


def _gate_outcome(fn, *args):
    """``(None, fn(*args))``, or the failure's type with its message for ``LinearDependence``."""
    try:
        return None, fn(*args)
    except LinearDependence as exc:
        return LinearDependence, str(exc)
    except (NotPseudoHermitian, NullNormEncountered, PseudoDiagonalizationFailure) as exc:
        return type(exc), None


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(inputs=gate_inputs(), exponent=st.sampled_from([-150, 150]) | st.integers(-150, 150))
@example(  # absolute or max(1, .) gates: True, "spectrum is not real" and LinearDependence at 1e-12
    inputs=(random_complex(np.random.default_rng(97), (3, 3)), eta_metric(Signature(2, 1)), [ket(0, 3), ket(2, 3)]),
    exponent=-12,
)
def test_gates_give_the_scale_1_answer_at_every_scale(inputs, exponent):
    h, eta, vectors = inputs
    scale = 10.0**exponent
    scaled = [scale * v for v in vectors]
    assert is_pseudohermitian(scale * h, eta) == is_pseudohermitian(h, eta)
    # rho -> eta H rho + rho eta H preserves Hermiticity exactly when eta H is
    # Hermitian, i.e. H is pseudohermitian; H^dag eta H is positive
    # semidefinite exactly when eta has no -1 (or H is singular).  The
    # Hermitian parts of H and of H^dag eta H, zero-padded to k^2 x k^2,
    # are B matrices, so their spectrum cuts decide the signatures.
    n, g = len(h), h.conj().T @ eta @ h
    a = np.kron(eta @ h, np.eye(n)) + np.kron(np.eye(n), (eta @ h).T)
    assert b_signatures(reshuffle(AMatrix(n, scale * a))) == b_signatures(reshuffle(AMatrix(n, a)))
    k = int(np.ceil(np.sqrt(n)))
    padded = lambda m: BMatrix(k, np.pad((m + m.conj().T) / 2, (0, k * k - n)))  # noqa: E731
    for m in (h, g):
        assert b_signatures(padded(scale * m)) == b_signatures(padded(m))
    for fn, args, got_args in [
        (pseudo_diagonalize, (h, eta), (scale * h, eta)),
        (projector_from_basis, (vectors,), (scaled,)),
        (pseudo_gram_schmidt, (vectors, eta), (scaled, eta)),
    ]:
        (base_failure, base), (failure, got) = _gate_outcome(fn, *args), _gate_outcome(fn, *got_args)
        assert failure == base_failure, fn.__name__
        if failure:
            assert got == base
        elif fn is pseudo_diagonalize:
            want = np.sort(base.eigenvalues)
            assert np.abs(np.sort(got.eigenvalues) / scale - want).max() <= 1e-9 * _max_abs(want)
        elif fn is projector_from_basis:
            assert np.abs(got.isometry - base.isometry).max() <= 1e-12
        else:
            want = np.column_stack(base)
            assert np.abs(np.column_stack(got) - want).max() <= 1e-9 * _max_abs(want)


# --------------------------------------- polar_on_code (the oracle in helpers)


def test_polar_on_code_identity_and_flip():
    b0 = ket(0, 2)[:, None]
    res = polar_on_code(np.eye(2) @ b0)
    assert np.abs(res.isometry - b0).max() < 1e-12
    assert np.abs(res.positive_part - np.eye(1)).max() < 1e-12

    x = np.array([[0.0, 1], [1, 0]])
    res = polar_on_code(x @ b0)
    assert np.abs(res.positive_part - np.eye(1)).max() < 1e-12
    assert np.abs(x @ b0 - res.isometry @ res.positive_part).max() < 1e-12
    assert np.abs(res.isometry - ket(1, 2)[:, None]).max() < 1e-12


def test_polar_on_code_zero_operator():
    b = np.eye(3)[:, :2]
    res = polar_on_code(np.zeros((3, 3)) @ b)
    assert res.isometry.shape == (3, 2)
    assert np.abs(res.isometry.conj().T @ res.isometry - np.eye(2)).max() < 1e-12
    assert np.abs(res.positive_part).max() == 0


def test_polar_on_code_random_reconstruction():
    rng = np.random.default_rng(37)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        rank = int(rng.integers(1, d + 1))
        code = random_code(rng, d, rank)
        b = code.isometry
        m = random_complex(rng, (d, d))
        res = polar_on_code(m @ b)
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


def test_polar_on_code_batch_matches_single_products():
    # One batched call gives, bit for bit, the factors of each product alone.
    rng = np.random.default_rng(41)
    b = random_code(rng, 6, 2).isometry
    products = np.stack([random_complex(rng, (6, 6)) @ b for _ in range(5)])
    products[2] = 0.0
    batch = polar_on_code(products)
    assert batch.isometry.shape == (5, 6, 2) and batch.positive_part.shape == (5, 2, 2)
    for k, a in enumerate(products):
        single = polar_on_code(a)
        assert np.array_equal(batch.isometry[k], single.isometry)
        assert np.array_equal(batch.positive_part[k], single.positive_part)


@pytest.mark.parametrize(
    "products, hint",
    [
        (np.ones(3), "shape"),
        (np.ones((2, 3)), "shape"),
        (np.array([[np.nan], [0.0]]), "non-finite"),
    ],
)
def test_polar_on_code_rejects_malformed_products(products, hint):
    with pytest.raises(ValueError, match=hint):
        polar_on_code(products)


def test_signed_clusters_take_np_mean_bits_and_stay_finite_near_the_float_limit():
    # A cluster's value is np.mean of its members, bit for bit.  The sum is
    # taken on the members scaled by a power of two, which is exact, so near
    # the float limit, where the plain sum of five members overflows, the
    # values are those at a lower scale times the power of two between them.
    rng = np.random.default_rng(7)
    lam = np.concatenate([-0.3 - 1e-12 * rng.random(3), 1 + 1e-12 * rng.random(5)])
    clusters, values = _signed_clusters(lam, 1e-9)
    assert [sorted(c) for c in clusters] == [[3, 4, 5, 6, 7], [0, 1, 2]]
    assert values.tolist() == [np.mean(lam[3:])] * 5 + [np.mean(lam[:3])] * 3
    big = np.ldexp(lam, 1023)
    with np.errstate(over="ignore"):
        assert np.mean(big[3:]) == np.inf
    values = _signed_clusters(big, np.ldexp(1e-9, 1023))[1]
    assert values.tolist() == np.ldexp(_signed_clusters(np.ldexp(lam, 1000), np.ldexp(1e-9, 1000))[1], 23).tolist()
    assert np.isfinite(values).all()


# ------------------------------------------------------- _signed_eigensystem


@pytest.mark.parametrize("explicit_candidates", [False, True])
def test_signed_eigensystem_ignores_the_eigensolver_basis(explicit_candidates):
    # Unit phases on every eigenvector and a unitary inside the threefold
    # and twofold clusters leave the canonical values and basis unchanged.
    rng = np.random.default_rng(83)
    spectrum = np.array([3.0, 3.0, 3.0, 1.5, 0.7, 0.0, 0.0, -0.4, -2.0, -2.0])
    u = random_unitary(rng, spectrum.size)
    lam, v = np.linalg.eigh((u * spectrum) @ u.conj().T)
    cut = 1e-9 * np.abs(lam).max()
    candidates = random_complex(rng, (spectrum.size, 6)) if explicit_candidates else None
    values, basis = _signed_eigensystem(lam, v, cut, candidates)
    assert np.abs(values - [3, 3, 3, 1.5, 0.7, -2, -2, -0.4]).max() < 1e-12
    assert np.abs(basis.conj().T @ basis - np.eye(8)).max() < 1e-12
    assert np.abs((basis * values) @ basis.conj().T - (u * spectrum) @ u.conj().T).max() < 1e-12
    for _ in range(5):
        w = v * np.exp(2j * np.pi * rng.uniform(size=spectrum.size))
        for cluster in (np.flatnonzero(np.abs(lam - 3) < 1e-6), np.flatnonzero(np.abs(lam + 2) < 1e-6)):
            w[:, cluster] = w[:, cluster] @ random_unitary(rng, cluster.size)
        other_values, other_basis = _signed_eigensystem(lam, w, cut, candidates)
        assert np.abs(other_values - values).max() < 1e-12
        assert np.abs(other_basis - basis).max() < 1e-12


def test_signed_eigensystem_of_nothing_kept():
    values, basis = _signed_eigensystem(np.zeros(3), np.eye(3), 0.0)
    assert values.shape == (0,) and basis.shape == (3, 0)


def test_signed_eigensystem_values_are_the_cluster_means():
    # Each value is its cluster's np.mean, bit for bit, once per member.
    lam = np.array([-2.0, -2.0 + 3e-11, 0.5, 1.0 - 2e-11, 1.0, 1.0 + 4e-11])
    values, basis = _signed_eigensystem(lam, np.eye(6), 1e-10)
    ones, twos = np.mean(lam[3:]), np.mean(lam[:2])
    assert values.tolist() == [ones, ones, ones, 0.5, twos, twos] and basis.shape == (6, 6)


def _oracle_signed_eigensystem(lam, vectors, cut, candidates=None):
    """The per-vector form of ``_signed_eigensystem``: each cluster's basis by
    Gram-Schmidt of the candidates' projections in the full space."""
    kept = np.flatnonzero(np.abs(lam) > cut)
    clusters = []
    for idx in kept[np.argsort(lam[kept], kind="stable")]:
        if clusters and lam[idx] <= lam[clusters[-1][-1]] + cut:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    clusters.sort(key=lambda c: (lam[c[0]] < 0, -abs(lam[c[0]])))
    values = np.repeat([np.mean(lam[c]) for c in clusters], [len(c) for c in clusters])
    columns = [np.zeros((vectors.shape[0], 0))]
    for c in clusters:
        span = vectors[:, c]
        if candidates is None:  # row i of span holds the coefficients of e_i
            floor = 1e-8
            projections = (span @ span[i].conj() for i in np.flatnonzero(np.linalg.norm(span, axis=1) > floor))
        else:
            floor = 1e-8 * float(np.max(np.linalg.norm(candidates, axis=0)))
            projections = (span @ (span.conj().T @ candidates)).T
        basis = []
        for w in projections:
            if len(basis) == len(c):
                break
            for b in basis:
                w = w - b * np.vdot(b, w)
            wn = float(np.linalg.norm(w))
            if wn > floor:
                basis.append(w / wn)
        assert len(basis) == len(c)
        columns.append(np.column_stack(basis))
    return values, np.concatenate(columns, axis=1)


def _assert_matches_oracle(lam, vectors, cut, candidates=None):
    values, basis = _signed_eigensystem(lam, vectors, cut, candidates)
    want_values, want_basis = _oracle_signed_eigensystem(lam, vectors, cut, candidates)
    assert values.tolist() == want_values.tolist()
    assert basis.shape == want_basis.shape and (basis.dtype == want_basis.dtype or not basis.size)
    assert np.abs(basis - want_basis).max(initial=0.0) <= 1e-12
    return values, basis


@st.composite
def planted_spectra(draw, explicit):
    """A Hermitian matrix with repeated eigenvalues, at one scale, and its candidates.

    The explicit candidates span the space; some are zero or copies of
    earlier ones, and the first may be an eigenvector, which projects to
    zero on every other eigenspace.  Otherwise they are ``None``, the
    standard basis.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 8))
    levels = np.array(draw(st.lists(st.sampled_from([-3.0, -1.5, -0.5, 0.0, 0.5, 2.0]), min_size=d, max_size=d)))
    scale = draw(st.sampled_from([1e-150, 1e-12, 1.0, 1e12, 1e150]))
    u = np.linalg.qr(rng.normal(size=(d, d)))[0] if draw(st.booleans()) else random_unitary(rng, d)
    lam, vectors = np.linalg.eigh((u * (scale * levels)) @ u.conj().T)
    if not explicit:
        return lam, vectors, None
    columns = list(random_complex(rng, (d, d)).T)
    for kind in draw(st.lists(st.sampled_from(["zero", "copy"]), max_size=3)):
        at = int(rng.integers(1, len(columns) + 1))
        columns.insert(at, 0 * columns[0] if kind == "zero" else 2.5 * columns[int(rng.integers(0, at))])
    if draw(st.booleans()):
        columns.insert(0, u[:, int(rng.integers(0, d))])
    return lam, vectors, scale * np.column_stack(columns)


@pytest.mark.parametrize("explicit", [False, True])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_signed_eigensystem_matches_the_per_vector_oracle(explicit, data):
    lam, vectors, candidates = data.draw(planted_spectra(explicit))
    _assert_matches_oracle(lam, vectors, 1e-9 * _max_abs(lam), candidates)


def test_signed_eigensystem_skips_candidates_off_the_cluster():
    # On the B of the CP repetition map, e_0 (where vec(I) is nonzero) and
    # e_3 project to zero on the bit-flip cluster, whose basis is then
    # vec(X_k) in the order of their first nonzero entries: e_1, e_2, e_4.
    ops, _ = repetition_bitflip(3, 0.7)
    with mock.patch.object(superop, "_signed_eigensystem", wraps=_signed_eigensystem) as spy:
        terms = superop.operator_sum_from_b(superop.b_from_operator_sum(ops))
    (lam, v, cut), = (call.args for call in spy.call_args_list)
    values, basis = _assert_matches_oracle(lam, v, cut)
    assert np.abs(values - [5.6, 0.8, 0.8, 0.8]).max() < 1e-12
    assert np.abs(basis[[0, 3], 1:]).max() < 1e-15
    assert np.abs(terms.operators - ops.operators[[3, 2, 1, 0]]).max() < 1e-12


def test_frozen_holds_only_an_array_of_its_dtype_over_bytes():
    # The one holding rule of the records: an array of the asked dtype over
    # immutable bytes is kept; any other input is copied into such an array.
    real = np.frombuffer(np.arange(4.0).tobytes(), float)
    assert _frozen(real, float) is real
    big_endian = np.frombuffer(real.astype(">f8").tobytes(), ">f8")
    for a, dtype in ((real, complex), (big_endian, float), ([0.0, 1.0, 2.0, 3.0], float)):
        held = _frozen(a, dtype)
        assert held is not a and held.dtype == dtype and isinstance(memory_owner(held), bytes)
        assert np.array_equal(held, real)
