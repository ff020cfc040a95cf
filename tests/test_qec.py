import numpy as np
import pytest

from ncpqec import (
    ConditionsViolated,
    LinearDependence,
    QecReport,
    Signature,
    SignedOperatorSum,
    Syndrome,
    Verdict,
    WitnessSearchFailed,
    ZeroTrace,
    a_from_operator_sum,
    analyze,
    apply_a_matrix,
    apply_map,
    build_recovery,
    build_syndromes,
    cp_condition_matrix,
    diagonalize_conditions,
    domain_witness,
    eta_metric,
    negative_part_on_code,
    ph_condition_matrix,
    projector_from_basis,
    verify_recovery,
)
from ncpqec.qec import _VERIFY_SEED

from helpers import (
    bitflip_ops,
    conditioned_pauli_map,
    ket,
    pauli_string,
    random_code,
    random_code_state,
    random_complex,
    random_ops,
    random_unitary,
    repetition_code,
)

X1, X2, X3 = (pauli_string(s) for s in ("XII", "IXI", "IIX"))
I8 = np.eye(8, dtype=complex)


def test_projector_from_basis():
    code = projector_from_basis([ket(0, 2)])
    assert np.abs(code.projector - np.diag([1.0, 0])).max() < 1e-12

    rep = repetition_code()
    expected = np.zeros((8, 8))
    expected[0, 0] = expected[7, 7] = 1.0
    assert np.abs(rep.projector - expected).max() < 1e-12
    assert rep.rank == 2

    full = projector_from_basis([ket(k, 3) for k in range(3)])
    assert np.abs(full.projector - np.eye(3)).max() < 1e-12


def test_projector_orthonormalizes_input():
    v1 = np.array([1.0, 0, 0, 0])
    v2 = np.array([1.0, 1.0, 0, 0])  # not orthogonal to v1
    code = projector_from_basis([v1, v2])
    p = code.projector
    assert np.abs(p @ p - p).max() < 1e-12
    assert np.abs(p - p.conj().T).max() < 1e-12
    assert abs(np.trace(p).real - 2) < 1e-12


def test_projector_rejects_dependent_basis():
    with pytest.raises(LinearDependence):
        projector_from_basis([ket(0, 3), 2 * ket(0, 3)])


def test_cp_conditions_repetition_code():
    code = repetition_code()
    cond = cp_condition_matrix([I8, X1, X2, X3], code)
    assert cond.residual < 1e-12
    assert np.abs(cond.entries - np.eye(4)).max() < 1e-12
    assert cond.form == "hermitian"


def test_cp_conditions_weighted():
    code = repetition_code()
    ops = [np.sqrt(0.7) * I8] + [np.sqrt(0.1) * x for x in (X1, X2, X3)]
    cond = cp_condition_matrix(ops, code)
    assert cond.residual <= 1e-10
    assert np.abs(cond.entries - np.diag([0.7, 0.1, 0.1, 0.1])).max() < 1e-12


def test_cp_conditions_violated_by_z():
    code = repetition_code()
    z1 = pauli_string("ZII")
    cond = cp_condition_matrix([I8, z1], code)
    assert cond.residual > 0.1


def test_cp_conditions_single_identity():
    cond = cp_condition_matrix([np.eye(4)], projector_from_basis([ket(1, 4)]))
    assert abs(cond.entries[0, 0] - 1) < 1e-12
    assert cond.residual < 1e-12


def test_cp_condition_entries_hermitian():
    rng = np.random.default_rng(109)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        code = random_code(rng, d, int(rng.integers(1, d)))
        ops = [random_complex(rng, (d, d)) for _ in range(3)]
        cond = cp_condition_matrix(ops, code)
        assert np.abs(cond.entries - cond.entries.conj().T).max() < 1e-10


def test_ph_conditions_bitflip():
    cond = ph_condition_matrix(bitflip_ops(-0.2), repetition_code())
    assert cond.residual < 1e-12
    assert cond.form == "pseudohermitian"
    assert np.abs(cond.entries - np.diag([0.4, 0.4, 0.4, -0.2])).max() < 1e-12


def test_ph_conditions_all_positive_match_cp():
    rng = np.random.default_rng(113)
    code = random_code(rng, 4, 2)
    mats = [random_complex(rng, (4, 4)) for _ in range(3)]
    ops = SignedOperatorSum.from_terms([1, 1, 1], mats)
    ph = ph_condition_matrix(ops, code)
    cp = cp_condition_matrix(mats, code)
    assert np.abs(ph.entries - cp.entries).max() < 1e-12
    assert abs(ph.residual - cp.residual) < 1e-12


def test_ph_condition_entries_pseudohermitian():
    rng = np.random.default_rng(127)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        code = random_code(rng, d, int(rng.integers(1, d)))
        p = int(rng.integers(1, 3))
        q = int(rng.integers(1, 3))
        ops = random_ops(rng, d, p, q)
        cond = ph_condition_matrix(ops, code)
        eta = eta_metric(Signature(p, q))
        prod = eta @ cond.entries
        assert np.abs(prod - prod.conj().T).max() < 1e-10


def test_diagonalize_conditions_bitflip():
    ops = bitflip_ops(-0.2)
    f, d, u = diagonalize_conditions(ops, repetition_code())
    assert np.abs(u - np.eye(4)).max() < 1e-12
    assert np.abs(d - [0.4, 0.4, 0.4, 0.2]).max() < 1e-12
    for op_f, op_e in zip(f.operators, ops.operators):
        assert np.abs(op_f - op_e).max() < 1e-12


def test_diagonalize_conditions_rotated_cp():
    """A unitary mixing of {I, X1} errors is undone by the diagonalizer."""
    rng = np.random.default_rng(131)
    code = repetition_code()
    base = SignedOperatorSum.from_terms([1, 1], [np.sqrt(0.8) * I8, np.sqrt(0.2) * X1])
    from ncpqec import transform_by_pseudounitary

    mixed = transform_by_pseudounitary(base, random_unitary(rng, 2))
    cond = ph_condition_matrix(mixed, code)
    assert np.abs(cond.entries - np.diag([0.8, 0.2])).max() > 1e-3  # really non-diagonal
    f, d, u = diagonalize_conditions(mixed, code)
    assert np.abs(np.sort(d) - [0.2, 0.8]).max() < 1e-9
    p = code.projector
    for i, op_i in enumerate(f.operators):
        for j, op_j in enumerate(f.operators):
            block = p @ op_i.conj().T @ op_j @ p
            want = d[i] * p if i == j else 0 * p
            assert np.abs(block - want).max() < 1e-8


def test_diagonalize_conditions_single_term():
    code = projector_from_basis([ket(0, 2), ket(1, 2)])
    ops = SignedOperatorSum.from_terms([1], [np.array([[0.0, 2], [2, 0]])])
    f, d, u = diagonalize_conditions(ops, code)
    assert u.shape == (1, 1)
    assert np.abs(d - [4.0]).max() < 1e-12


def test_diagonalize_conditions_rejects_violation():
    ops = SignedOperatorSum.from_terms([1, 1], [I8, pauli_string("ZII")])
    with pytest.raises(ConditionsViolated):
        diagonalize_conditions(ops, repetition_code())


def test_diagonal_conditions_property_random():
    rng = np.random.default_rng(137)
    code = repetition_code()
    p = code.projector
    for _ in range(25):
        ops = conditioned_pauli_map(rng)
        f, d, u = diagonalize_conditions(ops, code)
        for i, op_i in enumerate(f.operators):
            for j, op_j in enumerate(f.operators):
                block = p @ op_i.conj().T @ op_j @ p
                want = d[i] * p if i == j else 0 * p
                assert np.abs(block - want).max() < 1e-8
        assert all(x >= 0 for x in d)


def test_build_syndromes_bitflip():
    ops = bitflip_ops(-0.2)
    code = repetition_code()
    f, d, _ = diagonalize_conditions(ops, code)
    syn = build_syndromes(f, code, d)
    assert len(syn) == 4
    p = code.projector
    b = np.column_stack(code.logical_basis)
    expected = [x @ p @ x for x in (X1, X2, X3)] + [p]
    for s, want in zip(syn, expected):
        assert s.isometry.shape == (8, 2)
        assert np.abs(s.isometry.conj().T @ s.isometry - np.eye(2)).max() < 1e-12
        assert np.abs(s.projector - want).max() < 1e-9
        assert np.abs(s.projector - s.isometry @ s.isometry.conj().T).max() == 0
        assert s.code_isometry is syn[0].code_isometry  # one shared B
    assert np.abs(syn[0].code_isometry - b).max() == 0
    assert [s.sign for s in syn] == [1, 1, 1, -1]
    assert np.abs(np.array([s.weight for s in syn]) - [0.4, 0.4, 0.4, 0.2]).max() < 1e-9
    for i in range(4):
        for j in range(i):
            assert np.abs(syn[i].isometry.conj().T @ syn[j].isometry).max() < 1e-9
            assert np.abs(syn[i].projector @ syn[j].projector).max() < 1e-9


def test_syndrome_f_p_factorization():
    # F_k B = sqrt(d_k) W_k, hence F_k P = sqrt(d_k) W_k B^dag = sqrt(d_k) P_k F_k P / sqrt(d_k)
    rng = np.random.default_rng(139)
    code = repetition_code()
    b = np.column_stack(code.logical_basis)
    for _ in range(10):
        ops = conditioned_pauli_map(rng)
        f, d, _ = diagonalize_conditions(ops, code)
        syn = build_syndromes(f, code, d)
        for s in syn:
            f_k = f.operators[s.term_index]
            assert np.abs(f_k @ b - np.sqrt(s.weight) * s.isometry).max() < 1e-8
            lhs = f_k @ code.projector
            assert np.abs(lhs - np.sqrt(s.weight) * s.isometry @ b.conj().T).max() < 1e-8
            assert np.abs(lhs - s.projector @ lhs).max() < 1e-8


def test_build_syndromes_identity_map():
    code = repetition_code()
    ops = SignedOperatorSum.from_terms([1], [I8])
    f, d, _ = diagonalize_conditions(ops, code)
    syn = build_syndromes(f, code, d)
    assert len(syn) == 1
    assert np.abs(syn[0].projector - code.projector).max() < 1e-12
    assert np.abs(syn[0].isometry - syn[0].code_isometry).max() < 1e-12


def test_build_syndromes_drops_annihilating_terms():
    proj01 = np.zeros((4, 4), dtype=complex)
    proj01[1, 1] = 1.0
    code = projector_from_basis([ket(0, 4), ket(3, 4)])
    ops = SignedOperatorSum.from_terms([1, -1], [np.eye(4), 0.5 * proj01])
    f, d, _ = diagonalize_conditions(ops, code)
    syn = build_syndromes(f, code, d)
    assert len(syn) == 1 and syn[0].sign == 1


def test_negative_part_on_code():
    rng = np.random.default_rng(149)
    assert negative_part_on_code(random_ops(rng, 3, 2, 0), random_code(rng, 3, 1)) == 0

    proj01 = np.zeros((4, 4), dtype=complex)
    proj01[1, 1] = 1.0
    code = projector_from_basis([ket(0, 4), ket(3, 4)])
    ops = SignedOperatorSum.from_terms([1, -1], [np.eye(4), 0.5 * proj01])
    assert negative_part_on_code(ops, code) < 1e-12

    got = negative_part_on_code(bitflip_ops(-0.2), repetition_code())
    assert abs(got - np.sqrt(0.4)) < 1e-12


def test_build_recovery_bitflip():
    ops = bitflip_ops(-0.2)
    code = repetition_code()
    f, d, _ = diagonalize_conditions(ops, code)
    rec = build_recovery(build_syndromes(f, code, d))
    assert rec.signs == (1, 1, 1, 1)
    rng = np.random.default_rng(151)
    p = code.projector
    for _ in range(10):
        rho = random_complex(rng, (8, 8))
        want = p @ rho @ p + sum(p @ x @ rho @ x @ p for x in (X1, X2, X3))
        assert np.abs(apply_map(rec, rho) - want).max() < 1e-9


def test_build_recovery_single_syndrome():
    code = repetition_code()
    p = code.projector
    b = np.column_stack(code.logical_basis)
    rec = build_recovery((Syndrome(b, b, 1.0, 1, 0),))
    rho = random_complex(np.random.default_rng(5), (8, 8))
    assert np.abs(apply_map(rec, rho) - p @ rho @ p).max() < 1e-12


def test_build_recovery_rejects_empty():
    with pytest.raises(ValueError):
        build_recovery(())


def test_recovery_proportionality_constant():
    """R(E1(P rho P)) = (sum of positive weights) * P rho P."""
    rng = np.random.default_rng(157)
    code = repetition_code()
    for _ in range(10):
        ops = conditioned_pauli_map(rng, require_negative=False)
        f, d, _ = diagonalize_conditions(ops, code)
        syn = build_syndromes(f, code, d)
        rec = build_recovery(syn)
        total = sum(s.weight for s in syn)
        for _ in range(5):
            rho = random_code_state(rng, code)
            out = apply_map(rec, apply_map(ops, rho))
            assert np.abs(out - total * rho).max() < 1e-8


def test_domain_witness_bitflip():
    ops = bitflip_ops(-0.2)
    code = repetition_code()
    f, d, _ = diagonalize_conditions(ops, code)
    syn = build_syndromes(f, code, d)
    w = domain_witness(ops, code, syn)
    assert w is not None
    assert abs(w.probability + 0.2) < 1e-10
    assert syn[w.syndrome_index].sign == -1
    assert np.abs(w.state - np.outer(ket(0, 8), ket(0, 8))).max() < 1e-12
    # mixtures in the code space carry the same negative outcome
    mix = 0.5 * np.outer(ket(0, 8), ket(0, 8)) + 0.5 * np.outer(ket(7, 8), ket(7, 8))
    pj = syn[w.syndrome_index].projector
    prob = np.trace(pj @ apply_map(ops, mix) @ pj).real
    assert abs(prob + 0.2) < 1e-10


def test_domain_witness_absent_when_negative_part_vanishes():
    proj01 = np.zeros((4, 4), dtype=complex)
    proj01[1, 1] = 1.0
    code = projector_from_basis([ket(0, 4), ket(3, 4)])
    ops = SignedOperatorSum.from_terms([1, -1], [np.eye(4), 0.5 * proj01])
    f, d, _ = diagonalize_conditions(ops, code)
    syn = build_syndromes(f, code, d)
    assert domain_witness(ops, code, syn) is None


def test_domain_witness_search_failure_on_doctored_syndromes():
    """A negative-sign syndrome that never sees negative weight must fail loudly."""
    ops = bitflip_ops(-0.2)
    code = repetition_code()
    f, d, _ = diagonalize_conditions(ops, code)
    syn = build_syndromes(f, code, d)
    wrong = tuple(
        Syndrome(syn[0].isometry, syn[0].code_isometry, s.weight, s.sign, s.term_index)
        if s.sign == -1
        else s
        for s in syn
    )
    with pytest.raises(WitnessSearchFailed):
        domain_witness(ops, code, wrong)


def test_analyze_bitflip_outside_domain():
    report = analyze(bitflip_ops(-0.2), repetition_code())
    assert report.verdict == Verdict.CODE_OUTSIDE_DOMAIN
    assert report.recovery is None
    assert abs(report.witness.probability + 0.2) < 1e-10
    assert report.condition.residual < 1e-10
    assert np.abs(np.array(report.diagonal) - [0.4, 0.4, 0.4, 0.2]).max() < 1e-9


def test_analyze_cp_bitflip_reversible():
    report = analyze(bitflip_ops(0.7), repetition_code())
    assert report.verdict == Verdict.REVERSIBLE_POSITIVE
    assert report.witness is None
    err = verify_recovery(bitflip_ops(0.7), report.recovery, repetition_code(), trials=20)
    assert err < 1e-9


def test_analyze_reversible_when_negative_term_misses_code():
    proj01 = np.zeros((4, 4), dtype=complex)
    proj01[1, 1] = 1.0
    code = projector_from_basis([ket(0, 4), ket(3, 4)])
    ops = SignedOperatorSum.from_terms([1, -1], [np.eye(4), 0.5 * proj01])
    report = analyze(ops, code)
    assert report.verdict == Verdict.REVERSIBLE_POSITIVE
    rng = np.random.default_rng(163)
    for _ in range(30):
        out = apply_map(ops, random_code_state(rng, code))
        assert np.linalg.eigvalsh(out).min() > -1e-9


def test_analyze_conditions_violated():
    ops = SignedOperatorSum.from_terms([1, 1], [I8, pauli_string("ZII")])
    report = analyze(ops, repetition_code())
    assert report.verdict == Verdict.CONDITIONS_VIOLATED
    assert report.witness is None and report.recovery is None
    assert report.condition.residual > 0.1


def test_witness_survives_a_matrix_reevaluation():
    """Witness probabilities survive re-evaluation through the A matrix."""
    rng = np.random.default_rng(167)
    code = repetition_code()
    for _ in range(15):
        ops = conditioned_pauli_map(rng)
        report = analyze(ops, code)
        assert report.verdict == Verdict.CODE_OUTSIDE_DOMAIN
        w = report.witness
        pj = report.syndromes[w.syndrome_index].projector
        a = a_from_operator_sum(ops)
        prob = np.trace(pj @ apply_a_matrix(a, w.state) @ pj).real
        assert abs(prob - w.probability) < 1e-10
        assert prob < -1e-6


def test_conditioned_cp_maps_recover_exactly():
    rng = np.random.default_rng(173)
    code = repetition_code()
    for _ in range(10):
        ops = conditioned_pauli_map(rng, require_negative=False)
        # rescale to make it trace preserving on the code
        total = sum(
            np.linalg.norm(op @ code.projector) ** 2 / code.rank for op in ops.operators
        )
        scaled = SignedOperatorSum.from_terms(
            ops.signs, [op / np.sqrt(total) for op in ops.operators]
        )
        report = analyze(scaled, code)
        assert report.verdict == Verdict.REVERSIBLE_POSITIVE
        assert verify_recovery(scaled, report.recovery, code, trials=20) < 1e-8
        for _ in range(20):
            out = apply_map(scaled, random_code_state(rng, code))
            assert np.linalg.eigvalsh(out).min() > -1e-8


def test_verify_recovery_ncp_bitflip():
    ops = bitflip_ops(-0.2)
    code = repetition_code()
    f, d, _ = diagonalize_conditions(ops, code)
    rec = build_recovery(build_syndromes(f, code, d))
    assert verify_recovery(ops, rec, code, trials=20) < 1e-9


def test_verify_recovery_matches_per_sample_apply_map():
    # Reference: each sample state B sigma B^dag through two apply_map calls,
    # one at a time.  Pairing a map with another map's recovery, or with a
    # map whose output leaves the code, gives O(1) deviations.
    rng = np.random.default_rng(163)
    code = repetition_code()
    r = code.rank
    coeffs = [np.eye(r)[i] for i in range(r)]
    coeffs += [np.eye(r)[i] + phase * np.eye(r)[j] for i in range(r) for j in range(i + 1, r) for phase in (1, 1j)]
    sample_rng = np.random.default_rng(_VERIFY_SEED)
    coeffs += [sample_rng.standard_normal(r) + 1j * sample_rng.standard_normal(r) for _ in range(7)]
    maps = [conditioned_pauli_map(rng, require_negative=False) for _ in range(6)]
    recoveries = []
    for ops in maps:
        f, d, _ = diagonalize_conditions(ops, code)
        recoveries.append(build_recovery(build_syndromes(f, code, d)))
    worst_seen = []
    for k, ops in enumerate(maps):
        for recovery in (recoveries[k], recoveries[k - 1], maps[k - 1]):
            worst = 0.0
            for c in coeffs:
                psi = sum(ci * bi for ci, bi in zip(c, code.logical_basis)) / np.linalg.norm(c)
                rho = np.outer(psi, psi.conj())
                out = apply_map(recovery, apply_map(ops, rho))
                worst = max(worst, np.abs(out / np.trace(out).real - rho).max())
            assert abs(verify_recovery(ops, recovery, code, trials=7) - worst) < 1e-12
            worst_seen.append(worst)
    assert max(worst_seen) > 0.1
    assert min(worst_seen) < 1e-12


def test_verify_recovery_zero_map():
    code = repetition_code()
    zero = SignedOperatorSum.from_terms([1], [np.zeros((8, 8))])
    with pytest.raises(ZeroTrace):
        verify_recovery(bitflip_ops(-0.2), zero, code)


def test_qec_report_consistency_enforced():
    report = analyze(bitflip_ops(-0.2), repetition_code())
    with pytest.raises(ValueError):
        QecReport(
            condition=report.condition,
            diagonalizer=report.diagonalizer,
            diagonal=report.diagonal,
            syndromes=report.syndromes,
            recovery=None,
            verdict=Verdict.REVERSIBLE_POSITIVE,
            witness=None,
        )
    with pytest.raises(ValueError):
        QecReport(
            condition=report.condition,
            diagonalizer=report.diagonalizer,
            diagonal=report.diagonal,
            syndromes=report.syndromes,
            recovery=None,
            verdict=Verdict.CODE_OUTSIDE_DOMAIN,
            witness=None,
        )


def test_negative_condition_block_never_reversible():
    rng = np.random.default_rng(179)
    code = repetition_code()
    for _ in range(20):
        ops = conditioned_pauli_map(rng)
        f, d, _ = diagonalize_conditions(ops, code)
        # diagonalized operators are unitary up to their weights
        for op in f.operators:
            prod = op.conj().T @ op
            assert np.abs(prod - prod[0, 0] * I8).max() < 1e-9
        report = analyze(ops, code)
        assert report.verdict != Verdict.REVERSIBLE_POSITIVE
        assert report.witness is not None
        assert report.witness.probability <= -1e-6


@pytest.mark.parametrize("scale", [1e-9, 3e-9, 1e-12, 1e-18])
def test_analyze_small_scale_keeps_orthogonal_syndromes(scale):
    # The polar cut must not depend on the map's scale: weights ~ scale^2
    # once fell below the absolute tolerance and merged the syndromes.
    ops = bitflip_ops(-0.2)
    small = SignedOperatorSum(ops.dim, ops.signs, tuple(scale * op for op in ops.operators))
    report = analyze(small, repetition_code())
    assert report.verdict == Verdict.CODE_OUTSIDE_DOMAIN
    assert len(report.syndromes) == 4
    assert report.witness.probability / scale**2 == pytest.approx(-0.2, rel=1e-9)


def test_projector_from_basis_matches_gram_schmidt():
    rng = np.random.default_rng(31)
    vecs = [rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(3)]
    basis = []
    for v in vecs:
        w = v - sum(b * np.vdot(b, v) for b in basis)
        basis.append(w / np.linalg.norm(w))
    code = projector_from_basis(vecs)
    for got, want in zip(code.logical_basis, basis):
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize(
    "vectors, index",
    [
        ([ket(0, 3), ket(1, 3), ket(0, 3) + 2 * ket(1, 3)], 2),
        ([ket(0, 3), np.zeros(3), ket(1, 3)], 1),
        ([ket(0, 2), ket(1, 2), ket(0, 2) + ket(1, 2)], 2),
    ],
)
def test_projector_from_basis_names_first_dependent_vector(vectors, index):
    with pytest.raises(LinearDependence, match=f"basis vector {index} "):
        projector_from_basis(vectors)


@pytest.mark.parametrize(
    "vectors, hint",
    [
        ([1.0], "vector 0 has shape"),
        ([np.eye(2)], "vector 0 has shape"),
        ([ket(0, 3), ket(0, 2)], "vector 1 has shape"),
        ([ket(0, 2), np.array([np.nan, 1.0])], "vector 1 contains non-finite"),
        ([np.array([np.inf, 0.0])], "vector 0 contains non-finite"),
    ],
)
def test_projector_from_basis_rejects_malformed_vectors(vectors, hint):
    with pytest.raises(ValueError, match=hint):
        projector_from_basis(vectors)
