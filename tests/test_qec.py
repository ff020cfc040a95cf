import random
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from ncpqec import (
    CodeSpace,
    ConditionsViolated,
    LinearDependence,
    QecReport,
    Recovery,
    Signature,
    SignedOperatorSum,
    Syndrome,
    SyndromeSet,
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
    repetition_bitflip,
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
    expected = [x @ p @ x for x in (X1, X2, X3)] + [p]
    for s, want in zip(syn, expected):
        assert s.isometry.shape == (8, 2)
        assert np.abs(s.isometry.conj().T @ s.isometry - np.eye(2)).max() < 1e-12
        assert np.abs(s.projector - want).max() < 1e-9
        assert np.abs(s.projector - s.isometry @ s.isometry.conj().T).max() == 0
    assert syn.recovery.code_isometry is code.isometry  # one B, the code's own
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
    b = code.isometry
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
    assert np.abs(syn[0].isometry - syn.recovery.code_isometry).max() < 1e-12


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
    b = code.isometry
    rec = build_recovery(SyndromeSet(Recovery(b, b[None]), [1.0], [1], [0]))
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


def test_recovery_is_factored():
    # analyze holds B and the syndromes' own W stack; the dense terms are B W_j^dag.
    ops, code = repetition_bitflip(4, 0.7)
    report = analyze(ops, code)
    rec = report.recovery
    assert type(rec) is Recovery
    assert rec.code_isometry is code.isometry
    assert rec.isometries.shape == (5, 16, 2) and not rec.isometries.flags.writeable
    assert all(np.shares_memory(rec.isometries, s.isometry) for s in report.syndromes)
    assert (rec.dim, rec.n_terms, rec.signs) == (16, 5, (1,) * 5)
    dense = rec.operators
    assert dense.shape == (5, 16, 16)
    for j, w in enumerate(rec.isometries):
        assert np.array_equal(dense[j], code.isometry @ w.conj().T)
    assert build_recovery(report.syndromes) is rec


@pytest.mark.parametrize(
    "b, w",
    [(np.eye(4)[:, :2], np.zeros((2, 4, 3))), (np.eye(4)[:, :2], np.zeros((4, 2))), (np.eye(4)[0], np.zeros((1, 4, 1)))],
)
def test_recovery_rejects_mismatched_shapes(b, w):
    with pytest.raises(ValueError, match="isometries"):
        Recovery(b, w)


def test_recovery_copies_a_read_only_view():
    # A read-only view of a writable array is copied, so later writes to
    # the caller's array leave the record unchanged.
    b = np.eye(4, dtype=complex)[:, :2]
    w = np.array([b, b[::-1]])
    view = w.view()
    view.setflags(write=False)
    rec = Recovery(b, view)
    w[0] = 0.0
    assert not np.shares_memory(rec.isometries, w)
    assert np.array_equal(rec.isometries, [b, b[::-1]])


def test_syndrome_set_is_one_record():
    ops, code = repetition_bitflip(3, 0.7)
    report = analyze(ops, code)
    syn = report.syndromes
    arrays = {"weights": syn.weights, "signs": syn.signs, "term_indices": syn.term_indices}
    for a, dtype in zip(arrays.values(), (float, int, int)):
        assert a.dtype == dtype and a.shape == (4,) and not a.flags.writeable
    assert len(syn) == 4 and set(syn.signs.tolist()) == {1}
    assert [s.term_index for s in syn] == syn.term_indices.tolist()
    last = syn[-1]
    assert type(last) is Syndrome and (last.weight, last.sign, last.term_index) == (syn.weights[3], 1, syn.term_indices[3])
    assert np.shares_memory(last.isometry, syn.isometries) and np.array_equal(last.isometry, syn.isometries[3])
    with pytest.raises(IndexError):
        syn[4]
    assert report.recovery is build_recovery(syn) is syn.recovery
    for name in arrays:
        with pytest.raises(ValueError, match=name):
            SyndromeSet(syn.recovery, **{**arrays, name: arrays[name][:3]})
    inverted = analyze(*repetition_bitflip(3, -0.2))
    with pytest.raises(ValueError, match="sign"):
        QecReport(report.condition, None, None, inverted.syndromes, Verdict.REVERSIBLE_POSITIVE, None)
    assert inverted.recovery is None and build_recovery(inverted.syndromes) is inverted.syndromes.recovery


@pytest.mark.parametrize("signs", [[2, 2, 2, 2], [1, 1, 0, 1], [1, 1, 1, 1.5]])
def test_syndrome_set_refuses_signs_other_than_one(signs):
    syn = analyze(*repetition_bitflip(3, 0.7)).syndromes
    with pytest.raises(ValueError, match="signs must be"):
        SyndromeSet(syn.recovery, syn.weights, signs, syn.term_indices)


@pytest.mark.parametrize("c0", [-0.2, 0.7])
def test_analyze_contracts_over_d_only_in_gemms(monkeypatch, c0):
    # No einsum on the analysis path takes an operand with a d = 64 axis:
    # the blocks, the canonical blocks and the overlaps are matmuls.
    ops, code = repetition_bitflip(6, c0)
    shapes = []
    einsum = np.einsum

    def spy(subscripts, *operands, **kwargs):
        shapes.extend(np.shape(x) for x in operands)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    report = analyze(ops, code)
    assert report.verdict is (Verdict.CODE_OUTSIDE_DOMAIN if c0 < 0 else Verdict.REVERSIBLE_POSITIVE)
    assert shapes and all(64 not in shape for shape in shapes)


def _dense(recovery):
    return SignedOperatorSum(recovery.dim, recovery.signs, recovery.operators)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("c0", [-0.2, 0.7])
def test_factored_and_dense_verification_agree(n, c0):
    ops, code = repetition_bitflip(n, c0)
    rec = build_recovery(analyze(ops, code).syndromes)
    factored = verify_recovery(ops, rec, code)
    assert factored < 1e-14
    assert abs(factored - verify_recovery(ops, _dense(rec), code)) < 1e-14


def _wrong_recoveries():
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


@pytest.mark.parametrize("name, recovery", list(_wrong_recoveries()))
def test_factored_verification_reads_a_wrong_recovery(name, recovery):
    ops, code = repetition_bitflip(3, 0.7)
    factored, dense = (verify_recovery(ops, r, code) for r in (recovery, _dense(recovery)))
    assert factored > 1e-4 and dense > 1e-4
    assert abs(factored - dense) < 1e-14


def test_verify_recovery_gates_the_trace_against_the_unsigned_trace():
    # A recovered trace that cancels to rounding is undecidable at any
    # scale; a small but uncancelled one is decided.
    ops, code = repetition_bitflip(3, 0.7)
    rec = analyze(ops, code).recovery
    for scale in (1e-6, 1e-150):
        small = SignedOperatorSum(8, ops.signs, scale * ops.operators)
        assert verify_recovery(small, rec, code) < 1e-14
        assert verify_recovery(small, _dense(rec), code) < 1e-14
    canceling = SignedOperatorSum.from_terms([1, -1], [I8, I8 * (1 - 1e-12)])
    for recovery in (rec, _dense(rec)):
        with pytest.raises(ZeroTrace, match="unsigned trace"):
            verify_recovery(canceling, recovery, code)


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
    w = np.array(syn.isometries)
    w[syn.signs == -1] = syn.isometries[0]
    wrong = SyndromeSet(Recovery(syn.recovery.code_isometry, w), syn.weights, syn.signs, syn.term_indices)
    with pytest.raises(WitnessSearchFailed):
        domain_witness(ops, code, wrong)


def test_domain_witness_probability_matches_apply_map():
    # Reference: the witness state v v^dag through apply_map, seen by W_j.
    rng = np.random.default_rng(181)
    code = repetition_code()
    for _ in range(15):
        ops = conditioned_pauli_map(rng)
        f, d, _ = diagonalize_conditions(ops, code)
        syn = build_syndromes(f, code, d)
        w = domain_witness(ops, code, syn)
        rho = np.outer(w.vector, w.vector.conj())
        wj = syn[w.syndrome_index].isometry
        assert abs(w.probability - np.trace(wj.conj().T @ apply_map(ops, rho) @ wj).real) < 1e-12
        assert np.abs(w.vector - code.isometry[:, 0]).max() == 0
        assert np.abs(w.state - rho).max() == 0


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


def _per_sample_deviations(ops, recovery, code, trials):
    """Largest Frobenius and max-abs entry of ``out / tr(out) - rho`` over the samples.

    Each sample state ``B sigma B^dag`` goes through two ``apply_map``
    calls, one at a time, as a full ``d x d`` matrix.
    """
    r = code.rank
    coeffs = [np.eye(r)[i] for i in range(r)]
    coeffs += [np.eye(r)[i] + phase * np.eye(r)[j] for i in range(r) for j in range(i + 1, r) for phase in (1, 1j)]
    sample_rng = random.Random(_VERIFY_SEED)  # real, then imaginary part of each entry
    for _ in range(trials):
        coeffs.append(np.array([sample_rng.gauss(0.0, 1.0) + 1j * sample_rng.gauss(0.0, 1.0) for _ in range(r)]))
    frobenius = max_abs = 0.0
    for c in coeffs:
        psi = code.isometry @ c / np.linalg.norm(c)
        rho = np.outer(psi, psi.conj())
        out = apply_map(recovery, apply_map(ops, rho))
        x = out / np.trace(out).real - rho
        frobenius = max(frobenius, np.linalg.norm(x))
        max_abs = max(max_abs, np.abs(x).max())
    return frobenius, max_abs


def test_verify_recovery_matches_per_sample_apply_map():
    # Pairing a map with another map's recovery, or with a map whose
    # output leaves the code, gives O(1) deviations.
    rng = np.random.default_rng(163)
    code = repetition_code()
    maps = [conditioned_pauli_map(rng, require_negative=False) for _ in range(6)]
    recoveries = []
    for ops in maps:
        f, d, _ = diagonalize_conditions(ops, code)
        recoveries.append(build_recovery(build_syndromes(f, code, d)))
    worst_seen = []
    for k, ops in enumerate(maps):
        for recovery in (recoveries[k], recoveries[k - 1], maps[k - 1]):
            frobenius, max_abs = _per_sample_deviations(ops, recovery, code, trials=7)
            got = verify_recovery(ops, recovery, code, trials=7)
            assert abs(got - frobenius) < 1e-12
            assert got >= max_abs - 1e-12  # at least the largest entry, up to the references' roundoff
            worst_seen.append(frobenius)
    assert max(worst_seen) > 0.1
    assert min(worst_seen) < 1e-12


@pytest.mark.parametrize("rank", [1, 3])
def test_verify_recovery_matches_per_sample_apply_map_at_other_ranks(rank):
    # d = 4 with 2 map terms and 3 recovery terms: at r = 3 the span A is
    # 4 x (1 + 6) 3 = 4 x 21, wider than d, so its QR is rank deficient.
    rng = np.random.default_rng(41 + rank)
    code = projector_from_basis(list(random_complex(rng, (rank, 4))))
    ops = SignedOperatorSum.from_terms([1, -1], [random_complex(rng, (4, 4)), 0.3 * random_complex(rng, (4, 4))])
    recovery = SignedOperatorSum.from_terms([1, 1, 1], list(random_complex(rng, (3, 4, 4))))
    frobenius, max_abs = _per_sample_deviations(ops, recovery, code, trials=7)
    got = verify_recovery(ops, recovery, code, trials=7)
    assert abs(got - frobenius) < 1e-12
    assert got >= max_abs - 1e-12
    assert frobenius > 0.1


def test_verify_recovery_counts_leakage_off_the_code():
    # A unitary recovery that rotates |000> partly onto |001>, outside the
    # code: the recovered states keep unit trace but leave span{|000>, |111>}.
    code = repetition_code()
    theta = 0.3
    rotation = I8.copy()
    rotation[np.ix_([0, 1], [0, 1])] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    ops = SignedOperatorSum.from_terms([1], [I8])
    leaky = SignedOperatorSum.from_terms([1], [rotation])
    frobenius, _ = _per_sample_deviations(ops, leaky, code, trials=20)
    got = verify_recovery(ops, leaky, code, trials=20)
    assert abs(got - frobenius) < 1e-12
    assert got > 0.1


def test_verify_recovery_zero_map():
    code = repetition_code()
    zero = SignedOperatorSum.from_terms([1], [np.zeros((8, 8))])
    with pytest.raises(ZeroTrace):
        verify_recovery(bitflip_ops(-0.2), zero, code)


def _qr_shapes(monkeypatch):
    """Shapes of the matrices passed to ``np.linalg.qr`` from now on; any ``np.linalg.svd`` call fails."""
    shapes = []
    qr = np.linalg.qr

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return qr(a, *args, **kwargs)

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "qr", spy)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    return shapes


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_verify_recovery_of_the_repetition_code_matches_per_sample_apply_map(n):
    # Syndrome j of the repetition code annihilates every bit flip but its
    # own, so all blocks R_j E_k B with j != k are zero and stay out of the
    # QR.
    ops, code = repetition_bitflip(n, 0.7)
    recovery = analyze(ops, code).recovery
    frobenius, max_abs = _per_sample_deviations(ops, recovery, code, trials=20)
    got = verify_recovery(ops, recovery, code, trials=20)
    assert abs(got - frobenius) < 1e-12
    assert got >= max_abs - 1e-12


@pytest.mark.parametrize("scale", [1e-9, 1e-4])
def test_verify_recovery_keeps_small_nonzero_blocks(monkeypatch, scale):
    # An extra recovery term adds four small blocks R E_k B to the four
    # nonzero ones. Only exact zeros leave the QR, so these stay however
    # small, and the result still matches the per-sample reference.
    ops, code = repetition_bitflip(3, 0.7)
    recovery = analyze(ops, code).recovery
    noise = scale * random_complex(np.random.default_rng(29), (8, 8))
    noisy = SignedOperatorSum.from_terms((1,) * 5, [*recovery.operators, noise])
    frobenius, max_abs = _per_sample_deviations(ops, noisy, code, trials=20)
    shapes = _qr_shapes(monkeypatch)
    got = verify_recovery(ops, noisy, code, trials=20)
    assert shapes == [(8, (1 + 8) * 2)]
    assert abs(got - frobenius) < 1e-12
    assert got >= max_abs - 1e-12


def test_verify_recovery_leaves_null_blocks_out_of_the_svd(monkeypatch):
    # n = 6: K = 7 map terms and J = 7 recovery terms give 49 blocks, of
    # which the 7 with j = k are nonzero, so A is 64 x (1 + 7) r, not
    # 64 x (1 + 49) r. The dense form of the recovery takes this path.
    ops, code = repetition_bitflip(6, 0.7)
    rec = analyze(ops, code).recovery
    recovery = SignedOperatorSum(64, rec.signs, rec.operators)
    shapes = _qr_shapes(monkeypatch)
    verify_recovery(ops, recovery, code)
    assert shapes == [(64, (1 + 7) * 2)]


@pytest.mark.parametrize("exponent", [4, 8, 10, 12, 20, 60])
def test_verify_recovery_of_a_scaled_perfect_recovery(exponent):
    # t scales as 10^(2 e) and every M_jk as 10^e beside B; the QR keeps
    # B's columns accurate, so no scale reads as a deviation.
    ops, code = repetition_bitflip(3, 0.7)
    recovery = analyze(ops, code).recovery
    scaled = SignedOperatorSum(8, recovery.signs, 10.0**exponent * recovery.operators)
    assert verify_recovery(ops, scaled, code) < 1e-14


@pytest.mark.parametrize("trials", [2.5, -3, True, "20", None])
def test_verify_recovery_rejects_malformed_trials(trials):
    ops, code = bitflip_ops(0.7), repetition_code()
    recovery = analyze(ops, code).recovery
    with pytest.raises(ValueError, match="trials"):
        verify_recovery(ops, recovery, code, trials=trials)


def test_verify_recovery_accepts_integral_trials():
    ops, code = bitflip_ops(0.7), repetition_code()
    recovery = analyze(ops, code).recovery
    assert verify_recovery(ops, recovery, code, trials=np.int64(3)) == verify_recovery(ops, recovery, code, trials=3)
    assert verify_recovery(ops, recovery, code, trials=0) < 1e-9


def test_qec_report_consistency_enforced():
    report = analyze(bitflip_ops(-0.2), repetition_code())
    # A negative syndrome is never reversible.
    with pytest.raises(ValueError, match="sign"):
        QecReport(
            condition=report.condition,
            diagonalizer=report.diagonalizer,
            diagonal=report.diagonal,
            syndromes=report.syndromes,
            verdict=Verdict.REVERSIBLE_POSITIVE,
            witness=None,
        )
    with pytest.raises(ValueError):
        QecReport(
            condition=report.condition,
            diagonalizer=report.diagonalizer,
            diagonal=report.diagonal,
            syndromes=report.syndromes,
            verdict=Verdict.CODE_OUTSIDE_DOMAIN,
            witness=None,
        )
    # The recovery is read from the syndromes, so it needs them.
    cp = analyze(bitflip_ops(0.7), repetition_code())
    with pytest.raises(ValueError, match="syndromes"):
        QecReport(cp.condition, cp.diagonalizer, cp.diagonal, None, Verdict.REVERSIBLE_POSITIVE, None)
    for verdict in (Verdict.REVERSIBLE_POSITIVE, Verdict.CONDITIONS_VIOLATED):
        with pytest.raises(ValueError, match="witness"):
            QecReport(cp.condition, cp.diagonalizer, cp.diagonal, cp.syndromes, verdict, report.witness)


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


@pytest.mark.parametrize(
    "c0, probability",
    [(-1e308, -1e308), (1e308, -3.333333333333333e307), (-1.7e308, -1.7e308), (1.7e308, -1.7e308 / 3)],
)
def test_analyze_near_float_max_decides_outside_domain(c0, probability):
    # The r x r block traces must be divided by r before they are summed:
    # two entries near 1e308 sum to inf, and the NaN that follows gives
    # conditions_violated (pytest turns the RuntimeWarning into an error).
    # At 1.7e308 the canonical eigenvalues have opposite signs and their
    # difference overflows, so eigenvalue clustering must not subtract them.
    report = analyze(*repetition_bitflip(3, c0))
    assert report.verdict == Verdict.CODE_OUTSIDE_DOMAIN
    assert report.witness.probability == pytest.approx(probability, rel=1e-12)


def test_projector_from_basis_matches_gram_schmidt():
    rng = np.random.default_rng(31)
    vecs = [rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(3)]
    basis = []
    for v in vecs:
        w = v - sum(b * np.vdot(b, v) for b in basis)
        basis.append(w / np.linalg.norm(w))
    code = projector_from_basis(vecs)
    for got, want in zip(code.isometry.T, basis):
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


def test_code_space_holds_one_isometry():
    code = repetition_code()
    assert [f.name for f in fields(CodeSpace)] == ["isometry"]
    assert (code.dim, code.rank) == (8, 2)
    assert not code.isometry.flags.writeable
    assert np.abs(code.projector - code.isometry @ code.isometry.conj().T).max() == 0


B3 = np.eye(8)[:, [0, 7]]  # the 3-qubit repetition code


@pytest.mark.parametrize(
    "isometry, hint",
    [
        (np.array([1.0, 0.0]), "shape"),
        (np.ones((2, 3)) / np.sqrt(2), "shape"),
        (np.zeros((3, 0)), "shape"),
        (np.array([[np.nan], [0.0]]), "non-finite"),
        (np.array([[0.5], [0.5]]), "non-orthonormal"),
        (np.array([[1.0, 0.0], [0.0, 0.5]]), "non-orthonormal"),
        (np.column_stack([B3[:, 0], (B3[:, 0] + B3[:, 1]) / np.sqrt(2)]), "non-orthonormal"),
        (2 * B3, "non-orthonormal"),
        (1.001 * B3, "non-orthonormal"),
    ],
)
def test_code_space_rejects_malformed_isometry(isometry, hint):
    with pytest.raises(ValueError, match=hint):
        CodeSpace(isometry)


@pytest.mark.parametrize("n", [1, 3, 4])
@pytest.mark.parametrize("c0", [-0.2, 0.7])
def test_repetition_bitflip_matches_pauli_strings(n, c0):
    ops, code = repetition_bitflip(n, c0)
    c1 = (1 - c0) / n
    flips = [(1, np.sqrt(c1) * pauli_string("I" * k + "X" + "I" * (n - k - 1))) for k in range(n)]
    identity = (1 if c0 > 0 else -1, np.sqrt(abs(c0)) * np.eye(2**n))
    want = flips + [identity]  # c1 > 0 here, so the flips lead in either case
    assert ops.signs == tuple(s for s, _ in want)
    for got, (_, op) in zip(ops.operators, want):
        assert np.abs(got - op).max() == 0
    assert np.abs(code.isometry - np.eye(2**n)[:, [0, -1]]).max() == 0


def test_repetition_bitflip_rejects_no_qubits():
    with pytest.raises(ValueError, match="qubit"):
        repetition_bitflip(0, -0.2)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_analyze_rejects_invalid_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        analyze(bitflip_ops(-0.2), repetition_code(), tol)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
@pytest.mark.parametrize("stage", ["diagonalize_conditions", "build_syndromes", "domain_witness", "verify_recovery"])
def test_stages_reject_invalid_tolerance(stage, tol):
    # A NaN tolerance fails every comparison, so an unchecked stage returns a
    # witness of positive probability for the CP map, no canonical terms, no
    # syndromes, or nan for a zero recovery instead of raising ZeroTrace.
    code, inv, cp = repetition_code(), bitflip_ops(-0.2), bitflip_ops(0.7)
    f, d, _ = diagonalize_conditions(cp, code)
    zero = SignedOperatorSum.from_terms([1], [np.zeros((8, 8))])
    calls = {
        "diagonalize_conditions": lambda: diagonalize_conditions(cp, code, tol=tol),
        "build_syndromes": lambda: build_syndromes(f, code, d, tol=tol),
        "domain_witness": lambda: domain_witness(cp, code, analyze(inv, code).syndromes, tol=tol),
        "verify_recovery": lambda: verify_recovery(cp, zero, code, tol=tol),
    }
    with pytest.raises(ValueError, match="tolerance"):
        calls[stage]()


@pytest.mark.parametrize("c0, bound", [(-0.2, 0.1), (0.7, 2.5)])
def test_analyze_peak_memory_scales_with_the_code(c0, bound):
    # analyze reads the map only through V = E B (n x d x r), so its peak
    # allocation is far below the map's own n x d x d terms.
    ops, code = repetition_bitflip(8, c0)
    analyze(ops, code)  # first-call set-up stays out of the measurement
    tracemalloc.start()
    try:
        analyze(ops, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * ops.operators.nbytes


def test_analyze_builds_no_dense_recovery():
    # The CP map's recovery is factored, B and the W_j, so no d x d array
    # is formed on the reversible verdict either.
    ops, code = repetition_bitflip(8, 0.7)
    analyze(ops, code)  # first-call set-up stays out of the measurement
    tracemalloc.start()
    try:
        report = analyze(ops, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict is Verdict.REVERSIBLE_POSITIVE
    assert peak <= 0.05 * ops.operators.nbytes


def test_verify_recovery_peak_memory_holds_no_d_by_d_state():
    # The deviation is taken on the coordinates of the d x r terms
    # R_j E_k B, so no (samples, d, d) stack is formed: the peak
    # allocation (0.024x at n = 8 for the factored recovery) stays below the
    # map's own n x d x d terms.
    ops, code = repetition_bitflip(8, 0.7)
    recovery = analyze(ops, code).recovery
    verify_recovery(ops, recovery, code)  # first-call set-up stays out of the measurement
    tracemalloc.start()
    try:
        verify_recovery(ops, recovery, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.4 * ops.operators.nbytes
