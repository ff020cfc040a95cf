import json
import tracemalloc
import warnings
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest

from ncpqec import (
    BMatrix,
    CodeSpace,
    CodeTerms,
    LinearDependence,
    NotHermitian,
    OrthogonalityViolation,
    QecReport,
    Recovery,
    Signature,
    SignedEnsemble,
    SignedOperatorSum,
    Verdict,
    WitnessSearchFailed,
    ZeroTrace,
    a_from_operator_sum,
    analyze,
    apply_map,
    b_from_operator_sum,
    build_recovery,
    check_trace_preserving,
    classify,
    connecting_pseudounitary,
    cp_condition_matrix,
    ensemble_connection,
    eta_metric,
    is_pseudohermitian,
    is_pseudounitary,
    maps_equal,
    negative_part_on_code,
    on_code,
    operator_sum_from_b,
    projector_from_basis,
    pseudo_diagonalize,
    pseudo_gram_schmidt,
    repetition_bitflip,
    to_base_map,
    transform_by_pseudounitary,
    verify_recovery,
)
from ncpqec.documents import analysis_document, encode_vector, parse_code_document
from ncpqec.pseudolinalg import DEFAULT_TOL
from ncpqec import qec
from ncpqec.qec import NegativityWitness, Syndrome, _witness

from helpers import (
    apply_a_matrix,
    bitflip_ops,
    conditioned_pauli_map,
    dense_deviation,
    dynamical_on_code,
    ket,
    memory_owner,
    pauli_string,
    ph_conditions,
    polar_on_code,
    random_code,
    random_code_state,
    random_complex,
    random_ops,
    random_pu,
    random_unitary,
    repetition_code,
    sample_deviations,
    wrong_recoveries,
)

X1, X2, X3 = (pauli_string(s) for s in ("XII", "IXI", "IIX"))
I8 = np.eye(8, dtype=complex)


def _canonical_operators(ops, report):
    """The canonical terms ``F = E T`` of a report, which :func:`analyze` never forms."""
    return np.tensordot(report.diagonalizer, ops.operators, axes=([0], [0]))


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
    assert [f.name for f in fields(cond)] == ["entries", "residual"]


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
    ops, code = bitflip_ops(-0.2), repetition_code()
    want = np.diag([0.4, 0.4, 0.4, -0.2])
    assert np.abs(ph_conditions(ops, code) - want).max() < 1e-12
    report = analyze(ops, code)  # already diagonal, so T = I
    values = report.values  # the canonical conditions diag(values), held once
    assert report.residual < 1e-12
    assert values.dtype == float and values.shape == (4,) and not values.flags.writeable
    assert np.array_equal(report.diagonal, np.abs(values)) and np.sign(values).tolist() == [1, 1, 1, -1]
    assert np.abs(np.diag(values) - want).max() < 1e-12


def test_ph_condition_entries_pseudohermitian():
    rng = np.random.default_rng(127)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        code = random_code(rng, d, int(rng.integers(1, d)))
        p = int(rng.integers(1, 3))
        q = int(rng.integers(1, 3))
        ops = random_ops(rng, d, p, q)
        eta = eta_metric(Signature(p, q))
        prod = eta @ ph_conditions(ops, code)
        assert np.abs(prod - prod.conj().T).max() < 1e-10


def test_diagonalize_conditions_bitflip():
    ops = bitflip_ops(-0.2)
    report = analyze(ops, repetition_code())
    # already-diagonal conditions: T = I, so F = E
    assert np.abs(report.diagonalizer - np.eye(4)).max() < 1e-12
    assert np.abs(report.diagonal - [0.4, 0.4, 0.4, 0.2]).max() < 1e-12
    assert np.abs(_canonical_operators(ops, report) - ops.operators).max() < 1e-12


def test_canonical_terms_rotated_cp():
    """A unitary mixing of {I, X1} errors is undone by the diagonalizer."""
    rng = np.random.default_rng(131)
    code = repetition_code()
    base = SignedOperatorSum.from_terms([1, 1], [np.sqrt(0.8) * I8, np.sqrt(0.2) * X1])
    from ncpqec import transform_by_pseudounitary

    mixed = transform_by_pseudounitary(base, random_unitary(rng, 2))
    assert np.abs(ph_conditions(mixed, code) - np.diag([0.8, 0.2])).max() > 1e-3  # really non-diagonal
    report = analyze(mixed, code)
    f, d = _canonical_operators(mixed, report), report.diagonal
    assert np.abs(np.sort(d) - [0.2, 0.8]).max() < 1e-9
    p = code.projector
    for i, op_i in enumerate(f):
        for j, op_j in enumerate(f):
            block = p @ op_i.conj().T @ op_j @ p
            want = d[i] * p if i == j else 0 * p
            assert np.abs(block - want).max() < 1e-8


def test_canonical_terms_single_term():
    code = projector_from_basis([ket(0, 2), ket(1, 2)])
    ops = SignedOperatorSum.from_terms([1], [np.array([[0.0, 2], [2, 0]])])
    report = analyze(ops, code)  # trace 4, so the conditions hold but the verdict is violated
    assert report.verdict == Verdict.CONDITIONS_VIOLATED
    assert report.diagonalizer.shape == (1, 1)
    assert np.abs(report.diagonal - [4.0]).max() < 1e-12


def test_diagonalize_conditions_rejects_violation():
    ops = SignedOperatorSum.from_terms([1, 1], [I8, pauli_string("ZII")])
    report = analyze(ops, repetition_code())
    assert report.verdict == Verdict.CONDITIONS_VIOLATED
    assert report.diagonalizer is None and report.diagonal is None and report.syndromes is None


def test_diagonal_conditions_property_random():
    rng = np.random.default_rng(137)
    code = repetition_code()
    p = code.projector
    for _ in range(25):
        ops = conditioned_pauli_map(rng)
        report = analyze(ops, code)
        f, d = _canonical_operators(ops, report), report.diagonal
        for i, op_i in enumerate(f):
            for j, op_j in enumerate(f):
                block = p @ op_i.conj().T @ op_j @ p
                want = d[i] * p if i == j else 0 * p
                assert np.abs(block - want).max() < 1e-8
        assert all(x >= 0 for x in d)


def test_syndromes_bitflip():
    code = repetition_code()
    report = analyze(bitflip_ops(-0.2), code)
    syn = report.syndromes
    assert len(syn) == 4
    p = code.projector
    expected = [x @ p @ x for x in (X1, X2, X3)] + [p]
    for s, want in zip(syn, expected):
        assert s.isometry.shape == (8, 2)
        assert np.abs(s.isometry.conj().T @ s.isometry - np.eye(2)).max() < 1e-12
        assert np.abs(s.projector - want).max() < 1e-9
        assert np.abs(s.projector - s.isometry @ s.isometry.conj().T).max() == 0
    assert syn.code_isometry is code.isometry  # one B, the code's own
    assert np.sign(report.values).tolist() == [1, 1, 1, -1]  # each syndrome's sign and weight, from the values
    assert np.abs(report.diagonal - [0.4, 0.4, 0.4, 0.2]).max() < 1e-9
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
        report = analyze(ops, code)
        f, syn = _canonical_operators(ops, report), report.syndromes
        assert len(f) == len(syn)
        for f_k, s, d_k in zip(f, syn, report.diagonal):
            assert np.abs(f_k @ b - np.sqrt(d_k) * s.isometry).max() < 1e-8
            lhs = f_k @ code.projector
            assert np.abs(lhs - np.sqrt(d_k) * s.isometry @ b.conj().T).max() < 1e-8
            assert np.abs(lhs - s.projector @ lhs).max() < 1e-8


def test_syndromes_identity_map():
    code = repetition_code()
    syn = analyze(SignedOperatorSum.from_terms([1], [I8]), code).syndromes
    assert len(syn) == 1
    assert np.abs(syn[0].projector - code.projector).max() < 1e-12
    assert np.abs(syn[0].isometry - syn.code_isometry).max() < 1e-12


def _negative_term_misses_code():
    proj01 = np.zeros((4, 4), dtype=complex)
    proj01[1, 1] = 1.0
    code = projector_from_basis([ket(0, 4), ket(3, 4)])
    return SignedOperatorSum.from_terms([1, -1], [np.eye(4), 0.5 * proj01]), code


def test_build_syndromes_drops_annihilating_terms():
    report = analyze(*_negative_term_misses_code())
    assert len(report.syndromes) == 1 and report.values[0] > 0


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


def test_negative_part_on_code_reads_the_canonical_terms():
    # The pair (+0.3 XII, -0.3 XII) cancels: the map, and so the value, is
    # that of bitflip_ops(0.7), whose canonical terms are all positive.
    ops, code = bitflip_ops(0.7), repetition_code()
    pair = SignedOperatorSum.from_terms([1] * 5 + [-1], [*ops.operators, 0.3 * X1, 0.3 * X1])
    assert negative_part_on_code(ops, code) == negative_part_on_code(pair, code) == 0.0
    # A negative term split in two gives the one canonical term's norm.
    inv = bitflip_ops(-0.2)
    half = inv.operators[3] / np.sqrt(2)
    split = SignedOperatorSum.from_terms((1,) * 3 + (-1,) * 2, [*inv.operators[:3], half, half])
    assert negative_part_on_code(split, code) == pytest.approx(np.sqrt(0.4), rel=1e-12)


def test_build_recovery_bitflip():
    ops = bitflip_ops(-0.2)
    code = repetition_code()
    rec = build_recovery(analyze(ops, code).syndromes)
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
    rec = build_recovery(Recovery(b, b[None]))
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
        report = analyze(ops, code)
        rec = build_recovery(report.syndromes)
        total = report.diagonal.sum()
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
    assert rec is report.syndromes and rec.code_isometry is code.isometry
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


@pytest.mark.parametrize("field", ["code_isometry", "isometries"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_recovery_refuses_non_finite_entries(field, bad):
    # As CodeSpace and CodeTerms do: a NaN would otherwise reach
    # verify_recovery's eigensolver.
    b = np.eye(4, dtype=complex)[:, :2]
    arrays = {"code_isometry": b, "isometries": np.array([b, b[::-1]])}
    arrays[field][(0,) * arrays[field].ndim] = bad
    with pytest.raises(ValueError, match="non-finite"):
        Recovery(**arrays)


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
    # The syndromes are the report's Recovery: B and the W stack, indexed as
    # Syndrome views; their weights and signs are those of the report's values.
    ops, code = repetition_bitflip(3, 0.7)
    report = analyze(ops, code)
    syn = report.syndromes
    assert type(syn) is Recovery and len(syn) == 4
    assert report.diagonalizer.shape == (4, 4)  # syndrome k is term k
    last = syn[-1]
    assert type(last) is Syndrome
    assert np.shares_memory(last.isometry, syn.isometries) and np.array_equal(last.isometry, syn.isometries[3])
    with pytest.raises(IndexError):
        syn[4]
    assert report.recovery is build_recovery(syn) is syn
    for wrong in (report.values[:3], report.values[:, None]):
        with pytest.raises(ValueError, match="values|signs"):
            QecReport(wrong, 0.0, report.diagonalizer, syn, Verdict.REVERSIBLE_POSITIVE, None)
    inverted = analyze(*repetition_bitflip(3, -0.2))
    with pytest.raises(ValueError, match="sign"):
        QecReport(inverted.values, 0.0, inverted.diagonalizer, inverted.syndromes, Verdict.REVERSIBLE_POSITIVE, None)
    assert inverted.recovery is None and build_recovery(inverted.syndromes) is inverted.syndromes


_VALUE_RULES = r"values must be a non-empty list of finite numbers|signs must be \+1 or -1|must precede negative-sign"


@pytest.mark.parametrize("bad", [0.0, -0.25, np.inf, np.nan, True, 10**400, 0.4j])
def test_syndrome_set_refuses_weights_that_are_not_positive_and_finite(bad):
    # A syndrome's weight is |values[k]|: the report refuses a zero value, a
    # -1 sign ahead of a +1 one, and a value that is not a finite real
    # number (a bool, an int beyond the float range and a complex number
    # included), with ValueError.
    report = analyze(*repetition_bitflip(3, 0.7))
    values = report.values.tolist()
    values[2] = bad
    with pytest.raises(ValueError, match=_VALUE_RULES):
        QecReport(values, 0.0, report.diagonalizer, report.syndromes, Verdict.REVERSIBLE_POSITIVE, None)


_KILL = np.diag([0.0, 1, 1, 1, 1, 1, 1, 0]).astype(complex)  # sends |000> and |111> to zero


@pytest.mark.parametrize(
    "ops, verdict",
    [
        (bitflip_ops(-0.2), Verdict.CODE_OUTSIDE_DOMAIN),
        (bitflip_ops(0.7), Verdict.REVERSIBLE_POSITIVE),
        (SignedOperatorSum.from_terms([1, 1], [I8, pauli_string("ZII")]), Verdict.CONDITIONS_VIOLATED),
        (SignedOperatorSum.from_terms([1, -1], [_KILL, 0.5 * _KILL]), Verdict.CONDITIONS_VIOLATED),
    ],
    ids=["outside_domain", "reversible", "violated", "annihilating"],
)
def test_report_holds_the_canonical_spectrum_once(ops, verdict):
    # values is the one copy of sign_k d_k: no other field holds the
    # spectrum, d reads |values|, and a map that annihilates the code keeps
    # the one value 0.0.
    report = analyze(ops, repetition_code())
    assert report.verdict is verdict
    assert [f.name for f in fields(report)] == ["values", "residual", "diagonalizer", "syndromes", "verdict", "witness"]
    values = report.values
    assert values.dtype == float and values.ndim == 1 and not values.flags.writeable
    if report.syndromes is None:
        assert report.diagonal is None and report.recovery is None
    else:
        assert len(report.syndromes) == values.size and np.array_equal(report.diagonal, np.abs(values))
    if np.array_equal(ops.operators[0], _KILL):
        assert values.tolist() == [0.0] and report.residual == 0.0


def test_syndrome_holds_its_isometry_frozen():
    # A view of the recovery's stack lies over bytes and is kept as it is; a
    # caller's writeable array is copied, so later writes leave the record.
    syn = analyze(*repetition_bitflip(3, 0.7)).syndromes
    assert np.shares_memory(syn[1].isometry, syn.isometries)
    w = np.array(syn.isometries[1])
    held = Syndrome(w).isometry
    w[0, 0] = np.nan
    assert np.array_equal(held, syn.isometries[1])
    with pytest.raises(ValueError):
        held.setflags(write=True)


@pytest.mark.parametrize("c0", [-0.2, 0.7])
def test_analyze_contracts_over_d_only_in_gemms(monkeypatch, c0):
    # No einsum on the analysis path takes an operand with a d = 64 axis:
    # the blocks, the canonical blocks, the H_k and the overlaps are matmuls.
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


@pytest.mark.parametrize("name, recovery", list(wrong_recoveries()))
def test_factored_verification_reads_a_wrong_recovery(name, recovery):
    ops, code = repetition_bitflip(3, 0.7)
    factored, dense = (verify_recovery(ops, r, code) for r in (recovery, _dense(recovery)))
    assert factored > 1e-4 and dense > 1e-4
    assert abs(factored - dense) < 1e-14
    assert abs(factored - dense_deviation(ops, recovery, code)) < 1e-12
    assert factored >= sample_deviations(ops, recovery, code).max() - 1e-12


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
    report = analyze(ops, repetition_code())
    w, syn = report.witness, report.syndromes
    assert w is not None
    assert abs(w.probability + 0.2) < 1e-10
    assert report.values[w.syndrome_index] < 0
    assert np.abs(w.state - np.outer(ket(0, 8), ket(0, 8))).max() < 1e-12
    # mixtures in the code space carry the same negative outcome
    mix = 0.5 * np.outer(ket(0, 8), ket(0, 8)) + 0.5 * np.outer(ket(7, 8), ket(7, 8))
    pj = syn[w.syndrome_index].projector
    prob = np.trace(pj @ apply_map(ops, mix) @ pj).real
    assert abs(prob + 0.2) < 1e-10


def test_domain_witness_absent_when_negative_part_vanishes():
    assert analyze(*_negative_term_misses_code()).witness is None


def test_witness_search_failure_on_doctored_syndromes():
    """A negative-sign syndrome that never sees negative weight must fail loudly.

    ``analyze`` cannot reach this with honest input, so the witness stage
    gets the doctored set directly.
    """
    ops = bitflip_ops(-0.2)
    code = repetition_code()
    report = analyze(ops, code)
    w = np.array(report.syndromes.isometries)
    w[report.values < 0] = w[0]
    b0 = code.isometry[:, 0]
    with pytest.raises(WitnessSearchFailed):
        _witness(ops.signs, ops.operators @ b0, b0, report.values, w, DEFAULT_TOL)


def _syndrome_products():
    """The products ``F_k B`` of the inverted 3-qubit map (every term kept) and their weights ``d_k``."""
    ops, code = repetition_bitflip(3, -0.2)
    signs, v = qec._on_code(ops, code, DEFAULT_TOL)
    values, t, _, _ = qec._canonical_terms(signs, qec._blocks(v), DEFAULT_TOL)
    return np.tensordot(t, v, axes=([0], [0])), np.abs(values)


def _doctored_syndromes(products):
    """``_syndromes`` of the given products, as ``T = I`` and ``V = F B``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a square root of a negative eigenvalue warns before it gives NaN
        return qec._syndromes(products, np.eye(len(products)), DEFAULT_TOL)


def _with_block(products, k, eigenvalues):
    """``products`` with ``H_k = (F_k B)^dag F_k B`` moved to ``d_k u diag(eigenvalues) u^dag``, ``u`` fixed."""
    u = random_unitary(np.random.default_rng(5), 2)
    doctored = products.copy()
    doctored[k] = products[k] @ (u * np.sqrt(eigenvalues)) @ u.conj().T  # H_k = d_k I before
    return doctored


@pytest.mark.parametrize("k, eigenvalues", [(3, (1.0, 1e-12)), (1, (1.0, 0.0))])
def test_syndromes_refuse_a_singular_block(k, eigenvalues):
    """A block ``H_k`` with eigenvalues ``d_k (1, 1e-12)``, or ``d_k (1, 0)`` up to rounding, is refused.

    ``analyze`` cannot reach this with honest input, so ``_syndromes`` gets
    the doctored products directly; ``H_k^(-1/2)`` would be far from
    isometric, or NaN where rounding leaves the zero eigenvalue negative.
    """
    products, d = _syndrome_products()
    with pytest.raises(OrthogonalityViolation, match=f"syndrome {k} has") as failure:
        _doctored_syndromes(_with_block(products, k, eigenvalues))
    smallest = float(str(failure.value).split("smallest eigenvalue ")[1].split()[0])
    assert smallest == pytest.approx(d[k] * eigenvalues[1], rel=1e-3, abs=1e-15 * d[k])


def test_syndromes_refuse_an_indefinite_block(monkeypatch):
    # A Gram H_k is indefinite only by rounding; eigh is doctored to give
    # syndrome 1 the smallest eigenvalue -0.5 d_1, which must be refused
    # before its square root warns.
    products, d = _syndrome_products()
    eigh = np.linalg.eigh

    def indefinite(h):
        lam, u = eigh(h)
        lam[1, 0] = -0.5 * lam[1, -1]
        return lam, u

    monkeypatch.setattr(np.linalg, "eigh", indefinite)
    with pytest.raises(OrthogonalityViolation, match="syndrome 1 has") as failure:
        _doctored_syndromes(products)
    smallest = float(str(failure.value).split("smallest eigenvalue ")[1].split()[0])
    assert smallest == pytest.approx(-0.5 * d[1], rel=1e-3)


def test_syndromes_gate_every_pair_on_the_returned_isometries(monkeypatch):
    # The gate reads the Gram of the W it returns.  A product moved by
    # 1e-6 into another's range leaves that pair overlapping; square roots
    # of H_k off by 1e-6 leave every W_k off isometric.  The gate names
    # the pair, the diagonal ones included.
    products, d = _syndrome_products()
    w = _doctored_syndromes(products)
    held = Recovery(np.eye(8)[:, :2], w).isometries  # the record's one read-only copy, over bytes
    assert w.shape == (4, 8, 2) and isinstance(memory_owner(held), bytes) and np.array_equal(held, w)
    with pytest.raises(ValueError):
        held.setflags(write=True)
    doctored = products.copy()
    doctored[2] += 1e-6 * np.sqrt(d[2] / d[0]) * products[0]
    with pytest.raises(OrthogonalityViolation, match="syndromes 0 and 2 are not orthonormal"):
        _doctored_syndromes(doctored)
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: (eigh(h)[0] * (1 + 1e-6), eigh(h)[1]))
    with pytest.raises(OrthogonalityViolation, match=r"syndromes (\d) and \1 are not orthonormal"):
        _doctored_syndromes(products)


def test_syndrome_and_witness_gates_refuse_a_nan(monkeypatch):
    # Each gate is written so that a NaN fails it: an inf in T makes H_k
    # NaN, a NaN eigenbasis makes the Gram of W NaN, and a NaN sign makes
    # the witness probability NaN.
    products, _ = _syndrome_products()
    t = np.eye(len(products), dtype=complex)
    t[0, 0] = np.inf
    with warnings.catch_warnings(), pytest.raises(OrthogonalityViolation, match="syndrome 0 has .* smallest eigenvalue nan"):
        warnings.simplefilter("ignore", RuntimeWarning)  # inf * 0 in F B = V T
        qec._syndromes(products, t, DEFAULT_TOL)
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: (eigh(h)[0], np.full_like(eigh(h)[1], np.nan)))
    with pytest.raises(OrthogonalityViolation, match=r"max\|W_a\^dag W_b - delta_ab I\| = nan"):
        qec._syndromes(products, np.eye(len(products)), DEFAULT_TOL)
    monkeypatch.undo()
    ops, code = bitflip_ops(-0.2), repetition_code()
    b0 = code.isometry[:, 0]
    report = analyze(ops, code)
    with pytest.raises(WitnessSearchFailed, match="has probability nan"):
        _witness((1, 1, 1, np.nan), ops.operators @ b0, b0, report.values, report.syndromes.isometries, DEFAULT_TOL)


@pytest.mark.parametrize("n", [3, 6])
def test_a_map_near_the_float_limit_is_decided_as_at_scale_one(n):
    # Every operator times sqrt(1.5e308): a cluster of canonical values,
    # three of 6e307 at n = 3 and six of 3e307 at n = 6, sums past the float
    # range.  Its mean, taken on the values scaled by a power of two, stays
    # finite, so the map is decided: outside the domain, its witness -0.2
    # times the scale.
    ops, code = repetition_bitflip(n, -0.2)
    big = SignedOperatorSum(ops.dim, ops.signs, np.sqrt(1.5e308) * ops.operators)
    report, small = analyze(big, code), analyze(ops, code)
    assert report.verdict is Verdict.CODE_OUTSIDE_DOMAIN
    assert report.witness.probability == pytest.approx(-0.2 * 1.5e308, rel=1e-12)
    assert report.values == pytest.approx(1.5e308 * small.values, rel=1e-12)
    assert np.isfinite(report.syndromes.isometries).all()


def test_analyze_keeps_syndromes_isometric_on_a_boosted_map_near_the_cut():
    # A boost makes F B = V T a sum of large canceling terms; with its
    # lightest term within 10x of the cut, H_k read from the canonical
    # blocks T^dag (V^dag V) T is off by more than 10 tol, where the Gram of
    # the product itself keeps every W_k the polar isometry of F_k B.
    rng = np.random.default_rng(26)
    ops = conditioned_pauli_map(rng)
    weights = np.array([np.vdot(op, op).real for op in ops.operators])
    k = int(np.argmin(weights))
    lighter = np.array(ops.operators)
    lighter[k] *= np.sqrt(rng.uniform(1.5, 10) * DEFAULT_TOL * weights.max() / weights[k])
    near = SignedOperatorSum(8, ops.signs, lighter)
    boosted = transform_by_pseudounitary(near, random_pu(rng, near.signature), tol=1e-7)
    code = repetition_code()
    for scale in (1e-150, 1e-12, 1.0, 1e150):
        scaled = SignedOperatorSum(8, boosted.signs, np.sqrt(scale) * boosted.operators)
        report = analyze(scaled, code)
        assert report.verdict is Verdict.CODE_OUTSIDE_DOMAIN
        syn = report.syndromes
        assert len(syn) == near.n_terms  # the term near the cut is kept
        gram = np.einsum("kdi,kdj->kij", syn.isometries.conj(), syn.isometries)  # W_k^dag W_k
        assert np.abs(gram - np.eye(2)).max() <= 1e-12
        vt = np.tensordot(report.diagonalizer, scaled.operators @ code.isometry, axes=([0], [0]))  # (V T)_k
        assert vt.shape[0] == len(syn) == len(report.values)  # syndrome k is term k
        oracle = polar_on_code(vt / np.sqrt(report.diagonal)[:, None, None]).isometry
        assert np.abs(syn.isometries - oracle).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("c0", [-0.2, 0.7])
def test_analyze_runs_no_svd_and_no_tensordot(monkeypatch, n, c0):
    # The syndromes need no SVD: W_k = F_k B H_k^(-1/2), with F B = V T one
    # GEMM.  The polar SVD and the tensordot must not come back into the
    # hot path.
    ops, code = repetition_bitflip(n, c0)
    calls = []
    for owner, name in ((np.linalg, "svd"), (np, "tensordot")):
        monkeypatch.setattr(owner, name, lambda *args, name=name, **kwargs: calls.append(name))
    report = analyze(ops, code)
    assert report.verdict is (Verdict.CODE_OUTSIDE_DOMAIN if c0 < 0 else Verdict.REVERSIBLE_POSITIVE)
    assert len(report.syndromes) == n + 1 and calls == []


def test_witness_probability_matches_apply_map():
    # Reference: the witness state v v^dag through apply_map, seen by W_j.
    rng = np.random.default_rng(181)
    code = repetition_code()
    for _ in range(15):
        ops = conditioned_pauli_map(rng)
        report = analyze(ops, code)
        w, syn = report.witness, report.syndromes
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
    assert report.residual < 1e-10
    assert np.abs(np.array(report.diagonal) - [0.4, 0.4, 0.4, 0.2]).max() < 1e-9


def test_analyze_cp_bitflip_reversible():
    report = analyze(bitflip_ops(0.7), repetition_code())
    assert report.verdict == Verdict.REVERSIBLE_POSITIVE
    assert report.witness is None
    err = verify_recovery(bitflip_ops(0.7), report.recovery, repetition_code())
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
    assert report.residual > 0.1


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
        assert verify_recovery(scaled, report.recovery, code) < 1e-8
        for _ in range(20):
            out = apply_map(scaled, random_code_state(rng, code))
            assert np.linalg.eigvalsh(out).min() > -1e-8


def test_verify_recovery_ncp_bitflip():
    ops = bitflip_ops(-0.2)
    code = repetition_code()
    rec = build_recovery(analyze(ops, code).syndromes)
    assert verify_recovery(ops, rec, code) < 1e-9


def test_verify_recovery_matches_per_sample_apply_map():
    # Pairing a map with another map's recovery, or with a map whose
    # output leaves the code, gives O(1) deviations. The value is the
    # dense oracle's, and at least the deviation of every sample state.
    rng = np.random.default_rng(163)
    code = repetition_code()
    maps = [conditioned_pauli_map(rng, require_negative=False) for _ in range(6)]
    recoveries = []
    for ops in maps:
        recoveries.append(build_recovery(analyze(ops, code).syndromes))
    worst_seen = []
    for k, ops in enumerate(maps):
        for recovery in (recoveries[k], recoveries[k - 1], maps[k - 1]):
            oracle = dense_deviation(ops, recovery, code)
            got = verify_recovery(ops, recovery, code)
            assert abs(got - oracle) < 1e-12
            assert got >= sample_deviations(ops, recovery, code).max() - 1e-12  # up to the references' roundoff
            worst_seen.append(oracle)
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
    oracle = dense_deviation(ops, recovery, code)
    got = verify_recovery(ops, recovery, code)
    assert abs(got - oracle) < 1e-12
    assert got >= sample_deviations(ops, recovery, code).max() - 1e-12
    assert oracle > 0.1


def test_verify_recovery_reads_a_factored_recovery_at_its_own_rank():
    # On the rank-2 three-qubit code, a factored recovery whose isometry L
    # adds |001> to B has rank 3: its blocks W_j^dag V_k are 3 x 2, and the
    # frame comes from the QR of [B, M_11, M_12, ...], M_jk = L W_j^dag V_k.
    ops, code = repetition_bitflip(3, 0.7)
    rec = analyze(ops, code).recovery
    left = np.column_stack([code.isometry, np.eye(8)[:, 1]])
    extra = 0.2 * random_complex(np.random.default_rng(53), (rec.n_terms, 8, 1))
    wide = Recovery(left, np.concatenate([rec.isometries, extra], axis=2))
    oracle = dense_deviation(ops, wide, code)
    got = verify_recovery(ops, wide, code)
    assert abs(got - oracle) < 1e-12
    assert got >= sample_deviations(ops, wide, code).max() - 1e-12
    assert oracle > 0.01


def test_verify_recovery_of_a_rank_one_recovery_reads_the_lost_state():
    # R_j = b_0 w_j^dag, with w_j the first column of W_j, sends |111> to
    # nothing: the recovered trace of the maximally mixed code state is
    # 1/2, not zero, and |111><111| comes back as the zero matrix, a
    # deviation of exactly 1.
    ops, code = repetition_bitflip(3, 0.7)
    rec = analyze(ops, code).recovery
    narrow = Recovery(code.isometry[:, :1], rec.isometries[:, :, :1])
    got = verify_recovery(ops, narrow, code)
    assert abs(got - 1.0) < 1e-12
    assert abs(got - dense_deviation(ops, narrow, code)) < 1e-12
    assert got >= sample_deviations(ops, narrow, code).max() - 1e-12


def test_verify_recovery_counts_leakage_off_the_code():
    # A unitary recovery that rotates |000> partly onto |001>, outside the
    # code: the recovered states keep unit trace but leave span{|000>, |111>}.
    code = repetition_code()
    theta = 0.3
    rotation = I8.copy()
    rotation[np.ix_([0, 1], [0, 1])] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    ops = SignedOperatorSum.from_terms([1], [I8])
    leaky = SignedOperatorSum.from_terms([1], [rotation])
    oracle = dense_deviation(ops, leaky, code)
    got = verify_recovery(ops, leaky, code)
    assert abs(got - oracle) < 1e-12
    assert got >= sample_deviations(ops, leaky, code).max() - 1e-12
    assert got > 0.1


def test_verify_recovery_zero_map():
    code = repetition_code()
    zero = SignedOperatorSum.from_terms([1], [np.zeros((8, 8))])
    with pytest.raises(ZeroTrace):
        verify_recovery(bitflip_ops(-0.2), zero, code)


def test_verify_recovery_of_a_map_with_no_terms_raises_zero_trace():
    # A map with no terms annihilates every state, so the recovered trace
    # is zero: an empty sum, its record and the empty restricted record of
    # its zero B, against both forms of a recovery.
    code = repetition_code()
    recovery = analyze(bitflip_ops(0.7), code).recovery
    empty = SignedOperatorSum(8, (), np.zeros((0, 8, 8)))
    maps = [empty, on_code(empty, code), on_code(b_from_operator_sum(empty), code)]
    assert [m.n_terms for m in maps] == [0, 0, 0]
    for ops in maps:
        for rec in (recovery, SignedOperatorSum(8, recovery.signs, recovery.operators)):
            with pytest.raises(ZeroTrace, match="cancels to 0.000e"):
                verify_recovery(ops, rec, code)


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


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_verify_recovery_of_the_repetition_code_matches_per_sample_apply_map(n):
    # Syndrome j of the repetition code annihilates every bit flip but its
    # own, so all blocks R_j E_k B with j != k are zero and stay out of the
    # QR.  From n = 6 on, E B reads only the code's two basis states.
    ops, code = repetition_bitflip(n, 0.7)
    recovery = analyze(ops, code).recovery
    oracle = dense_deviation(ops, recovery, code)
    got = verify_recovery(ops, recovery, code)
    assert abs(got - oracle) < 1e-12
    assert got >= sample_deviations(ops, recovery, code).max() - 1e-12


@pytest.mark.parametrize("scale", [1e-9, 1e-4])
def test_verify_recovery_keeps_small_nonzero_blocks(monkeypatch, scale):
    # An extra recovery term adds four small blocks R E_k B to the four
    # nonzero ones. Only exact zeros leave the QR, so these stay however
    # small, and the result still matches the dense oracle.
    ops, code = repetition_bitflip(3, 0.7)
    recovery = analyze(ops, code).recovery
    noise = scale * random_complex(np.random.default_rng(29), (8, 8))
    noisy = SignedOperatorSum.from_terms((1,) * 5, [*recovery.operators, noise])
    oracle, samples = dense_deviation(ops, noisy, code), sample_deviations(ops, noisy, code)
    shapes = _qr_shapes(monkeypatch)
    got = verify_recovery(ops, noisy, code)
    assert shapes == [(8, (1 + 8) * 2)]
    assert abs(got - oracle) < 1e-12
    assert got >= samples.max() - 1e-12


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


def test_verify_recovery_takes_tol_by_keyword_only():
    # A fourth positional argument, once the sample count, is refused
    # rather than read as the tolerance.
    ops, code = bitflip_ops(0.7), repetition_code()
    recovery = analyze(ops, code).recovery
    with pytest.raises(TypeError):
        verify_recovery(ops, recovery, code, 20)
    assert verify_recovery(ops, recovery, code, tol=1e-9) == verify_recovery(ops, recovery, code)


def test_qec_report_consistency_enforced():
    report = analyze(bitflip_ops(-0.2), repetition_code())
    # A negative syndrome is never reversible.
    with pytest.raises(ValueError, match="sign"):
        QecReport(
            values=report.values,
            residual=report.residual,
            diagonalizer=report.diagonalizer,
            syndromes=report.syndromes,
            verdict=Verdict.REVERSIBLE_POSITIVE,
            witness=None,
        )
    with pytest.raises(ValueError):
        QecReport(
            values=report.values,
            residual=report.residual,
            diagonalizer=report.diagonalizer,
            syndromes=report.syndromes,
            verdict=Verdict.CODE_OUTSIDE_DOMAIN,
            witness=None,
        )
    # Every report has a value, so every document it writes parses: an
    # annihilating map has the one value 0.0.
    with pytest.raises(ValueError, match=r"values must be a non-empty list of finite numbers, got \[\]"):
        QecReport([], 0.0, None, None, Verdict.CONDITIONS_VIOLATED, None)
    # The recovery is read from the syndromes, so it needs them.
    cp = analyze(bitflip_ops(0.7), repetition_code())
    with pytest.raises(ValueError, match="syndromes"):
        QecReport(cp.values, 0.0, None, None, Verdict.REVERSIBLE_POSITIVE, None)
    for verdict in (Verdict.REVERSIBLE_POSITIVE, Verdict.CONDITIONS_VIOLATED):
        with pytest.raises(ValueError, match="witness"):
            QecReport(cp.values, 0.0, cp.diagonalizer, cp.syndromes, verdict, report.witness)


def test_qec_report_holds_a_negative_syndrome_only_outside_the_domain():
    # analyze returns code_outside_domain as soon as a syndrome is negative,
    # and its witness names the first such syndrome.
    r = analyze(bitflip_ops(-0.2), repetition_code())
    assert np.sign(r.values).tolist() == [1, 1, 1, -1] and r.witness.syndrome_index == 3
    with pytest.raises(ValueError, match=r"syndromes\[3\]\.sign must be \+1 under a conditions_violated verdict, got -1"):
        QecReport(r.values, 0.0, r.diagonalizer, r.syndromes, Verdict.CONDITIONS_VIOLATED, None)
    named_plus = NegativityWitness(r.witness.vector, 0, r.witness.probability)
    hint = "witness.syndrome_index is {}: it must name the first syndrome of sign -1, {}"
    with pytest.raises(ValueError, match=hint.format(0, 3)):
        QecReport(r.values, 0.0, r.diagonalizer, r.syndromes, Verdict.CODE_OUTSIDE_DOMAIN, named_plus)
    cp = analyze(bitflip_ops(0.7), repetition_code())
    with pytest.raises(ValueError, match=hint.format(3, None)):
        QecReport(cp.values, 0.0, cp.diagonalizer, cp.syndromes, Verdict.CODE_OUTSIDE_DOMAIN, r.witness)
    with pytest.raises(ValueError, match=hint.format(3, None)):
        QecReport(cp.values, 0.0, None, None, Verdict.CODE_OUTSIDE_DOMAIN, r.witness)
    short = NegativityWitness(r.witness.vector[:4], 3, r.witness.probability)  # one entry per row of W: 8
    with pytest.raises(ValueError, match=r"witness\.vector: shape \(4,\) does not match the 8 rows of the isometries"):
        QecReport(r.values, 0.0, r.diagonalizer, r.syndromes, Verdict.CODE_OUTSIDE_DOMAIN, short)


def test_negative_condition_block_never_reversible():
    rng = np.random.default_rng(179)
    code = repetition_code()
    for _ in range(20):
        ops = conditioned_pauli_map(rng)
        report = analyze(ops, code)
        # diagonalized operators are unitary up to their weights
        for op in _canonical_operators(ops, report):
            prod = op.conj().T @ op
            assert np.abs(prod - prod[0, 0] * I8).max() < 1e-9
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


@pytest.mark.parametrize("n", range(3, 8))
def test_projector_from_basis_returns_no_negative_zero(n):
    # Householder QR leaves -0.0 entries in B; a zero row must be all zero
    # bits, so that a row-sparse document leaves it out.
    d = 2**n
    basis = [[1.0 if i == k else 0.0 for i in range(d)] for k in (0, d - 1)]
    for code in [repetition_bitflip(n, c0)[1] for c0 in (-0.2, 0.7)] + [parse_code_document(basis, 1e-9)]:
        assert not np.signbit(code.isometry.view(float)).any()


def test_code_space_holds_one_isometry():
    code = repetition_code()
    assert [f.name for f in fields(CodeSpace)] == ["isometry"]
    assert (code.dim, code.rank) == (8, 2)
    assert not code.isometry.flags.writeable
    assert np.abs(code.projector - code.isometry @ code.isometry.conj().T).max() == 0


def test_code_space_finds_its_support_once():
    # The rows where B is nonzero are found on the first read, by the support
    # route of analyze at d = 64, and held read-only: verify_recovery on the
    # same code reads the same array.
    ops, code = repetition_bitflip(6, 0.7)
    assert "support" not in vars(code)
    report = analyze(ops, code)
    support = vars(code)["support"]
    assert support.tolist() == [0, 63]
    verify_recovery(ops, report.recovery, code)
    assert code.support is support
    with pytest.raises(ValueError):
        support.setflags(write=True)


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


@pytest.mark.parametrize("c0", [np.inf, -np.inf, np.nan])
def test_repetition_bitflip_refuses_a_non_finite_c0(c0):
    # Refused before any weight is formed: an infinite weight times the
    # zeros of X_k would make NaN terms, with a numpy warning on the way.
    with pytest.raises(ValueError, match=rf"^c0 must be a finite number, got c0={c0}$"):
        repetition_bitflip(3, c0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_analyze_rejects_invalid_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        analyze(bitflip_ops(-0.2), repetition_code(), tol)


# One call per public function that takes a tolerance (analyze has its own
# test above).  A NaN tolerance fails every comparison, so an unchecked gate
# gives a wrong answer instead: a zero recovery verifies to nan rather than
# raising ZeroTrace, classify says CP (0, 0), and the connection of a map
# with itself is empty.
TOLERANCE_CALLS = {
    "verify_recovery": lambda tol: verify_recovery(
        bitflip_ops(0.7), SignedOperatorSum.from_terms([1], [np.zeros((8, 8))]), repetition_code(), tol=tol
    ),
    "is_pseudohermitian": lambda tol: is_pseudohermitian(np.eye(2), eta_metric(Signature(1, 1)), tol),
    "is_pseudounitary": lambda tol: is_pseudounitary(np.eye(2), eta_metric(Signature(1, 1)), tol),
    "pseudo_gram_schmidt": lambda tol: pseudo_gram_schmidt([], eta_metric(Signature(1, 1)), tol),  # no vector
    "pseudo_diagonalize": lambda tol: pseudo_diagonalize(np.diag([2.0, -1.0]), eta_metric(Signature(1, 1)), tol),
    "check_trace_preserving": lambda tol: check_trace_preserving(bitflip_ops(-0.2), tol),
    "operator_sum_from_b": lambda tol: operator_sum_from_b(b_from_operator_sum(bitflip_ops(-0.2)), tol),
    "classify": lambda tol: classify(b_from_operator_sum(bitflip_ops(-0.2)), tol),
    "transform_by_pseudounitary": lambda tol: transform_by_pseudounitary(bitflip_ops(-0.2), np.eye(4), tol),
    "maps_equal": lambda tol: maps_equal(bitflip_ops(-0.2), bitflip_ops(-0.2), tol),
    "to_base_map": lambda tol: to_base_map(bitflip_ops(-0.2), tol),
    "connecting_pseudounitary": lambda tol: connecting_pseudounitary(bitflip_ops(-0.2), bitflip_ops(-0.2), tol),
    "ensemble_connection": lambda tol: ensemble_connection(
        SignedEnsemble(2, (1,), [ket(0, 2)]), SignedEnsemble(2, (1,), [ket(0, 2)]), tol
    ),
    "projector_from_basis": lambda tol: projector_from_basis([ket(0, 8), ket(7, 8)], tol),
    "on_code": lambda tol: on_code(bitflip_ops(-0.2), repetition_code(), tol),
    "parse_code_document": lambda tol: parse_code_document([encode_vector(ket(0, 8)), encode_vector(ket(7, 8))], tol),
}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
@pytest.mark.parametrize("stage", list(TOLERANCE_CALLS))
def test_stages_reject_invalid_tolerance(stage, tol):
    with pytest.raises(ValueError, match="tolerance"):
        TOLERANCE_CALLS[stage](tol)


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
    # R_j E_k B, so no d x d state is formed: the peak
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


# ------------------------------------------------------------------ on_code


@pytest.mark.parametrize("c0", [-0.2, 0.7])
def test_code_terms_of_an_operator_sum_are_its_one_product(c0):
    # The record holds E B copied once over immutable bytes, and every
    # reader gives on it what it gives on the operator sum, bit for bit.
    ops, code = repetition_bitflip(4, c0)
    terms = on_code(ops, code)
    assert isinstance(terms, CodeTerms) and terms.signs == ops.signs and terms.signature == ops.signature
    assert (terms.dim, terms.rank, terms.n_terms) == (16, 2, 5)
    assert np.array_equal(terms.terms, ops.operators @ code.isometry)
    assert isinstance(memory_owner(terms.terms), bytes)
    with pytest.raises(ValueError):
        terms.terms.setflags(write=True)
    assert CodeTerms(terms.signs, terms.terms).terms is terms.terms
    base, report = analyze(ops, code), analyze(terms, code)
    assert report.verdict is base.verdict
    assert np.array_equal(report.diagonalizer, base.diagonalizer)
    assert np.array_equal(report.syndromes.isometries, base.syndromes.isometries)
    rec = build_recovery(base.syndromes)
    assert verify_recovery(terms, rec, code) == verify_recovery(ops, rec, code)
    assert negative_part_on_code(terms, code) == negative_part_on_code(ops, code)


def test_code_terms_validate_their_input():
    v = np.ones((2, 4, 1))
    held = CodeTerms((1, -1), v)
    assert held.terms is not v and held.terms.dtype == complex and not held.terms.flags.writeable
    v[0] = 2.0  # the writable input was copied
    assert held.terms[0, 0, 0] == 1.0
    for signs, terms, match in [
        ((1,), v, "1 signs but 2 terms"),
        ((-1, 1), v, "must precede"),
        ((True, 1), v, "signs must be"),
        ((1, 1), np.ones((2, 4)), "expected \\(n, d, r\\)"),
        ((1, 1), np.full((2, 4, 1), np.nan), "term 0 contains non-finite"),
    ]:
        with pytest.raises(ValueError, match=match):
            CodeTerms(signs, terms)


def test_code_terms_must_match_the_code():
    ops, code = repetition_bitflip(3, -0.2)
    other = projector_from_basis([ket(0, 8)])  # same d, rank 1
    terms = on_code(ops, code)
    for call in (
        lambda: analyze(terms, other),
        lambda: negative_part_on_code(terms, other),
        lambda: verify_recovery(terms, analyze(ops, code).syndromes, other),
    ):
        with pytest.raises(ValueError, match="do not match|share one dimension"):
            call()
    with pytest.raises(ValueError, match="does not match"):
        on_code(bitflip_ops(-0.2), projector_from_basis([ket(0, 4)]))
    with pytest.raises(TypeError, match="got CodeTerms"):
        on_code(terms, code)


@pytest.mark.parametrize("form", [a_from_operator_sum, b_from_operator_sum])
def test_on_code_of_a_matrix_channel_takes_only_the_restricted_eigensystem(monkeypatch, form):
    # The terms come from one eigh of the d r x d r restricted dynamical
    # matrix, never of the d^2 x d^2 one, and reproduce the map on the
    # code: sum_k s_k vec(V_k) vec(V_k)^dag is the same matrix.
    ops, code = repetition_bitflip(4, -0.2)
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: shapes.append(a.shape) or eigh(a, *args))
    terms = on_code(form(ops), code)
    assert shapes == [(32, 32)]
    assert terms.signature == ops.signature
    exact = dynamical_on_code(ops.signs, ops.operators @ code.isometry)
    assert np.abs(dynamical_on_code(terms.signs, terms.terms) - exact).max() <= 1e-14
    report = analyze(terms, code)
    assert report.verdict is Verdict.CODE_OUTSIDE_DOMAIN
    assert report.witness.probability == pytest.approx(-0.2, rel=1e-13)


@pytest.mark.parametrize("form", [a_from_operator_sum, b_from_operator_sum])
def test_on_code_of_a_matrix_channel_on_a_complex_code(form):
    # A complex map on a complex code: the restricted terms reproduce the
    # map on the code, and give the operator sum's verdict and residual.
    rng = np.random.default_rng(2)
    ops, code = random_ops(rng, 4, 2, 2), random_code(rng, 4, 2)
    terms = on_code(form(ops), code)
    exact = dynamical_on_code(ops.signs, ops.operators @ code.isometry)
    assert terms.signature == Signature(2, 2)
    assert np.abs(dynamical_on_code(terms.signs, terms.terms) - exact).max() <= 1e-14 * np.abs(exact).max()
    base, report = analyze(ops, code), analyze(terms, code)
    assert report.verdict is base.verdict is Verdict.CONDITIONS_VIOLATED
    assert report.residual == pytest.approx(base.residual, rel=1e-12)


def test_on_code_gates_the_whole_b_on_hermiticity():
    ops, code = repetition_bitflip(3, 0.7)
    b = b_from_operator_sum(ops).matrix.copy()
    b[1, 0] += 1e-3  # an entry that no code state reads: B[0 d + 1, 0 d + 0], and |1> is off the code
    with pytest.raises(NotHermitian):
        on_code(BMatrix(8, b), code)


def _identity_recovery(code):
    """The recovery ``B W^dag`` with ``W = B``, one term that any code takes."""
    return Recovery(code.isometry, code.isometry[None])


READERS = {
    "analyze": lambda channel, code: analyze(channel, code),
    "verify_recovery": lambda channel, code: verify_recovery(channel, _identity_recovery(code), code),
    "negative_part_on_code": lambda channel, code: negative_part_on_code(channel, code),
}


@pytest.mark.parametrize("form", [a_from_operator_sum, b_from_operator_sum])
@pytest.mark.parametrize("c0", [-0.2, 0.7])
def test_readers_take_a_matrix_channel_as_its_record(form, c0):
    # A matrix channel reaches each reader through the restricted
    # eigensystem of on_code: the same document bytes and values, bit for bit.
    ops, code = repetition_bitflip(3, c0)
    channel = form(ops)
    terms = on_code(channel, code)
    document = lambda x: json.dumps(analysis_document(analyze(x, code), terms.signature))  # noqa: E731
    assert document(channel) == document(terms)
    recovery = analyze(*repetition_bitflip(3, 0.7)).recovery
    assert verify_recovery(channel, recovery, code) == verify_recovery(terms, recovery, code)
    assert negative_part_on_code(channel, code) == negative_part_on_code(terms, code)


@pytest.mark.parametrize("reader", list(READERS))
def test_readers_refuse_another_type(reader):
    with pytest.raises(TypeError, match="got object"):
        READERS[reader](object(), repetition_code())


@pytest.mark.parametrize(
    "make, name",
    [
        (on_code, "CodeTerms"),
        (lambda ops, code: b_from_operator_sum(ops), "BMatrix"),
        (lambda *_: "B", "str"),
        (lambda *_: None, "NoneType"),
    ],
)
def test_verify_recovery_refuses_a_recovery_of_another_type(make, name):
    ops, code = repetition_bitflip(3, -0.2)
    with pytest.raises(TypeError, match=f"got {name}$"):
        verify_recovery(ops, make(ops, code), code)


@pytest.mark.parametrize("form", [lambda ops: ops, on_code, a_from_operator_sum, b_from_operator_sum])
@pytest.mark.parametrize("reader", list(READERS))
def test_readers_refuse_a_map_of_another_dimension(reader, form):
    # Each form of a d = 8 map against a d = 4 code.
    ops = bitflip_ops(-0.2)
    channel = form(ops, repetition_code()) if form is on_code else form(ops)
    with pytest.raises(ValueError, match="map dimension 8 does not match code dimension 4"):
        READERS[reader](channel, projector_from_basis([ket(0, 4)]))


def test_cp_conditions_refuse_operators_of_another_dimension():
    # The operators are read as a sum on the code's dimension, which checks their shape.
    with pytest.raises(ValueError, match=r"operator 0 has shape \(4, 4\), expected \(8, 8\)"):
        cp_condition_matrix([np.eye(4)], repetition_code())


def test_verify_recovery_refuses_a_recovery_of_another_dimension():
    ops, code = repetition_bitflip(3, 0.7)
    with pytest.raises(ValueError, match="recovery dimension 4 does not match code dimension 8"):
        verify_recovery(ops, _identity_recovery(projector_from_basis([ket(0, 4)])), code)


@pytest.mark.parametrize("reader", list(READERS))
def test_readers_gate_a_matrix_channel_on_hermiticity(reader):
    ops, code = repetition_bitflip(3, 0.7)
    b = b_from_operator_sum(ops).matrix.copy()
    b[1, 0] += 1e-3
    with pytest.raises(NotHermitian):
        READERS[reader](BMatrix(8, b), code)


def test_one_off_diagonal_pair_in_g_takes_the_eigen_route():
    # A term parallel to X_0 overlaps one term of the CP bit-flip map, so G
    # has one nonzero off-diagonal pair: the eigen route merges the two
    # into one canonical term, which no selection of input terms gives.
    ops, code = repetition_bitflip(3, 0.7)
    routes = {"_direct_terms": qec._direct_terms, "_eigen_terms": qec._eigen_terms}
    for channel, route, weights in (
        (ops, "_direct_terms", [0.1, 0.1, 0.1, 0.7]),
        (SignedOperatorSum(8, (1,) * 5, [*ops.operators, 1e-3 * ops.operators[0]]), "_eigen_terms",
         [0.1, 0.1, 0.1000001, 0.7]),
    ):
        g = np.einsum("klaa->kl", qec._blocks(on_code(channel, code).terms))
        assert np.count_nonzero(g - np.diag(np.diagonal(g))) == (0 if route == "_direct_terms" else 2)
        with mock.patch.multiple(qec, **{name: mock.Mock(wraps=fn) for name, fn in routes.items()}):
            report = analyze(channel, code)
            assert [getattr(qec, name).called for name in routes] == [name == route for name in routes]
        assert np.sort(report.diagonal) == pytest.approx(weights, rel=1e-12)


def test_qec_report_holds_a_diagonalizer_only_with_its_syndromes():
    # Column k of T is the canonical term of syndrome k, and d is read from the values.
    report = analyze(bitflip_ops(-0.2), repetition_code())
    t, syn, witness = report.diagonalizer, report.syndromes, report.witness
    assert np.array_equal(report.diagonal, np.abs(report.values)) and t.shape == (4, len(syn))
    for wrong_t, wrong_syn in ((t, None), (None, syn), (t[:, :3], syn), (t[0], syn), (t[None], syn)):
        with pytest.raises(ValueError, match="a diagonalizer comes with its syndromes, one per column"):
            QecReport(report.values, 0.0, wrong_t, wrong_syn, Verdict.CODE_OUTSIDE_DOMAIN, witness)
    rebuilt = QecReport(report.values, 0.0, t[:, ::-1], syn, Verdict.CODE_OUTSIDE_DOMAIN, witness)
    assert np.array_equal(rebuilt.diagonal, report.diagonal) and np.array_equal(rebuilt.diagonalizer, t[:, ::-1])
    violated = analyze(SignedOperatorSum.from_terms([1, 1], [I8, pauli_string("ZII")]), repetition_code())
    assert violated.diagonalizer is None and violated.diagonal is None
