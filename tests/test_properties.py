"""Property tests: the verdict depends only on the map and the code.

Hypothesis draws conditioned Pauli maps on the three-qubit repetition
code: NCP maps, whose code space lies outside the domain, and
trace-normalized CP maps, which are reversible.  Re-decomposing a map
(pseudounitary boosts, canceling pairs, the base decomposition) must
change neither the verdict nor the sorted weights ``d``; rescaling
scales ``d`` and keeps the verdict except where trace preservation is
lost.  The analysis's Gram GEMMs match their einsum forms on random
stacks, and its syndrome isometries match the SVD polar oracle.
``verify_recovery`` reads 0 on a reversible report's recovery at any
float scale of the map, and bounds each sample state's deviation from
above on a wrong one.  A map
given as a ``B`` or ``A`` matrix, decided from its restricted terms on the
code, gets the operator sum's outcome.  ``on_code`` of an operator sum,
read on the code's support or over all of ``d``, gives ``E B`` exactly on
repetition codes and within 4 ulps on codes on few basis states, and
the readers answer on it as on the exact terms.  Runs are derandomized
and keep no example database, so the suite is reproducible.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ncpqec import (
    CodeTerms,
    NumericalFailure,
    PseudoDiagonalizationFailure,
    Recovery,
    SignedOperatorSum,
    Verdict,
    a_from_operator_sum,
    analyze,
    b_from_operator_sum,
    build_recovery,
    eta_metric,
    negative_part_on_code,
    on_code,
    repetition_bitflip,
    pseudo_diagonalize,
    to_base_map,
    transform_by_pseudounitary,
    verify_recovery,
)
from ncpqec.documents import analysis_document
from ncpqec.pseudolinalg import DEFAULT_TOL
from ncpqec import qec

from helpers import (
    bitflip_ops,
    conditioned_pauli_map,
    dynamical_on_code,
    pauli_string,
    ph_conditions,
    polar_on_code,
    random_complex,
    random_ops,
    random_pu,
    repetition_code,
    sample_deviations,
    supported_code,
    wrong_recoveries,
)

CODE = repetition_code()
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def maps(draw):
    """A conditioned Pauli map and a generator for re-decomposing it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return conditioned_pauli_map(rng), rng
    cp = conditioned_pauli_map(rng, require_negative=False)
    weight = sum(float(np.vdot(op, op).real) for op in cp.operators) / 8
    return SignedOperatorSum(8, cp.signs, tuple(op / np.sqrt(weight) for op in cp.operators)), rng


def weights(report):
    return np.sort(np.abs(report.diagonal))


def assert_same_outcome(base, other):
    assert other.verdict is base.verdict
    assert weights(other) == pytest.approx(weights(base), rel=1e-9, abs=1e-12)


def with_pair(ops, k):
    """``ops`` with the canceling pair ``(+k, -k)`` appended."""
    pos = [op for s, op in zip(ops.signs, ops.operators) if s > 0]
    neg = [op for s, op in zip(ops.signs, ops.operators) if s < 0]
    return SignedOperatorSum.from_terms([1] * (len(pos) + 1) + [-1] * (len(neg) + 1), pos + [k] + neg + [k])


@PROPERTY
@given(maps())
def test_pseudounitary_boost_keeps_outcome(case):
    ops, rng = case
    moved = transform_by_pseudounitary(ops, random_pu(rng, ops.signature), tol=1e-7)
    assert_same_outcome(analyze(ops, CODE), analyze(moved, CODE))
    assert negative_part_on_code(moved, CODE) == pytest.approx(negative_part_on_code(ops, CODE), rel=1e-9)


@PROPERTY
@given(maps(), st.booleans())
def test_canceling_pair_keeps_outcome(case, dense):
    ops, rng = case
    if dense:  # outside the span of the map's terms
        k = random_complex(rng, (8, 8))
    else:
        k = rng.uniform(0.1, 2.0) * ops.operators[int(rng.integers(ops.n_terms))]
    assert_same_outcome(analyze(ops, CODE), analyze(with_pair(ops, k), CODE))
    assert negative_part_on_code(with_pair(ops, k), CODE) == pytest.approx(negative_part_on_code(ops, CODE), rel=1e-9)


@PROPERTY
@given(maps())
def test_base_map_keeps_outcome(case):
    ops, _ = case
    assert_same_outcome(analyze(ops, CODE), analyze(to_base_map(ops), CODE))


@PROPERTY
@given(maps(), st.floats(-6.0, 6.0))
def test_rescaling_scales_weights(case, exponent):
    ops, _ = case
    alpha = 10.0**exponent
    # Keep clear of the trace-preservation gate at |alpha - 1| = tol.
    assume(not 1e-10 < abs(alpha - 1.0) < 1e-8)
    scaled = SignedOperatorSum(8, ops.signs, tuple(np.sqrt(alpha) * op for op in ops.operators))
    base, report = analyze(ops, CODE), analyze(scaled, CODE)
    assert weights(report) == pytest.approx(alpha * weights(base), rel=1e-9)
    if base.verdict is Verdict.REVERSIBLE_POSITIVE and abs(alpha - 1.0) > 1e-9:
        # Trace preservation does not survive scaling.
        assert report.verdict is Verdict.CONDITIONS_VIOLATED
    else:
        assert report.verdict is base.verdict
    if base.witness is not None:
        assert report.witness.probability == pytest.approx(alpha * base.witness.probability, rel=1e-9)


@PROPERTY
@given(maps(), st.floats(-4.0, 60.0))
def test_verify_recovery_ignores_the_recovery_scale(case, exponent):
    ops, _ = case
    recovery = analyze(ops, CODE).recovery
    assume(recovery is not None)
    scaled = SignedOperatorSum(8, recovery.signs, 10.0**exponent * recovery.operators)
    assert abs(verify_recovery(ops, scaled, CODE) - verify_recovery(ops, recovery, CODE)) < 1e-12


@PROPERTY
@given(maps())
def test_factored_recovery_verifies_as_its_dense_terms(case):
    ops, _ = case
    recovery = analyze(ops, CODE).recovery
    assume(recovery is not None)
    dense = SignedOperatorSum(8, recovery.signs, recovery.operators)
    assert abs(verify_recovery(ops, recovery, CODE) - verify_recovery(ops, dense, CODE)) < 1e-14


@PROPERTY
@given(maps())
def test_verify_recovery_certifies_every_code_state(case):
    # At any float scale of the map, a reversible report's recovery reads 0
    # to rounding, and a wrong recovery reads at least the deviation of
    # each sample state: the value bounds every code state.
    ops, _ = case
    recovery = analyze(ops, CODE).recovery
    for scale in (1e-150, 1e-12, 1.0, 1e150):
        scaled = SignedOperatorSum(8, ops.signs, np.sqrt(scale) * ops.operators)
        if recovery is not None:
            assert verify_recovery(scaled, recovery, CODE) < 1e-14
        for _, wrong in wrong_recoveries():
            assert verify_recovery(scaled, wrong, CODE) >= sample_deviations(scaled, wrong, CODE).max() - 1e-12


@PROPERTY
@given(maps(), st.booleans())
def test_pseudo_diagonalize_oracle_matches_weights(case, boosted):
    ops, rng = case
    if boosted:
        ops = transform_by_pseudounitary(ops, random_pu(rng, ops.signature), tol=1e-7)
    entries = ph_conditions(ops, CODE)
    try:
        oracle = pseudo_diagonalize(entries, eta_metric(ops.signature))
    except PseudoDiagonalizationFailure:
        assume(False)
    assert np.sort(np.abs(oracle.eigenvalues)) == pytest.approx(weights(analyze(ops, CODE)), rel=1e-9)


@st.composite
def stacks(draw):
    """A random ``(n, d, r)`` stack at scale 1, 1e-150 or 1e150, some (or all) terms zero, and its signs."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    r = draw(st.integers(1, min(d, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = draw(st.sampled_from([1.0, 1e-150, 1e150])) * random_complex(rng, (n, d, r))
    v[draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0.0
    p = draw(st.integers(0, n))
    return v, (1,) * p + (-1,) * (n - p)


def assert_close(value, oracle):
    """``value`` matches ``oracle`` within 1e-14 relative to the oracle's largest entry (exactly if it is 0)."""
    assert value.shape == oracle.shape
    assert np.abs(value - oracle).max(initial=0.0) <= 1e-14 * np.abs(oracle).max(initial=0.0)


@PROPERTY
@given(stacks())
def test_gram_gemms_match_their_einsum_forms(case):
    # _blocks forms the condition blocks V_k^dag V_l (and the syndrome
    # overlaps W_a^dag W_b); _canonical_terms forms T^dag blocks T.
    v, signs = case
    blocks = qec._blocks(v)
    assert_close(blocks, np.einsum("kda,ldb->klab", v.conj(), v))
    with mock.patch.object(qec, "_condition_fit", wraps=qec._condition_fit) as fit:
        t = qec._canonical_terms(signs, blocks, DEFAULT_TOL)[2]
    assert_close(fit.call_args.args[0], np.einsum("ki,klab,lj->ijab", t.conj(), blocks, t))


@PROPERTY
@given(maps(), st.booleans(), st.booleans(), st.floats(1.5, 10.0))
def test_syndrome_isometries_match_the_svd_polar(case, near, boosted, factor):
    # W_k = F_k B H_k^(-1/2) is the polar isometry of (V T)_k / sqrt(d_k),
    # unique as H_k > 0, and an isometry to rounding, at every scale: on
    # plain and boosted maps, with or without a term near the cut.
    ops, rng = case
    if near:  # the lightest term gets weight factor * tol * (largest weight)
        weights = np.array([np.vdot(op, op).real for op in ops.operators])
        k = int(np.argmin(weights))
        lighter = np.array(ops.operators)
        lighter[k] *= np.sqrt(factor * DEFAULT_TOL * weights.max() / weights[k])
        ops = SignedOperatorSum(8, ops.signs, lighter)
    if boosted:
        ops = transform_by_pseudounitary(ops, random_pu(rng, ops.signature), tol=1e-7)
    for scale in (1e-150, 1e-12, 1.0, 1e150):
        scaled = SignedOperatorSum(8, ops.signs, np.sqrt(scale) * ops.operators)
        report = analyze(scaled, CODE)
        syn = report.syndromes
        vt = np.tensordot(report.diagonalizer, scaled.operators @ CODE.isometry, axes=([0], [0]))  # (V T)_k
        assert vt.shape[0] == len(syn) and report.diagonal is syn.weights  # syndrome k is term k
        oracle = polar_on_code(vt / np.sqrt(syn.weights)[:, None, None]).isometry
        assert np.abs(syn.isometries - oracle).max() <= 1e-12
        gram = np.einsum("kdi,kdj->kij", syn.isometries.conj(), syn.isometries)  # W_k^dag W_k
        assert np.abs(gram - np.eye(2)).max() <= 1e-12
        if not boosted:  # a boost raises the Gram scale that the term cut is relative to
            assert len(syn) == ops.n_terms  # the term near the cut is kept


def _outcome(fn):
    """``fn()``, or the type of the numerical failure it raises."""
    try:
        return fn()
    except NumericalFailure as exc:
        return type(exc)


@PROPERTY
@given(maps(), st.booleans())
def test_matrix_inputs_get_the_operator_sum_outcome(case, boosted):
    # The restricted terms of the B and A matrices give the operator sum's
    # verdict, syndrome count and witness probability, and the same map on
    # the code, at every scale; the operator sum's own record verifies a
    # recovery exactly as the sum does.
    ops, rng = case
    if boosted:
        ops = transform_by_pseudounitary(ops, random_pu(rng, ops.signature), tol=1e-7)
    for scale in (1e-150, 1e-12, 1.0, 1e150):
        scaled = SignedOperatorSum(8, ops.signs, np.sqrt(scale) * ops.operators)
        base = analyze(scaled, CODE)
        exact = dynamical_on_code(scaled.signs, scaled.operators @ CODE.isometry)
        for channel in (b_from_operator_sum(scaled), a_from_operator_sum(scaled)):
            terms = on_code(channel, CODE)
            assert np.abs(dynamical_on_code(terms.signs, terms.terms) - exact).max() <= 1e-12 * np.abs(exact).max()
            report = analyze(terms, CODE)
            assert report.verdict is base.verdict
            assert len(report.syndromes or ()) == len(base.syndromes or ())
            if base.witness is not None:
                assert report.witness.probability == pytest.approx(base.witness.probability, rel=1e-12)
        recovery = build_recovery(base.syndromes)
        record = on_code(scaled, CODE)
        assert _outcome(lambda: verify_recovery(record, recovery, CODE)) == _outcome(
            lambda: verify_recovery(scaled, recovery, CODE)
        )


def test_known_redecompositions_get_base_verdicts():
    x1 = pauli_string("XII")
    pair = with_pair(bitflip_ops(0.7), 0.1 * x1)
    report = analyze(pair, CODE)
    assert report.verdict is Verdict.REVERSIBLE_POSITIVE
    assert weights(report) == pytest.approx([0.1, 0.1, 0.1, 0.7])

    inverted = bitflip_ops(-0.2)
    tiny = SignedOperatorSum(8, inverted.signs, tuple(1e-5 * op for op in inverted.operators))
    report = analyze(tiny, CODE)
    assert report.verdict is Verdict.CODE_OUTSIDE_DOMAIN
    assert report.witness.probability == pytest.approx(-0.2e-10, rel=1e-9)


@st.composite
def diagonal_maps(draw):
    """A map on the code whose Gram ``G`` of terms is exactly diagonal, of one of seven kinds.

    Conditioned Pauli maps of both signs; the same with equal weights, so
    the canonical terms form degenerate clusters; with one term zero; with
    its lightest term at 1.5-10 times the cut, or at 0.1-0.9 times it; the
    lone negative identity; and the empty sum.
    """
    kind = draw(st.sampled_from(["ncp", "cp", "equal", "zero", "near-cut", "negative-identity", "empty"]))
    if kind == "negative-identity":
        return SignedOperatorSum(8, (-1,), [np.eye(8)])
    if kind == "empty":
        return SignedOperatorSum(8, (), np.zeros((0, 8, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = conditioned_pauli_map(rng, require_negative=kind != "cp")
    terms = np.array(ops.operators)
    weights = np.array([np.vdot(op, op).real for op in terms])
    if kind == "cp":
        terms /= np.sqrt(weights.sum() / 8)
    elif kind == "equal":  # each term a Pauli string at weight 1 / n_terms
        terms /= np.sqrt(weights * ops.n_terms / 8)[:, None, None]
    elif kind == "zero":
        terms[int(rng.integers(ops.n_terms))] = 0.0
    else:
        k = int(np.argmin(weights))
        factor = draw(st.one_of(st.floats(1.5, 10.0), st.floats(0.1, 0.9)))
        terms[k] *= np.sqrt(factor * DEFAULT_TOL * weights.max() / weights[k])
    return SignedOperatorSum(8, ops.signs, terms)


def assert_within_ulps(value, oracle, ulps):
    """``value`` matches ``oracle`` within ``ulps`` units in the last place of the oracle's largest entry."""
    assert value.shape == oracle.shape
    assert np.abs(value - oracle).max(initial=0.0) <= ulps * np.spacing(np.abs(oracle).max(initial=0.0))


@PROPERTY
@given(diagonal_maps())
def test_direct_route_gives_the_eigen_routes_answers(ops):
    # An exactly diagonal G takes the direct route; forcing the eigen route
    # on it must give the same decisions, and the same arrays to rounding.
    # The condition entries are T^dag blocks T, quadratic in T, so they get
    # twice T's bound.
    for scale in (1e-150, 1e-12, 1.0, 1e150):
        scaled = SignedOperatorSum(8, ops.signs, np.sqrt(scale) * ops.operators)
        with mock.patch.object(qec, "_direct_terms", wraps=qec._direct_terms) as direct_route:
            direct = _outcome(lambda: analyze(scaled, CODE))
        assert direct_route.called
        with mock.patch.object(qec, "_direct_terms", qec._eigen_terms):
            eigen = _outcome(lambda: analyze(scaled, CODE))
        if isinstance(eigen, type):
            assert direct is eigen
            continue
        assert direct.verdict is eigen.verdict
        assert (direct.witness is None) == (eigen.witness is None)
        if eigen.witness is not None:
            assert direct.witness.syndrome_index == eigen.witness.syndrome_index
        assert_within_ulps(direct.condition.entries, eigen.condition.entries, 8)
        assert (direct.diagonal is None) == (eigen.diagonal is None)
        if eigen.diagonal is None:
            continue
        assert_within_ulps(direct.diagonal, eigen.diagonal, 4)
        assert_within_ulps(direct.diagonalizer, eigen.diagonalizer, 4)
        assert np.array_equal(direct.syndromes.signs, eigen.syndromes.signs)
        assert len(direct.syndromes) == len(eigen.syndromes) == direct.diagonalizer.shape[1]
        assert_within_ulps(direct.syndromes.isometries, eigen.syndromes.isometries, 4)


def _answers(channel, code, recovery):
    """``analyze``'s document, or the failure it raises, and ``verify_recovery`` of ``recovery``."""
    report = _outcome(lambda: analyze(channel, code))
    document = report if isinstance(report, type) else json.dumps(analysis_document(report, channel.signature))
    return document, _outcome(lambda: verify_recovery(channel, recovery, code))


@PROPERTY
@given(st.integers(3, 8), st.sampled_from([-0.2, 0.3, 0.7]), st.booleans(), st.integers(0, 2**32 - 1))
def test_on_code_reads_a_repetition_code_bit_for_bit(n, c0, boosted, seed):
    # Each column of B has one nonzero entry, so V = E B is exact whichever
    # rows of E are read: from d = 64 (n = 6) on, those of B's support only.
    # Only the sign of a zero entry may differ, which == ignores.
    ops, code = repetition_bitflip(n, c0)
    if boosted:
        ops = transform_by_pseudounitary(ops, random_pu(np.random.default_rng(seed), ops.signature), tol=1e-7)
    reference = ops.operators @ code.isometry
    assert np.array_equal(on_code(ops, code).terms, reference)
    record = CodeTerms(ops.signs, reference)
    recovery = analyze(record, code).syndromes.recovery
    assert _answers(ops, code, recovery) == _answers(record, code, recovery)


@PROPERTY
@given(st.sampled_from([32, 64, 128]), st.integers(1, 3), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_on_code_reads_a_code_on_few_basis_states_to_rounding(d, r, share, seed):
    # A code spanned on at most d / 2 random basis states, under dense
    # random signed operators: the support route (d >= 64, |S| <= d / 4)
    # and the full GEMM both give E B within 4 ulps of its largest entry,
    # and the readers' answers match those on the exact terms to rounding.
    rng = np.random.default_rng(seed)
    code = supported_code(rng, d, r + round(share * (d // 2 - r)), r)
    ops = random_ops(rng, d, int(rng.integers(1, 4)), int(rng.integers(0, 3)))
    reference = ops.operators @ code.isometry
    assert_within_ulps(on_code(ops, code).terms, reference, 4)
    record = CodeTerms(ops.signs, reference)
    got, want = analyze(ops, code), analyze(record, code)
    assert got.verdict is want.verdict
    assert_within_ulps(got.condition.entries, want.condition.entries, 64)
    assert got.condition.residual == pytest.approx(want.condition.residual, rel=1e-12)
    isometries = np.linalg.qr(random_complex(rng, (2, d, r)))[0]
    recovery = Recovery(code.isometry, isometries)
    assert verify_recovery(ops, recovery, code) == pytest.approx(verify_recovery(record, recovery, code), rel=1e-12)
