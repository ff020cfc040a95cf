"""Independent output checks in plain numpy.

Nothing here calls the library's analysis, so the library is never
checked against itself.  Each function returns ``None`` when the output
is right and a one-line reason when it is not.  The one library call is
``parse_analysis_document`` on CLI output, which is part of what a CLI
op must satisfy.
"""

from __future__ import annotations

import json

import numpy as np

from ncpqec.documents import parse_analysis_document

TOL = 1e-9
# Recovered states are compared after two map applications and a trace
# normalization, so they carry a few ulps per term of rounding.
RECOVERY_TOL = 1e-7


def apply(signs, operators, rho: np.ndarray) -> np.ndarray:
    """``sum_k s_k E_k rho E_k^dag``."""
    return sum(s * (e @ rho @ e.conj().T) for s, e in zip(signs, operators))


def projector(basis) -> np.ndarray:
    q, _ = np.linalg.qr(np.column_stack(basis))
    return q @ q.conj().T


def map_scale(operators) -> float:
    """Typical weight of one term, ``sum_k ||E_k||_F^2 / d``."""
    return sum(float(np.vdot(op, op).real) for op in operators) / operators[0].shape[0]


def code_states(rng: np.random.Generator, basis, count: int) -> list[np.ndarray]:
    """The logical basis states and ``count`` random pure code states."""
    b = np.column_stack(basis)
    q, _ = np.linalg.qr(b)
    out = [np.outer(q[:, i], q[:, i].conj()) for i in range(q.shape[1])]
    for _ in range(count):
        amps = rng.normal(size=q.shape[1]) + 1j * rng.normal(size=q.shape[1])
        psi = q @ (amps / np.linalg.norm(amps))
        out.append(np.outer(psi, psi.conj()))
    return out


def check_witness(item, witness, q: np.ndarray) -> str | None:
    """The witness is a code state with ``tr(Q E(rho) Q) <= -tol`` for its syndrome ``Q``.

    ``Q`` is only trusted after checking it is an orthogonal projector;
    any projector with a negative outcome certifies that ``E(rho)`` is
    not positive.  For the bit-flip maps the value must also equal
    ``c0 * scale^2`` (-0.2 unscaled) for every ``n``.
    """
    p = projector(item.basis)
    rho = np.asarray(witness.state)
    if abs(np.trace(rho).real - 1) > 1e-8 or np.abs(p @ rho @ p - rho).max() > 1e-8:
        return "witness state is not a normalized code state"
    q = np.asarray(q)
    if np.abs(q @ q - q).max() > 1e-8 or np.abs(q - q.conj().T).max() > 1e-8:
        return "witness syndrome is not an orthogonal projector"
    scale = map_scale(item.ops.operators)
    prob = float(np.trace(q @ apply(item.ops.signs, item.ops.operators, rho) @ q).real)
    if prob > -TOL * scale:
        return f"witness outcome {prob:.3e} is not negative"
    if abs(prob - witness.probability) > TOL * scale:
        return f"witness outcome {prob:.6g} differs from the reported {witness.probability:.6g}"
    if item.witness_probability is not None:
        expected = item.witness_probability
        if abs(prob - expected) > TOL * scale:
            return f"witness outcome {prob:.6g}, expected {expected:.6g}"
        code_prob = float(np.trace(p @ apply(item.ops.signs, item.ops.operators, rho) @ p).real)
        if abs(code_prob - expected) > TOL * scale:
            return f"code-space outcome {code_prob:.6g}, expected {expected:.6g}"
    return None


def check_recovery(item, recovery, rng: np.random.Generator, trials: int = 2) -> str | None:
    """``R(E(rho))`` is proportional to ``rho`` on logical and random code states."""
    for rho in code_states(rng, item.basis, trials):
        out = apply(recovery.signs, recovery.operators, apply(item.ops.signs, item.ops.operators, rho))
        t = np.trace(out).real
        if t <= TOL:
            return f"recovered state has trace {t:.3e}"
        dev = np.abs(out / t - rho).max()
        if dev > RECOVERY_TOL:
            return f"recovery misses a code state by {dev:.3e}"
    return None


def check_conditions_violated(item) -> str | None:
    """Some block ``s_i P E_i^dag E_j P`` is not a multiple of ``P``."""
    p = projector(item.basis)
    r = len(item.basis)
    worst = 0.0
    for si, ei in zip(item.ops.signs, item.ops.operators):
        for ej in item.ops.operators:
            block = si * (p @ ei.conj().T @ ej @ p)
            worst = max(worst, np.abs(block - np.trace(block) / r * p).max())
    if worst <= TOL:
        return f"signed conditions hold (residual {worst:.3e}) but the verdict says violated"
    return None


def check_connection(base, boosted, result) -> str | None:
    """``u`` is pseudounitary for the padded signature and maps ``base`` onto ``boosted``."""
    u = np.asarray(result.u)
    p, q = result.signature.p, result.signature.q
    eta = np.diag([1.0] * p + [-1.0] * q)
    if np.abs(u @ eta @ u.conj().T - eta).max() > 1e-7:
        return "connection is not pseudounitary"

    def padded(ops):
        zero = np.zeros((ops.dim, ops.dim), dtype=complex)
        plus = [op for s, op in zip(ops.signs, ops.operators) if s > 0]
        minus = [op for s, op in zip(ops.signs, ops.operators) if s < 0]
        return plus + [zero] * (p - len(plus)) + minus + [zero] * (q - len(minus))

    mixed = np.einsum("kj,kab->jab", u, np.stack(padded(base)))
    dev = np.abs(mixed - np.stack(padded(boosted))).max()
    if dev > 1e-7:
        return f"connection reproduces the boosted terms only to {dev:.3e}"
    return None


def check_report(item, report, rng: np.random.Generator) -> str | None:
    """Verdict as expected, and what backs it confirmed independently."""
    verdict = report.verdict.value
    if verdict != item.expected:
        return f"verdict {verdict}, expected {item.expected}"
    if verdict == "code_outside_domain":
        w = report.witness
        return check_witness(item, w, report.syndromes[w.syndrome_index].projector)
    if verdict == "reversible_positive":
        return check_recovery(item, report.recovery, rng)
    return check_conditions_violated(item)


def check_analysis_text(text: str, expected: str, witness_probability: float | None) -> str | None:
    """CLI output: one analysis document with the expected verdict and witness value."""
    try:
        doc = parse_analysis_document(json.loads(text))
    except ValueError as exc:
        return f"output does not parse as an analysis document: {exc}"
    if doc["verdict"] != expected:
        return f"verdict {doc['verdict']}, expected {expected}"
    if witness_probability is not None and abs(doc["witness"].probability - witness_probability) > TOL:
        return f"witness probability {doc['witness'].probability:.6g}, expected {witness_probability:.6g}"
    return None


def check_reproduce_text(text: str, c0: float) -> str | None:
    """``reproduce-paper --json`` output: plain numpy values of the n = 3 example."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"reproduce-paper output is not JSON: {exc}"
    expected = "code_outside_domain" if c0 < 0 else "reversible_positive"
    if doc.get("verdict") != expected:
        return f"reproduce-paper verdict {doc.get('verdict')}, expected {expected}"
    if c0 < 0 and abs(doc["witness_probability"] - c0) > TOL:
        return f"reproduce-paper witness probability {doc['witness_probability']}, expected {c0}"
    # <000|E(|000><000|)|000> = c0 and <100|E(|000><000|)|100> = c1.
    c1 = (1 - c0) / 3
    outcome = doc["outcomes"]["a=1"]
    if abs(outcome["000"] - c0) > TOL or abs(outcome["100"] - c1) > TOL:
        return f"reproduce-paper outcomes {outcome} do not match c0 = {c0}"
    return None
