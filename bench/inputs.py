"""Seeded inputs shared by every benchmark workload.

Builders for the n-qubit bit-flip mixture, the n-qubit repetition code
and their JSON documents, plus the small-``d`` corpus.  Everything random
is drawn from one ``numpy.random.Generator`` seeded by ``--seed``, so the
same seed gives the same inputs.  The corpus reuses the generators of
``tests/helpers.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

import helpers
import ncpqec
from ncpqec.documents import channel_document, encode_vector

X = np.array([[0, 1], [1, 0]], dtype=complex)

REVERSIBLE = "reversible_positive"
OUTSIDE = "code_outside_domain"
VIOLATED = "conditions_violated"

# Witness probability of the inverted bit-flip map at c0 = -0.2: the
# identity term's syndrome is the code itself, so tr(P E(rho) P) = c0.
BITFLIP_C0 = -0.2
BITFLIP_CP_C0 = 0.7


def flip(n: int, k: int) -> np.ndarray:
    """Pauli X on qubit ``k`` of ``n`` (qubit 0 is the leftmost factor)."""
    return np.kron(np.kron(np.eye(2**k), X), np.eye(2 ** (n - k - 1)))


def sorted_sum(terms: list[tuple[int, np.ndarray]]) -> ncpqec.SignedOperatorSum:
    """Signed operator sum with the +1 block first, order kept within blocks."""
    terms = sorted(terms, key=lambda t: -t[0])
    return ncpqec.SignedOperatorSum.from_terms([s for s, _ in terms], [op for _, op in terms])


def bitflip_map(n: int, c0: float, scale: float = 1.0) -> ncpqec.SignedOperatorSum:
    """Identity with weight ``c0`` mixed with each single-qubit flip at ``(1 - c0) / n``.

    ``c0 < 0`` gives the inverted (NCP, trace-preserving) map of the paper;
    ``0 < c0 < 1`` the CP one.  ``scale`` multiplies every operator.
    """
    c1 = (1.0 - c0) / n
    terms = [(1 if c1 > 0 else -1, scale * np.sqrt(abs(c1)) * flip(n, k)) for k in range(n)]
    terms.append((1 if c0 > 0 else -1, scale * np.sqrt(abs(c0)) * np.eye(2**n, dtype=complex)))
    return sorted_sum(terms)


def repetition_basis(n: int) -> list[np.ndarray]:
    """Logical basis ``|0...0>, |1...1>`` of the n-qubit repetition code."""
    return [helpers.ket(0, 2**n), helpers.ket(2**n - 1, 2**n)]


def channel_doc_text(channel) -> str:
    return json.dumps(channel_document(channel), separators=(",", ":"))


def code_doc_text(basis: list[np.ndarray]) -> str:
    return json.dumps([encode_vector(v) for v in basis], separators=(",", ":"))


@dataclass
class Item:
    """One input of a workload with the verdict it must get.

    ``verify`` asks for a timed ``verify_recovery`` call; ``base`` is the
    decomposition a boosted item must connect to.
    """

    name: str
    ops: ncpqec.SignedOperatorSum
    basis: list[np.ndarray]
    expected: str
    verify: bool = False
    base: ncpqec.SignedOperatorSum | None = None
    witness_probability: float | None = None

    def __post_init__(self) -> None:
        self.code = ncpqec.projector_from_basis(self.basis)


def boost(rng: np.random.Generator, ops: ncpqec.SignedOperatorSum) -> np.ndarray:
    """Random closed-form pseudounitary for ``ops.signature``.

    A unitary on each sign block followed by a hyperbolic rotation of
    rapidity in [0.2, 0.8] between the first +1 and the first -1 term.
    """
    p, q = ops.signature.p, ops.signature.q
    u = np.zeros((p + q, p + q), dtype=complex)
    u[:p, :p] = helpers.random_unitary(rng, p)
    if q:
        u[p:, p:] = helpers.random_unitary(rng, q)
        t = rng.uniform(0.2, 0.8)
        h = np.eye(p + q, dtype=complex)
        h[0, 0] = h[p, p] = np.cosh(t)
        h[0, p] = h[p, 0] = np.sinh(t)
        u = u @ h
    return u


def stratified(rng: np.random.Generator, draw, key, quotas: dict) -> list:
    """Draws from ``draw(rng)`` kept until each stratum ``key(x)`` has its quota.

    Fixing the count per stratum (term count, sign split) keeps the
    corpus's make-up the same for every seed; only the values vary.
    """
    kept: dict = {k: [] for k in quotas}
    while any(len(kept[k]) < n for k, n in quotas.items()):
        x = draw(rng)
        if len(kept[key(x)]) < quotas[key(x)]:
            kept[key(x)].append(x)
    return [x for k in quotas for x in kept[k]]


def corpus(rng: np.random.Generator, per_stratum: int) -> list[Item]:
    """The corpus-small inputs, in five groups of fixed make-up.

    Conditioned Pauli maps on the 3-qubit code: ``per_stratum`` NCP maps
    for each (terms, negative terms) pair and ``2 * per_stratum``
    trace-normalized CP maps for each term count; the same maps boosted;
    ``per_stratum`` random signed sums on random rank-2 codes for each
    d in (4, 8, 16) and signature in {1, 2}^2; and the two known-defect
    re-decompositions.
    """
    code3 = repetition_basis(3)
    ncp_strata = {(n, q): per_stratum for n in (2, 3, 4) for q in range(1, n)}
    ncps = stratified(
        rng,
        lambda r: helpers.conditioned_pauli_map(r, require_negative=True),
        lambda ops: (ops.n_terms, ops.signature.q),
        ncp_strata,
    )
    cps = stratified(
        rng,
        lambda r: helpers.conditioned_pauli_map(r, require_negative=False),
        lambda ops: ops.n_terms,
        {n: 2 * per_stratum for n in (2, 3, 4)},
    )
    items: list[Item] = [Item(f"pauli-ncp-{k}", ops, code3, OUTSIDE) for k, ops in enumerate(ncps)]
    for k, cp in enumerate(cps):
        weight = sum(float(np.vdot(op, op).real) for op in cp.operators) / 8
        cp = ncpqec.SignedOperatorSum(8, cp.signs, tuple(op / np.sqrt(weight) for op in cp.operators))
        items.append(Item(f"pauli-cp-{k}", cp, code3, REVERSIBLE, verify=True))
    for base in list(items):
        mixed = ncpqec.transform_by_pseudounitary(base.ops, boost(rng, base.ops), tol=1e-7)
        items.append(
            Item(f"{base.name}-boosted", mixed, code3, base.expected, verify=base.verify, base=base.ops)
        )
    for d in (4, 8, 16):
        for p in (1, 2):
            for q in (1, 2):
                for k in range(per_stratum):
                    ops = helpers.random_ops(rng, d, p, q)
                    u = helpers.random_unitary(rng, d)
                    items.append(Item(f"random-d{d}-p{p}q{q}-{k}", ops, [u[:, 0], u[:, 1]], VIOLATED))
    items.extend(known_defects())
    return items


def known_defects() -> list[Item]:
    """The two re-decompositions the library cannot decide today.

    A canceling pair ``+0.1 X_1, -0.1 X_1`` appended to the CP bit-flip map
    raises ``PseudoDiagonalizationFailure``; the inverted map scaled by
    1e-5 raises ``WitnessSearchFailed``.  Both are the same maps as their
    base decompositions, so they must get the base verdicts.
    """
    cp = bitflip_map(3, BITFLIP_CP_C0)
    pair = [(s, op) for s, op in zip(cp.signs, cp.operators)]
    pair += [(1, 0.1 * flip(3, 0)), (-1, 0.1 * flip(3, 0))]
    code3 = repetition_basis(3)
    return [
        Item("canceling-pair", sorted_sum(pair), code3, REVERSIBLE),
        Item("scaled-1e-5", bitflip_map(3, BITFLIP_C0, 1e-5), code3, OUTSIDE, witness_probability=BITFLIP_C0 * 1e-10),
    ]
