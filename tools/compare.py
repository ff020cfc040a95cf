"""Compare the answers of two ``ncpqec`` source trees on one fixed input set.

Run from the repository root::

    python3 tools/compare.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``ncpqec`` package, such as
the ``src`` of a ``git archive`` export.  The inputs are built once, in
a subprocess on ``PARENT_SRC``, by ``bench/inputs.py`` and
``tests/helpers.py`` of this checkout:

* corpus-small seeds 1-3 at ``per_stratum`` 4;
* ``repetition_bitflip(n, c0)`` for n = 3-7 and c0 in {-0.2, 0.7};
* at d = 64 and 128, for ranks r = 1 and 2 (seeded by d and r), three
  signed sums on a code spanned on d / 4 random basis states, so that
  ``E B`` reads several nonzero entries per column of ``B``: a dense
  random sum of two +1 and one -1 terms, and two correctable sums
  ``sqrt(|c_k|) U P_k`` (``U`` a random unitary, ``P_k`` permutations
  that move the support to disjoint sets) with weights ``c`` of 0.4,
  0.3, 0.2, 0.1 and of 0.6, 0.3, 0.2, -0.1;

each at scales 1, 1e-150, 1e-12 and 1e150 (every operator times the
scale's square root).  Each tree then runs in its own subprocess, with
one BLAS thread.  It makes each code with its own ``projector_from_basis``
from the input's basis vectors, as the CLI makes a code from a code
document, so a change to that builder shows in the answers: the two
kets that ``repetition_bitflip`` spans, and the columns of the other
inputs' isometries.  It
runs over every input as an operator sum, as its ``on_code`` record and,
for d <= 16, as its ``b_matrix`` and its ``a_matrix``; a matrix form's
document is signed by the ``on_code`` record of the matrix, as the CLI
signs it.  It records the analysis document bytes, or the exception
``analyze`` raised, what the tree's own ``parse_analysis_document``
decodes from those bytes, and on a report with syndromes the
``verify_recovery`` value of their recovery.  Both trees' parsers must
return the records (analysis schema ``"6"`` or later): the report's
``values`` and ``residual`` are compared as ``condition.values`` and
``condition.residual``, and under every verdict that has syndromes
their ``W`` stack and the code's ``B`` as ``syndromes.isometry`` and
``syndromes.recovery.code_isometry``.  A tree whose parser still returns
a ``condition`` record and a ``SyndromeSet`` is read through one short
bridge to those fields.

Documents are compared by what they decode to, so a change of form
alone reads as decoded identical.  It prints how many documents are
byte-identical and the total change in their bytes, how many decode to
identical arrays, each document whose arrays changed, and every changed
``verify_recovery`` value by ``float.hex``.  A changed array is given as
how many of its floats moved and its largest move in ulps of its largest
entry; a changed scalar (``condition.residual``, ``witness.probability``)
as the number of floats between its two values.  It exits 1 on any change
of verdict or structure (a decoded field, integer, shape or dtype, an
exception type, a value that became an exception), else 0.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
PER_STRATUM = 4
BITFLIPS = tuple((n, c0) for n in range(3, 8) for c0 in (-0.2, 0.7))
SUPPORTED = (64, 128)
SCALES = (1.0, 1e-150, 1e-12, 1e150)


def _import_ncpqec(src: str):
    sys.path.insert(0, str(Path(src).resolve()))
    import ncpqec

    if not Path(ncpqec.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"ncpqec was imported from {ncpqec.__file__}, not from {src}")
    return ncpqec


def _build(src: str, out: str, spec: str) -> None:
    """Write the inputs as ``(name, signs, operators, code basis vectors)`` tuples of plain arrays."""
    ncpqec = _import_ncpqec(src)
    sys.path[1:1] = [str(ROOT / "tests"), str(ROOT / "bench")]
    import inputs

    import helpers

    seeds, per_stratum, bitflips, supported = json.loads(spec)
    items = []
    for seed in seeds:
        for item in inputs.corpus(np.random.default_rng(seed), per_stratum):
            items.append((f"s{seed}/{item.name}", item.ops, item.code.isometry.T))
    for n, c0 in bitflips:  # the code of the kets |0...0> and |1...1>, made as repetition_bitflip makes it
        items.append((f"bitflip-n{n}-c0={c0}", ncpqec.repetition_bitflip(n, c0)[0], np.eye(2**n)[[0, -1]]))
    for d, rank in ((d, rank) for d in supported for rank in (1, 2)):
        rng = np.random.default_rng([d, rank])
        code, name = helpers.supported_code(rng, d, d // 4, rank), f"supported-d{d}-r{rank}"
        items.append((f"{name}-random", helpers.random_ops(rng, d, 2, 1), code.isometry.T))
        support = np.flatnonzero(code.isometry.any(axis=1))
        others = rng.permutation(np.setdiff1d(np.arange(d), support)).reshape(3, -1)
        swaps = [np.arange(d)]
        for block in others:  # the permutation that swaps the support with this block
            swaps.append(np.arange(d))
            swaps[-1][support], swaps[-1][block] = block, support
        u = helpers.random_unitary(rng, d)
        for weights in ((0.4, 0.3, 0.2, 0.1), (0.6, 0.3, 0.2, -0.1)):
            terms = [np.sqrt(abs(c)) * u[:, swap] for c, swap in zip(weights, swaps)]
            ops = ncpqec.SignedOperatorSum.from_terms(np.sign(weights).astype(int).tolist(), terms)
            items.append((f"{name}-c={weights}", ops, code.isometry.T))
    rows = [(name, ops.signs, np.array(ops.operators), np.array(basis)) for name, ops, basis in items]
    Path(out).write_bytes(pickle.dumps(rows))


def _outcome(fn) -> tuple[str, object]:
    try:
        return "value", fn()
    except Exception as exc:  # noqa: BLE001 -- every raise is an answer to compare
        return "error", f"{type(exc).__name__}: {exc}"


def _decoded(parsed: dict) -> dict:
    """A parsed analysis document as its structure, its arrays' bytes and its scalars' ``float.hex``."""
    if "condition" in parsed:  # a tree whose parser returns a ConditionMatrix and a SyndromeSet
        condition, syndromes = parsed["condition"], parsed["syndromes"]
        recovery = None if syndromes is None else syndromes.recovery
        values, residual = condition.entries.diagonal().real, condition.residual
        parsed = {**parsed, "values": values, "residual": residual, "syndromes": recovery}
    syndromes, witness = parsed["syndromes"], parsed["witness"]
    structure = {"verdict": parsed["verdict"].value, "signature": [parsed["signature"].p, parsed["signature"].q]}
    arrays = {"condition.values": parsed["values"]}
    scalars = {"condition.residual": parsed["residual"]}
    if syndromes is not None:
        arrays["diagonalizer"] = parsed["diagonalizer"]
        arrays["syndromes.isometry"] = syndromes.isometries
        arrays["syndromes.recovery.code_isometry"] = syndromes.code_isometry
    if witness is not None:
        arrays["witness.vector"] = witness.vector
        scalars["witness.probability"] = witness.probability
        structure["witness.syndrome_index"] = witness.syndrome_index
    structure["arrays"] = {key: [a.dtype.str, list(a.shape)] for key, a in arrays.items()}
    return {
        "structure": json.loads(json.dumps(structure)),
        "arrays": {key: base64.b64encode(np.ascontiguousarray(a).tobytes()).decode() for key, a in arrays.items()},
        "scalars": {key: float(x).hex() for key, x in scalars.items()},
    }


def _answers(src: str, inputs_path: str, out: str) -> None:
    """Write ``{key: [kind, document or error, verify_recovery hex or error or None, decoded or None]}`` for every form."""
    ncpqec = _import_ncpqec(src)
    from ncpqec.documents import analysis_document, parse_analysis_document

    answers = {}
    for name, signs, operators, basis in pickle.loads(Path(inputs_path).read_bytes()):
        code = ncpqec.projector_from_basis(list(basis))
        for scale in SCALES:
            ops = ncpqec.SignedOperatorSum(code.dim, signs, np.sqrt(scale) * operators)
            forms = {"operator_sum": ops, "on_code": ncpqec.on_code(ops, code)}
            if code.dim <= 16:
                forms["b_matrix"] = ncpqec.b_from_operator_sum(ops)
                forms["a_matrix"] = ncpqec.a_from_operator_sum(ops)
            for form, channel in forms.items():
                kind, report = _outcome(lambda: ncpqec.analyze(channel, code))
                if kind == "error":
                    answers[f"{name}@{scale:g}/{form}"] = [kind, report, None, None]
                    continue
                terms = ncpqec.on_code(channel, code) if form.endswith("_matrix") else channel  # as the CLI signs it
                text = json.dumps(analysis_document(report, terms.signature), separators=(",", ":"))
                verify = None
                if report.syndromes is not None:
                    recovery = ncpqec.build_recovery(report.syndromes)  # the report's Recovery in either tree
                    got = _outcome(lambda: ncpqec.verify_recovery(channel, recovery, code))
                    verify = got[1].hex() if got[0] == "value" else got[1]
                decoded = _decoded(parse_analysis_document(json.loads(text)))
                answers[f"{name}@{scale:g}/{form}"] = [kind, text, verify, decoded]
    Path(out).write_text(json.dumps(answers))


def _run(function: str, *args: str) -> None:
    call = f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import compare; compare.{function}(*sys.argv[1:])"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    env.pop("PYTHONPATH", None)
    subprocess.run([sys.executable, "-c", call, *args], check=True, env=env)


def _floats(encoded: str, dtype: str) -> np.ndarray:
    """The floats of an array's bytes, real and imaginary parts apart."""
    return np.frombuffer(base64.b64decode(encoded), np.dtype(dtype)).view(float)


def _ulps(a: float, b: float) -> int:
    """The number of floats from ``a`` to ``b``: their bit patterns in the order of their values."""
    ordered = [i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF) for i in np.array([a, b]).view(np.int64).tolist()]
    return abs(ordered[0] - ordered[1])


def _changes(old: dict, new: dict) -> str:
    """Each changed field: an array's moved floats and largest move in ulps of its largest entry; a scalar's ulps."""
    parts = []
    for key, (dtype, _) in old["structure"]["arrays"].items():
        a, b = _floats(old["arrays"][key], dtype), _floats(new["arrays"][key], dtype)
        if moved := np.count_nonzero(a.view(np.int64) != b.view(np.int64)):
            ulps = np.abs(a - b).max() / np.spacing(np.abs(a).max())
            parts.append(f"{key} {moved} of {a.size} floats, up to {ulps:.3g} ulps")
    for key, a in old["scalars"].items():
        if a != (b := new["scalars"][key]):
            parts.append(f"{key} moved {_ulps(float.fromhex(a), float.fromhex(b))} ulps")
    return "; ".join(parts)


def _said(kind: str, text: str) -> str:
    return text[:80] if kind == "error" else "a document"


def compare(
    parent_src: str, change_src: str, seeds=SEEDS, per_stratum=PER_STRATUM, bitflips=BITFLIPS, supported=SUPPORTED
) -> int:
    """Print the comparison of the two trees on the input set; return the exit status."""
    with tempfile.TemporaryDirectory() as tmp:
        inputs_path, outs = str(Path(tmp, "inputs.pickle")), [str(Path(tmp, f"{k}.json")) for k in range(2)]
        spec = json.dumps([list(seeds), per_stratum, [list(b) for b in bitflips], list(supported)])
        _run("_build", parent_src, inputs_path, spec)
        for src, out in zip((parent_src, change_src), outs):
            _run("_answers", src, inputs_path, out)
        old, new = (json.loads(Path(out).read_text()) for out in outs)
    return _summary(old, new)


def _summary(old: dict, new: dict) -> int:
    """Print the comparison of two trees' answers; return the exit status."""
    structural, identical, decoded, documents, verified, verify_equal, grown = [], 0, 0, 0, 0, 0, 0
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            structural.append(f"{key}: present in only one tree")
            continue
        (kind_a, a, va, da), (kind_b, b, vb, db) = old[key], new[key]
        if kind_a == "error" or kind_b == "error":
            if kind_a != kind_b or a.split(":")[0] != b.split(":")[0]:
                structural.append(f"{key}: {_said(kind_a, a)} -> {_said(kind_b, b)}")
            elif a != b:
                print(f"{key}: message changed: {a} -> {b}")
            continue
        documents += 1
        identical += a == b
        grown += len(b) - len(a)
        if da["structure"] != db["structure"]:
            verdicts = da["structure"]["verdict"], db["structure"]["verdict"]
            structural.append(f"{key}: verdict or structure changed ({verdicts[0]} -> {verdicts[1]})")
        elif da["arrays"] == db["arrays"] and da["scalars"] == db["scalars"]:
            decoded += 1
        else:
            print(f"{key}: decoded arrays changed: {_changes(da, db)}")
        if va is not None or vb is not None:
            verified += 1
            if va == vb:
                verify_equal += 1
            elif va is None or vb is None or ":" in va or ":" in vb:
                structural.append(f"{key}: verify_recovery {va} -> {vb}")
            else:
                print(f"{key}: verify_recovery {va} -> {vb} ({float.fromhex(va):.3e} -> {float.fromhex(vb):.3e})")
    for line in structural:
        print(f"STRUCTURAL {line}")
    print(f"{identical} of {documents} analysis documents byte-identical, {grown:+d} bytes in all")
    print(f"{decoded} of {documents} analysis documents decode to identical arrays")
    print(f"{verify_equal} of {verified} verify_recovery values equal by float.hex")
    print(f"{len(structural)} verdict or structural changes")
    return 1 if structural else 0


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: python3 tools/compare.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    return compare(argv[1], argv[2])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
