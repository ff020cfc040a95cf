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
one BLAS thread, over every input as an operator sum, as its ``on_code``
record and, for d <= 16, as its ``b_matrix``.  It records the analysis
document bytes, or the exception ``analyze`` raised, and on a report
with syndromes the ``verify_recovery`` value of their recovery.

It prints how many documents are byte-identical, each changed document
with its largest change in ulps of its field's largest entry, and every
changed ``verify_recovery`` value by ``float.hex``.  It exits 1 on any
change of verdict or structure (a document with every float blanked, an
exception type, a value that became an exception), else 0.
"""

from __future__ import annotations

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
    """Write the inputs as ``(name, signs, operators, code isometry)`` tuples of plain arrays."""
    ncpqec = _import_ncpqec(src)
    sys.path[1:1] = [str(ROOT / "tests"), str(ROOT / "bench")]
    import inputs

    import helpers

    seeds, per_stratum, bitflips, supported = json.loads(spec)
    items = []
    for seed in seeds:
        for item in inputs.corpus(np.random.default_rng(seed), per_stratum):
            items.append((f"s{seed}/{item.name}", item.ops, item.code))
    for n, c0 in bitflips:
        items.append((f"bitflip-n{n}-c0={c0}", *ncpqec.repetition_bitflip(n, c0)))
    for d, rank in ((d, rank) for d in supported for rank in (1, 2)):
        rng = np.random.default_rng([d, rank])
        code, name = helpers.supported_code(rng, d, d // 4, rank), f"supported-d{d}-r{rank}"
        items.append((f"{name}-random", helpers.random_ops(rng, d, 2, 1), code))
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
            items.append((f"{name}-c={weights}", ops, code))
    rows = [(name, ops.signs, np.array(ops.operators), np.array(code.isometry)) for name, ops, code in items]
    Path(out).write_bytes(pickle.dumps(rows))


def _outcome(fn) -> tuple[str, object]:
    try:
        return "value", fn()
    except Exception as exc:  # noqa: BLE001 -- every raise is an answer to compare
        return "error", f"{type(exc).__name__}: {exc}"


def _answers(src: str, inputs_path: str, out: str) -> None:
    """Write ``{key: [kind, document or error, verify_recovery hex or error or None]}`` for every form."""
    ncpqec = _import_ncpqec(src)
    from ncpqec.documents import analysis_document

    answers = {}
    for name, signs, operators, isometry in pickle.loads(Path(inputs_path).read_bytes()):
        code = ncpqec.CodeSpace(isometry)
        for scale in SCALES:
            ops = ncpqec.SignedOperatorSum(code.dim, signs, np.sqrt(scale) * operators)
            forms = {"operator_sum": ops, "on_code": ncpqec.on_code(ops, code)}
            if code.dim <= 16:
                forms["b_matrix"] = ncpqec.b_from_operator_sum(ops)
            for form, channel in forms.items():
                kind, report = _outcome(lambda: ncpqec.analyze(channel, code))
                if kind == "error":
                    answers[f"{name}@{scale:g}/{form}"] = [kind, report, None]
                    continue
                terms = ncpqec.on_code(channel, code) if form == "b_matrix" else channel  # as the CLI signs it
                text = json.dumps(analysis_document(report, terms.signature), separators=(",", ":"))
                verify = None
                if report.syndromes is not None:
                    got = _outcome(lambda: ncpqec.verify_recovery(channel, report.syndromes.recovery, code))
                    verify = got[1].hex() if got[0] == "value" else got[1]
                answers[f"{name}@{scale:g}/{form}"] = [kind, text, verify]
    Path(out).write_text(json.dumps(answers))


def _run(function: str, *args: str) -> None:
    call = f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import compare; compare.{function}(*sys.argv[1:])"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    env.pop("PYTHONPATH", None)
    subprocess.run([sys.executable, "-c", call, *args], check=True, env=env)


def _blank(node):
    """The document with every float replaced by 0.0: its structure."""
    if isinstance(node, dict):
        return {k: _blank(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_blank(v) for v in node]
    return 0.0 if isinstance(node, float) else node


def _floats(node) -> list[float]:
    if isinstance(node, dict):
        return [x for v in node.values() for x in _floats(v)]
    if isinstance(node, list):
        return [x for v in node for x in _floats(v)]
    return [node] if isinstance(node, float) else []


def _changes(old: dict, new: dict) -> str:
    """Each changed field: how many floats moved, and the largest move in ulps of the old field's largest entry."""
    parts = []
    for key in old:
        a, b = np.array(_floats(old[key])), np.array(_floats(new[key]))
        if moved := np.count_nonzero(a != b):
            ulps = np.abs(a - b).max() / np.spacing(np.abs(a).max())
            parts.append(f"{key} {moved} of {a.size} floats, up to {ulps:.3g} ulps")
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
    structural, identical, documents, verified, verify_equal = [], 0, 0, 0, 0
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            structural.append(f"{key}: present in only one tree")
            continue
        (kind_a, a, va), (kind_b, b, vb) = old[key], new[key]
        if kind_a == "error" or kind_b == "error":
            if kind_a != kind_b or a.split(":")[0] != b.split(":")[0]:
                structural.append(f"{key}: {_said(kind_a, a)} -> {_said(kind_b, b)}")
            elif a != b:
                print(f"{key}: message changed: {a} -> {b}")
            continue
        documents += 1
        if a == b:
            identical += 1
        else:
            da, db = json.loads(a), json.loads(b)
            if da["verdict"] != db["verdict"] or _blank(da) != _blank(db):
                structural.append(f"{key}: verdict or structure changed ({da['verdict']} -> {db['verdict']})")
            else:
                print(f"{key}: document changed: {_changes(da, db)}")
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
    print(f"{identical} of {documents} analysis documents byte-identical")
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
