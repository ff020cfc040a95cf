"""Command-line interface.

Subcommands:

* ``convert``   -- rewrite a channel document in another representation
* ``classify``  -- CP/NCP verdict, signature, trace-preservation check
* ``qec``       -- reversibility analysis of a channel on a code space
* ``equiv``     -- connect two equal maps by a pseudounitary mixing
* ``reproduce-paper`` -- the worked three-qubit inverted bit-flip example

``qec`` decides a channel from its terms on the code (``qec.on_code``):
an ``a_matrix`` or ``b_matrix`` document is checked for Hermiticity on
its whole ``B``, then reaches the analysis through the ``d r x d r``
restricted dynamical matrix, never through ``operator_sum_from_b``.
``reproduce-paper`` makes that record once for ``analyze`` and
``verify_recovery``.

Exit codes: 0 success, 2 input/validation error, 3 numerical failure.
The working tolerance is the ``--tol`` flag if given, else the
``QEC_TOL`` environment variable, else ``1e-9``.  ``main`` resolves it
once, before the command runs, into ``args.tol``.  Every command passes
it to the library unchanged, which applies it relative to each gated
input's own scale, except for trace preservation and pseudounitarity.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

import numpy as np

from .documents import (
    analysis_document,
    channel_document,
    encode_matrix,
    parse_channel_document,
    parse_code_document,
)
from .errors import MapsNotEqual, NumericalFailure, ZeroTrace
from .pseudolinalg import DEFAULT_TOL, _check_tol, _cut
from .qec import analyze, build_recovery, on_code, repetition_bitflip, verify_recovery
from .superop import (
    AMatrix,
    BMatrix,
    SignedOperatorSum,
    apply_map,
    b_from_operator_sum,
    check_trace_preserving,
    classify,
    operator_sum_from_b,
    reshuffle,
)

__all__ = ["main", "run"]


def _resolve_tol(args: argparse.Namespace) -> float:
    source, value = ("--tol", args.tol) if args.tol is not None else ("QEC_TOL", os.environ.get("QEC_TOL"))
    if value is None:
        return DEFAULT_TOL
    try:
        return _check_tol(float(value))
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _load_json(path: str, parse):
    """``parse`` of the JSON document at ``path``, read and parsed with the cyclic garbage collector paused.

    A JSON document is a tree, so the collector finds no cycles in it;
    left on, it rescans the many small lists of a matrix document while
    they are built, and again on the parser's first allocations while
    the tree is alive.  The caller's collector state is restored on
    every path, errors included.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))  # the tree is freed before the collector resumes
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def _emit(doc: dict, args: argparse.Namespace) -> None:
    if args.json:
        print(json.dumps(doc, separators=(",", ":")))
    else:
        print(json.dumps(doc, indent=2))


def _as_b_matrix(channel: AMatrix | BMatrix | SignedOperatorSum) -> BMatrix:
    if isinstance(channel, BMatrix):
        return channel
    if isinstance(channel, AMatrix):
        return reshuffle(channel)
    return b_from_operator_sum(channel)


def _as_operator_sum(channel, tol: float) -> SignedOperatorSum:
    if isinstance(channel, SignedOperatorSum):
        return channel
    return operator_sum_from_b(_as_b_matrix(channel), tol)


def cmd_convert(args: argparse.Namespace) -> int:
    channel = _load_json(args.input, parse_channel_document)
    if args.to == "a_matrix":
        out = reshuffle(_as_b_matrix(channel))
    elif args.to == "b_matrix":
        out = _as_b_matrix(channel)
    else:
        out = _as_operator_sum(channel, args.tol)
    _emit(channel_document(out), args)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    channel = _load_json(args.input, parse_channel_document)
    b = _as_b_matrix(channel)
    kind = classify(b, args.tol)  # raises NotHermitian for a map that does not preserve Hermiticity
    doc = {
        "schema_version": "1",
        "verdict": kind.kind,
        "signature": {"p": kind.signature.p, "q": kind.signature.q},
        "trace_preserving": bool(check_trace_preserving(reshuffle(b), args.tol)),
    }
    _emit(doc, args)
    return 0


def cmd_qec(args: argparse.Namespace) -> int:
    channel = _load_json(args.input, parse_channel_document)
    code = _load_json(args.code, lambda obj: parse_code_document(obj, args.tol))
    terms = on_code(channel, code, args.tol)  # refuses a map of another dimension before any conversion
    report = analyze(terms, code, args.tol)
    _emit(analysis_document(report, terms.signature), args)
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    from .equivalence import connecting_pseudounitary

    first, second = (_load_json(path, parse_channel_document) for path in (args.first, args.second))
    if first.dim != second.dim:
        raise ValueError(f"dimension mismatch: {first.dim} vs {second.dim}")
    first, second = _as_operator_sum(first, args.tol), _as_operator_sum(second, args.tol)
    try:
        result = connecting_pseudounitary(first, second, args.tol)
    except MapsNotEqual:  # the maps_equal gate
        _emit({"schema_version": "1", "equal": False}, args)
        return 0
    doc = {
        "schema_version": "1",
        "equal": True,
        "u": encode_matrix(result.u),
        "signature": {"p": result.signature.p, "q": result.signature.q},
        "padding_added": list(result.padding_added),
        "residual": float(result.residual),
    }
    _emit(doc, args)
    return 0


def cmd_reproduce_paper(args: argparse.Namespace) -> int:
    c0 = args.c0
    c1 = (1.0 - c0) / 3.0
    if abs(c0) < 1e-12 or abs(c1) < 1e-12:
        raise ValueError(f"c0={c0} gives a degenerate mixture (c1={c1}); both weights must be nonzero")
    if c0 * c1 > 0:
        raise ValueError(
            f"c0={c0} and c1={c1} have the same sign; choose c0 < 0 or c0 > 1 for an inverted mixture"
        )
    ops, code = repetition_bitflip(3, c0)
    terms = on_code(ops, code, args.tol)  # E B, once for analyze and verify_recovery

    # Outcome values tr(|f><f| E(rho)) for rho = a|000><000| + (1-a)|111><111|.
    outcome_kets = {"000": 0, "111": 7, "100": 4, "011": 3}
    mixtures = {}
    for a_val in (0.0, 0.5, 1.0):
        out = apply_map(ops, code.isometry @ np.diag([a_val, 1.0 - a_val]) @ code.isometry.conj().T)
        mixtures[f"a={a_val:g}"] = {k: float(out[i, i].real) for k, i in outcome_kets.items()}

    report = analyze(terms, code, args.tol)
    witness_probability = None if report.witness is None else report.witness.probability
    recovery_error = outcome = undecidable = None
    if report.syndromes:
        try:
            recovery_error = verify_recovery(terms, build_recovery(report.syndromes), code, trials=20, tol=args.tol)
            outcome = "restores" if recovery_error <= _cut(args.tol) else "does_not_restore"
        except ZeroTrace as exc:  # the recovered trace cancelled to rounding
            outcome, undecidable = "undecidable", exc

    doc = {
        "schema_version": "1",
        "c0": c0,
        "c1": c1,
        "outcomes": mixtures,
        "verdict": report.verdict.value,
        "witness_probability": witness_probability,
        "recovery_max_error": recovery_error,
        "recovery_outcome": outcome,
    }
    if not args.json:
        print(f"inverted bit-flip mixture on three qubits: c0 = {c0:g}, c1 = {c1:g}")
        print("outcome values tr(|f><f| E(rho)) for rho = a|000><000| + (1-a)|111><111|:")
        for label, values in mixtures.items():
            cells = "  ".join(f"|{k}>: {v: .6g}" for k, v in values.items())
            print(f"  {label:7s} {cells}")
        if witness_probability is not None:
            print(
                f"syndrome measurement returns negative probability {witness_probability:.6g} "
                "on a code state: the code space lies outside the map's domain"
            )
        if outcome == "undecidable":
            print(
                f"projective recovery does not restore the sampled code states verifiably: undecidable, {undecidable}"
            )
        elif outcome is not None:
            print(
                f"projective recovery {outcome.replace('_', ' ')} every sampled code state "
                f"(largest Frobenius deviation {recovery_error:.3e} over 24 sample states, tol {args.tol:.1e})"
            )
        print(f"verdict: {report.verdict.value}")
        print()
    _emit(doc, args)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncpqec",
        description="Analysis of Hermiticity-preserving (possibly non-completely-positive) maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol", type=float, default=None, help="working tolerance (default: QEC_TOL or 1e-9)")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="compact single-line JSON output")
        fmt.add_argument("--pretty", action="store_true", help="indented JSON output (default)")

    p_convert = sub.add_parser("convert", help="convert a channel document between representations")
    p_convert.add_argument("input", help="channel document (JSON)")
    p_convert.add_argument("--to", required=True, choices=["a_matrix", "b_matrix", "operator_sum"])
    add_common(p_convert)
    p_convert.set_defaults(func=cmd_convert)

    p_classify = sub.add_parser("classify", help="CP/NCP verdict with signature and preservation checks")
    p_classify.add_argument("input", help="channel document (JSON)")
    add_common(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_qec = sub.add_parser("qec", help="reversibility analysis on a code space")
    p_qec.add_argument("input", help="channel document (JSON)")
    p_qec.add_argument("--code", required=True, help="code document (JSON list of basis vectors)")
    add_common(p_qec)
    p_qec.set_defaults(func=cmd_qec)

    p_equiv = sub.add_parser("equiv", help="connect two equal maps by a pseudounitary mixing")
    p_equiv.add_argument("first", help="channel document (JSON)")
    p_equiv.add_argument("second", help="channel document (JSON)")
    add_common(p_equiv)
    p_equiv.set_defaults(func=cmd_equiv)

    p_repro = sub.add_parser(
        "reproduce-paper",
        help="run the worked three-qubit inverted bit-flip example end to end",
    )
    p_repro.add_argument("--c0", type=float, default=-0.2, help="weight of the identity term (default -0.2)")
    add_common(p_repro)
    p_repro.set_defaults(func=cmd_reproduce_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.tol = _resolve_tol(args)
        return args.func(args)
    except NumericalFailure as exc:
        print(f"ncpqec {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"ncpqec {args.command}: invalid input: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Process entry of ``python -m ncpqec`` and the ``ncpqec`` script: freeze the heap, run ``main``, exit.

    Every object alive here (numpy's and ``ncpqec``'s modules, their
    functions and tables) lives until the process exits.
    ``gc.freeze()`` moves them to the permanent generation, so the
    collector skips them in every full collection the command triggers
    and in the collections ``Py_FinalizeEx`` runs at shutdown, which
    otherwise rescan the whole imported heap.  ``main`` itself leaves
    the collector as it found it, so in-process callers keep their heap
    unfrozen.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
