"""JSON document schemas for channels, codes and analysis reports.

Complex scalars are encoded as two-element ``[re, im]`` arrays and
matrices as row-major nested lists of those pairs.  Every document
carries a ``schema_version`` so formats can evolve; parsing rejects
unknown versions.  Channel documents are version ``"1"`` and analysis
documents version ``"2"``, whose syndromes are ``d x r`` isometries.
Parsers raise ``ValueError`` with a path-like hint for malformed input,
including NaN and infinite numbers.
"""

from __future__ import annotations

import sys
from typing import Any

import numpy as np

from .qec import CodeSpace, NegativityWitness, QecReport, projector_from_basis
from .superop import AMatrix, BMatrix, SignedOperatorSum
from .pseudolinalg import Signature

SCHEMA_VERSION = "1"
_ANALYSIS_VERSION = "2"
REPRESENTATIONS = ("a_matrix", "b_matrix", "operator_sum")
_NUMBER = (int, float)
_FLOAT_MAX = sys.float_info.max

__all__ = [
    "SCHEMA_VERSION",
    "REPRESENTATIONS",
    "encode_matrix",
    "decode_matrix",
    "channel_document",
    "parse_channel_document",
    "parse_code_document",
    "analysis_document",
    "parse_analysis_document",
]


def _encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _finite(x: Any) -> bool:
    """``x`` is an int or float (never a bool) that a float holds finitely."""
    return isinstance(x, _NUMBER) and not isinstance(x, bool) and -_FLOAT_MAX <= x <= _FLOAT_MAX


def encode_matrix(m: np.ndarray) -> list[list[list[float]]]:
    """Encode a matrix as row-major nested ``[re, im]`` pairs."""
    m = np.asarray(m, dtype=complex)
    return [[_encode_complex(z) for z in row] for row in m]


def decode_matrix(obj: Any, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ValueError(f"{where}: expected a non-empty list of rows")
    ncols = len(obj[0])
    if ncols == 0 or any(len(r) != ncols for r in obj):
        raise ValueError(f"{where}: rows must be non-empty and of equal length")
    return np.array([decode_vector(row, f"{where}[{i}]") for i, row in enumerate(obj)])


def encode_vector(v: np.ndarray) -> list[list[float]]:
    return [_encode_complex(z) for z in np.asarray(v, dtype=complex)]


def decode_vector(obj: Any, where: str = "vector") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: expected a non-empty list of [re, im] pairs")
    for i, z in enumerate(obj):
        if not (isinstance(z, (list, tuple)) and len(z) == 2 and _finite(z[0]) and _finite(z[1])):
            raise ValueError(f"{where}[{i}]: complex entries must be [re, im] pairs of finite numbers, got {z!r}")
    # The checked pairs, read bit for bit as complex128.
    return np.array(obj, dtype=float).view(complex)[:, 0]


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise ValueError(f"{where}: missing required field {key!r}")
    return obj[key]


def _field(obj: dict, key: str, where: str, kind: type | tuple, what: str, ok=lambda value: True) -> Any:
    """The required ``obj[key]``, checked to be a ``kind`` (never a bool) passing ``ok``."""
    value = _require(obj, key, where)
    if not isinstance(value, kind) or isinstance(value, bool) or not ok(value):
        raise ValueError(f"{where}.{key} must be {what}, got {value!r}")
    return value


def _check_version(obj: dict, where: str, expected: str = SCHEMA_VERSION) -> None:
    version = _require(obj, "schema_version", where)
    if version != expected:
        raise ValueError(f"{where}: unsupported schema_version {version!r}")


def _check_dim(obj: dict, where: str) -> int:
    return _field(obj, "dim", where, int, "a positive integer", lambda dim: dim >= 1)


def channel_document(channel: AMatrix | BMatrix | SignedOperatorSum) -> dict:
    """Serialize a channel in its current representation."""
    if isinstance(channel, AMatrix):
        rep, payload = "a_matrix", {"matrix": encode_matrix(channel.matrix)}
    elif isinstance(channel, BMatrix):
        rep, payload = "b_matrix", {"matrix": encode_matrix(channel.matrix)}
    elif isinstance(channel, SignedOperatorSum):
        rep = "operator_sum"
        payload = {
            "signs": list(channel.signs),
            "operators": [encode_matrix(op) for op in channel.operators],
        }
    else:
        raise TypeError(f"expected AMatrix, BMatrix or SignedOperatorSum, got {type(channel).__name__}")
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": channel.dim,
        "representation": rep,
        "payload": payload,
    }


def parse_channel_document(obj: Any) -> AMatrix | BMatrix | SignedOperatorSum:
    """Parse and validate a channel document."""
    if not isinstance(obj, dict):
        raise ValueError("channel document must be a JSON object")
    _check_version(obj, "channel")
    dim = _check_dim(obj, "channel")
    rep = _require(obj, "representation", "channel")
    if rep not in REPRESENTATIONS:
        raise ValueError(f"channel: unknown representation {rep!r}")
    payload = _require(obj, "payload", "channel")
    if not isinstance(payload, dict):
        raise ValueError("channel.payload must be a JSON object")
    if rep in ("a_matrix", "b_matrix"):
        m = decode_matrix(_require(payload, "matrix", "channel.payload"), "channel.payload.matrix")
        if m.shape != (dim * dim, dim * dim):
            raise ValueError(
                f"channel.payload.matrix: shape {m.shape} does not match dim {dim} "
                f"(expected {(dim * dim, dim * dim)})"
            )
        return AMatrix(dim, m) if rep == "a_matrix" else BMatrix(dim, m)
    signs = _require(payload, "signs", "channel.payload")
    operators = _require(payload, "operators", "channel.payload")
    if not isinstance(signs, list) or not isinstance(operators, list):
        raise ValueError("channel.payload: signs and operators must be lists")
    if len(signs) != len(operators):
        raise ValueError(
            f"channel.payload: {len(signs)} signs but {len(operators)} operators"
        )
    mats = []
    for k, op in enumerate(operators):
        m = decode_matrix(op, f"channel.payload.operators[{k}]")
        if m.shape != (dim, dim):
            raise ValueError(
                f"channel.payload.operators[{k}]: shape {m.shape} does not match dim {dim}"
            )
        mats.append(m)
    try:
        return SignedOperatorSum(dim, tuple(signs), tuple(mats))
    except ValueError as exc:
        raise ValueError(f"channel.payload: {exc}") from exc


def parse_code_document(obj: Any, tol: float) -> CodeSpace:
    """Parse a code-space document: a list of basis vectors.

    Accepts either a bare JSON array of vectors or an object
    ``{"dim": d, "basis": [...]}``; basis vectors are orthonormalized.
    """
    if isinstance(obj, dict):
        dim = _check_dim(obj, "code")
        basis_obj = _require(obj, "basis", "code")
    else:
        dim, basis_obj = None, obj
    if not isinstance(basis_obj, list) or not basis_obj:
        raise ValueError("code: expected a non-empty list of basis vectors")
    basis = [decode_vector(v, f"code.basis[{k}]") for k, v in enumerate(basis_obj)]
    if dim is not None and any(v.shape != (dim,) for v in basis):
        raise ValueError(f"code: basis vectors must have length {dim}")
    return projector_from_basis(basis, tol)


def _encode_syndromes(report: QecReport) -> list[dict] | None:
    if report.syndromes is None:
        return None
    return [
        {
            "isometry": encode_matrix(s.isometry),
            "weight": float(s.weight),
            "sign": int(s.sign),
            "term_index": int(s.term_index),
        }
        for s in report.syndromes
    ]


def analysis_document(report: QecReport, signature: Signature) -> dict:
    """Serialize a :class:`~ncpqec.qec.QecReport`."""
    recovery = None
    if report.recovery is not None:
        recovery = {
            "signs": list(report.recovery.signs),
            "operators": [encode_matrix(op) for op in report.recovery.operators],
        }
    witness = None
    if report.witness is not None:
        witness = {
            "state": encode_matrix(report.witness.state),
            "syndrome_index": int(report.witness.syndrome_index),
            "probability": float(report.witness.probability),
        }
    return {
        "schema_version": _ANALYSIS_VERSION,
        "verdict": report.verdict.value,
        "signature": {"p": signature.p, "q": signature.q},
        "condition": {
            "entries": encode_matrix(report.condition.entries),
            "residual": float(report.condition.residual),
            "form": report.condition.form,
        },
        "diagonalizer": None if report.diagonalizer is None else encode_matrix(report.diagonalizer),
        "diagonal": None if report.diagonal is None else [float(x) for x in report.diagonal],
        "syndromes": _encode_syndromes(report),
        "recovery": recovery,
        "witness": witness,
    }


def parse_analysis_document(obj: Any) -> dict:
    """Validate an analysis document, returning decoded arrays.

    Used to close the serialization loop: every emitted document must
    re-parse.  Returns a plain dict with numpy arrays in place of the
    encoded matrices.
    """
    if not isinstance(obj, dict):
        raise ValueError("analysis document must be a JSON object")
    _check_version(obj, "analysis", _ANALYSIS_VERSION)
    verdict = _require(obj, "verdict", "analysis")
    verdicts = ("reversible_positive", "code_outside_domain", "conditions_violated")
    if verdict not in verdicts:
        raise ValueError(f"analysis: unknown verdict {verdict!r}")
    sig = _require(obj, "signature", "analysis")
    if not isinstance(sig, dict):
        raise ValueError("analysis.signature must be a JSON object")
    where = "analysis.signature"
    p, q = (_field(sig, key, where, int, "a non-negative integer", lambda x: x >= 0) for key in "pq")
    condition = _require(obj, "condition", "analysis")
    if not isinstance(condition, dict):
        raise ValueError("analysis.condition must be a JSON object")
    entries = decode_matrix(_require(condition, "entries", "analysis.condition"), "analysis.condition.entries")
    residual = _field(
        condition, "residual", "analysis.condition", _NUMBER, "a non-negative number", lambda x: x >= 0
    )
    form = _require(condition, "form", "analysis.condition")
    if form not in ("hermitian", "pseudohermitian"):
        raise ValueError(f"analysis.condition.form: unknown form {form!r}")
    out: dict[str, Any] = {
        "verdict": verdict,
        "signature": (p, q),
        "condition_entries": entries,
        "condition_residual": float(residual),
        "condition_form": form,
    }
    witness = obj.get("witness")
    if (witness is not None) != (verdict == "code_outside_domain"):
        raise ValueError("analysis: witness must be present iff verdict is code_outside_domain")
    if verdict == "reversible_positive" and obj.get("recovery") is None:
        raise ValueError("analysis: reversible_positive requires a recovery")
    if obj.get("diagonalizer") is not None:
        out["diagonalizer"] = decode_matrix(obj["diagonalizer"], "analysis.diagonalizer")
    if obj.get("diagonal") is not None:
        diag = _field(obj, "diagonal", "analysis", list, "a list of finite numbers", lambda xs: all(map(_finite, xs)))
        out["diagonal"] = np.array(diag, dtype=float)
    if obj.get("syndromes") is not None:
        decoded = []
        for k, s in enumerate(_field(obj, "syndromes", "analysis", list, "a list")):
            where = f"analysis.syndromes[{k}]"
            if not isinstance(s, dict):
                raise ValueError(f"{where} must be a JSON object")
            decoded.append(
                {
                    "isometry": decode_matrix(_require(s, "isometry", where), f"{where}.isometry"),
                    "weight": float(_field(s, "weight", where, _NUMBER, "a finite number", _finite)),
                    "sign": _field(s, "sign", where, int, "+1 or -1", lambda x: x in (1, -1)),
                    "term_index": _field(s, "term_index", where, int, "a non-negative integer", lambda x: x >= 0),
                }
            )
        out["syndromes"] = decoded
    if obj.get("recovery") is not None:
        rec = obj["recovery"]
        if not isinstance(rec, dict):
            raise ValueError("analysis.recovery must be a JSON object")
        ops = [
            decode_matrix(m, f"analysis.recovery.operators[{k}]")
            for k, m in enumerate(_field(rec, "operators", "analysis.recovery", list, "a list"))
        ]
        signs = _field(rec, "signs", "analysis.recovery", list, "a list")
        try:
            out["recovery"] = SignedOperatorSum.from_terms(signs, ops)
        except ValueError as exc:
            raise ValueError(f"analysis.recovery: {exc}") from exc
    if witness is not None:
        if not isinstance(witness, dict):
            raise ValueError("analysis.witness must be a JSON object")
        where = "analysis.witness"
        state = decode_matrix(_require(witness, "state", where), f"{where}.state")
        index = _field(witness, "syndrome_index", where, int, "a non-negative integer", lambda x: x >= 0)
        prob = _field(witness, "probability", where, _NUMBER, "a negative number", lambda x: x < 0)
        out["witness"] = NegativityWitness(state, index, float(prob))
    return out
