"""JSON document schemas for channels, codes and analysis reports.

Arrays are encoded as row-major nested lists of their shape, except in
a channel document's payload.  An array whose imaginary parts are all
``+0.0``, bit for bit, is written as its real parts; any other writes
each entry as a two-element ``[re, im]`` list.  The form is chosen per
array from its data, and both decode to the bits they were written
from.  Every document carries a ``schema_version`` so formats can
evolve; parsing rejects unknown versions.  Analysis documents are
version ``"4"``, which hold everything on the code in ``d x r`` form;
version ``"3"`` wrote every array as pairs, so it is read as a ``"4"``
tree.  Code documents are unversioned lists of vectors in either form.

Channel documents are written as version ``"2"``: the payload's
``matrix`` (``a_matrix``, ``b_matrix``) or ``operators``
(``operator_sum``) is one string, the base64 text of the little-endian
``complex128`` bytes of the row-major array, 16 bytes per entry.  It
stores no shape, since the document implies it: ``(dim^2, dim^2)`` for
a matrix and ``(len(signs), dim, dim)`` for the operators.  A ``d = 16``
dynamical matrix takes 1.40 MB packed, whatever its entries, and decodes
in one ``np.frombuffer`` where the lists take a JSON tree of 65,792
lists and 131,072 floats (0.68 MB for a sparse map, 2.9 MB for a dense
one).  Version ``"1"`` channel documents, with the payload as lists, are
still read: the list decoder stays for code and analysis documents and
for hand-written input, so a ``"1"`` channel costs no second path.

Parsers raise ``ValueError`` with a path-like hint for malformed input,
including NaN and infinite numbers and a packed string that is not the
canonical base64 text of exactly the implied number of bytes.
"""

from __future__ import annotations

import binascii
import math
import sys
from contextlib import suppress
from itertools import chain
from typing import Any

import numpy as np

from .qec import CodeSpace, NegativityWitness, QecReport, Recovery, projector_from_basis
from .superop import AMatrix, BMatrix, SignedOperatorSum
from .pseudolinalg import Signature

SCHEMA_VERSION = "2"
_LIST_VERSION = "1"  # channel payloads as [re, im] lists, still read
_ANALYSIS_VERSION = "4"
_PAIR_ANALYSIS_VERSION = "3"  # every entry as a pair, a valid "4" tree
_CHANNEL_FORMS = {"a_matrix": AMatrix, "b_matrix": BMatrix, "operator_sum": SignedOperatorSum}
REPRESENTATIONS = tuple(_CHANNEL_FORMS)
_NUMBER = (int, float)
_FLOAT_MAX = sys.float_info.max

__all__ = [
    "SCHEMA_VERSION",
    "REPRESENTATIONS",
    "encode_matrix",
    "decode_matrix",
    "encode_vector",
    "decode_vector",
    "channel_document",
    "parse_channel_document",
    "parse_code_document",
    "analysis_document",
    "parse_analysis_document",
]


def _finite(x: Any) -> bool:
    """``x`` is an int or float (never a bool) that a float holds finitely."""
    return isinstance(x, _NUMBER) and not isinstance(x, bool) and -_FLOAT_MAX <= x <= _FLOAT_MAX


def _pair(z: Any) -> bool:
    """``z`` is a list or tuple ``[re, im]`` of two :func:`_finite` numbers."""
    return isinstance(z, (list, tuple)) and len(z) == 2 and _finite(z[0]) and _finite(z[1])


def _complex_array(entries: list, shape: tuple[int, ...], where: str) -> np.ndarray:
    """The row-major flat list ``entries`` read as a complex128 array of ``shape``.

    The entries are all finite numbers, each the real part of an entry
    whose imaginary part is ``+0.0``, or all ``[re, im]`` pairs; the
    first entry decides which.  They are type-checked by whole-array
    scans and decoded in one pass: one ``np.fromiter`` over the flat
    numbers, read bit for bit as complex128.  Only a rejected input is
    searched for the first entry that breaks its form, which is named.
    """
    pairs = isinstance(entries[0], (list, tuple))
    numbers = chain.from_iterable if pairs else iter
    if not pairs or all(issubclass(t, (list, tuple)) for t in set(map(type, entries))) and set(map(len, entries)) == {2}:
        if all(issubclass(t, _NUMBER) and t is not bool for t in set(map(type, numbers(entries)))):
            with suppress(OverflowError):  # an int beyond the float range
                a = np.fromiter(numbers(entries), float, (1 + pairs) * len(entries))
                if np.isfinite(a).all():
                    return (a.view(complex) if pairs else a.astype(complex)).reshape(shape)
    ok, what = (_pair, "complex entries must be [re, im] pairs of") if pairs else (_finite, "real entries must be")
    i, z = next((i, z) for i, z in enumerate(entries) if not ok(z))
    at = "".join(f"[{j}]" for j in np.unravel_index(i, shape))
    raise ValueError(f"{where}{at}: {what} finite numbers, got {z!r}")


def encode_matrix(a: np.ndarray) -> list:
    """Encode a matrix, a vector or a stack of either as nested lists of its shape.

    An array whose imaginary parts are all ``+0.0``, bit for bit, is
    written as its real parts; any other as ``[re, im]`` pairs.  Either
    form decodes to the same bits.
    """
    a = np.asarray(a, dtype=complex)
    if not a.imag.view(np.int64).any():
        return a.real.tolist()
    return np.stack([a.real, a.imag], axis=-1).tolist()


encode_vector = encode_matrix


def decode_matrix(obj: Any, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ValueError(f"{where}: expected a non-empty list of rows")
    ncols = len(obj[0])
    if ncols == 0 or any(len(r) != ncols for r in obj):
        raise ValueError(f"{where}: rows must be non-empty and of equal length")
    return _complex_array(list(chain.from_iterable(obj)), (len(obj), ncols), where)


def decode_vector(obj: Any, where: str = "vector") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: expected a non-empty list of [re, im] pairs")
    return _complex_array(obj, (len(obj),), where)


def _pack(a: np.ndarray) -> str:
    """The base64 text of the little-endian complex128 bytes of ``a``, row-major."""
    return binascii.b2a_base64(np.ascontiguousarray(a, dtype="<c16").tobytes(), newline=False).decode("ascii")


def _unpack(text: Any, shape: tuple[int, ...], where: str) -> np.ndarray:
    """The :func:`_pack` string ``text`` read as a read-only complex128 array of ``shape``.

    Only the text :func:`_pack` writes is read: base64 of exactly the
    bytes ``shape`` needs, with no line break, stray character or inner
    padding, which the lenient ``a2b_base64`` would skip.  The check
    re-encodes the bytes, since ``strict_mode`` needs Python 3.11.
    """
    if not isinstance(text, str):
        raise ValueError(f"{where} must be a string of packed complex128 bytes, got {type(text).__name__}")
    try:
        data = binascii.a2b_base64(text)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ValueError(f"{where}: not base64 text ({exc})") from None
    expected = 16 * math.prod(shape)
    if len(data) != expected:
        raise ValueError(f"{where}: holds {len(data)} bytes, but shape {shape} needs {expected}")
    if binascii.b2a_base64(data, newline=False) != text.encode("ascii"):
        raise ValueError(f"{where}: not canonical base64 text")
    a = np.frombuffer(data, "<c16").reshape(shape)
    if not np.isfinite(a).all():
        at = tuple(int(j) for j in np.argwhere(~np.isfinite(a))[0])
        path = where + "".join(f"[{j}]" for j in at)
        raise ValueError(f"{path}: complex entries must be finite, got {complex(a[at])!r}")
    return a


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


def _check_version(obj: dict, where: str, *accepted: str) -> str:
    version = _require(obj, "schema_version", where)
    if version not in accepted:
        raise ValueError(f"{where}: unsupported schema_version {version!r}")
    return version


def _check_dim(obj: dict, where: str) -> int:
    return _field(obj, "dim", where, int, "a positive integer", lambda dim: dim >= 1)


def channel_document(channel: AMatrix | BMatrix | SignedOperatorSum) -> dict:
    """Serialize a channel in its current representation, its array packed (version ``"2"``)."""
    rep = next((name for name, form in _CHANNEL_FORMS.items() if isinstance(channel, form)), None)
    if rep is None:
        raise TypeError(f"expected AMatrix, BMatrix or SignedOperatorSum, got {type(channel).__name__}")
    if rep == "operator_sum":
        payload = {"signs": list(channel.signs), "operators": _pack(channel.operators)}
    else:
        payload = {"matrix": _pack(channel.matrix)}
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": channel.dim,
        "representation": rep,
        "payload": payload,
    }


def parse_channel_document(obj: Any) -> AMatrix | BMatrix | SignedOperatorSum:
    """Parse a channel document: its JSON structure here, the rest in the record it builds.

    A version ``"2"`` payload holds its array packed, in the shape the
    document implies; a version ``"1"`` payload holds it as lists.  The
    record checks the matrix shape, each operator's shape and the
    sign count, values and order; its ``ValueError`` is prefixed
    ``channel.payload:``.
    """
    if not isinstance(obj, dict):
        raise ValueError("channel document must be a JSON object")
    packed = _check_version(obj, "channel", SCHEMA_VERSION, _LIST_VERSION) == SCHEMA_VERSION
    dim = _check_dim(obj, "channel")
    rep = _field(obj, "representation", "channel", str, f"one of {REPRESENTATIONS}", REPRESENTATIONS.__contains__)
    payload, where = _field(obj, "payload", "channel", dict, "a JSON object"), "channel.payload"
    if rep == "operator_sum":
        signs = tuple(_field(payload, "signs", where, list, "a list"))
        if packed:
            operators = _unpack(_require(payload, "operators", where), (len(signs), dim, dim), f"{where}.operators")
        else:
            operators = _field(payload, "operators", where, list, "a list")
            operators = [decode_matrix(op, f"{where}.operators[{k}]") for k, op in enumerate(operators)]
        terms = signs, operators
    else:
        matrix, at = _require(payload, "matrix", where), f"{where}.matrix"
        terms = (_unpack(matrix, (dim * dim, dim * dim), at) if packed else decode_matrix(matrix, at),)
    try:
        return _CHANNEL_FORMS[rep](dim, *terms)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


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


def analysis_document(report: QecReport, signature: Signature) -> dict:
    """Serialize a :class:`~ncpqec.qec.QecReport`; the recovery is stored as its ``B``."""
    syndromes = witness = None
    if (syn := report.syndromes) is not None:  # the whole W stack in one conversion
        columns = encode_matrix(syn.isometries), syn.weights.tolist(), syn.signs.tolist(), syn.term_indices.tolist()
        syndromes = [{"isometry": w, "weight": x, "sign": s, "term_index": k} for w, x, s, k in zip(*columns)]
    if report.witness is not None:
        witness = {
            "vector": encode_matrix(report.witness.vector),
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
        "diagonal": None if report.diagonal is None else np.asarray(report.diagonal, dtype=float).tolist(),
        "syndromes": syndromes,
        "recovery": None if (rec := report.recovery) is None else {"code_isometry": encode_matrix(rec.code_isometry)},
        "witness": witness,
    }


def parse_analysis_document(obj: Any) -> dict:
    """Validate an analysis document, returning decoded arrays.

    Used to close the serialization loop: every emitted document must
    re-parse.  Returns a plain dict with numpy arrays in place of the
    encoded matrices; ``recovery`` is the factored
    :class:`~ncpqec.qec.Recovery` of the stored ``B`` and syndrome
    isometries, with no dense terms.  Besides malformed fields it refuses
    what no analysis gives: a ``diagonal`` without one entry per
    diagonalizer column, a syndrome ``term_index`` beyond it, a syndrome
    weight that is not positive or not ``diagonal[term_index]``, a
    syndrome of sign -1 under a ``reversible_positive`` verdict, and a
    witness that does not name the first syndrome of sign -1.
    """
    if not isinstance(obj, dict):
        raise ValueError("analysis document must be a JSON object")
    _check_version(obj, "analysis", _ANALYSIS_VERSION, _PAIR_ANALYSIS_VERSION)
    verdicts = ("reversible_positive", "code_outside_domain", "conditions_violated")
    verdict = _field(obj, "verdict", "analysis", str, f"one of {verdicts}", verdicts.__contains__)
    sig = _field(obj, "signature", "analysis", dict, "a JSON object")
    where = "analysis.signature"
    p, q = (_field(sig, key, where, int, "a non-negative integer", lambda x: x >= 0) for key in "pq")
    condition, where = _field(obj, "condition", "analysis", dict, "a JSON object"), "analysis.condition"
    entries = decode_matrix(_require(condition, "entries", where), f"{where}.entries")
    residual = _field(condition, "residual", where, _NUMBER, "a non-negative number", lambda x: x >= 0)
    forms = ("hermitian", "pseudohermitian")
    form = _field(condition, "form", where, str, f"one of {forms}", forms.__contains__)
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
    columns, diag = 0, []  # analyze writes one diagonal entry per diagonalizer column
    if obj.get("diagonalizer") is not None:
        out["diagonalizer"] = decode_matrix(obj["diagonalizer"], "analysis.diagonalizer")
        columns = out["diagonalizer"].shape[1]
    if obj.get("diagonal") is not None:
        what = f"a list of {columns} finite numbers, one per diagonalizer column"
        diag = _field(obj, "diagonal", "analysis", list, what, lambda xs: len(xs) == columns and all(map(_finite, xs)))
        out["diagonal"] = np.array(diag, dtype=float)
    if obj.get("syndromes") is not None:
        decoded, taken = [], set()
        fresh = lambda x: 0 <= x < len(diag) and x not in taken  # noqa: E731
        index_what = f"a non-negative integer not used before, below the diagonal's length {len(diag)}"
        kept = lambda x: 0 < x <= _FLOAT_MAX  # noqa: E731 -- analyze keeps only positive weights
        reversible = verdict == "reversible_positive"  # its QecReport refuses a -1 syndrome
        sign_what = "+1 under a reversible_positive verdict" if reversible else "+1 or -1"
        for k, s in enumerate(_field(obj, "syndromes", "analysis", list, "a list")):
            where = f"analysis.syndromes[{k}]"
            if not isinstance(s, dict):
                raise ValueError(f"{where} must be a JSON object")
            index = _field(s, "term_index", where, int, index_what, fresh)
            _field(s, "weight", where, _NUMBER, "a positive finite number", kept)
            # analyze stores weight = diagonal[term_index], which JSON floats keep exactly
            weight = _field(s, "weight", where, _NUMBER, f"diagonal[{index}]", lambda x: x == diag[index])
            decoded.append(
                {
                    "isometry": decode_matrix(_require(s, "isometry", where), f"{where}.isometry"),
                    "weight": float(weight),
                    "sign": _field(s, "sign", where, int, sign_what, lambda x: x == 1 or x == -1 and not reversible),
                    "term_index": index,
                }
            )
            taken.add(index)
        out["syndromes"] = decoded
    syndromes = out.get("syndromes") or []
    if obj.get("recovery") is not None:
        rec = _field(obj, "recovery", "analysis", dict, "a JSON object")
        where = "analysis.recovery.code_isometry"
        b = decode_matrix(_require(rec, "code_isometry", "analysis.recovery"), where)
        shapes = sorted({s["isometry"].shape for s in syndromes})
        if shapes != [b.shape]:
            raise ValueError(f"{where}: shape {b.shape} must be that of every syndrome isometry, got {shapes}")
        stack = np.stack([s["isometry"] for s in syndromes])
        stack.setflags(write=False)  # held by the record without a second copy
        out["recovery"] = Recovery(b, stack)
    if witness is not None:
        witness, where = _field(obj, "witness", "analysis", dict, "a JSON object"), "analysis.witness"
        first = next((k for k, s in enumerate(syndromes) if s["sign"] == -1), None)  # analyze's witness names it
        what = f"an index below the syndrome count {len(syndromes)}: that of the first syndrome of sign -1"
        index = _field(witness, "syndrome_index", where, int, what, lambda x: x == first)
        vector = decode_vector(_require(witness, "vector", where), f"{where}.vector")
        rows = syndromes[index]["isometry"].shape[0]
        if vector.shape != (rows,):
            raise ValueError(f"{where}.vector: length {vector.size} does not match the {rows} rows of the isometries")
        prob = _field(witness, "probability", where, _NUMBER, "a negative number", lambda x: x < 0)
        out["witness"] = NegativityWitness(vector, index, float(prob))
    return out
