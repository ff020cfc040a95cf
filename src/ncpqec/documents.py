"""JSON document schemas for channels, codes and analysis reports.

Arrays are encoded as row-major nested lists of their shape, except in
a channel document's payload.  An array whose imaginary parts are all
``+0.0``, bit for bit, is written as its real parts; any other writes
each entry as a two-element ``[re, im]`` list.  The form is chosen per
array from its data, and both decode to the bits they were written
from.  Every document carries a ``schema_version`` so formats can
evolve; parsing rejects unknown versions.  Analysis documents are
version ``"7"``, which hold everything on the code in ``d x r`` form and
each field of the report's records once: the report's ``values``, the
signed canonical values ``sign_k d_k``, written as ``condition.values``
beside its ``residual``, give the conditions ``diag(values)`` and each
syndrome's weight and sign, and each syndrome is its isometry alone.
Their arrays on ``d`` rows (each syndrome isometry, the code's ``B`` and
the witness vector) are row-sparse when few of their rows are nonzero:
``{"shape", "rows", "values"}``, the listed rows in the same
real-or-pair form and every other entry ``+0.0``.  Older analysis versions are refused, naming
``ncpqec qec``, which writes the document again from its inputs.  Code
documents are unversioned lists of vectors in either form.

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
canonical base64 text of exactly the implied number of bytes.  They
check the JSON: versions, types, entries and shapes.  Each parser
builds the records its document holds, and a rule that a record keeps
is checked by the record's own code, not restated here; its message
comes prefixed with the path of the record's field.
"""

from __future__ import annotations

import binascii
import math
from contextlib import suppress
from itertools import chain
from typing import Any

import numpy as np

from .qec import (
    _FLOAT_MAX,
    CodeSpace,
    NegativityWitness,
    QecReport,
    Recovery,
    Verdict,
    projector_from_basis,
)
from .superop import AMatrix, BMatrix, SignedOperatorSum
from .pseudolinalg import Signature

SCHEMA_VERSION = "2"
_LIST_VERSION = "1"  # channel payloads as [re, im] lists, still read
_ANALYSIS_VERSION = "7"
_CHANNEL_FORMS = {"a_matrix": AMatrix, "b_matrix": BMatrix, "operator_sum": SignedOperatorSum}
REPRESENTATIONS = tuple(_CHANNEL_FORMS)
_NUMBER = (int, float)

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
        raise ValueError(f"{where}: expected a non-empty list of numbers or [re, im] pairs")
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


def _check_version(obj: dict, where: str, *accepted: str, hint: str = "") -> str:
    version = _require(obj, "schema_version", where)
    if version not in accepted:
        raise ValueError(f"{where}: unsupported schema_version {version!r}{hint}")
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
    return _record(where, _CHANNEL_FORMS[rep], dim, *terms)


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


def _encode_rows(stack: np.ndarray) -> list:
    """Each array of ``stack`` (``(m, d, r)`` or ``(m, d)``) encoded, row-sparse when few of its ``d`` rows are live.

    A row is live when any bit of it is set, read from the int64 view,
    so a ``-0.0`` counts.  The sparse form of an array is
    ``{"shape", "rows", "values"}``: its shape, its live rows in
    increasing order and those rows in :func:`encode_matrix`'s form,
    which the whole stack shares.
    """
    m, d = stack.shape[:2]
    # The form is chosen per stack from its data.  Below 32 rows it is
    # dense, with no scan: on one core, analysis_document + json.dumps of the
    # bit-flip reports took 72 vs 54 us sparse at d = 8 and gained under 7 %
    # at d = 16.  From 32 rows it is sparse when at most half the rows are
    # live: 0.63x at d = 32 and 0.38x at d = 64; on random stacks the sparse
    # form broke even near three quarters live.
    if d < 32:
        return encode_matrix(stack)
    stack = np.ascontiguousarray(stack, dtype=complex)
    bits = stack.view(np.int64).reshape(m * d, -1)
    # Reduced along contiguous memory: any(axis=1) on the few bits of each row is 4x slower.
    k, rows = np.nonzero(np.ascontiguousarray(bits.T).any(axis=0).reshape(m, d))
    if 2 * k.size > m * d:
        return encode_matrix(stack)
    values, rows, shape = encode_matrix(stack[k, rows]), rows.tolist(), list(stack.shape[1:])
    ends = np.searchsorted(k, np.arange(1, m + 1)).tolist()
    return [{"shape": shape, "rows": rows[a:b], "values": values[a:b]} for a, b in zip([0, *ends], ends)]


def _decode_rows(objs: list, paths: list[str], ndim: int) -> np.ndarray:
    """The stack of the ``ndim``-dimensional arrays ``objs`` (at ``paths``), each dense or row-sparse, all of one shape.

    A dense array is nested lists, read as :func:`decode_matrix` reads
    them.  A row-sparse one is refused unless its ``shape`` holds ``ndim``
    positive integers, its ``rows`` are strictly increasing indices below
    ``shape[0]`` and its ``values`` hold one entry, or one row of
    ``shape[1]`` entries, per listed row.  Every shape must be the first
    array's, syndrome 0's, and a stack of that shape must fit in memory.
    The stack is built once: zeros, then one scatter of every listed row.
    """
    parts = []
    for obj, where in zip(objs, paths):
        if not isinstance(obj, dict):  # dense lists
            values = (decode_matrix if ndim == 2 else decode_vector)(obj, where)
            parts.append((values.shape, range(len(values)), values))
            continue
        dims = lambda s: len(s) == ndim and all(type(x) is int and x > 0 for x in s)
        shape = tuple(_field(obj, "shape", where, list, f"a list of {ndim} positive integers", dims))
        what = f"a strictly increasing list of row indices below {shape[0]}"
        increasing = lambda rs: all(type(i) is int for i in rs) and all(map(int.__lt__, [-1, *rs], [*rs, shape[0]]))
        rows = _field(obj, "rows", where, list, what, increasing)
        n, width = len(rows), shape[1:]
        what = f"a list of {n} {f'rows of {width[0]} entries' if width else 'entries'}, one per listed row"
        fits = lambda v: len(v) == n and (not width or all(isinstance(row, list) and len(row) == width[0] for row in v))
        values = _field(obj, "values", where, list, what, fits)
        entries = list(chain.from_iterable(values)) if width else values
        values = _complex_array(entries, (n, *width), f"{where}.values") if n else np.zeros((0, *width))
        parts.append((shape, rows, values))
    shape = parts[0][0]
    for (got, _, _), where in zip(parts, paths):
        if got != shape:
            raise ValueError(f"{where}: shape {got} must be that of syndrome 0, {shape}")
    try:
        stack = np.zeros((len(parts), *shape), complex)
    except MemoryError:  # a shape no listed row backs, beyond this machine's memory
        raise ValueError(f"{paths[0]}: shape {shape} is too large to decode") from None
    index = np.repeat(np.arange(len(parts)), [len(rows) for _, rows, _ in parts])
    rows = np.fromiter(chain.from_iterable(rows for _, rows, _ in parts), int)
    stack[index, rows] = np.concatenate([values for *_, values in parts])
    return stack


def analysis_document(report: QecReport, signature: Signature) -> dict:
    """Serialize a :class:`~ncpqec.qec.QecReport` as version ``"7"``, each field of its records once.

    The report's ``values``, written once as ``condition.values`` with
    its ``residual``, give the canonical conditions ``diag(values)`` and
    each syndrome its weight ``|values[k]|`` and its sign.  Syndrome
    ``k`` is canonical term ``k``, column ``k`` of the diagonalizer,
    written as its isometry ``W_k``.  With the syndromes comes the code's
    ``B`` (``code_isometry``), so the document holds their whole
    :class:`~ncpqec.qec.Recovery`.  The arrays on ``d`` rows (the ``W``
    stack, ``B`` and the witness vector) are row-sparse when few of their
    rows are nonzero.  ``B`` takes its own real-or-pair form: a real code
    under complex ``W_k`` stays real.
    """
    syndromes = code_isometry = witness = None
    if (syn := report.syndromes) is not None:  # the whole W stack in one conversion
        syndromes = _encode_rows(syn.isometries)
        code_isometry = _encode_rows(syn.code_isometry[None])[0]
    if report.witness is not None:
        witness = {
            "vector": _encode_rows(report.witness.vector[None])[0],
            "syndrome_index": int(report.witness.syndrome_index),
            "probability": float(report.witness.probability),
        }
    return {
        "schema_version": _ANALYSIS_VERSION,
        "verdict": report.verdict.value,
        "signature": {"p": signature.p, "q": signature.q},
        "condition": {"values": report.values.tolist(), "residual": report.residual},
        "diagonalizer": None if report.diagonalizer is None else encode_matrix(report.diagonalizer),
        "syndromes": syndromes,
        "code_isometry": code_isometry,
        "witness": witness,
    }


def _record(where: str, make, *args: Any) -> Any:
    """``make(*args)``, a record whose ``ValueError`` comes prefixed ``where:``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def parse_analysis_document(obj: Any) -> dict:
    """Parse a version ``"7"`` analysis document into the records of its report.

    The parser checks the JSON: the version, each field's type, the
    ``condition.values`` plain finite numbers (no ``[re, im]`` pairs),
    the entries and row-sparse form of every array, and one ``d x r``
    shape for every syndrome isometry and ``code_isometry``.  It builds
    the :class:`~ncpqec.qec.Recovery` of ``B`` and the decoded ``W``
    stack, the :class:`~ncpqec.qec.NegativityWitness` and the
    :class:`~ncpqec.qec.QecReport` that holds them with the values and
    the residual, so every other rule is checked by the record that owns
    it, its ``ValueError`` prefixed with the field's path:
    ``analysis.verdict:``, ``analysis.signature:``,
    ``analysis.witness:`` (a negative probability) and ``analysis:``
    (one nonzero value per syndrome and the sign rule of every signed
    record, a diagonalizer column per syndrome, the outcome rule and the
    witness vector's length).  Versions ``"3"`` to ``"6"`` are refused:
    ``ncpqec qec`` writes the document again from its inputs.

    Returns a dict of the records: ``verdict`` (a
    :class:`~ncpqec.qec.Verdict`, which is a ``str``), ``signature`` (a
    :class:`~ncpqec.pseudolinalg.Signature`), ``values`` (the report's
    read-only float array), ``residual``, ``diagonalizer``,
    ``syndromes``, ``recovery`` (the report's) and ``witness``, ``None``
    where the report has none.
    """
    if not isinstance(obj, dict):
        raise ValueError("analysis document must be a JSON object")
    again = f"; `ncpqec qec` writes version {_ANALYSIS_VERSION!r} from the channel and code documents"
    _check_version(obj, "analysis", _ANALYSIS_VERSION, hint=again)
    verdict = _record("analysis.verdict", Verdict, _field(obj, "verdict", "analysis", str, "a string"))
    sig, where = _field(obj, "signature", "analysis", dict, "a JSON object"), "analysis.signature"
    signature = _record(where, Signature, *(_field(sig, key, where, int, "an integer") for key in "pq"))
    condition, where = _field(obj, "condition", "analysis", dict, "a JSON object"), "analysis.condition"
    finite = "a non-empty list of finite numbers"
    values = _field(condition, "values", where, list, finite, lambda v: v and all(map(_finite, v)))
    residual = _field(condition, "residual", where, _NUMBER, "a non-negative finite number", lambda x: 0 <= x <= _FLOAT_MAX)
    diagonalizer = syndromes = witness = None
    if obj.get("diagonalizer") is not None:
        diagonalizer = decode_matrix(obj["diagonalizer"], "analysis.diagonalizer")
    if obj.get("syndromes") is not None:
        isometries = _field(obj, "syndromes", "analysis", list, "a list")
        paths = [f"analysis.syndromes[{k}]" for k in range(len(isometries))] + ["analysis.code_isometry"]
        stack = _decode_rows([*isometries, obj.get("code_isometry")], paths, 2)
        syndromes = Recovery(stack[-1], stack[:-1])
    elif obj.get("code_isometry") is not None:
        raise ValueError("analysis.code_isometry must be null when there are no syndromes")
    if obj.get("witness") is not None:
        w, where = _field(obj, "witness", "analysis", dict, "a JSON object"), "analysis.witness"
        vector = _decode_rows([_require(w, "vector", where)], [f"{where}.vector"], 1)[0]
        index = _field(w, "syndrome_index", where, int, "an integer")
        witness = _record(where, NegativityWitness, vector, index, _field(w, "probability", where, _NUMBER, "a number"))
    report = _record("analysis", QecReport, values, float(residual), diagonalizer, syndromes, verdict, witness)
    return {
        "verdict": verdict,
        "signature": signature,
        "values": report.values,
        "residual": report.residual,
        "diagonalizer": report.diagonalizer,
        "syndromes": syndromes,
        "recovery": report.recovery,
        "witness": witness,
    }
