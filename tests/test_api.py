"""The public namespace is pinned, so a refactor cannot drop API silently.

Callers bind these names directly (``ncpqec.analyze``,
``from ncpqec.documents import encode_vector``, tracers that re-bind
module attributes by name), so adding or removing one is a deliberate
change to this list.  Every public name has a use, or a stated reason
to stay.
"""

import ast
import dataclasses
import importlib
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ncpqec

PUBLIC = {
    "AMatrix",
    "BMatrix",
    "CodeSpace",
    "CodeTerms",
    "ConditionMatrix",
    "ConnectionResult",
    "DEFAULT_TOL",
    "LinearDependence",
    "MapClass",
    "MapsNotEqual",
    "NegativityWitness",
    "NotHermitian",
    "NotPseudoHermitian",
    "NotPseudoUnitary",
    "NullNormEncountered",
    "NumericalFailure",
    "OperatorsNotEqual",
    "OrthogonalityViolation",
    "PseudoDiagonalization",
    "PseudoDiagonalizationFailure",
    "QecReport",
    "Recovery",
    "Signature",
    "SignedEnsemble",
    "SignedOperatorSum",
    "SingularCoefficientMatrix",
    "Syndrome",
    "SyndromeSet",
    "Verdict",
    "WitnessSearchFailed",
    "ZeroTrace",
    "a_from_operator_sum",
    "analyze",
    "apply_map",
    "b_from_operator_sum",
    "build_recovery",
    "check_trace_preserving",
    "classify",
    "connecting_pseudounitary",
    "cp_condition_matrix",
    "ensemble_connection",
    "eta_metric",
    "is_pseudohermitian",
    "is_pseudounitary",
    "maps_equal",
    "negative_part_on_code",
    "on_code",
    "operator_sum_from_b",
    "pad_to_signature",
    "projector_from_basis",
    "pseudo_diagonalize",
    "pseudo_gram_schmidt",
    "pseudo_inner",
    "repetition_bitflip",
    "reshuffle",
    "to_base_map",
    "transform_by_pseudounitary",
    "unvec",
    "vec",
    "verify_recovery",
}

# Public names that no module of the package, no benchmark script and not
# the acceptance gate uses; each stays for the reason given.
KEPT = {
    "pseudo_inner",  # the paper's U(p, q) theory: the indefinite inner product
    "pseudo_gram_schmidt",  # the paper's U(p, q) theory: Gram-Schmidt under an indefinite metric
    "to_base_map",  # the paper's U(p, q) theory: the canonical decomposition of a map
    "ensemble_connection",  # the paper's U(p, q) theory: the pseudounitary between two signed ensembles
    "vec",  # the documented convention: row-major vectorization
    "unvec",  # the documented convention: the inverse of vec
    "a_from_operator_sum",  # the documented A (transition-matrix) form of a signed sum
}

MODULES = ("cli", "documents", "equivalence", "errors", "pseudolinalg", "qec", "superop")


def test_package_namespace_is_pinned():
    # dir() and __all__ list the lazily loaded equivalence names too, and
    # every public name is the object of the module that defines it.
    names = {n for n in dir(ncpqec) if not n.startswith("_") and not isinstance(getattr(ncpqec, n), types.ModuleType)}
    assert names == PUBLIC
    assert sorted(ncpqec.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        obj = getattr(ncpqec, name)
        home = importlib.import_module(getattr(obj, "__module__", "ncpqec.pseudolinalg"))  # DEFAULT_TOL is a float
        assert home.__name__.startswith("ncpqec.") and getattr(home, name) is obj


def test_equivalence_is_loaded_only_on_use():
    # Importing the CLI leaves the equivalence module unexecuted; the
    # package still resolves its names on first use.
    script = (
        "import sys, ncpqec.cli\n"
        "assert 'ncpqec.equivalence' not in sys.modules, 'imported eagerly'\n"
        "from ncpqec import maps_equal\n"
        "from ncpqec.equivalence import maps_equal as defined\n"
        "assert maps_equal is defined\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        ncpqec.not_a_name


def _names_used(paths):
    """Every ``ast.Name`` id and ``ast.Attribute`` attr in the files at ``paths``."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_is_used_or_kept():
    # Used means named in the package's own modules (not its re-exports), a
    # benchmark script or the acceptance gate: the verdict, the CLI and the bench.
    root = Path(__file__).resolve().parents[1]
    paths = [p for p in Path(ncpqec.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    paths += [*root.glob("bench/*.py"), root / "tests" / "test_acceptance.py"]
    assert KEPT <= PUBLIC
    assert sorted(PUBLIC - KEPT - _names_used(paths)) == []


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"ncpqec.{name}")
    for exported in getattr(module, "__all__", ()):
        assert hasattr(module, exported), f"ncpqec.{name}.__all__ names missing {exported!r}"
        if exported in PUBLIC:
            assert getattr(ncpqec, exported) is getattr(module, exported)


def test_document_helpers_bound_by_name():
    from ncpqec import documents

    for name in ("encode_vector", "decode_vector", "encode_matrix", "decode_matrix"):
        assert callable(getattr(documents, name))


# Each array-holding record, built from the inverted 3-qubit bit-flip map and its code.
RECORDS = {
    "AMatrix": lambda ops, code: ncpqec.a_from_operator_sum(ops),
    "BMatrix": lambda ops, code: ncpqec.b_from_operator_sum(ops),
    "SignedOperatorSum": lambda ops, code: ops,
    "SignedEnsemble": lambda ops, code: ncpqec.SignedEnsemble(8, (1, -1), code.isometry.T),
    "ConnectionResult": lambda ops, code: ncpqec.connecting_pseudounitary(ops, ops),
    "CodeSpace": lambda ops, code: code,
    "CodeTerms": lambda ops, code: ncpqec.on_code(ops, code),
    "ConditionMatrix": lambda ops, code: ncpqec.analyze(ops, code).condition,
    "Syndrome": lambda ops, code: ncpqec.analyze(ops, code).syndromes[0],
    "SyndromeSet": lambda ops, code: ncpqec.analyze(ops, code).syndromes,
    "NegativityWitness": lambda ops, code: ncpqec.analyze(ops, code).witness,
    "Recovery": lambda ops, code: ncpqec.build_recovery(ncpqec.analyze(ops, code).syndromes),
    "QecReport": lambda ops, code: ncpqec.analyze(ops, code),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_compare_by_identity(name):
    # Two equal but distinct records: `==` on their arrays has no truth value.
    a, b = (RECORDS[name](*ncpqec.repetition_bitflip(3, -0.2)) for _ in range(2))
    assert type(a).__name__ == name and a is not b
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_arrays_refuse_writes(name):
    # Every array a record holds lies over memory that no one can write, so
    # nothing changes a record after its construction checked it.
    record = RECORDS[name](*ncpqec.repetition_bitflip(3, -0.2))
    arrays = [a for f in dataclasses.fields(record) if isinstance(a := getattr(record, f.name), np.ndarray)]
    assert arrays
    for a in arrays:
        with pytest.raises(ValueError):
            a.setflags(write=True)


# A record built from a caller's array: (the array, the record of it, the field that holds it).
FROM_CALLER = {
    "BMatrix": (
        lambda ops, code: ncpqec.b_from_operator_sum(ops).matrix,
        lambda ops, a: ncpqec.BMatrix(8, a),
        "matrix",
    ),
    "CodeSpace": (lambda ops, code: code.isometry, lambda ops, a: ncpqec.CodeSpace(a), "isometry"),
    "CodeTerms": (
        lambda ops, code: ops.operators @ code.isometry,
        lambda ops, a: ncpqec.CodeTerms(ops.signs, a),
        "terms",
    ),
    "Recovery": (
        lambda ops, code: ncpqec.analyze(ops, code).syndromes.isometries,
        lambda ops, a: ncpqec.Recovery(np.eye(8)[:, ::7], a),
        "isometries",
    ),
    "SignedOperatorSum": (
        lambda ops, code: ops.operators,
        lambda ops, a: ncpqec.SignedOperatorSum(8, ops.signs, a),
        "operators",
    ),
}


@pytest.mark.parametrize("name", sorted(FROM_CALLER))
def test_records_copy_a_callers_read_only_array(name):
    # A read-only array that owns its memory can be made writeable again by
    # its caller, so the record copies it: a NaN written later leaves it as it was.
    source, build, field = FROM_CALLER[name]
    ops, code = ncpqec.repetition_bitflip(3, -0.2)
    a = np.array(source(ops, code))
    a.setflags(write=False)
    held = getattr(build(ops, a), field)
    before = held.copy()
    a.setflags(write=True)
    a[...] = np.nan
    assert np.array_equal(held, before)


def test_no_module_but_frozen_decides_how_a_record_holds_an_array():
    # pseudolinalg._frozen alone keeps or copies what a record holds: no
    # module sets an array's flags or names a second holding rule.
    found = []
    for path in sorted(Path(ncpqec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "setflags":
                found.append(f"{path.name}:{node.lineno} setflags")
            if "_held" in {getattr(node, key, None) for key in ("id", "name", "asname", "attr")}:
                found.append(f"{path.name}:{node.lineno} _held")
    assert found == []
