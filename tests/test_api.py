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
    "Syndrome": (
        lambda ops, code: ncpqec.analyze(ops, code).syndromes.isometries[0],
        lambda ops, a: ncpqec.Syndrome(a, 1.0, 1),
        "isometry",
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


def _random_uses(tree):
    """``(line, name)`` of each import of ``random`` or ``numpy.random``, ``np.random`` and ``default_rng`` call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(f"{node.module}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}".replace("np.", "numpy.", 1)]
        elif isinstance(node, ast.Call):
            names = [getattr(node.func, "attr", getattr(node.func, "id", ""))]
        else:
            continue
        for name in names:
            if name in ("random", "numpy.random", "default_rng") or name.startswith(("random.", "numpy.random.")):
                yield node.lineno, name


def test_no_module_draws_random_numbers():
    # Every value the package returns has a closed form, so no module
    # imports random or numpy.random, reaches np.random, or calls default_rng.
    found = []
    for path in sorted(Path(ncpqec.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{line} {name}" for line, name in _random_uses(ast.parse(path.read_text()))]
    assert found == []


_E8, _U8 = np.eye(8)[0], np.r_[0.0, np.ones(7)] / np.sqrt(7)  # e_1, and a unit vector orthogonal to it
_E150, _U150 = np.eye(150)[0], np.r_[0.0, np.ones(149)] / np.sqrt(149)
_TWO = ncpqec.SignedOperatorSum.from_terms([1], [np.eye(2)])

# One refusal per row: (call, exception, message).  The numerical gates
# get an input that reaches them: a Jordan block at tol 0 (the eigensolver
# returns two null-like eigenvectors of one norm sign), a map near its
# exceptional point (a transform too ill-conditioned to check at 1e-15),
# and ensembles whose shared operator gains a direction within tol.
REFUSALS = {
    "square": (lambda: ncpqec.is_pseudohermitian(np.ones((2, 3)), np.eye(2)), ValueError, "H must be square"),
    "finite": (lambda: ncpqec.is_pseudounitary([[np.nan]], np.eye(1)), ValueError, "U contains non-finite entries"),
    "metric size": (lambda: ncpqec.pseudo_inner([1, 0], [0, 1], np.eye(3)), ValueError, "metric size 3 does not"),
    "metric entries": (lambda: ncpqec.pseudo_inner([1, 0], [0, 1], np.diag([1, 2])), ValueError, "eta must be"),
    "vectors": (lambda: ncpqec.pseudo_inner([1, 0], [1, 0, 0], np.eye(2)), ValueError, "two vectors of equal length"),
    "inertia": (
        lambda: ncpqec.pseudo_diagonalize([[1.0, 1.0], [-1.0, -1.0]], np.diag([1.0, -1.0]), tol=0.0),
        ncpqec.PseudoDiagonalizationFailure,
        "inertia mismatch: found 0 positive-norm eigenvectors, metric has 1",
    ),
    "consistency": (
        lambda: ncpqec.pseudo_diagonalize([[1.0, 0.999999], [-0.999999, -1.0]], np.diag([1.0, -1.0]), tol=1e-15),
        ncpqec.PseudoDiagonalizationFailure,
        "assembled transform fails consistency checks",
    ),
    "unvec": (lambda: ncpqec.unvec(np.ones(3)), ValueError, "vector of length 3 is not a vectorized square matrix"),
    "A dim": (lambda: ncpqec.AMatrix(0, np.zeros((0, 0))), ValueError, "dim must be positive"),
    "B finite": (lambda: ncpqec.BMatrix(1, [[np.inf]]), ValueError, "B-matrix contains non-finite entries"),
    "sum dim": (lambda: ncpqec.SignedOperatorSum(0, (), []), ValueError, "dim must be positive"),
    "empty sum": (lambda: ncpqec.SignedOperatorSum.from_terms([], []), ValueError, "dim is required for an empty"),
    "reshuffle": (lambda: ncpqec.reshuffle(_TWO), TypeError, "expected AMatrix or BMatrix, got SignedOperatorSum"),
    "trace": (
        lambda: ncpqec.check_trace_preserving(ncpqec.b_from_operator_sum(_TWO)),
        TypeError,
        "expected AMatrix or SignedOperatorSum, got BMatrix",
    ),
    "state": (lambda: ncpqec.apply_map(_TWO, np.eye(3)), ValueError, r"state has shape \(3, 3\), expected \(2, 2\)"),
    "form": (lambda: ncpqec.ConditionMatrix(np.eye(2), 0.0, "unitary"), ValueError, "unknown condition form 'unitary'"),
    "basis": (lambda: ncpqec.projector_from_basis([]), ValueError, "at least one basis vector is required"),
    "operators": (
        lambda: ncpqec.cp_condition_matrix([], ncpqec.repetition_bitflip(3, 0.7)[1]),
        ValueError,
        "at least one operator is required",
    ),
    "ensemble dims": (
        lambda: ncpqec.ensemble_connection(
            ncpqec.SignedEnsemble(2, (1,), [[1, 0]]), ncpqec.SignedEnsemble(3, (1,), [[1, 0, 0]])
        ),
        ValueError,
        "dimension mismatch: 2 vs 3",
    ),
    "zero terms": (  # the second term adds 6 tol u u^dag, entries below tol: a has one + term for two directions
        lambda: ncpqec.ensemble_connection(
            ncpqec.SignedEnsemble(8, (1,), [_E8]), ncpqec.SignedEnsemble(8, (1, 1), [_E8, np.sqrt(6e-9) * _U8])
        ),
        ncpqec.SingularCoefficientMatrix,
        "more zero terms than zero basis columns of matching sign",
    ),
    "spanned": (  # one term each, entries within 0.05, but their mean operator has two directions above the cut
        lambda: ncpqec.ensemble_connection(
            ncpqec.SignedEnsemble(150, (1,), [_E150]), ncpqec.SignedEnsemble(150, (1,), [_E150 + 0.5 * _U150]), tol=0.05
        ),
        ncpqec.SingularCoefficientMatrix,
        r"shared eigenbasis signature \(2, 0\) exceeds the term signature \(1, 0\)",
    ),
    "canceling": (
        lambda: ncpqec.ensemble_connection(
            ncpqec.SignedEnsemble(2, (1, 1, -1), [[1, 0]] * 3), ncpqec.SignedEnsemble(2, (1,), [[1, 0]])
        ),
        ncpqec.SingularCoefficientMatrix,
        "a coefficient matrix is singular after padding",
    ),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_input_refusals(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=message):
        call()


def test_pseudo_gram_schmidt_of_no_vectors_is_empty():
    assert ncpqec.pseudo_gram_schmidt([], np.eye(2)) == []
