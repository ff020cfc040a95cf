"""The public namespace is pinned, so a refactor cannot drop API silently.

Callers bind these names directly (``ncpqec.analyze``,
``from ncpqec.documents import encode_vector``, tracers that re-bind
module attributes by name), so adding or removing one is a deliberate
change to this list.
"""

import importlib
import subprocess
import sys
import types

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
    "apply_a_matrix",
    "apply_map",
    "b_from_operator_sum",
    "build_recovery",
    "check_hermiticity_preserving",
    "check_trace_preserving",
    "classify",
    "connecting_pseudounitary",
    "cp_condition_matrix",
    "ensemble_connection",
    "eta_metric",
    "is_positive_semidefinite",
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
    "split_cp_parts",
    "to_base_map",
    "transform_by_pseudounitary",
    "unvec",
    "validate_density_matrix",
    "vec",
    "verify_recovery",
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
