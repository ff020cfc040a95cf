"""Reversibility analysis for Hermiticity-preserving quantum maps.

The package decomposes a Hermiticity-preserving (not necessarily
completely positive) map into a signed operator sum, checks the signed
error-correction conditions on a code space, constructs syndrome
measurements and recovery channels, and decides whether the code space
lies inside the domain where the evolution is physical.  Supporting
modules provide linear algebra over indefinite metrics and the
pseudounitary freedom connecting equal decompositions.

Each module's ``__all__`` is its list of public names, and the package
re-exports them.
"""

from types import ModuleType as _ModuleType

from .errors import *  # noqa: F403
from .pseudolinalg import *  # noqa: F403
from .superop import *  # noqa: F403
from .qec import *  # noqa: F403

__version__ = "0.1.0"

# Loaded on first use (PEP 562), so only the commands that compare
# decompositions compile and execute the equivalence module.
_EQUIVALENCE = (
    "ConnectionResult",
    "SignedEnsemble",
    "connecting_pseudounitary",
    "ensemble_connection",
    "maps_equal",
    "pad_to_signature",
    "to_base_map",
)

__all__ = sorted(
    [name for name, obj in globals().items() if not name.startswith("_") and not isinstance(obj, _ModuleType)]
    + list(_EQUIVALENCE)
)


def __getattr__(name: str):
    if name in _EQUIVALENCE:
        from . import equivalence

        return getattr(equivalence, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EQUIVALENCE})
