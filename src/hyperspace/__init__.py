"""N-dimensional space complex numbers.

Cartesian and angle-chain polar representations with conversion accurate
to the last bits (against 50-digit mpmath: ``to_polar``'s modulus within
0.5 ulp, ``from_polar`` within 3 ulp of the modulus up to N = 8 and within
2*log2(N) ulp past it), angle-addition arithmetic (products, quotients,
powers, roots), a 3D specialization with master/slave arguments, a
geometric rotation-chain oracle, literal evaluators for the expanded
coefficient formulas, and a seeded law-audit harness that measures which
claimed identities actually hold.
"""

from ._version import VERSION as __version__
from .core import (
    CartesianHC,
    DEFAULT_TOLERANCE,
    DimensionMismatchError,
    Orientation,
    PolarHC,
    Space3,
    Space3Polar,
    Tolerance,
    approx_eq,
    arguments,
    canonicalize,
    conjugate,
    from_polar,
    modulus,
    to_polar,
)
from .algebra import (
    RootSet,
    add,
    div,
    div_polar,
    mul,
    mul_polar,
    negate,
    nth_roots,
    nth_roots_polar,
    pow_int,
    pow_int_polar,
    sub,
)
from .duality import lift

# The rotation oracle and the 3D module load on first use (PEP 562): no
# number command needs them.
_LAZY = {
    **dict.fromkeys(("RotationChain", "build_by_rotations", "rotate_in_plane"), "rotation"),
    **dict.fromkeys(
        ("SlaveDecomposition", "conj3", "div3", "from_polar3", "j_pow", "mul3", "pow_roots3",
         "slave_decompose", "to_polar3"),
        "space3",
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "__version__",
    "CartesianHC",
    "PolarHC",
    "Orientation",
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "DimensionMismatchError",
    "RootSet",
    "RotationChain",
    "Space3",
    "Space3Polar",
    "SlaveDecomposition",
    "add",
    "approx_eq",
    "arguments",
    "build_by_rotations",
    "canonicalize",
    "conj3",
    "conjugate",
    "div",
    "div3",
    "div_polar",
    "from_polar",
    "from_polar3",
    "j_pow",
    "lift",
    "modulus",
    "mul",
    "mul3",
    "mul_polar",
    "negate",
    "nth_roots",
    "nth_roots_polar",
    "pow_int",
    "pow_int_polar",
    "pow_roots3",
    "rotate_in_plane",
    "slave_decompose",
    "sub",
    "to_polar",
    "to_polar3",
]
