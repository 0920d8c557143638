"""Exact engine for rational-curve counts on del Pezzo surfaces of degree at
least six and the threefold families fibered by them.

Complex counts come from two independent backends (a lattice recursion and
tropical floor diagrams); real signed counts combine surface inputs with the
per-family sign calculus.  Everything is exact integer arithmetic.
"""

from .combine import (
    WelschingerQuery,
    gw_threefold,
    gw_vanishes_a_priori,
    positivity_report,
    w_threefold,
    w_vanishes_a_priori,
)
from .errors import (
    CacheError,
    CsvParseError,
    DataUnavailableError,
    DegeneratePolygonError,
    DomainError,
    EvenPairingError,
    ParityError,
    PezzoError,
    RankMismatchError,
    UnsupportedLatticeError,
    WQueryError,
)
from .gw import gw_blowup_p2, gw_surface
from .lattice import (
    FAMILIES,
    SURFACES,
    SurfaceLattice,
    ThreefoldFamily,
    constraint_count,
    fiber,
    genus,
    monodromy,
    pair,
    push_forward,
    quadric_to_plane,
    singular_fiber_count,
)
from .signs import sign_exponent
from .store import IngestReport, InvariantKey, Store, clear_cache

__version__ = "1.0.0"

__all__ = [
    "FAMILIES", "SURFACES", "SurfaceLattice", "ThreefoldFamily",
    "pair", "constraint_count", "genus", "monodromy", "push_forward",
    "fiber", "quadric_to_plane", "singular_fiber_count",
    "gw_blowup_p2", "gw_surface",
    "PolygonClass", "FloorDiagram", "polygon_of", "enumerate_diagrams",
    "fd_count_complex", "fd_count_real_l0",
    "sign_exponent",
    "InvariantKey", "Store", "IngestReport", "clear_cache",
    "WelschingerQuery", "gw_threefold", "w_threefold",
    "gw_vanishes_a_priori", "w_vanishes_a_priori", "positivity_report",
    "PezzoError", "RankMismatchError", "ParityError", "UnsupportedLatticeError",
    "DomainError", "DegeneratePolygonError", "EvenPairingError",
    "WQueryError", "DataUnavailableError", "CsvParseError", "CacheError",
]


def __getattr__(name):  # PEP 562: the names of __all__ not bound above are floor's
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import floor
    return getattr(floor, name)
