"""Exception hierarchy shared across the engine."""


class PezzoError(Exception):
    """Base class for all engine errors."""


class RankMismatchError(PezzoError, ValueError):
    """A class vector has the wrong length for the lattice it is used with."""


class ParityError(PezzoError, ValueError):
    """An integer that must be even (e.g. c1.d on a threefold) is odd."""


class UnsupportedLatticeError(PezzoError, ValueError):
    """Operation needs structure (e.g. a vanishing cycle) the lattice lacks."""


class DomainError(PezzoError, ValueError):
    """Argument outside the supported domain."""


class DegeneratePolygonError(PezzoError, ValueError):
    """Corner cuts overlap or exceed the rectangle; no Newton polygon exists.
    The store counts a rigid class (k_D = 0, complex count 1) as +1 anyway;
    ``--dump-diagrams`` exits 1."""


class EvenPairingError(PezzoError, ValueError):
    """sign_exponent is only defined for fiber members with odd D.S."""


class WQueryError(PezzoError, ValueError):
    """Number of conjugate pairs out of range for the queried class."""


class DataUnavailableError(PezzoError, LookupError):
    """A Welschinger value was requested that is neither computable nor ingested.

    Carries the missing keys so callers can report exactly what to ingest.
    """

    def __init__(self, keys):
        self.keys = list(keys)
        super().__init__(self.keys)

    def __str__(self):  # built when printed, not when raised: tables and fiber sums catch most
        return "no data for key(s): " + ", ".join(map(str, self.keys))


class CsvParseError(PezzoError, ValueError):
    """Malformed CSV row; carries the 1-based line number."""

    def __init__(self, lineno, message):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


class CacheError(PezzoError, RuntimeError):
    """Conflicting values found in a persistent cache file."""
