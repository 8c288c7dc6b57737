"""Exception types shared across the package, and the one cap table:
CAP_DEFAULTS names each settable cap, and a Caps holds the caps in force."""
from __future__ import annotations

from types import MappingProxyType

from .digits import to_decimal

__all__ = [
    "CobwebError",
    "DescriptorError",
    "SequenceRangeError",
    "ZeroTermError",
    "IdentityError",
    "TilingError",
    "NonIntegralError",
    "CapExceeded",
    "CAP_DEFAULTS",
    "Caps",
]


class CobwebError(Exception):
    """Base class for all package-specific errors."""


class DescriptorError(CobwebError):
    """Malformed or out-of-range sequence descriptor."""


class SequenceRangeError(CobwebError, LookupError):
    """Access past the end of an explicit term list."""


class ZeroTermError(CobwebError):
    """A zero term appeared where a positive one is required."""


class IdentityError(CobwebError):
    """A required term identity fails; carries the first witness."""

    def __init__(self, which: int, witness: tuple[int, int]):
        self.which = which
        self.witness = witness
        super().__init__(f"identity-{which} fails at (m, k) = {witness}")


class TilingError(CobwebError):
    """A layer cannot be handled by the constructive recursion."""


class NonIntegralError(CobwebError):
    """An exact rational that must be an integer is not."""


class CapExceeded(CobwebError):
    """A configured resource cap would be exceeded; work is never silently truncated."""

    def __init__(
        self,
        cap_name: str,
        limit: int,
        needed: int | None = None,
        partial_count: int | None = None,
    ):
        self.cap_name = cap_name
        self.limit = limit
        self.needed = needed
        self.partial_count = partial_count
        detail = f"{cap_name} cap of {to_decimal(limit)} exceeded"
        if needed is not None:
            detail += f" (needed {to_decimal(needed)})"
        super().__init__(detail)


# The count memo holds about 140 bytes per node, so 10^7 nodes stay near 1.4 GB.
CAP_DEFAULTS = {"chains": 10**5, "placements": 10**6, "nodes": 10**7}


class Caps:
    """The cap in force for each name of CAP_DEFAULTS: the given value, else
    the default.  An unknown name is a TypeError.  The limits are a read-only
    mapping, so one instance can be shared, as every default caps= is."""

    __slots__ = ("limits",)

    def __init__(self, **given: int):
        if not given.keys() <= CAP_DEFAULTS.keys():
            raise TypeError(f"Caps() takes only {', '.join(CAP_DEFAULTS)}, got {', '.join(given)}")
        self.limits = MappingProxyType({**CAP_DEFAULTS, **given})

    def check(self, name: str, needed: int) -> None:
        """Raise CapExceeded when needed exceeds the named cap."""
        if needed > self.limits[name]:
            raise CapExceeded(name, self.limits[name], needed=needed)
