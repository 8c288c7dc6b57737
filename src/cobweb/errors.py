"""Exception types shared across the package, and the one cap check."""
from __future__ import annotations

from typing import Optional

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
    "check_cap",
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
        detail = f"{cap_name} cap of {limit} exceeded"
        if needed is not None:
            detail += f" (needed {to_decimal(needed)})"
        super().__init__(detail)


def check_cap(name: str, needed: int, cap: Optional[int], default: int) -> None:
    """Raise CapExceeded when needed exceeds the cap (default when cap is None)."""
    limit = default if cap is None else cap
    if needed > limit:
        raise CapExceeded(name, limit, needed=needed)
