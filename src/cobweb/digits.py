"""Decimal text of integers of any size.

CPython 3.11 and later refuse int/str conversions past
sys.int_max_str_digits (4,300 digits by default, as low as 640 when set
through PYTHONINTMAXSTRDIGITS or -X int_max_str_digits).  That setting
is process-wide, so these helpers leave it alone and convert through the
decimal module, whose int conversions are exact and carry no such limit.
"""
from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from typing import Union

_ASCII_INT = re.compile(r"\s*[+-]?[0-9]+(?:_[0-9]+)*\s*", re.ASCII)


def to_decimal(value: Union[int, Fraction]) -> str:
    """str(value) of an int or a Fraction, at any number of digits."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return to_decimal(value.numerator)
        return f"{to_decimal(value.numerator)}/{to_decimal(value.denominator)}"
    return str(Decimal(value))


def parse_decimal(text: str) -> int:
    """int(text, 10), at any number of digits for ASCII text."""
    if _ASCII_INT.fullmatch(text):
        return int(Decimal(text))
    return int(text, 10)
