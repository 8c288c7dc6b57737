"""Decimal text of integers of any size, and exact decimal arithmetic.

CPython 3.11 and later refuse int/str conversions past
sys.int_max_str_digits (4,300 digits by default, as low as 640 when set
through PYTHONINTMAXSTRDIGITS or -X int_max_str_digits).  That setting
is process-wide, so these helpers leave it alone and convert through the
decimal module, whose int conversions are exact and carry no such limit.

Both conversions are quadratic in the digit count, though, and str() of a
Decimal is linear.  So output that prints every value of a long product
(an F-nomial table, running factorials) computes those values as Decimal
integers under EXACT and never converts them from int.  EXACT carries as
many digits as the decimal module allows and traps every signal that could
mean a lost digit, so a result is exact or an exception.  Arithmetic on
Decimals goes through its methods (EXACT.multiply, EXACT.divmod): a plain
operator uses the caller's current context, which rounds to 28 digits by
default without raising, and this package never changes that context.  No
Decimal leaves the public API unasked: values cross it as int, Fraction or
str, unless a caller opts into Decimal rows (fseq.fnomial_row).
"""
from __future__ import annotations

import decimal
import re
from decimal import Decimal
from fractions import Fraction
from typing import Union

_ASCII_INT = re.compile(r"\s*[+-]?[0-9]+(?:_[0-9]+)*\s*", re.ASCII)

EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
)


def to_decimal(value: Union[int, Decimal, Fraction]) -> str:
    """str(value) of an int, an integral Decimal or a Fraction, at any number
    of digits."""
    if type(value) is Decimal:
        return str(value)
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
