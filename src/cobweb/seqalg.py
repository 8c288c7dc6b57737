"""Periodic factorization of sequences into pointwise products.

The factorization machinery rewrites a positive sequence F as a pointwise
product of period-j components: h(1) enters through a constant component and
each h(j) with j >= 2 through a component equal to h(j) at multiples of j and
1 elsewhere.  The factor h(n) is term(n) divided by the lcm of the terms at
the proper divisors of n; when that division fails the sequence has no such
factorization and the failing index is returned as a witness.

reconstruct multiplies the components back as a balanced product tree, about
log2 of the number of factors h(j) != 1 levels deep; reconstruct_prefix gives
the same terms on 1..s as a list, by a sieve over multiples that reads no term().
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from . import fseq
from .digits import to_decimal
from .errors import ZeroTermError
from .fseq import FSeq

__all__ = [
    "HSequence",
    "DivisibilityWitness",
    "h_general",
    "reconstruct",
    "reconstruct_prefix",
]


@dataclass(frozen=True)
class HSequence:
    """Periodic-component factors h(1..N) of a base sequence."""

    base: FSeq
    terms: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "base": fseq.to_descriptor(self.base),
            "h": [to_decimal(t) for t in self.terms],
        }


@dataclass(frozen=True)
class DivisibilityWitness:
    """Index where term(n) is not divisible by the lcm of its divisor terms."""

    n: int
    term: int
    lcm: int


def h_general(seq: FSeq, N: int) -> Union[HSequence, DivisibilityWitness]:
    """Factors h(n) = term(n) / lcm{term(d) : d | n, d < n} for n = 1..N.

    Returns the factor sequence, or the first divisibility failure as a
    witness, in which case no periodic factorization of this shape exists.
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    # divisor_lcms[m] folds in term(d) for each checked proper divisor d of
    # m, so it is complete when the scan reaches m; no later term is read.
    divisor_lcms = [1] * (N + 1)
    terms = []
    for n in range(1, N + 1):
        t = seq.term(n)
        if t < 1:
            raise ZeroTermError(f"term {n} of {seq.label()} is not positive")
        divisor_lcm = divisor_lcms[n]
        if t % divisor_lcm:
            return DivisibilityWitness(n=n, term=t, lcm=divisor_lcm)
        terms.append(t // divisor_lcm)
        for m in range(2 * n, N + 1, n):
            divisor_lcms[m] = math.lcm(divisor_lcms[m], t)
    return HSequence(base=seq, terms=tuple(terms))


def _check_depth(h: HSequence, s: int) -> None:
    if s < 1 or s > len(h.terms):
        raise ValueError(f"s must be within 1..{len(h.terms)}, got {s}")


def reconstruct(h: HSequence, s: int) -> FSeq:
    """Pointwise product of the first s periodic components.

    The result has term(i) = product of h(j) over divisors j <= s of i, so it
    agrees with any base whose factors multiply back along divisors (the
    natural and fibonacci families do) on indices 1..s and continues
    periodically past s.
    """
    _check_depth(h, s)
    layer = [fseq.constant(h.terms[0])]
    layer += [fseq.periodic(f, j) for j, f in enumerate(h.terms[1:s], 2) if f != 1]
    while len(layer) > 1:  # multiply neighbours, keeping the factors in order
        pairs = zip(layer[::2], layer[1::2])
        layer = [fseq.product(a, b) for a, b in pairs] + layer[len(layer) // 2 * 2:]
    return layer[0]


def reconstruct_prefix(h: HSequence, s: int) -> list[int]:
    """Terms 1..s of reconstruct(h, s), without building the product.

    A sieve over multiples, as in h_general: every term starts at h(1), and
    each h(j) != 1 is multiplied into the terms at j, 2j, ..., s.  That is
    one multiplication per multiple, where the product tree costs a term()
    call per node and index.
    """
    _check_depth(h, s)
    out = [h.terms[0]] * s
    for j in range(2, s + 1):
        factor = h.terms[j - 1]
        if factor != 1:
            for i in range(j - 1, s, j):
                out[i] *= factor
    return out
