"""Reference helpers that only the tests use: a tiling built from unsorted
blocks, the natural sequence's divisor-quotient factors by trial division,
and a constructive count checked against its equal-block bound."""
from dataclasses import dataclass

from cobweb import fseq, poset, tiling


def make_tiling(layer, blocks):
    """A Tiling of the blocks, sorted by their slot subsets."""
    return poset.Tiling(layer=layer, blocks=tuple(sorted(blocks, key=lambda b: b.subsets)))


def h_natural(n):
    """Component factor of the natural sequence: p when n is a prime power p**m, else 1."""
    if n < 1:
        raise ValueError(f"index must be positive, got {n}")
    primes = set()
    rest, d = n, 2
    while d * d <= rest:
        while rest % d == 0:
            primes.add(d)
            rest //= d
        d += 1
    if rest > 1:
        primes.add(rest)
    return primes.pop() if len(primes) == 1 else 1


@dataclass(frozen=True)
class UpperBoundCheck:
    """Comparison of a constructive count against its equal-block bound."""

    holds: bool
    lhs: int
    rhs: int
    eta: int
    kappa: int
    lam: int


def check_count_upper_bound(seq, n, k):
    """Check count <= equal-block partition bound for the layer over k..n,
    counted by the recursion detect_variant picks (additive by default)."""
    rhs = tiling.equal_block_bound(seq, n, k)  # raises on a non-integral block count
    m = n - k + 1
    kappa = int(fseq.fnomial(seq, n, k - 1).value)
    lam = fseq.f_factorial(seq, m)
    eta = fseq.falling(seq, n, m)
    variant, _, _ = tiling.detect_variant(seq, k, n)
    counter = (tiling.count_tilings_fibonacci if variant == "fibonacci"
               else tiling.count_tilings_additive)
    lhs = counter(seq, n, k)
    return UpperBoundCheck(holds=lhs <= rhs, lhs=lhs, rhs=rhs, eta=eta, kappa=kappa, lam=lam)
