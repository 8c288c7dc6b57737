"""Reference helpers that only the tests use: a tiling built from unsorted
blocks, the tilers' cell recursion over every group family (the choice
stream the derived counters count), the natural sequence's divisor-quotient
factors by trial division, and a constructive count checked against its
equal-block bound."""
from dataclasses import dataclass
from itertools import combinations, product as iproduct

from cobweb import errors, fseq, poset, tiling


def make_tiling(layer, blocks):
    """A Tiling of the blocks, sorted by their slot subsets."""
    return poset.Tiling(layer=layer, blocks=tuple(sorted(blocks)))


def unordered_groups(slots, size):
    """Partitions of slots into unordered groups of a fixed positive size."""
    if not slots:
        yield ()
        return
    head = slots[0]
    rest = slots[1:]
    for mates in combinations(rest, size - 1):
        mate_set = set(mates)
        leftover = tuple(x for x in rest if x not in mate_set)
        group = (head,) + mates
        for tail in unordered_groups(leftover, size):
            yield (group,) + tail


def all_families(top, size_a, count_a, size_b, count_b):
    """Every unordered family of count_a groups of size_a and count_b of size_b."""
    slots = tuple(range(top))
    for region in combinations(slots, size_a * count_a):
        region_set = set(region)
        remainder = tuple(x for x in slots if x not in region_set)
        for groups_a in unordered_groups(region, size_a):
            for groups_b in unordered_groups(remainder, size_b) if count_b else [()]:
                yield groups_a, groups_b


def reference_layer_tilings(seq, k, n, which, choose, caps=errors.Caps()):
    """The sorted distinct tilings of levels k..n, each as its sorted blocks,
    under identity `which`'s cell recursion written as plain recursion over
    every group family that choose offers per split: all_families gives the
    choice stream, [tiling._choice_source(seed)(...)] the tilers' one family."""
    layer = poset.build_layer(seq, k, n)
    caps.check("chains", layer.chain_count)
    refuse = tiling._refusal(seq)
    memo = {}

    def tilings(n, k, asked=False):
        got = memo.get((n, k))
        if got is not None:
            return got
        refuse(k, n)
        if not tiling.needs_identity(seq, k, n):
            got = [tiling._base_tiling(seq, k, n)]
        else:
            witness = asked and tiling._witness(seq, which, n)
            if witness:
                raise errors.IdentityError(which, witness)
            size_a, count_a, size_b, count_b = tiling._groups(seq, n, k, which)
            families = choose(seq.term(n), size_a, count_a, size_b, count_b)
            subs_top = tilings(n - 1, k)
            subs_moved = tilings(n - 1, k - 1) if count_b else []
            seen = set()
            for groups_a, groups_b in families:
                for picks_a in iproduct(subs_top, repeat=count_a):
                    capped = [b + (g,) for g, t in zip(groups_a, picks_a) for b in t]
                    for picks_b in iproduct(subs_moved, repeat=count_b):
                        moved = [
                            b[1:] + (tuple(g[i] for i in b[0]),)
                            for g, t in zip(groups_b, picks_b)
                            for b in t
                        ]
                        seen.add(tuple(sorted(capped + moved)))
            got = sorted(seen)
        memo[n, k] = got
        return got

    return tilings(n, k, asked=True)


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
