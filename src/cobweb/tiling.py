"""Layer tilings: constructive recursion, verification, exhaustive search.

The constructive tilers recurse on the shape of the layer over levels k..n,
the tuple of its m = n - k + 1 level sizes, which fully determines the
sub-problems.  One recursion serves both identities.  It splits the top
level's term(n) slots into count_a groups of size_a slots and count_b groups
of size_b slots.  Each a-group tops a tiling of the shape without its top
level.  Each b-group is the bottom level of a tiling of the shape
(size_b,) + shape[:-1], whose slots are renamed into the group.

* The convolution split term(n) = term(k) * term(m) + term(m - 1) * term(k - 1)
  takes term(k) groups of term(m) slots and term(m - 1) groups of
  term(k - 1) slots.
* The additive split term(n) = term(m) + term(k - 1) is the same split with
  one group of each kind.

Prime-shaped and one-level shapes are the base cases, and the tilings of
each shape are memoized.  A choice source offers the group families a split
may use: first-slots cuts the top level's slots in order, seeded-random
shuffles them once per split before cutting, and the iter_tiling_choices_*
functions offer every unordered family.  Role-symmetric choices can give the
same tiling, so the tilings of a shape are deduplicated.

Both choice counts are one recursion over cells (n, k), the split's
multinomial times the sub-counts, so paper and derived modes differ only for
the convolution.  A triangle shares one memo across its cells and checks its
identity once per row.

Exhaustive enumeration is an exact cover of the chain universe by block
placements, each stored as an int mask over the chain ids and ranked by its
subsets, so a tiling's canonical key is its sorted tuple of row ids.  The
search branches on the uncovered chain with the fewest remaining rows (MRV).
Its count pass, the only traversal, memoizes the count of each uncovered
chain set, charges each state it expands to one node cap, and for a listing
records each solvable state's solvable children, children first.  The
listing merges that record from the empty state up, each solution one int
with a bit per row, keeping the first `limit` of each state: canonical order
without building every solution, and no node beyond the count's.  The
search is sequential, so its count, listing and cap outcome never depend on
workers.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import combinations, groupby, product as iproduct
from math import comb, factorial
from operator import attrgetter, itemgetter, or_
from typing import Iterator, Optional

from . import fseq
from .digits import to_decimal
from .errors import (
    CapExceeded,
    IdentityError,
    NonIntegralError,
    TilingError,
    check_cap,
)
from .fseq import FSeq
from .poset import (
    DEFAULT_CHAIN_CAP,
    BlockPlacement,
    Layer,
    Tiling,
    build_layer,
    enumerate_chains,
    enumerate_placements,
    make_tiling,
    prime_level_sizes,
)

__all__ = [
    "DEFAULT_NODE_CAP",
    "TilePolicy",
    "TilingViolation",
    "TilingEnumeration",
    "UpperBoundCheck",
    "Triangle",
    "TRIANGLE_KINDS",
    "tile_additive",
    "tile_fibonacci",
    "needs_identity",
    "detect_variant",
    "iter_tiling_choices_additive",
    "iter_tiling_choices_fibonacci",
    "verify_tiling",
    "enumerate_tilings",
    "count_tilings_additive",
    "count_tilings_fibonacci",
    "stirling_lambda",
    "equal_block_bound",
    "check_count_upper_bound",
    "triangle",
]

# The count memo holds about 140 bytes per node, so 10^7 nodes stay near 1.4 GB.
DEFAULT_NODE_CAP = 10**7
DEFAULT_ROW_CAP = 200

POLICY_MODES = ("first-slots", "seeded-random")


@dataclass(frozen=True)
class TilePolicy:
    """Slot-choice policy for the constructive tilers.

    first-slots takes the lexicographically least slots at every split;
    seeded-random draws them from a seeded generator.  Every choice is
    offered by the iter_tiling_choices_* functions instead.
    """

    mode: str = "first-slots"
    seed: Optional[int] = None

    def __post_init__(self):
        if self.mode not in POLICY_MODES:
            raise ValueError(f"policy mode must be one of {POLICY_MODES}, got {self.mode!r}")


# ---------------------------------------------------------------------------
# constructive recursion

def _single_level_blocks(seq: FSeq, size: int) -> tuple:
    one = seq.term(1)
    if one < 1 or size % one:
        raise TilingError(
            f"one-level layer of size {size} cannot split into blocks of size {one}"
        )
    return tuple((tuple(range(i, i + one)),) for i in range(0, size, one))


def _additive_split(seq: FSeq, shape: tuple[int, ...]) -> tuple[int, int, int, int]:
    """One group of term(m) top slots and one of the rest."""
    m_f = seq.term(len(shape))
    rest = shape[-1] - m_f
    if rest < 0:
        raise TilingError(
            f"top level of shape {shape} is smaller than the peel size {m_f}"
        )
    return m_f, 1, rest, 1 if rest else 0


def _convolution_split(seq: FSeq, shape: tuple[int, ...]) -> tuple[int, int, int, int]:
    """kappa groups of term(m) top slots and mu groups of the rest / mu."""
    m = len(shape)
    kappa = shape[0]
    m_f = seq.term(m)
    mu = seq.term(m - 1)
    rest = shape[-1] - kappa * m_f
    if rest < 0 or mu < 1 or rest % mu:
        raise TilingError(
            f"top level of shape {shape} does not split as {kappa}*{m_f} + {mu}*q"
        )
    small = rest // mu
    return m_f, kappa, small, mu if small else 0


_SPLITS = {1: _additive_split, 2: _convolution_split}


def _shape_tilings(seq: FSeq, shape: tuple[int, ...], split, choose, memo: dict) -> list:
    """Sorted distinct raw tilings of a shape over the group families offered.

    split gives (size_a, count_a, size_b, count_b) for the top level, and
    choose offers (groups_a, groups_b) families of that many groups.
    """
    cached = memo.get(shape)
    if cached is not None:
        return cached
    m = len(shape)
    if m == 1:
        result = [_single_level_blocks(seq, shape[0])]
    elif shape == prime_level_sizes(seq, m):
        result = [(tuple(tuple(range(size)) for size in shape),)]
    else:
        size_a, count_a, size_b, count_b = split(seq, shape)
        families = choose(shape[-1], size_a, count_a, size_b, count_b)
        subs_top = _shape_tilings(seq, shape[:-1], split, choose, memo)
        subs_moved = (
            _shape_tilings(seq, (size_b,) + shape[:-1], split, choose, memo)
            if count_b else []
        )
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
        result = sorted(seen)
    memo[shape] = result
    return result


# ---------------------------------------------------------------------------
# policies

def _chunk(order: list[int], start: int, size: int, count: int) -> tuple:
    return tuple(sorted(
        tuple(sorted(order[start + i * size:start + (i + 1) * size]))
        for i in range(count)
    ))


def _unordered_groups(slots: tuple[int, ...], size: int) -> Iterator[tuple]:
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
        for tail in _unordered_groups(leftover, size):
            yield (group,) + tail


def _all_families(top, size_a, count_a, size_b, count_b) -> Iterator[tuple]:
    """Every unordered family of count_a groups of size_a and count_b of size_b."""
    slots = tuple(range(top))
    for region in combinations(slots, size_a * count_a):
        region_set = set(region)
        remainder = tuple(x for x in slots if x not in region_set)
        for groups_a in _unordered_groups(region, size_a):
            for groups_b in _unordered_groups(remainder, size_b) if count_b else [()]:
                yield groups_a, groups_b


def _choice_source(policy: TilePolicy):
    """One group family per split, cut in order from the top level's slots,
    shuffled once per split under seeded-random."""
    rng = random.Random(policy.seed) if policy.mode == "seeded-random" else None

    def choose(top, size_a, count_a, size_b, count_b):
        order = rng.sample(range(top), top) if rng else list(range(top))
        cut = size_a * count_a
        return [(_chunk(order, 0, size_a, count_a), _chunk(order, cut, size_b, count_b))]

    return choose


def needs_identity(seq: FSeq, k: int, n: int) -> bool:
    """Whether tiling levels k..n ever splits a level (prime-shaped and
    one-level layers are pure base cases and need no identity)."""
    if k < 2 or n <= k:
        return False
    m = n - k + 1
    shape = tuple(seq.term(j) for j in range(k, n + 1))
    return shape != prime_level_sizes(seq, m)


def _identity_witness(seq: FSeq, k: int, n: int, which: int):
    """First violation of identity `which` that tiling levels k..n depends on."""
    if not needs_identity(seq, k, n):
        return None
    check = fseq.check_identity_1 if which == 1 else fseq.check_identity_2
    return check(seq, n)


def detect_variant(seq: FSeq, k: int, n: int):
    """Recursion variant for the layer: ("additive" | "fibonacci", None, None),
    or (None, witness1, witness2) when neither identity holds."""
    w1 = _identity_witness(seq, k, n, 1)
    if w1 is None:
        return "additive", None, None
    w2 = _identity_witness(seq, k, n, 2)
    if w2 is None:
        return "fibonacci", None, None
    return None, w1, w2


def _raw_to_tiling(layer: Layer, raw_blocks) -> Tiling:
    blocks = [BlockPlacement(subsets=b) for b in raw_blocks]
    return make_tiling(layer, blocks)


def _layer_tilings(seq, k, n, which, choose, chain_cap) -> tuple[Layer, list]:
    """The capped layer and its raw tilings under identity `which`'s split,
    over the group families that choose offers."""
    layer = build_layer(seq, k, n)
    check_cap("chains", layer.chain_count, chain_cap, DEFAULT_CHAIN_CAP)
    witness = _identity_witness(seq, k, n, which)
    if witness is not None:
        raise IdentityError(which, witness)
    return layer, _shape_tilings(seq, layer.sizes, _SPLITS[which], choose, {})


def tile_additive(
    seq: FSeq,
    k: int,
    n: int,
    policy: Optional[TilePolicy] = None,
    *,
    chain_cap: Optional[int] = None,
) -> Tiling:
    """Tile the layer over levels k..n of a sum-split sequence.

    Requires the additive identity term(m + k) = term(m) + term(k) on the
    range the recursion touches; the first violation is raised as an error.
    """
    choose = _choice_source(policy or TilePolicy())
    layer, (raw,) = _layer_tilings(seq, k, n, 1, choose, chain_cap)
    return _raw_to_tiling(layer, raw)


def tile_fibonacci(
    seq: FSeq,
    k: int,
    n: int,
    policy: Optional[TilePolicy] = None,
    *,
    chain_cap: Optional[int] = None,
) -> Tiling:
    """Tile the layer over levels k..n of a convolution-split sequence.

    Requires the identity term(m + k) = term(k + 1) * term(m) +
    term(m - 1) * term(k) on the range the recursion touches.
    """
    choose = _choice_source(policy or TilePolicy())
    layer, (raw,) = _layer_tilings(seq, k, n, 2, choose, chain_cap)
    return _raw_to_tiling(layer, raw)


def iter_tiling_choices_additive(
    seq: FSeq, k: int, n: int, *, chain_cap: Optional[int] = None
) -> Iterator[Tiling]:
    """Every distinct tiling reachable by the additive recursion's choices."""
    layer, raws = _layer_tilings(seq, k, n, 1, _all_families, chain_cap)
    for raw in raws:
        yield _raw_to_tiling(layer, raw)


def iter_tiling_choices_fibonacci(
    seq: FSeq, k: int, n: int, *, chain_cap: Optional[int] = None
) -> Iterator[Tiling]:
    """Every distinct tiling reachable by the convolution recursion's choices."""
    layer, raws = _layer_tilings(seq, k, n, 2, _all_families, chain_cap)
    for raw in raws:
        yield _raw_to_tiling(layer, raw)


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class TilingViolation:
    """First violated tiling clause with a concrete witness."""

    clause: str
    detail: str
    witness: object = None


def verify_tiling(tiling: Tiling) -> Optional[TilingViolation]:
    """None when valid, else the first violated clause.

    Clauses in order: every block's size multiset equals the prime level
    sizes; blocks are pairwise chain-disjoint; the blocks cover the chain
    universe; the block count equals the layer's generalized binomial.
    """
    layer = tiling.layer
    m = layer.m
    expected = sorted(prime_level_sizes(layer.seq, m))
    for bi, block in enumerate(tiling.blocks):
        if len(block.subsets) != m:
            return TilingViolation(
                "block-sizes", f"block {bi} has {len(block.subsets)} levels, layer has {m}", bi
            )
        for li, subset in enumerate(block.subsets):
            ok = (
                len(subset) > 0
                and all(0 <= s < layer.sizes[li] for s in subset)
                and tuple(sorted(set(subset))) == tuple(subset)
            )
            if not ok:
                return TilingViolation(
                    "block-sizes",
                    f"block {bi} level {layer.k + li} subset {subset} is not a sorted "
                    f"set of slots below {layer.sizes[li]}",
                    (bi, li),
                )
        got = sorted(len(s) for s in block.subsets)
        if got != expected:
            return TilingViolation(
                "block-sizes",
                f"block {bi} has size multiset {got}, expected {expected}",
                bi,
            )
    seen: dict[tuple, int] = {}
    for bi, block in enumerate(tiling.blocks):
        for chain in block.chains():
            other = seen.get(chain)
            if other is not None:
                return TilingViolation(
                    "shared-chain",
                    f"chain {chain} lies in blocks {other} and {bi}",
                    (chain, other, bi),
                )
            seen[chain] = bi
    if len(seen) != layer.chain_count:
        for chain in iproduct(*(range(size) for size in layer.sizes)):
            if chain not in seen:
                return TilingViolation(
                    "uncovered-chain", f"chain {chain} is covered by no block", chain
                )
    law = fseq.fnomial(layer.seq, layer.n, m)
    if not law.is_integer or len(tiling.blocks) != law.value:
        return TilingViolation(
            "block-count",
            f"{len(tiling.blocks)} blocks, law requires {law.value}",
            len(tiling.blocks),
        )
    return None


# ---------------------------------------------------------------------------
# exhaustive enumeration by exact cover

@dataclass(frozen=True)
class TilingEnumeration:
    """Exact result of exhaustive tiling enumeration."""

    count: int
    truncated: bool
    tilings: Optional[tuple[Tiling, ...]]
    nodes: int


class _Search:
    """One bitmask exact cover: the count pass, under the node cap, and a
    listing merged over the states the count pass recorded.

    masks[r] holds the chains of row r, elem_rows[e] the rows covering chain
    e, and clash[r] the rows sharing a chain with row r.  A state is
    (uncovered, alive); the alive rows are the rows inside the uncovered
    chains, so the uncovered set alone keys the count memo.
    """

    def __init__(self, n_elems: int, rows: list[list[int]], node_cap: int):
        self.elem_rows = [0] * n_elems
        for rid, row in enumerate(rows):
            for e in row:
                self.elem_rows[e] |= 1 << rid
        self.masks = [sum(1 << e for e in row) for row in rows]
        self.clash = [reduce(or_, map(self.elem_rows.__getitem__, row)) for row in rows]
        self.root = ((1 << n_elems) - 1, (1 << len(rows)) - 1)
        self.memo = {0: 1}
        self.nodes = 0
        self.node_cap = node_cap

    def _children(self, uncovered: int, alive: int) -> list:
        """(row, uncovered, alive) after each alive row covering the MRV chain,
        the uncovered chain with the fewest alive rows (ties to the lowest)."""
        elem_rows = self.elem_rows
        best, fewest = 0, None
        rest = uncovered
        while rest:
            low = rest & -rest
            rows = alive & elem_rows[low.bit_length() - 1]
            n = rows.bit_count()
            if fewest is None or n < fewest:
                best, fewest = rows, n
                if n <= 1:
                    break
            rest ^= low
        masks, clash = self.masks, self.clash
        out = []
        while best:
            low = best & -best
            r = low.bit_length() - 1
            out.append((r, uncovered ^ masks[r], alive & ~clash[r]))
            best ^= low
        return out

    def count(self, record: bool = False) -> int:
        """memo[uncovered] = sum of memo[child], filled from an explicit stack.
        With record, dag[uncovered] holds a solvable state's solvable children
        as (row, uncovered) pairs, filled as states finish: children first."""
        memo = self.memo
        dag = self.dag = {} if record else None
        stack = [(*self.root, None)]
        while stack:
            uncovered, alive, kids = stack.pop()
            if uncovered in memo:
                continue
            if kids is None:
                self.nodes += 1
                if self.nodes > self.node_cap:
                    # a proven lower bound: the root's children counted so far
                    partial = sum(memo.get(u, 0) for _, u, _ in self._children(*self.root))
                    raise CapExceeded("nodes", self.node_cap, partial_count=partial)
                kids = self._children(uncovered, alive)
                stack.append((uncovered, alive, kids))
                stack += [(u, a, None) for _, u, a in kids if u not in memo]
            else:
                total = memo[uncovered] = sum(memo[u] for _, u, _ in kids)
                if record and total:
                    dag[uncovered] = [(r, u) for r, u, _ in kids if memo[u]]
        return memo[self.root[0]]

    def listing(self, limit: int) -> list[tuple[int, ...]]:
        """The first `limit` solutions as sorted row ids, in lexicographic order.

        A partial solution is one int in which row r sets bit W - 1 - r, for W
        rows.  All solutions of a state have the same size, and for equal-size
        row sets lexicographic order of the sorted ids is descending int
        order, which OR-ing in the branching row's bit keeps.  So in the
        order of the dag that count(record=True) filled, a state's list is
        its children's lists with the branching row's bit OR-ed in, sorted
        descending and cut to `limit`, and a child's list is dropped once its
        last parent has used it.  The listing expands no state.
        """
        top = len(self.masks) - 1
        parents = Counter(u for kids in self.dag.values() for _, u in kids)
        lists = {0: [0]}
        for uncovered, kids in self.dag.items():
            keys = []
            for r, u in kids:
                bit = 1 << (top - r)
                keys += [key | bit for key in lists[u]]
                parents[u] -= 1
                if not parents[u]:
                    del lists[u]
            keys.sort(reverse=True)
            del keys[limit:]
            lists[uncovered] = keys
        return [_rows(key, top) for key in lists[self.root[0]]]


def _rows(key: int, top: int) -> tuple[int, ...]:
    """The ascending row ids of a listing key, whose bit top - r marks row r."""
    rows = []
    while key:
        b = key.bit_length() - 1
        rows.append(top - b)
        key ^= 1 << b
    return tuple(rows)


def enumerate_tilings(
    layer: Layer,
    limit: Optional[int] = None,
    *,
    workers: int = 1,
    chain_cap: Optional[int] = None,
    placement_cap: Optional[int] = None,
    node_cap: Optional[int] = None,
) -> TilingEnumeration:
    """Count (exactly) and optionally list all tilings of a layer.

    The memoized count pass always runs.  A positive limit makes it record
    the states with a solution, and the listing merges that record into the
    first `limit` tilings in canonical order, building at most `limit`
    solutions of any state; a truncation flag tells when the count exceeds
    the limit.  nodes counts the states the count pass expands, against the
    node cap; the listing expands none, so it neither adds nodes nor can
    exceed the cap.  Exceeding a cap raises instead of truncating.  The
    search is sequential, so nothing depends on workers, which is only
    validated.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    chain_ids = {c: i for i, c in enumerate(enumerate_chains(layer, cap=chain_cap))}
    placements = sorted(enumerate_placements(layer, cap=placement_cap), key=attrgetter("subsets"))
    rows = [[chain_ids[c] for c in placement.chains()] for placement in placements]
    search = _Search(len(chain_ids), rows, DEFAULT_NODE_CAP if node_cap is None else node_cap)
    count = search.count(record=bool(limit))
    tilings: Optional[tuple[Tiling, ...]] = None
    truncated = False
    if limit is not None:
        truncated = count > limit
        solutions = search.listing(limit) if count and limit else []
        tilings = tuple(
            make_tiling(layer, [placements[r] for r in solution]) for solution in solutions
        )
    return TilingEnumeration(
        count=count, truncated=truncated, tilings=tilings, nodes=search.nodes
    )


# ---------------------------------------------------------------------------
# counting recurrences

def _constructive_counter(seq: FSeq, which: int, mode: str = "derived"):
    """count(n, k) of identity `which`'s recursion for levels k..n, over one
    memo for every cell it is asked for.

    A cell splits term(n) slots into ga groups of term(m) and gb groups of
    term(k - 1), (ga, gb) = (1, 1) for the additive identity (1) and
    (term(k), term(m - 1)) for the convolution identity (2), and is the
    multinomial of that split times count(n - 1, k) ** ga * count(n - 1,
    k - 1) ** gb.  derived mode counts unordered families, dividing by
    ga! gb!; paper mode keeps the ordered multinomial and first powers.
    Cells with k = 1 or m <= which are base cases.  The identity is checked
    once per row n, and it covers every split below (n, k).
    """
    if mode not in ("paper", "derived"):
        raise ValueError(f"mode must be 'paper' or 'derived', got {mode!r}")
    check = cache(partial(fseq.check_identity_1 if which == 1 else fseq.check_identity_2, seq))
    memo: dict[tuple[int, int], int] = {}

    def rec(n: int, k: int) -> int:
        m = n - k + 1
        if k == 1 or m <= which:
            return 1
        if (n, k) in memo:
            return memo[n, k]
        total, a, b = seq.term(n), seq.term(m), seq.term(k - 1)
        ga, gb = (1, 1) if which == 1 else (seq.term(k), seq.term(m - 1))
        if ga == gb == 1:
            got = comb(total, a)  # two groups: a binomial
        else:
            denom = factorial(a) ** ga * factorial(b) ** gb
            if mode == "derived":
                denom *= factorial(ga) * factorial(gb)
            got, remainder = divmod(factorial(total), denom)
            # an integer unless a zero-size group kind has a repeat factor
            if remainder:
                raise NonIntegralError(
                    f"multinomial {to_decimal(total)}! / {to_decimal(denom)} "
                    f"is not an integer at (n, k) = ({n}, {k})"
                )
            if mode == "paper":
                ga = gb = 1  # the printed form takes each sub-count once
        memo[n, k] = got * rec(n - 1, k) ** ga * rec(n - 1, k - 1) ** gb
        return memo[n, k]

    def count(n: int, k: int) -> int:
        if k < 1 or n < k:
            raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
        witness = check(n) if k != 1 and n - k + 1 > which else None
        if witness is not None:
            raise IdentityError(which, witness)
        return rec(n, k)

    return count


def count_tilings_additive(seq: FSeq, n: int, k: int) -> int:
    """Outcome count of the additive recursion's choice tree for levels k..n."""
    return _constructive_counter(seq, 1)(n, k)


def count_tilings_fibonacci(seq: FSeq, n: int, k: int, mode: str = "derived") -> int:
    """Choice count of the convolution recursion for levels k..n.

    paper mode evaluates the printed closed form verbatim.  derived mode
    counts unordered group families, which matches the deduplicated
    iter_tiling_choices_fibonacci stream on the ranges tested.
    """
    return _constructive_counter(seq, 2, mode)(n, k)


def stirling_lambda(eta: int, kappa: int, lam: int) -> int:
    """Partitions of an eta-set into kappa unlabeled blocks, all of size lam."""
    if eta < 0 or kappa < 0 or lam < 0:
        raise ValueError("eta, kappa, lam must be nonnegative")
    if eta != kappa * lam:
        return 0
    if kappa == 0:
        return 1
    if lam == 0:
        return 0
    return factorial(eta) // (factorial(kappa) * factorial(lam) ** kappa)


@dataclass(frozen=True)
class UpperBoundCheck:
    """Comparison of a constructive count against its equal-block bound."""

    holds: bool
    lhs: int
    rhs: int
    eta: int
    kappa: int
    lam: int


def _bound_parameters(seq: FSeq, n: int, k: int) -> tuple[int, int, int]:
    if k < 1 or n < k:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    m = n - k + 1
    f = fseq.fnomial(seq, n, k - 1)
    if not f.is_integer:
        raise NonIntegralError(
            f"fnomial({n}, {k - 1}) = {to_decimal(f.value)} is not an integer; no block count"
        )
    kappa = int(f.value)
    lam = fseq.f_factorial(seq, m)
    eta = fseq.falling(seq, n, m)
    return eta, kappa, lam


def equal_block_bound(seq: FSeq, n: int, k: int) -> int:
    """Partitions of the falling product of the layer's m top-window terms
    into fnomial(n, k - 1) blocks of size f_factorial(m)."""
    eta, kappa, lam = _bound_parameters(seq, n, k)
    return stirling_lambda(eta, kappa, lam)


def check_count_upper_bound(seq: FSeq, n: int, k: int) -> UpperBoundCheck:
    """Check count <= equal-block partition bound for the layer over k..n."""
    eta, kappa, lam = _bound_parameters(seq, n, k)
    rhs = stirling_lambda(eta, kappa, lam)
    lhs = count_tilings_additive(seq, n, k)
    return UpperBoundCheck(holds=lhs <= rhs, lhs=lhs, rhs=rhs, eta=eta, kappa=kappa, lam=lam)


# ---------------------------------------------------------------------------
# triangles

TRIANGLE_KINDS = ("fnomial", "additive", "fibonacci", "equal-blocks")


@dataclass(frozen=True)
class Triangle:
    """Lower-triangular table of exact integers with per-cell error notes."""

    kind: str
    rows: int
    include_zero: bool
    cells: dict
    notes: dict

    def _walk(self) -> Iterator[tuple[int, int, str]]:
        """(n, k, text) for each cell in row order, a note's text led by "!".

        A generator, so a caller holds no more cell strings than it keeps.
        """
        start = 0 if self.include_zero and self.kind == "fnomial" else 1
        for n in range(1, self.rows + 1):
            for k in range(start, n + 1):
                value = self.cells.get((n, k))
                text = "!" + self.notes[(n, k)] if value is None else to_decimal(value)
                yield n, k, text

    def to_csv(self) -> str:
        # only notes hold commas
        lines = ["n,k,value"]
        lines += [f"{n},{k},{text.replace(',', ';')}" for n, k, text in self._walk()]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        cells = list(self._walk())
        width = max((len(text) for _, _, text in cells), default=1)
        lines = []
        for n, row in groupby(cells, key=itemgetter(0)):
            lines.append(f"{n:>3} | " + " ".join(text.rjust(width) for _, _, text in row))
        return "\n".join(lines) + "\n"


def triangle(
    seq: FSeq,
    kind: str,
    rows: int,
    mode: str = "derived",
    include_zero: bool = False,
    row_cap: Optional[int] = None,
) -> Triangle:
    """Table of fnomials, constructive counts, or equal-block bounds.

    Cells whose evaluation fails a precondition are annotated instead of
    aborting the whole table.
    """
    if kind not in TRIANGLE_KINDS:
        raise ValueError(f"kind must be one of {TRIANGLE_KINDS}, got {kind!r}")
    if rows < 1:
        raise ValueError(f"rows must be positive, got {rows}")
    check_cap("rows", rows, row_cap, DEFAULT_ROW_CAP)
    cells: dict = {}
    notes: dict = {}
    if kind == "additive":
        cell = _constructive_counter(seq, 1)
    elif kind == "fibonacci":
        cell = _constructive_counter(seq, 2, mode)
    else:
        cell = partial(equal_block_bound, seq)
    for n in range(1, rows + 1):
        if kind == "fnomial":
            # One lazy row per n; its zero-term and range errors propagate.
            for k, value in enumerate(fseq.fnomial_row(seq, n)):
                if k == 0 and not include_zero:
                    continue
                if value.denominator != 1:
                    notes[(n, k)] = f"non-integer {to_decimal(value)}"
                else:
                    cells[(n, k)] = value.numerator
            continue
        for k in range(1, n + 1):
            try:
                cells[(n, k)] = cell(n, k)
            except (IdentityError, NonIntegralError) as exc:
                notes[(n, k)] = str(exc)
    return Triangle(
        kind=kind, rows=rows, include_zero=include_zero, cells=cells, notes=notes
    )
