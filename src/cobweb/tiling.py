"""Layer tilings: constructive recursion, verification, exhaustive search.

The constructive tilers and counters run one driver (_cells) over cells
(n, k), the layer over levels k..n with m = n - k + 1 levels, for both
identities.  It runs on an explicit stack in the recursion's own order, so
a cell has no depth limit.  A cell cuts its term(n) top slots into
a-groups of term(m) slots, each topping a tiling of cell (n - 1, k), and
b-groups of term(k - 1) slots, each taking the place of level k - 1 in a
tiling of cell (n - 1, k - 1).  The convolution split term(n) = term(k) *
term(m) + term(m - 1) * term(k - 1) takes term(k) and term(m - 1) of them,
the additive split term(n) = term(m) + term(k - 1) one of each, and none of
the b side when term(k - 1) = 0.  Two rules on a cell serve the tilers,
detect_variant and the derived counter:

* _refusal: a layer with a zero level, a zero prime size term(1..m), or one
  level that term(1) does not divide has no tiling; it is refused before
  any identity is checked, from the zero positions each tiler or counter
  keeps of the terms it has read.
* base case (not needs_identity): one level, prime-shaped, or all prime
  sizes 1; its one tiling cuts each level into runs of its prime size and
  makes a block of each choice of one run per level.

Every other cell needs its identity.  The driver memoizes every cell, a
tiler's cell as the sorted blocks of its one tiling.  A choice source gives
the group family a split uses: without a seed it cuts the top slots in
order, with an int seed it shuffles them once per split from
random.Random(seed).

The counters give the same driver their own leaf and split.  derived mode
counts the tiler's choice tree by its rules: unordered families, none with
an empty group, so the multinomial is exact.  Two leaves can be one tiling
where both kinds of group have one size (levels 2..3 of 1, 2, 2, 4,
additive: 6 leaves, 3 tilings).  paper mode is the printed closed form
verbatim: ordered, base cases k = 1 and m <= 1 (additive) or m <= 2
(convolution), no refusal.  A triangle shares one memo, checks its identity
once per row, and notes the cells an identity or a refusal rules out.

verify_tiling checks one tiling by level sections (_sections_partition):
the blocks partition the layer when, for each slot of the last level, the
heads of the blocks through it partition the levels below, and so on down
to one level.  Each distinct section is checked once, and a constructive
tiling repeats one sub-tiling under many groups, so the check follows the
blocks, not the chains, and builds no chain id.  verify_tilings, the
listing of enumerate, checks many tilings of one Layer object by chain ids
(poset.chain_ids) instead, since each distinct placement's ids serve all
of them: the blocks partition the chains when their chain counts sum to
the layer's chain count and their ids are that many distinct numbers.
Only when a test fails does an ordered pass name the first violated clause
and its witness.  No clause counts the blocks: blocks of the prime sizes
that partition the chains number the layer's F-nomial.

Exhaustive enumeration is an exact cover of the chain universe by block
placements, each stored as an int mask over the chain ids and ranked by its
subsets, so a tiling's canonical key is its sorted tuple of row ids.  The
search branches on the uncovered chain with the fewest remaining rows (MRV).
One count loop memoizes the count of each uncovered chain set, keyed on a
normal form of the set under permuting the slots of one level (which maps
tilings to tilings), follows forced states without a key, and charges each
state it expands to one node cap.  A child's alive rows are cut from one
mask per (level, subset) when it is entered.  A listing reads its counts
from that memo.  The first tiling of a raw set is a walk of count lookups:
its least row is the least row whose removal leaves a set with a tiling, and
a row that alone covers the lowest chain is taken without a lookup.  The
rest come from one heap of the subtrees not yet listed (Lawler's k-best
partition): the subtree with the greatest first tiling gives it, and the
children off that tiling's path go back in under bounds, so a raw set is
expanded only on the path of a listed tiling with more below it.  That gives
canonical order without building every solution.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cache, partial, reduce
from heapq import heappop, heappush
from itertools import chain, product as iproduct, repeat
from math import comb, factorial, prod
from operator import and_, or_
from typing import Iterable, Iterator, Optional, Sequence

from . import fseq
from .digits import to_decimal
from .errors import (
    CAP_DEFAULTS,
    CapExceeded,
    Caps,
    IdentityError,
    NonIntegralError,
    TilingError,
    ZeroTermError,
)
from .fseq import FSeq
from .poset import (
    Block,
    Layer,
    Tiling,
    build_layer,
    chain_at,
    chain_ids,
    enumerate_placements,
    prime_level_sizes,
)

__all__ = [
    "DEFAULT_NODE_CAP",
    "TilingViolation",
    "TilingEnumeration",
    "Triangle",
    "TRIANGLE_KINDS",
    "tile_additive",
    "tile_fibonacci",
    "needs_identity",
    "detect_variant",
    "verify_tiling",
    "verify_tilings",
    "enumerate_tilings",
    "count_tilings_additive",
    "count_tilings_fibonacci",
    "stirling_lambda",
    "equal_block_bound",
    "triangle",
]

DEFAULT_NODE_CAP = CAP_DEFAULTS["nodes"]
DEFAULT_ROW_CAP = 200


# ---------------------------------------------------------------------------
# constructive recursion

def _refusal(seq: FSeq):
    """refuse(k, n), which raises when levels k..n have no tiling at all: a
    zero level, a zero prime size, or one level whose size term(1) does not
    divide.  It reads the terms up to the highest level asked for once, in
    the order a layer reads them, and keeps their zero positions."""
    zeros: list[int] = []
    top = 0

    def refuse(k: int, n: int) -> None:
        nonlocal top
        if n > top:
            build_layer(seq, k, n)  # a zero level or an unreadable term
            zeros.extend(j for j in range(top + 1, n + 1) if not seq.term(j))
            top = n
        i = bisect_left(zeros, k)
        if i < len(zeros) and zeros[i] <= n:
            build_layer(seq, zeros[i], zeros[i])  # the first zero level's error
        if zeros and zeros[0] <= n - k + 1:
            raise ZeroTermError(f"prime size term({zeros[0]}) of {seq.label()} is zero; "
                                f"no block fits levels {k}..{n}")
        if k == n and seq.term(n) % seq.term(1):
            raise TilingError(f"one-level layer of size {seq.term(n)} cannot split "
                              f"into blocks of size {seq.term(1)}")

    return refuse


def _groups(seq: FSeq, n: int, k: int, which: int) -> tuple[int, int, int, int]:
    """(size_a, count_a, size_b, count_b) of cell (n, k)'s split under
    identity `which`, count_b 0 when size_b = term(k - 1) is 0."""
    m = n - k + 1
    size_a, size_b = seq.term(m), seq.term(k - 1)
    count_a, count_b = (1, 1) if which == 1 else (seq.term(k), seq.term(m - 1))
    return size_a, count_a, size_b, count_b if size_b else 0


def _base_tiling(seq: FSeq, k: int, n: int) -> tuple:
    """The one tiling of a base case: each level cut into runs of its prime
    size, and a block for every choice of one run per level."""
    runs = [
        [tuple(range(i, i + size)) for i in range(0, seq.term(j), size)]
        for j, size in zip(range(k, n + 1), prime_level_sizes(seq, n - k + 1))
    ]
    return tuple(iproduct(*runs))


# ---------------------------------------------------------------------------
# policies

def _chunk(order: list[int], start: int, size: int, count: int) -> tuple:
    return tuple(sorted(
        tuple(sorted(order[start + i * size:start + (i + 1) * size]))
        for i in range(count)
    ))


def _choice_source(seed: Optional[int]):
    """choose(top, size_a, count_a, size_b, count_b): one split's group
    family (groups_a, groups_b), cut in order from the top level's slots,
    shuffled once per split by random.Random(seed) when a seed is given."""
    if seed is not None and (type(seed) is bool or not isinstance(seed, int)):
        raise ValueError(f"seed must be an int or None, got {seed!r}")
    rng = None if seed is None else random.Random(seed)

    def choose(top, size_a, count_a, size_b, count_b):
        order = rng.sample(range(top), top) if rng else list(range(top))
        cut = size_a * count_a
        return _chunk(order, 0, size_a, count_a), _chunk(order, cut, size_b, count_b)

    return choose


def needs_identity(seq: FSeq, k: int, n: int) -> bool:
    """Whether tiling levels k..n splits a level and needs an identity: not
    on one level, a prime-shaped layer, or all prime sizes 1 (single chains
    tile it).  The first term that differs answers."""
    return not _prime_or_one_level(seq, k, n) and any(
        seq.term(j) != 1 for j in range(1, n - k + 2)
    )


def _prime_or_one_level(seq: FSeq, k: int, n: int) -> bool:
    return k < 2 or n <= k or all(seq.term(j) == seq.term(j - k + 1) for j in range(k, n + 1))


def _witness(seq: FSeq, which: int, n: int):
    """First violation of identity `which` up to n, by the check fseq holds
    at call time."""
    return getattr(fseq, f"check_identity_{which}")(seq, n)


def detect_variant(seq: FSeq, k: int, n: int):
    """Recursion variant for the layer: ("additive" | "fibonacci", None, None),
    or (None, witness1, witness2) when neither identity holds on a layer
    that is no base case.  A prime-shaped or one-level layer is "additive"
    without a scan."""
    if _prime_or_one_level(seq, k, n):
        return "additive", None, None
    # read every level before the scans, so that a sequence too short for
    # the layer fails here as it does in the tilers
    for j in range(k, n + 1):
        seq.term(j)
    w1 = _witness(seq, 1, n)
    if w1 is None:
        return "additive", None, None
    w2 = _witness(seq, 2, n)
    if w2 is None:
        return "fibonacci", None, None
    if not needs_identity(seq, k, n):
        return "additive", None, None
    return None, w1, w2


def _cells(seq: FSeq, which: int, leaf, split, mode: str = "derived"):
    """value(n, k): identity `which`'s recursion over cells (n, k), run on an
    explicit stack, with one memo for every cell it is asked for.

    A base cell's value is leaf(n, k).  In derived mode the refusals
    (_refusal) raise first and the base cells are those that need no
    identity; in paper mode they are the printed k = 1 and m <= which.  Any
    other cell checks its identity if it is the asked one (that row's check
    covers every split below it), then calls split(term(n), *_groups(...)),
    which does its pre-order work and returns (visit_b, join).  Cell
    (n - 1, k) is visited next, then (n - 1, k - 1) if visit_b, and the
    cell's value is join(value(n - 1, k), value(n - 1, k - 1) or None).
    That is the recursion's own order, so every draw, value and first error
    stays the same, with no depth limit.
    """
    if mode not in ("paper", "derived"):
        raise ValueError(f"mode must be 'paper' or 'derived', got {mode!r}")
    check = cache(partial(_witness, seq, which))
    refuse = _refusal(seq)
    memo: dict[tuple[int, int], object] = {}

    def base(n: int, k: int) -> bool:
        if mode == "paper":
            return k == 1 or n - k + 1 <= which
        refuse(k, n)
        return not needs_identity(seq, k, n)

    def value(n: int, k: int):
        asked = (n, k)
        stack = [(n, k, None, False)]  # a pending cell, or one to join
        while stack:
            n, k, join, visit_b = stack.pop()
            if join:
                memo[n, k] = join(memo[n - 1, k], memo[n - 1, k - 1] if visit_b else None)
            elif (n, k) in memo:
                continue
            elif base(n, k):
                memo[n, k] = leaf(n, k)
            else:
                witness = (n, k) == asked and check(n)
                if witness:
                    raise IdentityError(which, witness)
                visit_b, join = split(seq.term(n), *_groups(seq, n, k, which))
                stack.append((n, k, join, visit_b))
                if visit_b:
                    stack.append((n - 1, k - 1, None, False))
                stack.append((n - 1, k, None, False))
        return memo[asked]

    return value


def _tile(seq, k, n, which, seed, caps) -> Tiling:
    """The tiling of levels k..n under identity `which`'s recursion, with
    the group family of each split from _choice_source(seed)."""
    choose = _choice_source(seed)
    layer = build_layer(seq, k, n)
    caps.check("chains", layer.chain_count)

    def split(top, size_a, count_a, size_b, count_b):
        groups_a, groups_b = choose(top, size_a, count_a, size_b, count_b)

        def join(top_blocks: Sequence[Block], moved_blocks: Optional[Sequence[Block]]) -> list:
            """The cell's sorted blocks from its sub-cells': each a-group tops
            a copy of (n - 1, k), each b-group takes the place of level k - 1
            in a copy of (n - 1, k - 1)."""
            capped = [b + (g,) for g in groups_a for b in top_blocks]
            moved = [
                b[1:] + (tuple(g[i] for i in b[0]),) for g in groups_b for b in moved_blocks
            ]
            return sorted(capped + moved)

        return bool(count_b), join

    # a base case's blocks, an iproduct of sorted runs, are sorted already
    blocks = _cells(seq, which, lambda n, k: _base_tiling(seq, k, n), split)(n, k)
    return Tiling(layer, tuple(blocks))


def tile_additive(
    seq: FSeq,
    k: int,
    n: int,
    seed: Optional[int] = None,
    *,
    caps: Caps = Caps(),
) -> Tiling:
    """Tile the layer over levels k..n of a sum-split sequence.

    Requires the additive identity term(m + k) = term(m) + term(k) on the
    range the recursion touches; the first violation is raised as an error.
    Without a seed every split takes its first slots; an int seed shuffles
    them from random.Random(seed), the same tiling on every run.  Any other
    seed is a ValueError.  A layer past caps' chains cap is refused.
    """
    return _tile(seq, k, n, 1, seed, caps)


def tile_fibonacci(
    seq: FSeq,
    k: int,
    n: int,
    seed: Optional[int] = None,
    *,
    caps: Caps = Caps(),
) -> Tiling:
    """Tile the layer over levels k..n of a convolution-split sequence.

    Requires the identity term(m + k) = term(k + 1) * term(m) +
    term(m - 1) * term(k) on the range the recursion touches.  The seed
    chooses slots as in tile_additive.
    """
    return _tile(seq, k, n, 2, seed, caps)


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class TilingViolation:
    """First violated tiling clause with a concrete witness."""

    clause: str
    detail: str
    witness: object = None


def _is_slot_set(subset: tuple, size: int) -> bool:
    """Whether subset is a nonempty sorted set of slots below size."""
    return (bool(subset) and tuple(sorted(set(subset))) == subset
            and 0 <= subset[0] and subset[-1] < size)


def _sections_partition(layer: Layer, expected: list[int], blocks: Sequence[Block]) -> bool:
    """Whether blocks, one slot subset per level each, are blocks of the
    prime size multiset `expected` that partition the layer's chains.

    A block is S_0 x ... x S_{m-1}, so the blocks partition the layer when,
    for each slot x of the last level, the heads S_0 .. S_{m-2} of the
    blocks with x in S_{m-1} partition the product of the other levels: the
    section of x.  A section is split so again, level by level down to
    level 0, where each slot must lie in exactly one entry.  An entry is a
    head and the sizes of the levels split off above it, so that a level-0
    entry's sizes with its own must sort to `expected`.  Each distinct
    section, as a frozenset of its entries, is split once however often it
    recurs, and a frozenset shorter than its entries means two equal entries
    over one slot, an overlap.  Every distinct subset is checked first, so
    no slot indexes a section unchecked.  No chain id is built.
    """
    sizes = layer.sizes
    if set(map(len, blocks)) != {len(sizes)}:
        return False
    for size, column in zip(sizes, zip(*blocks)):
        if not all(_is_slot_set(subset, size) for subset in set(column)):
            return False
    level = [zip(blocks, repeat(()))]  # one level's distinct sections
    for size in sizes[:0:-1]:  # split by the slots of levels m - 1 .. 1
        below = set()
        for section in level:
            by_last: dict[tuple, list] = {}  # a last subset -> its entries, one level down
            for head, split in section:
                last = head[-1]
                entries = by_last.get(last)
                if entries is None:
                    entries = by_last[last] = []
                entries.append((head[:-1], split + (len(last),)))
            through: list[list[frozenset]] = [[] for _ in range(size)]  # a slot's parts
            for last, entries in by_last.items():
                part = frozenset(entries)
                if len(part) != len(entries):
                    return False
                for x in last:
                    through[x].append(part)
            for parts in through:
                got = parts[0] if len(parts) == 1 else frozenset().union(*parts)
                if not parts or len(got) != sum(map(len, parts)):
                    return False
                below.add(got)
        level = below
    every = list(range(sizes[0]))
    shapes = set()  # each level-0 entry's sizes, its own first
    for section in level:
        cover = []
        for (first,), split in section:
            cover += first
            shapes.add((len(first),) + split)
        cover.sort()
        if cover != every:
            return False
    return all(sorted(shape) == expected for shape in shapes)


class _Verifier:
    """verify_tilings for the tilings of one Layer object, by chain ids, and
    verify_tiling's ordered pass once its section test has failed.

    The expected size multiset is computed once, each distinct level subset
    is checked once, and each distinct placement's chain ids
    (poset.chain_ids) are built once, so they amortize across the tilings
    of one listing.  A tiling whose chain count and number of distinct ids
    both equal the layer's chain count is a partition; only when that test
    fails does a second pass find the first shared or uncovered chain.
    """

    def __init__(self, layer: Layer):
        self.layer = layer
        self.expected = sorted(prime_level_sizes(layer.seq, layer.m))
        self.valid = [set() for _ in layer.sizes]  # checked subsets per level
        self.ids: dict[tuple, list[int]] = {}  # checked placements' chain ids

    def __call__(self, tiling: Tiling) -> Optional[TilingViolation]:
        layer = self.layer
        if tiling.layer is not layer:
            raise ValueError("a verifier checks the tilings of its own layer only")
        ids = self.ids
        blocks = []
        for bi, subsets in enumerate(tiling.blocks):
            got = ids.get(subsets)
            if got is None:
                fault = self._fault(bi, subsets)
                if fault:
                    return fault
                got = ids[subsets] = chain_ids(layer, subsets)
            blocks.append(got)
        chains = layer.chain_count
        if sum(map(len, blocks)) != chains or len(set(chain.from_iterable(blocks))) != chains:
            return self._misplaced(blocks)
        return None

    def _fault(self, bi: int, subsets: tuple) -> Optional[TilingViolation]:
        """The block-sizes violation of block bi, or None."""
        layer = self.layer
        if len(subsets) != layer.m:
            return TilingViolation(
                "block-sizes", f"block {bi} has {len(subsets)} levels, layer has {layer.m}", bi
            )
        for li, (subset, valid) in enumerate(zip(subsets, self.valid)):
            if subset in valid:
                continue
            size = layer.sizes[li]
            if not _is_slot_set(subset, size):
                return TilingViolation(
                    "block-sizes",
                    f"block {bi} level {layer.k + li} subset {subset} is not a sorted "
                    f"set of slots below {size}",
                    (bi, li),
                )
            valid.add(subset)
        got = sorted(map(len, subsets))
        if got != self.expected:
            return TilingViolation(
                "block-sizes", f"block {bi} has size multiset {got}, expected {self.expected}", bi
            )
        return None

    def _misplaced(self, blocks: list[list[int]]) -> TilingViolation:
        """The first chain, in block order, that an earlier block holds, else
        the least chain no block holds."""
        layer = self.layer
        owner: dict[int, int] = {}
        for bi, ids in enumerate(blocks):
            for cid in ids:
                other = owner.setdefault(cid, bi)
                if other != bi:
                    c = chain_at(layer, cid)
                    return TilingViolation(
                        "shared-chain", f"chain {c} lies in blocks {other} and {bi}", (c, other, bi)
                    )
        cid = next(i for i in range(layer.chain_count) if i not in owner)
        c = chain_at(layer, cid)
        return TilingViolation("uncovered-chain", f"chain {c} is covered by no block", c)


def verify_tiling(tiling: Tiling) -> Optional[TilingViolation]:
    """None when valid, else the first violated clause.

    Clauses in order: every block's size multiset equals the prime level
    sizes; blocks are pairwise chain-disjoint; the blocks cover the chain
    universe.  The block count then equals the layer's generalized
    binomial, since each block holds term(1) * ... * term(m) chains.  One
    tiling is checked by level sections (_sections_partition); only a
    failed check runs the ordered pass that names the first clause.
    """
    layer = tiling.layer
    if _sections_partition(layer, sorted(prime_level_sizes(layer.seq, layer.m)), tiling.blocks):
        return None
    return _Verifier(layer)(tiling)


def verify_tilings(tilings: Iterable[Tiling]) -> Iterator[Optional[TilingViolation]]:
    """verify_tiling's verdict on each tiling, in order, from one verifier
    for tilings that share one Layer object (ValueError otherwise), by the
    chain ids of each distinct placement."""
    verifier = None
    for t in tilings:
        verifier = verifier or _Verifier(t.layer)
        yield verifier(t)


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
    """One bitmask exact cover: one count loop under the node cap, and a
    listing that reads its counts.

    masks[r] holds the chains of row r, elem_rows[e] the rows covering chain
    e, and meets[level, subset] the rows meeting that subset.  A state is
    (uncovered, alive); the alive rows are the rows inside the uncovered
    chains, so the uncovered set alone decides the count.  A child's alive
    set (_alive) is built when it is entered.

    The rows are every placement of the layer of level sizes `sizes`, so
    they are closed under permuting the slots of one level, and two
    uncovered sets that such permutations map onto each other have the same
    count.  The count memo is keyed on _key, one member of that orbit, and
    each key it expands, and each forced state it follows unkeyed, is
    charged to the node cap.  The listing works on raw states, since it
    names rows, and charges each raw state it expands, once per listing, to
    the same cap.
    """

    def __init__(self, sizes: tuple[int, ...], rows: list[tuple], node_cap: int):
        """rows[r] is row r's slot subset per level.  A chain's id is
        mixed-radix, level 0 most significant (poset.chain_ids), so a row's
        mask is the product of one sum of powers of two per level, with no
        carries, and the rows through a slot are one mask per (level, slot):
        a chain lies in the rows through all its slots, and two rows share a
        chain when their subsets meet on every level."""
        n_elems = prod(sizes)
        # the rows through each slot as a bitmap of row ids, made an int
        # once: or-ing each row's bit into an int would copy it each time
        bitmaps = [[bytearray((len(rows) + 7) // 8) for _ in range(size)] for size in sizes]
        stride, strides = n_elems, []
        for size in sizes:
            stride //= size
            strides.append(stride)
        spread: dict = {}  # (level, subset) -> the subset's slots as chain-id bits
        self.masks = []
        for rid, subsets in enumerate(rows):
            byte, bit, mask = rid >> 3, 1 << (rid & 7), 1
            for i, subset in enumerate(subsets):
                slots = bitmaps[i]
                for slot in subset:
                    slots[slot][byte] |= bit
                part = spread.get((i, subset))
                if part is None:
                    part = spread[i, subset] = sum(1 << slot * strides[i] for slot in subset)
                mask *= part
            self.masks.append(mask)
        through = [[int.from_bytes(bitmap, "little") for bitmap in level] for level in bitmaps]
        self.elem_rows = [(1 << len(rows)) - 1]
        for slots in through:
            self.elem_rows = [acc & slot_rows for acc in self.elem_rows for slot_rows in slots]
        self.meets = {(i, subset): reduce(or_, map(through[i].__getitem__, subset))
                      for i, subset in spread}
        self.rows = rows
        self.root = ((1 << n_elems) - 1, (1 << len(rows)) - 1)
        self.top = len(rows) - 1
        self.memo = {0: 1}
        self.firsts = {0: 0}  # raw set -> its first key (_first)
        self.nodes = 0
        self.node_cap = node_cap
        # slot j of a level is a run of `stride` chain ids at j * stride,
        # repeated every stride * size ids, built as one geometric-series
        # product; levels[i] is (first, end, stride) of a level's slots
        self.slot_masks, self.levels = [], []
        for size, stride in zip(sizes, strides):
            if size > 1:
                period = stride * size
                run = ((1 << stride) - 1) * ((1 << n_elems) - 1) // ((1 << period) - 1)
                first = len(self.slot_masks)
                self.slot_masks += [run << j * stride for j in range(size)]
                self.levels.append((first, first + size, stride))

    def _key(self, uncovered: int) -> int:
        """uncovered with each level's slots put in the order of (uncovered
        chains through the slot, slot index).  It lies in the set's orbit
        under slot permutations within levels, so it has the set's count, and
        its own key is itself.  Where counts tie, two sets of one orbit can
        keep apart (sound, not complete): that costs states, never exactness."""
        masks = self.slot_masks
        # permuting one level's slots keeps every other level's counts
        counts = [(uncovered & mask).bit_count() for mask in masks]
        for first, end, stride in self.levels:
            level = counts[first:end]
            if level != sorted(level):
                u, uncovered = uncovered, 0
                for new, old in enumerate(sorted(range(end - first), key=level.__getitem__)):
                    part, shift = u & masks[first + old], (new - old) * stride
                    uncovered |= part << shift if shift >= 0 else part >> -shift
        return uncovered

    def _expand(self, uncovered: int, alive: int) -> list:
        """One node against the cap, then the state's children.  Past the cap
        the proven lower bound is the root's count once it is known (a
        listing), else the root's children counted so far."""
        self.nodes += 1
        if self.nodes > self.node_cap:
            memo, key = self.memo, self._key
            partial = memo.get(key(self.root[0]))
            if partial is None:
                partial = sum(memo.get(key(u), 0) for _, u in self._children(*self.root))
            raise CapExceeded("nodes", self.node_cap, partial_count=partial)
        return self._children(uncovered, alive)

    def _alive(self, alive: int, r: int) -> int:
        """alive less the rows meeting row r on every level: those sharing a chain."""
        return alive & ~reduce(and_, map(self.meets.__getitem__, enumerate(self.rows[r])))

    def _children(self, uncovered: int, alive: int) -> list:
        """(row, uncovered) after each alive row covering the MRV chain, the
        uncovered chain with the fewest alive rows (ties to the lowest)."""
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
        masks = self.masks
        out = []
        while best:
            low = best & -best
            r = low.bit_length() - 1
            out.append((r, uncovered ^ masks[r]))
            best ^= low
        return out

    def count(self, uncovered: int, alive: int, row: Optional[int] = None) -> int:
        """The state's count, memo[_key(uncovered)], filled from an explicit
        stack: a state's count is the sum of its children's, and a state
        with one child that is not the empty set is followed to that child
        without a key of its own.  With a row, alive is the parent's."""
        memo, key, cut = self.memo, self._key, self._alive
        start = key(uncovered)
        stack = [(start, uncovered, alive, row)]
        while stack:
            k, uncovered, alive, row = stack.pop()
            if uncovered is None:  # alive holds the kids' keys
                memo[k] = sum(map(memo.__getitem__, alive))
            elif k not in memo:
                alive = alive if row is None else cut(alive, row)  # entered on a miss
                kids = self._expand(uncovered, alive)
                while len(kids) == 1 and kids[0][1]:  # forced: the child's count
                    row, uncovered = kids[0]
                    alive = cut(alive, row)
                    kids = self._expand(uncovered, alive)
                kids = [(key(u), u, r) for r, u in kids]
                stack.append((k, None, [c for c, _, _ in kids], None))
                stack += [(c, u, alive, r) for c, u, r in kids if c not in memo]
        return memo[start]

    def listing(self, limit: int) -> list[tuple[int, ...]]:
        """The first `limit` solutions of the root as sorted row ids, in
        lexicographic order.

        A solution is one int key in which row r sets bit top - r.  All
        solutions of a state have the same size, and for equal-size row sets
        lexicographic order of the sorted ids is descending key order.  The
        children of a state partition its solutions, so one heap of subtrees
        not yet listed gives them in that order (Lawler's k-best partition).
        An entry is (-key, rows, uncovered, alive, count, exact): the path
        `rows` from the root as key bits, the raw state it reaches and that
        state's count, and with `exact` the subtree's greatest key, rows |
        _first(uncovered, alive), else a bound on it.  A popped bound comes
        back exact; a popped exact key is the next solution, and its path is
        walked down while solutions are left off it, pushing each solvable
        child off the path under a bound from its least alive row.  Each raw
        state is expanded once per listing, and its solvable children kept
        with their counts; the last child's count is the state's less the
        others'.
        """
        top, count, first = self.top, self.count, self._first
        uncovered, alive = self.root
        total = count(uncovered, alive)
        want = min(limit, total)
        heap = [(-first(uncovered, alive), 0, uncovered, alive, total, True)] if want else []
        kids: dict = {}  # raw set -> its solvable children as (bit, uncovered, alive, count)
        keys = []
        while len(keys) < want:
            key, rows, uncovered, alive, total, exact = heappop(heap)
            if not exact:
                key = rows | first(uncovered, alive)
                heappush(heap, (-key, rows, uncovered, alive, total, True))
                continue
            key = -key
            keys.append(key)
            while total > 1 and len(keys) < want:
                children = kids.get(uncovered)
                if children is None:
                    children = kids[uncovered] = []
                    expanded, left = self._expand(uncovered, alive), total
                    for r, u in expanded:
                        got = left if r == expanded[-1][0] else count(u, alive, r)
                        if got:
                            left -= got
                            children.append((1 << (top - r), u, self._alive(alive, r), got))
                for bit, u, a, got in children:
                    if key & bit:
                        path = bit, u, a, got
                    else:  # every row from its least alive row on
                        least = (a & -a).bit_length() - 1
                        bound = rows | bit | ((2 << (top - least)) - 1)
                        heappush(heap, (-bound, rows | bit, u, a, got, False))
                bit, uncovered, alive, total = path
                rows |= bit
        return [_rows(key, top) for key in keys]

    def _first(self, uncovered: int, alive: int) -> int:
        """The greatest key of a set with a solution: its first solution,
        memoized per raw set in firsts.  The rows in some solution of a set U
        are the alive rows r with a solution of U minus r, so the least of
        them starts the first solution, and the first solution of U minus r,
        whose rows all follow r, ends it.  A row that alone covers U's lowest
        chain lies in every solution, so the walk takes it without a count:
        the count follows such forced states without keys, and a count from
        inside a forced run would walk the rest of it again."""
        firsts, masks, elem_rows, count = self.firsts, self.masks, self.elem_rows, self.count
        path, low = [], 0  # no row below low lies in a solution
        while uncovered not in firsts:
            rows = alive & elem_rows[(uncovered & -uncovered).bit_length() - 1]
            if rows & (rows - 1):
                rest = alive >> low << low
                while True:
                    r = (rest & -rest).bit_length() - 1
                    if count(uncovered ^ masks[r], alive, r):
                        break
                    rest &= rest - 1
                low = r + 1
            else:
                r = rows.bit_length() - 1
            path.append((uncovered, r))
            uncovered, alive = uncovered ^ masks[r], self._alive(alive, r)
        key = firsts[uncovered]
        for uncovered, r in reversed(path):
            key |= 1 << (self.top - r)
            firsts[uncovered] = key
        return key


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
    caps: Caps = Caps(),
) -> TilingEnumeration:
    """Count (exactly) and optionally list all tilings of a layer.

    The memoized count loop always runs (_Search.count), keyed on
    slot-relabelling classes of uncovered chain sets; nodes counts the
    classes it expands plus the forced states it follows.  A positive limit
    then lists the first `limit` tilings in canonical order from that memo
    (_Search.listing): counts of raw sets the count never reached add their
    classes to nodes, and so does each raw set that the listing expands, on
    the path of a listed tiling with more below it.  A truncation flag
    tells when the count exceeds the limit.  Past a cap of caps (chains,
    placements, nodes) it raises CapExceeded instead of truncating; a node
    cap passed while listing reports the exact count as its partial count,
    and a count may fit under a node cap that its listing exceeds.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {to_decimal(limit)}")
    caps.check("chains", layer.chain_count)
    placements = sorted(enumerate_placements(layer, caps))
    search = _Search(layer.sizes, placements, caps.limits["nodes"])
    count = search.count(*search.root)
    tilings: Optional[tuple[Tiling, ...]] = None
    truncated = False
    if limit is not None:
        truncated = count > limit
        solutions = search.listing(limit) if count and limit else []
        # ascending row ids over sorted placements: canonical order
        tilings = tuple(
            Tiling(layer, tuple(placements[r] for r in solution)) for solution in solutions
        )
    return TilingEnumeration(
        count=count, truncated=truncated, tilings=tilings, nodes=search.nodes
    )


# ---------------------------------------------------------------------------
# counting recurrences

def _constructive_counter(seq: FSeq, which: int, mode: str = "derived"):
    """count(n, k) of identity `which`'s recursion for levels k..n (_cells):
    a cell's split multinomial (_groups) times count(n - 1, k) ** ga *
    count(n - 1, k - 1) ** gb.  derived mode divides by ga! gb!; paper mode
    keeps ordered selections and first powers.
    """

    def split(total, a, ga, b, gb):
        if ga == gb == 1:
            got = comb(total, a)  # two groups: a binomial
        else:
            denom = factorial(a) ** ga * factorial(b) ** gb
            if mode == "derived":
                denom *= factorial(ga) * factorial(gb)
            # exact: paper's selections are ordered, and derived mode has
            # no empty group left (its refusals and the dropped b side)
            got = factorial(total) // denom
            if mode == "paper":
                ga = gb = 1  # the printed form takes each sub-count once
        return bool(gb), lambda top, moved: got * top ** ga * (moved ** gb if gb else 1)

    value = _cells(seq, which, lambda n, k: 1, split, mode)

    def count(n: int, k: int) -> int:
        if k < 1 or n < k:
            raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
        return value(n, k)

    return count


def count_tilings_additive(seq: FSeq, n: int, k: int) -> int:
    """Outcome count of the additive recursion's choice tree for levels k..n."""
    return _constructive_counter(seq, 1)(n, k)


def count_tilings_fibonacci(seq: FSeq, n: int, k: int, mode: str = "derived") -> int:
    """Choice count of the convolution recursion for levels k..n.

    paper mode evaluates the printed closed form verbatim.  derived mode
    counts the tiler's choice tree by the tiler's rules: its refusals raise,
    a base case counts once, any other cell counts unordered group families.
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


def equal_block_bound(seq: FSeq, n: int, k: int) -> int:
    """Partitions of the falling product of the layer's m top-window terms
    into fnomial(n, k - 1) blocks of size f_factorial(m)."""
    if k < 1 or n < k:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    m = n - k + 1
    f = fseq.fnomial(seq, n, k - 1)
    if not f.is_integer:
        raise NonIntegralError(
            f"fnomial({n}, {k - 1}) = {to_decimal(f.value)} is not an integer; no block count"
        )
    lam = fseq.f_factorial(seq, m)
    return stirling_lambda(fseq.falling(seq, n, m), int(f.value), lam)


# ---------------------------------------------------------------------------
# triangles

TRIANGLE_KINDS = ("fnomial", "additive", "fibonacci", "equal-blocks")


class _IntCells(Mapping):
    """Read-only view of a triangle's rows as a mapping (n, k) -> int.

    rows[n - 1] is row n as one list indexed by k = 0..n.  A slot holds an
    int or an integral Decimal (the fnomial kind's values, computed in
    decimal so that printing them is linear), or None where the cell has a
    note; slots k < start are not cells.  A fnomial row's second half holds
    its first half's objects.  A value becomes an int only when it is looked
    up; len, iteration and membership convert nothing.
    """

    __slots__ = ("_rows", "_start", "_len")

    def __init__(self, rows: list, start: int, noted: int):
        self._rows = rows
        self._start = start
        self._len = sum(len(row) for row in rows) - start * len(rows) - noted

    def _slot(self, key):
        try:
            n, k = key
            if n >= 1 and k >= self._start:
                return self._rows[n - 1][k]
        except (TypeError, ValueError, IndexError):
            pass
        return None

    def __getitem__(self, key) -> int:
        value = self._slot(key)
        if value is None:
            raise KeyError(key)
        return int(value)

    def __contains__(self, key) -> bool:
        return self._slot(key) is not None

    def __iter__(self):
        start = self._start
        for n, row in enumerate(self._rows, 1):
            for k in range(start, n + 1):
                if row[k] is not None:
                    yield n, k

    def __len__(self) -> int:
        return self._len

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class Triangle:
    """Lower-triangular table of exact integers with per-cell error notes.

    cells maps (n, k) to an int, for k from start; a cell with a note has
    no value.  The table is held a row at a time (_IntCells), and so are
    its renderings: row_texts makes each row's texts when it reaches the
    row, converting each distinct cell once (a fnomial row's first half,
    mirrored), and csv_rows writes a row as one chunk, so a writer of its
    chunks never holds the whole table as text.  to_csv joins csv_rows, and
    to_text builds the whole table, since it needs the widest cell first.
    """

    kind: str
    rows: int
    include_zero: bool
    cells: _IntCells
    notes: dict

    @property
    def start(self) -> int:
        """The least k of a cell: 0 for a fnomial table with include_zero, else 1."""
        return self.cells._start

    def row_texts(self) -> Iterator[tuple[int, list[str], bool]]:
        """(n, texts, noted) for each row n: texts[k - start] is the decimal
        text of cell (n, k), or "!" and its note, and noted tells whether
        the row has a note."""
        notes, start = self.notes, self.start
        noted = {n for n, _ in notes}
        mirror = self.kind == "fnomial"  # a fnomial row's values are Decimals
        for n, row in enumerate(self.cells._rows, 1):
            first, values = (0, row[:n // 2 + 1]) if mirror else (start, row[start:])
            if n in noted:
                texts = [
                    "!" + notes[n, k] if value is None else to_decimal(value)
                    for k, value in enumerate(values, first)
                ]
            else:
                texts = list(map(str if mirror else to_decimal, values))
            if mirror:
                texts += texts[n - n // 2 - 1::-1]
                del texts[:start]
            yield n, texts, n in noted

    def csv_rows(self) -> Iterator[str]:
        """The CSV text in chunks: the header line, then one chunk per row n."""
        yield "n,k,value\n"
        ks = [f"{k}," for k in range(self.start, self.rows + 1)]
        for n, texts, noted in self.row_texts():
            if noted:  # only notes, led by "!", hold commas
                texts = [text.replace(",", ";") if text[0] == "!" else text for text in texts]
            # the lines "n,k,text\n" as one join, which copies each text once
            parts = ["\n"] * (3 * len(texts))
            parts[0::3] = map(f"{n},".__add__, ks[:len(texts)])
            parts[1::3] = texts
            yield "".join(parts)

    def to_csv(self) -> str:
        return "".join(self.csv_rows())

    def to_text(self) -> str:
        rows = [(n, texts) for n, texts, _ in self.row_texts()]
        width = max((len(text) for _, texts in rows for text in texts), default=1)
        return "".join(
            f"{n:>3} | " + " ".join([text.rjust(width) for text in texts]) + "\n"
            for n, texts in rows
        )


def triangle(
    seq: FSeq,
    kind: str,
    rows: int,
    mode: str = "derived",
    include_zero: bool = False,
) -> Triangle:
    """Table of fnomials, constructive counts, or equal-block bounds.

    Cells whose evaluation fails a precondition are annotated instead of
    aborting the whole table.
    """
    if kind not in TRIANGLE_KINDS:
        raise ValueError(f"kind must be one of {TRIANGLE_KINDS}, got {kind!r}")
    if rows < 1:
        raise ValueError(f"rows must be positive, got {to_decimal(rows)}")
    if rows > DEFAULT_ROW_CAP:
        raise CapExceeded("rows", DEFAULT_ROW_CAP, needed=rows)
    table: list = []  # row n, indexed by k = 0..n; None where a cell has a note
    notes: dict = {}
    if kind == "fnomial":
        start = 0 if include_zero else 1
        # Decimal integers print in linear time (cobweb.digits); the rows'
        # zero-term and range errors propagate
        for n, half in enumerate(fseq._half_rows(seq, rows, Decimal), 1):
            row = list(half)
            row += row[n - n // 2 - 1::-1]  # cells past the midpoint: their mirrors
            if Fraction in map(type, row):
                for k, value in enumerate(row):
                    if type(value) is Fraction:
                        notes[(n, k)] = f"non-integer {to_decimal(value)}"
                        row[k] = None
            table.append(row)
    else:
        start = 1
        if kind in ("additive", "fibonacci"):
            cell = _constructive_counter(seq, 1 if kind == "additive" else 2, mode)
            noted = (IdentityError, ZeroTermError, TilingError)  # the tiler's refusals too
        else:
            cell = partial(equal_block_bound, seq)
            noted = (NonIntegralError,)
        for n in range(1, rows + 1):
            row = [None]
            for k in range(1, n + 1):
                try:
                    row.append(cell(n, k))
                except noted as exc:
                    notes[(n, k)] = str(exc)
                    row.append(None)
            table.append(row)
    return Triangle(
        kind=kind, rows=rows, include_zero=include_zero,
        cells=_IntCells(table, start, len(notes)), notes=notes,
    )
