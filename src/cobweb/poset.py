"""Finite layers of a cobweb poset: chains, block placements, DOT export.

A layer spans levels k..n of the graded poset defined by a sequence; level j
carries term(j) anonymous vertex slots and consecutive levels are completely
bipartite.  A maximal chain picks one slot per level.  A block (placement) is
a tuple of one nonempty sorted slot tuple per level whose size multiset
equals the multiset of prime sizes {term(1), ..., term(m)}; its chain set is
the Cartesian product of the subsets, itertools.product(*block).  A tiling
partitions the chain universe into such blocks.

A chain's id is its index in the lexicographic order enumerate_chains
yields: its slots read as one mixed-radix number, level k most significant.
chain_ids numbers a placement's chains so, and chain_at reads a chain back;
the exact cover and the verifier both count chains by these ids.

Enumeration here is brute force and capped: past a cap of its errors.Caps
argument it raises CapExceeded rather than truncating output.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations, product as iproduct
from typing import Iterator, Optional, Sequence

from . import fseq
from .digits import to_decimal
from .errors import Caps, ZeroTermError
from .fseq import FSeq

__all__ = [
    "Chain",
    "Block",
    "Layer",
    "Tiling",
    "build_layer",
    "prime_level_sizes",
    "enumerate_chains",
    "chain_ids",
    "chain_at",
    "placement_count",
    "enumerate_placements",
    "tiling_to_dict",
    "to_dot",
]

# A maximal chain is one slot index per level, bottom to top.
Chain = tuple[int, ...]
# A block is one sorted slot tuple per level, bottom to top.
Block = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Layer:
    """Levels k..n of the poset of a sequence, with per-level slot counts."""

    k: int
    n: int
    sizes: tuple[int, ...]
    seq: FSeq = field(compare=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def chain_count(self) -> int:
        return math.prod(self.sizes)

    def levels(self) -> range:
        return range(self.k, self.n + 1)


def build_layer(seq: FSeq, k: int, n: int) -> Layer:
    """Layer over levels k..n; every level must have at least one slot."""
    if k < 1 or n < k:
        raise ValueError(f"layer needs 1 <= k <= n, got k={to_decimal(k)}, n={to_decimal(n)}")
    sizes = []
    for j in range(k, n + 1):
        size = seq.term(j)
        if size < 1:
            raise ZeroTermError(f"level {to_decimal(j)} of {seq.label()} has zero slots")
        sizes.append(size)
    return Layer(k=k, n=n, sizes=tuple(sizes), seq=seq)


def prime_level_sizes(seq: FSeq, m: int) -> tuple[int, ...]:
    """Sizes term(1..m): the level sizes of the m-level prime layer."""
    return tuple(seq.term(j) for j in range(1, m + 1))


@dataclass(frozen=True)
class Tiling:
    """A canonical, sorted family of blocks over one layer."""

    layer: Layer
    blocks: tuple[Block, ...]


def tiling_to_dict(tiling: Tiling) -> dict:
    """JSON-ready form with sorted slot arrays."""
    return {
        "layer": {
            "k": tiling.layer.k,
            "n": tiling.layer.n,
            "seq": fseq.to_descriptor(tiling.layer.seq),
        },
        "blocks": [
            [list(subset) for subset in block] for block in tiling.blocks
        ],
    }


def enumerate_chains(layer: Layer, caps: Caps = Caps()) -> Iterator[Chain]:
    """All maximal chains in lexicographic order; errors if over the chains cap."""
    caps.check("chains", layer.chain_count)
    return iproduct(*(range(size) for size in layer.sizes))


def chain_ids(layer: Layer, subsets: Sequence[Sequence[int]]) -> list[int]:
    """Ids of the chains of one slot subset per level, in iproduct order."""
    ids = [0]
    for subset, size in zip(subsets, layer.sizes):
        ids = [i * size + s for i in ids for s in subset]
    return ids


def chain_at(layer: Layer, cid: int) -> Chain:
    """The chain whose id is cid."""
    slots = []
    for size in reversed(layer.sizes):
        cid, slot = divmod(cid, size)
        slots.append(slot)
    return tuple(reversed(slots))


def _fitting_assignments(layer: Layer) -> list[tuple[int, ...]]:
    """Distinct fitting orderings of the prime sizes, in lexicographic order."""
    partial = [((), tuple(sorted(Counter(prime_level_sizes(layer.seq, layer.m)).items())))]
    for size in layer.sizes:
        partial = [
            (assignment + (a,), left[:i] + ((a, c - 1),) * (c > 1) + left[i + 1:])
            for assignment, left in partial
            for i, (a, c) in enumerate(left)
            if 0 < a <= size
        ]
    return [assignment for assignment, _ in partial]


def placement_count(layer: Layer) -> int:
    """Number of distinct block placements, counted without materializing."""
    return sum(
        math.prod(math.comb(size, a) for size, a in zip(layer.sizes, assignment))
        for assignment in _fitting_assignments(layer)
    )


def enumerate_placements(layer: Layer, caps: Caps = Caps()) -> Iterator[Block]:
    """All distinct block placements in deterministic order.

    Each fitting ordering of the prime sizes is one size assignment, and
    expands to its own subset families.  Order is by size assignment, then by
    the lexicographic order of each level's subset.
    """
    caps.check("placements", placement_count(layer))
    return chain.from_iterable(
        iproduct(*(combinations(range(size), a) for size, a in zip(layer.sizes, assignment)))
        for assignment in _fitting_assignments(layer)
    )


_DOT_PALETTE = (
    "#e41a1c",
    "#377eb8",
    "#4daf4a",
    "#984ea3",
    "#ff7f00",
    "#a65628",
    "#f781bf",
    "#999999",
    "#66c2a5",
    "#fc8d62",
    "#8da0cb",
    "#e78ac3",
)


def to_dot(layer: Layer, tiling: Optional[Tiling] = None) -> str:
    """DOT digraph of the layer; with a tiling, edges are colored by block.

    Without a tiling the output contains exactly one node line per slot and
    one edge line per bipartite pair of consecutive levels.  With a tiling,
    each block contributes its own bipartite edges in the block's color;
    blocks may repeat a structural edge, which DOT renders as a multi-edge.
    """
    lines = ["digraph layer {", "  rankdir=BT;", "  node [shape=circle];"]
    for level, size in zip(layer.levels(), layer.sizes):
        names = "; ".join(f"v{level}_{s}" for s in range(size))
        lines.append(f"  {{ rank=same; {names}; }}")
    for level, size in zip(layer.levels(), layer.sizes):
        for s in range(size):
            lines.append(f'  v{level}_{s} [label="{level}:{s}"];')
    if tiling is None:
        for i in range(layer.m - 1):
            lo, hi = layer.k + i, layer.k + i + 1
            for a in range(layer.sizes[i]):
                for b in range(layer.sizes[i + 1]):
                    lines.append(f"  v{lo}_{a} -> v{hi}_{b};")
    else:
        for index, block in enumerate(tiling.blocks):
            color = _DOT_PALETTE[index % len(_DOT_PALETTE)]
            for i in range(layer.m - 1):
                lo, hi = layer.k + i, layer.k + i + 1
                for a in block[i]:
                    for b in block[i + 1]:
                        lines.append(
                            f'  v{lo}_{a} -> v{hi}_{b} [color="{color}"];'
                        )
    lines.append("}")
    return "\n".join(lines) + "\n"
