"""Layer model: levels, chains, block placements, DOT rendering."""
from itertools import permutations, product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cobweb
from cobweb import errors, fseq, poset, tiling
from helpers import make_tiling


def test_build_layer_natural():
    layer = poset.build_layer(fseq.natural(), 2, 4)
    assert layer.sizes == (2, 3, 4)
    assert layer.m == 3
    assert layer.chain_count == 24
    assert list(layer.levels()) == [2, 3, 4]


def test_build_layer_validation():
    with pytest.raises(ValueError):
        poset.build_layer(fseq.natural(), 0, 2)
    with pytest.raises(ValueError):
        poset.build_layer(fseq.natural(), 3, 2)
    with pytest.raises(errors.ZeroTermError):
        poset.build_layer(fseq.explicit([1, 1, 0]), 1, 2)


def test_prime_level_sizes():
    assert poset.prime_level_sizes(fseq.fibonacci(), 5) == (1, 1, 2, 3, 5)
    assert poset.prime_level_sizes(fseq.natural(), 0) == ()


def test_enumerate_chains_lexicographic():
    layer = poset.build_layer(fseq.natural(), 2, 3)
    chains = list(poset.enumerate_chains(layer))
    assert chains == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_chain_ids_are_indices_in_enumerate_chains():
    layer = poset.build_layer(fseq.natural(), 2, 4)
    chains = list(poset.enumerate_chains(layer))
    assert [poset.chain_at(layer, i) for i in range(len(chains))] == chains
    for p in poset.enumerate_placements(layer):
        assert poset.chain_ids(layer, p) == [chains.index(c) for c in iproduct(*p)]


def test_enumerate_chains_cap():
    layer = poset.build_layer(fseq.natural(), 2, 5)
    with pytest.raises(errors.CapExceeded) as err:
        list(poset.enumerate_chains(layer, errors.Caps(chains=10)))
    assert err.value.cap_name == "chains"
    assert err.value.needed == 120


def test_placement_count_and_enumeration():
    layer = poset.build_layer(fseq.natural(), 2, 3)
    # prime sizes (1, 2) fit as (1, 2) and (2, 1): 2*3 + 1*3 placements
    assert poset.placement_count(layer) == 9
    placements = list(poset.enumerate_placements(layer))
    assert len(placements) == 9
    assert len(set(placements)) == 9
    for p in placements:
        assert sorted(len(s) for s in p) == [1, 2]


def test_zero_prime_size_fits_no_placement():
    # prime sizes (2, 0) against levels (2, 2): a block needs a nonempty
    # subset on every level, so nothing fits
    layer = poset.build_layer(fseq.explicit([1, 2, 0, 2, 2, 2]), 4, 5)
    assert layer.sizes == (2, 2)
    assert poset.placement_count(layer) == 0
    assert list(poset.enumerate_placements(layer)) == []


def _fitting_assignments_oracle(layer):
    """Size assignments as found before they were built level by level:
    every distinct permutation of the prime sizes, filtered."""
    base = poset.prime_level_sizes(layer.seq, layer.m)
    fits = []
    for assignment in sorted(set(permutations(base))):
        if all(0 < a <= size for a, size in zip(assignment, layer.sizes)):
            fits.append(assignment)
    return fits


def _any_outcome(fn):
    try:
        return ("value", fn())
    except Exception as exc:
        return ("error", type(exc), str(exc))


# level sizes and prime sizes both with zeros; a term list shorter than the
# layer makes reading the prime sizes fail
@given(
    st.lists(st.integers(0, 4), max_size=7),
    st.lists(st.integers(0, 5), min_size=1, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_fitting_assignments_match_the_permutation_oracle(terms, sizes):
    layer = poset.Layer(k=1, n=len(sizes), sizes=tuple(sizes), seq=fseq.explicit([1] + terms))
    got = _any_outcome(lambda: poset._fitting_assignments(layer))
    assert got == _any_outcome(lambda: _fitting_assignments_oracle(layer))


def test_all_one_layer_has_one_placement_at_any_height():
    # each level takes the one remaining size; no m! permutations are built
    layer = poset.build_layer(fseq.constant(1), 1, 3000)
    assert poset.placement_count(layer) == 1
    assert list(poset.enumerate_placements(layer)) == [((0,),) * 3000]


def _is_block(block):
    """Whether block is a plain tuple of sorted, distinct int tuples."""
    return type(block) is tuple and all(
        type(subset) is tuple and all(type(s) is int for s in subset)
        and list(subset) == sorted(set(subset)) for subset in block
    )


def test_blocks_are_plain_slot_subset_tuples():
    assert not hasattr(poset, "BlockPlacement") and not hasattr(cobweb, "BlockPlacement")
    assert "BlockPlacement" not in poset.__all__
    layer = poset.build_layer(fseq.natural(), 2, 4)
    placements = list(poset.enumerate_placements(layer))
    assert len(placements) == 52 and all(map(_is_block, placements))
    assert placements[0] == ((0,), (0, 1), (0, 1, 2))
    tile = tiling.tile_fibonacci(fseq.fibonacci(), 2, 6)
    assert tile.blocks and all(map(_is_block, tile.blocks))
    listed = tiling.enumerate_tilings(layer, limit=5).tilings
    assert len(listed) == 5 and all(_is_block(b) for t in listed for b in t.blocks)


def test_enumerate_placements_cap():
    layer = poset.build_layer(fseq.natural(), 2, 4)
    with pytest.raises(errors.CapExceeded) as err:
        list(poset.enumerate_placements(layer, errors.Caps(placements=3)))
    assert err.value.cap_name == "placements"


def test_make_tiling_sorts_blocks():
    layer = poset.build_layer(fseq.natural(), 2, 3)
    b1 = ((1,), (0, 1))
    b2 = ((0,), (0, 1))
    b3 = ((0, 1), (2,))
    tiling = make_tiling(layer, [b1, b3, b2])
    assert tiling.blocks[0] is b2
    assert tiling.blocks[1] is b3
    assert tiling.blocks[2] is b1


def test_tiling_to_dict():
    layer = poset.build_layer(fseq.natural(), 2, 3)
    blocks = [((0,), (0, 1)), ((1,), (0, 1)), ((0, 1), (2,))]
    d = poset.tiling_to_dict(make_tiling(layer, blocks))
    assert d["layer"] == {"k": 2, "n": 3, "seq": {"kind": "natural"}}
    assert d["blocks"] == [
        [[0], [0, 1]],
        [[0, 1], [2]],
        [[1], [0, 1]],
    ]


def test_to_dot_plain():
    layer = poset.build_layer(fseq.natural(), 2, 3)
    dot = poset.to_dot(layer)
    assert dot.startswith("digraph layer {")
    assert "rankdir=BT;" in dot
    assert dot.count("rank=same") == 2
    assert 'v2_0 [label="2:0"];' in dot
    assert "v2_1 -> v3_2;" in dot
    assert "color" not in dot


def test_to_dot_with_tiling_colors_blocks():
    layer = poset.build_layer(fseq.natural(), 2, 3)
    blocks = [((0,), (0, 1)), ((1,), (0, 1)), ((0, 1), (2,))]
    dot = poset.to_dot(layer, make_tiling(layer, blocks))
    assert dot.count("color=") == 6  # one edge per (bottom, top) pair per block
    assert len({line.split("color=")[1] for line in dot.splitlines() if "color=" in line}) == 3
