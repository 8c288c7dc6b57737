"""Tilers, verifier, exhaustive enumeration, counters, triangles."""
import sys
import tracemalloc
from functools import cache
from itertools import combinations, permutations, product as iproduct
from math import comb, factorial, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cobweb import errors, fseq, poset, tiling
from cobweb.digits import parse_decimal
from helpers import UpperBoundCheck, check_count_upper_bound, make_tiling


def _blocks(t):
    return tuple(b.subsets for b in t.blocks)


# ---------------------------------------------------------------------------
# constructive tilers

def test_policy_validation():
    # the seed is the whole slot-choice policy: None or an int
    tilers = ((tiling.tile_additive, fseq.natural()), (tiling.tile_fibonacci, fseq.fibonacci()))
    for tile, seq in tilers:
        for seed in (True, "7", 1.5, object()):
            with pytest.raises(ValueError, match="seed must be an int or None"):
                tile(seq, 2, 4, seed)
        assert tiling.verify_tiling(tile(seq, 2, 4, seed=0)) is None


def test_tile_additive_smallest_split():
    t = tiling.tile_additive(fseq.natural(), 2, 3)
    assert _blocks(t) == (
        ((0,), (0, 1)),
        ((0, 1), (2,)),
        ((1,), (0, 1)),
    )
    assert tiling.verify_tiling(t) is None


def test_tile_fibonacci_matching_layer():
    t = tiling.tile_fibonacci(fseq.fibonacci(), 3, 4)
    assert _blocks(t) == (
        ((0,), (0,)),
        ((0,), (1,)),
        ((0,), (2,)),
        ((1,), (0,)),
        ((1,), (1,)),
        ((1,), (2,)),
    )
    assert tiling.verify_tiling(t) is None


def test_tile_grids_satisfy_block_count_law():
    nat = fseq.natural()
    for k in range(1, 7):
        for n in range(k, 7):
            t = tiling.tile_additive(nat, k, n)
            assert tiling.verify_tiling(t) is None, (k, n)
            law = fseq.fnomial(nat, n, n - k + 1)
            assert len(t.blocks) == law.value, (k, n)
    fib = fseq.fibonacci()
    for k in range(1, 8):
        for n in range(k, 8):
            t = tiling.tile_fibonacci(fib, k, n)
            assert tiling.verify_tiling(t) is None, (k, n)
            law = fseq.fnomial(fib, n, n - k + 1)
            assert len(t.blocks) == law.value, (k, n)


def test_seeded_policy_is_deterministic_and_valid():
    t1 = tiling.tile_additive(fseq.natural(), 2, 5, 42)
    t2 = tiling.tile_additive(fseq.natural(), 2, 5, seed=42)
    assert _blocks(t1) == _blocks(t2)
    assert tiling.verify_tiling(t1) is None
    t3 = tiling.tile_fibonacci(fseq.fibonacci(), 2, 6, 42)
    assert tiling.verify_tiling(t3) is None
    assert _blocks(t3) == (
        ((0,), (0,), (0, 2), (0, 2, 4), (0, 1, 2, 5, 7)),
        ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3, 4), (3,)),
        ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3, 4), (4,)),
        ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3, 4), (6,)),
        ((0,), (0, 1), (0, 1, 2), (1,), (0, 1, 2, 5, 7)),
        ((0,), (0, 1), (0, 1, 2), (3,), (0, 1, 2, 5, 7)),
        ((0,), (0, 1), (1,), (0, 2, 4), (0, 1, 2, 5, 7)),
        ((0,), (1,), (0, 2), (0, 2, 4), (0, 1, 2, 5, 7)),
    )


def test_identity_precondition_enforced():
    with pytest.raises(errors.IdentityError) as err:
        tiling.tile_additive(fseq.fibonacci(), 2, 4)
    assert err.value.which == 1
    assert err.value.witness == (2, 2)
    with pytest.raises(errors.IdentityError) as err:
        tiling.tile_fibonacci(fseq.natural(), 2, 4)
    assert err.value.which == 2
    assert err.value.witness == (2, 1)


def test_prime_and_one_level_layers_need_no_identity():
    c5 = fseq.constant(5)
    assert not tiling.needs_identity(c5, 3, 4)
    t = tiling.tile_additive(c5, 3, 4)
    assert len(t.blocks) == 1
    assert tiling.verify_tiling(t) is None
    t = tiling.tile_additive(c5, 3, 3)
    assert len(t.blocks) == 1
    assert tiling.verify_tiling(t) is None
    # bottom level 1 reproduces the prime layer
    t = tiling.tile_fibonacci(fseq.fibonacci(), 1, 5)
    assert len(t.blocks) == 1


def test_detect_variant():
    assert tiling.detect_variant(fseq.natural(), 2, 4)[0] == "additive"
    assert tiling.detect_variant(fseq.fibonacci(), 2, 5)[0] == "fibonacci"
    assert tiling.detect_variant(fseq.constant(5), 3, 4)[0] == "additive"
    prod = fseq.product(fseq.periodic(2, 2), fseq.periodic(3, 3))
    variant, w1, w2 = tiling.detect_variant(prod, 5, 7)
    assert variant is None
    assert w1 == (2, 2)
    assert w2 == (2, 1)


def test_chain_cap_respected():
    with pytest.raises(errors.CapExceeded) as err:
        tiling.tile_additive(fseq.natural(), 2, 5, caps=errors.Caps(chains=100))
    assert err.value.cap_name == "chains"
    assert err.value.needed == 120


def test_cap_refusal_past_digit_limit():
    # a 5,000-digit limit, past the 4,300-digit int/str limit, renders in full
    limit, needed = "1" + "0" * 4999, "2" + "0" * 5000
    layer = poset.build_layer(fseq.explicit(["1", "1", needed]), 1, 2)
    caps = errors.Caps(chains=parse_decimal(limit))
    for call in (lambda: tiling.enumerate_tilings(layer, caps=caps),
                 lambda: tiling.tile_additive(layer.seq, 1, 2, caps=caps)):
        with pytest.raises(errors.CapExceeded) as err:
            call()
        assert (err.value.limit, err.value.needed) == (caps.limits["chains"], layer.chain_count)
        assert str(err.value) == f"chains cap of {limit} exceeded (needed {needed})"


# ---------------------------------------------------------------------------
# choice streams: every tiling a recursion reaches, the counters' oracle

def _stream(seq, k, n, which):
    return tiling._layer_tilings(seq, k, n, which, tiling._all_families, errors.Caps())


def test_additive_stream_counts_match_counter():
    nat = fseq.natural()
    for n in range(1, 6):
        for k in range(1, n + 1):
            got = len(_stream(nat, k, n, 1))
            assert got == tiling.count_tilings_additive(nat, n, k), (k, n)


def test_fibonacci_stream_counts_match_derived_counter():
    fib = fseq.fibonacci()
    expected = {(2, 4): 3, (2, 5): 30, (3, 5): 45}
    for (k, n), want in expected.items():
        stream = _stream(fib, k, n, 2)
        assert len(stream) == want
        assert len(stream) == tiling.count_tilings_fibonacci(fib, n, k, mode="derived")
        for t in stream:
            assert tiling.verify_tiling(t) is None


@pytest.mark.parametrize("seq,k,n,which,want", [
    (fseq.rec2(1, 2), 2, 3, 2, 15),
    (fseq.rec2(1, 3), 2, 3, 2, 2800),
    (fseq.constant(2), 2, 4, 1, 1),
    (fseq.constant(2), 2, 4, 2, 1),
    (fseq.fibonacci(), 2, 3, 1, 1),
])
def test_stream_counts_match_derived_counter_beyond_natural_and_fibonacci(seq, k, n, which, want):
    counter = tiling.count_tilings_additive if which == 1 else tiling.count_tilings_fibonacci
    stream = _stream(seq, k, n, which)
    assert len(stream) == counter(seq, n, k) == want
    for t in stream:
        assert tiling.verify_tiling(t) is None


@pytest.mark.parametrize("seq", [fseq.natural(), fseq.rec2(2, 1)])
def test_stream_and_counter_refuse_a_layer_without_the_identity(seq):
    with pytest.raises(errors.IdentityError):
        _stream(seq, 2, 3, 2)
    with pytest.raises(errors.IdentityError):
        tiling.count_tilings_fibonacci(seq, 3, 2)


def _plain_refusal(seq, k, n):
    """The refusal read cell by cell: levels k..n as a layer reads them,
    then term(1..m), then one level's divisibility."""
    poset.build_layer(seq, k, n)
    for j in range(1, n - k + 2):
        if not seq.term(j):
            raise errors.ZeroTermError(f"prime size term({j}) of {seq.label()} is zero; "
                                       f"no block fits levels {k}..{n}")
    if k == n and seq.term(n) % seq.term(1):
        raise errors.TilingError(f"one-level layer of size {seq.term(n)} cannot split "
                                 f"into blocks of size {seq.term(1)}")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=6), st.integers(1, 3),
       st.lists(st.tuples(st.integers(1, 6), st.integers(0, 4)), min_size=1, max_size=15))
@example([0, 2], 1, [(3, 0), (2, 1)])  # a zero level below the highest level read
def test_refusal_from_zero_positions_matches_the_plain_reads(terms, term1, cells):
    # one refusal per counter, asked in any order, cells past the end of the
    # sequence included: the same first error as reading every term anew
    seq = fseq.explicit([1, term1] + terms)
    refuse = tiling._refusal(seq)
    for k, extra in cells:
        want = _outcome(lambda: _plain_refusal(seq, k, k + extra))
        assert _outcome(lambda: refuse(k, k + extra)) == want, (k, k + extra)


def _outcome(count):
    """("count", value), or the error's type and text."""
    try:
        return "count", count()
    except errors.CobwebError as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=4))
def test_derived_counter_counts_the_choice_stream(later):
    # zeros included: a refused layer raises the same error in both
    seq = fseq.explicit([1, 1] + later)
    counters = {1: tiling.count_tilings_additive, 2: tiling.count_tilings_fibonacci}
    for which, counter in counters.items():
        for n in range(1, len(later) + 2):
            for k in range(1, n + 1):
                want = _outcome(lambda: len(_stream(seq, k, n, which)))
                assert _outcome(lambda: counter(seq, n, k)) == want, (which, n, k)


def test_derived_counter_counts_choices_not_distinct_tilings():
    # levels 2..3 of 1, 2, 2, 4 split 4 top slots into an a-group and a
    # b-group of 2 each; swapping their roles gives the same tiling, so the
    # 6 leaves of the choice tree are 3 distinct tilings
    seq = fseq.explicit([1, 2, 2, 4])
    assert tiling.count_tilings_additive(seq, 3, 2) == 6
    assert len(_stream(seq, 2, 3, 1)) == 3
    assert tiling.enumerate_tilings(poset.build_layer(seq, 2, 3)).count == 3


def test_derived_counter_pinned_past_the_stream():
    # streaming these 1,871,100 tilings takes minutes
    assert tiling.count_tilings_fibonacci(fseq.rec2(1, 2), 4, 2) == 1871100


def test_streams_yield_distinct_sorted_tilings():
    stream = _stream(fseq.natural(), 2, 4, 1)
    raw = [_blocks(t) for t in stream]
    assert raw == sorted(raw)
    assert len(set(raw)) == len(raw)


def test_stream_identity_precondition():
    with pytest.raises(errors.IdentityError):
        _stream(fseq.fibonacci(), 2, 4, 1)


# ---------------------------------------------------------------------------
# verifier clauses

def _natural_23_blocks():
    return [
        poset.BlockPlacement(subsets=((0,), (0, 1))),
        poset.BlockPlacement(subsets=((1,), (0, 1))),
        poset.BlockPlacement(subsets=((0, 1), (2,))),
    ]


def test_verify_accepts_valid_tiling():
    layer = poset.build_layer(fseq.natural(), 2, 3)
    assert tiling.verify_tiling(make_tiling(layer, _natural_23_blocks())) is None


def test_verify_block_sizes_clause():
    layer = poset.build_layer(fseq.natural(), 2, 3)
    blocks = _natural_23_blocks()
    blocks[0] = poset.BlockPlacement(subsets=((0, 1), (0, 1)))
    v = tiling.verify_tiling(make_tiling(layer, blocks))
    assert v is not None and v.clause == "block-sizes"


def test_verify_rejects_out_of_range_slot():
    layer = poset.build_layer(fseq.natural(), 2, 3)
    blocks = _natural_23_blocks()
    blocks[0] = poset.BlockPlacement(subsets=((5,), (0, 1)))
    v = tiling.verify_tiling(make_tiling(layer, blocks))
    assert v is not None and v.clause == "block-sizes"


def test_verify_shared_chain_clause():
    layer = poset.build_layer(fseq.natural(), 2, 3)
    blocks = _natural_23_blocks()
    blocks[1] = poset.BlockPlacement(subsets=((0,), (0, 2)))
    v = tiling.verify_tiling(make_tiling(layer, blocks))
    assert v is not None and v.clause == "shared-chain"


def test_verify_uncovered_chain_clause():
    layer = poset.build_layer(fseq.natural(), 2, 3)
    v = tiling.verify_tiling(make_tiling(layer, _natural_23_blocks()[:2]))
    assert v is not None and v.clause == "uncovered-chain"
    assert v.witness == (0, 2)


def _oracle_verify(t):
    """verify_tiling as one pass over chain tuples, every block checked anew:
    the reference the chain-id verifier must match clause for clause."""
    layer = t.layer
    m = layer.m
    expected = sorted(poset.prime_level_sizes(layer.seq, m))
    for bi, block in enumerate(t.blocks):
        if len(block.subsets) != m:
            return tiling.TilingViolation(
                "block-sizes", f"block {bi} has {len(block.subsets)} levels, layer has {m}", bi
            )
        for li, subset in enumerate(block.subsets):
            ok = (
                len(subset) > 0
                and all(0 <= s < layer.sizes[li] for s in subset)
                and tuple(sorted(set(subset))) == tuple(subset)
            )
            if not ok:
                return tiling.TilingViolation(
                    "block-sizes",
                    f"block {bi} level {layer.k + li} subset {subset} is not a sorted "
                    f"set of slots below {layer.sizes[li]}",
                    (bi, li),
                )
        got = sorted(len(s) for s in block.subsets)
        if got != expected:
            return tiling.TilingViolation(
                "block-sizes", f"block {bi} has size multiset {got}, expected {expected}", bi
            )
    seen = {}
    for bi, block in enumerate(t.blocks):
        for chain in iproduct(*block.subsets):
            other = seen.get(chain)
            if other is not None:
                return tiling.TilingViolation(
                    "shared-chain", f"chain {chain} lies in blocks {other} and {bi}",
                    (chain, other, bi),
                )
            seen[chain] = bi
    if len(seen) != layer.chain_count:
        for chain in iproduct(*(range(size) for size in layer.sizes)):
            if chain not in seen:
                return tiling.TilingViolation(
                    "uncovered-chain", f"chain {chain} is covered by no block", chain
                )
    law = fseq.fnomial(layer.seq, layer.n, m)
    if not law.is_integer or len(t.blocks) != law.value:
        return tiling.TilingViolation(
            "block-count", f"{len(t.blocks)} blocks, law requires {law.value}", len(t.blocks)
        )
    return None


_LISTED = [
    (fseq.natural(), 3, 4), (fseq.natural(), 2, 4), (fseq.fibonacci(), 2, 5),
    (fseq.explicit([1, 1, 2, 2, 4]), 3, 4), (fseq.explicit([1, 1, 1, 2, 3, 5]), 2, 4),
]


@cache
def _valid_tilings(source):
    """The listed tilings of one _LISTED layer (all sharing its Layer object),
    or one constructive tile."""
    if source < len(_LISTED):
        return tiling.enumerate_tilings(poset.build_layer(*_LISTED[source]), 60).tilings
    tiles = [
        tiling.tile_additive(fseq.natural(), 2, 5), tiling.tile_additive(fseq.natural(), 3, 5, 7),
        tiling.tile_fibonacci(fseq.fibonacci(), 3, 6),
        tiling.tile_fibonacci(fseq.fibonacci(), 2, 6, 7),
        # chain-heavy: 720 and 3,120 chains over 6 and 13 blocks
        tiling.tile_additive(fseq.natural(), 2, 6), tiling.tile_additive(fseq.natural(), 2, 6, 5),
        tiling.tile_fibonacci(fseq.fibonacci(), 2, 7),
        tiling.tile_fibonacci(fseq.fibonacci(), 2, 7, 3),
    ]
    return (tiles[source - len(_LISTED)],)


_SOURCES = len(_LISTED) + 8
_CORRUPTIONS = ("drop", "duplicate", "reorder", "replace", "move-slot", "resize", "unsort",
                "add-level")


def _placement(layer, draw):
    """One block placement of the layer, drawn without listing them all (fibonacci
    2..7 has over nine million)."""
    assignment = draw(st.sampled_from(poset._fitting_assignments(layer)))
    return tuple(
        tuple(sorted(draw(st.permutations(range(size)))[:a]))
        for size, a in zip(layer.sizes, assignment)
    )


def _corrupt(blocks, how, layer, draw):
    """blocks (a list of subset tuples) with one corruption applied."""
    if not blocks:
        return blocks
    i = draw(st.integers(0, len(blocks) - 1))
    j = draw(st.integers(0, len(blocks)))
    block = list(blocks[i])
    li = draw(st.integers(0, len(block) - 1))
    subset, size = block[li], layer.sizes[min(li, layer.m - 1)]
    if how == "drop":
        return blocks[:i] + blocks[i + 1:]
    if how == "duplicate":
        return blocks[:j] + [blocks[i]] + blocks[j:]
    if how == "reorder":
        rest = blocks[:i] + blocks[i + 1:]
        return rest[:j] + [blocks[i]] + rest[j:]
    if how == "replace":
        block = list(_placement(layer, draw))
    elif how == "move-slot" and subset:
        moved = list(subset)
        moved[draw(st.integers(0, len(moved) - 1))] = draw(st.integers(-1, size))
        block[li] = tuple(sorted(set(moved))) if draw(st.booleans()) else tuple(moved)
    elif how == "resize":
        free = sorted(set(range(size)) - set(subset))
        if free and draw(st.booleans()):
            block[li] = tuple(sorted(subset + (draw(st.sampled_from(free)),)))
        else:
            block[li] = subset[:-1]
    elif how == "unsort" and subset:
        block[li] = subset[::-1] if len(subset) > 1 else subset * 2
    elif how == "add-level":
        block.insert(draw(st.integers(0, len(block))), (0,))
    return blocks[:i] + [tuple(block)] + blocks[i + 1:]


@st.composite
def _tilings_of_one_layer(draw):
    """Valid tilings of one layer, some corrupted, all on its Layer object."""
    valid = _valid_tilings(draw(st.integers(0, _SOURCES - 1)))
    layer = valid[0].layer
    out = []
    for _ in range(draw(st.integers(1, 6))):
        blocks = [b.subsets for b in draw(st.sampled_from(valid)).blocks]
        for how in draw(st.lists(st.sampled_from(_CORRUPTIONS), max_size=3)):
            blocks = _corrupt(blocks, how, layer, draw)
        out.append(poset.Tiling(layer, tuple(poset.BlockPlacement(b) for b in blocks)))
    return out + draw(st.lists(st.sampled_from(out), max_size=3))  # faults met again


@settings(max_examples=200, deadline=None)
@given(_tilings_of_one_layer())
def test_verifier_matches_the_oracle_on_corrupted_tilings(tilings):
    # one verifier for the whole mix: a placement it cached from one tiling
    # must not hide a fault in the next
    want = [_oracle_verify(t) for t in tilings]
    assert list(tiling.verify_tilings(tilings)) == want
    assert [tiling.verify_tiling(t) for t in tilings] == want


@pytest.mark.parametrize("fault", ["out-of-range", "overlapping", "resized", "empty", "absent"])
def test_verifier_faults_behind_a_cached_prefix_match_the_oracle(fault):
    # two blocks share their first m - 1 subsets, so their heads meet in the
    # sections of the slots they share; the second one's last level is faulty
    valid = tiling.tile_fibonacci(fseq.fibonacci(), 3, 6)
    layer = valid.layer
    blocks = [b.subsets for b in valid.blocks]
    i, j = next((i, j) for i in range(len(blocks)) for j in range(i + 1, len(blocks))
                if blocks[i][:-1] == blocks[j][:-1] and len(blocks[j][-1]) > 1)
    first, second = blocks[i][-1], blocks[j][-1]
    last = {
        "out-of-range": second[:-1] + (layer.sizes[-1],),
        "overlapping": tuple(sorted(second[1:] + first[:1])),
        # a valid last-level subset, met in another block, of the wrong size
        "resized": next(b[-1] for b in blocks if len(b[-1]) != len(second)),
        "empty": (),
    }.get(fault)
    blocks[j] = blocks[j][:-1] + ((last,) if last is not None else ())
    bad = poset.Tiling(layer, tuple(map(poset.BlockPlacement, blocks)))
    want = _oracle_verify(bad)
    assert want is not None
    assert want.clause == ("shared-chain" if fault == "overlapping" else "block-sizes")
    assert tiling.verify_tiling(bad) == want
    # and behind placements numbered from a valid tiling first
    assert list(tiling.verify_tilings([valid, bad, valid])) == [None, want, None]


def test_verifier_reports_a_block_without_levels_behind_the_empty_prefix():
    # one level: every placement's prefix is (), the prefix of () too
    layer = poset.build_layer(fseq.natural(), 3, 3)
    blocks = (poset.BlockPlacement(((0,),)), poset.BlockPlacement(()))
    t = poset.Tiling(layer, blocks)
    assert tiling.verify_tiling(t) == _oracle_verify(t)
    assert tiling.verify_tiling(t).detail == "block 1 has 0 levels, layer has 1"


def test_verifier_reports_a_clause_where_the_law_would_raise():
    # prime sizes (1, 0): fnomial raises, but every tiling fails a clause first
    layer = poset.build_layer(fseq.explicit([1, 1, 0, 2, 2, 2]), 4, 5)
    for blocks in [(), (poset.BlockPlacement(((0,), (0, 1))),)]:
        t = poset.Tiling(layer, blocks)
        assert tiling.verify_tiling(t) == _oracle_verify(t) is not None


def test_verifier_state_belongs_to_one_layer_object():
    # equal Layers, sizes (3, 4), but prime sizes (1, 2) and (1, 1)
    natural = poset.build_layer(fseq.natural(), 3, 4)
    ones = poset.build_layer(fseq.explicit([1, 1, 1, 3, 4]), 3, 4)
    assert natural == ones
    pairs = [(natural, tiling.tile_additive(fseq.natural(), 3, 4).blocks),
             (ones, tiling.enumerate_tilings(ones, 1).tilings[0].blocks)]
    for order in (pairs, pairs[::-1]):
        for layer, blocks in order:
            t = poset.Tiling(layer, blocks)
            assert tiling.verify_tiling(t) is None
            assert list(tiling.verify_tilings([t, t])) == [None, None]
            other = poset.Tiling(ones if layer is natural else natural, blocks)
            assert tiling.verify_tiling(other) == _oracle_verify(other)
            assert tiling.verify_tiling(other).clause == "block-sizes"
        with pytest.raises(ValueError, match="its own layer"):
            list(tiling.verify_tilings([poset.Tiling(layer, b) for layer, b in order]))


@pytest.mark.parametrize("k, n", [(3, 6), (4, 7)])
def test_verifier_finds_an_extra_block_over_two_equal_heads(k, n):
    # blocks (h, A) and (h, B) with disjoint last subsets of one size, and an
    # extra (h, C) with C meeting both: every chain stays covered, and the
    # copies of head h that meet over a slot of C are only told apart by count
    # two a-groups of one size over one sub-tiling give such pairs
    valid = tiling.tile_fibonacci(fseq.fibonacci(), k, n)
    blocks = [b.subsets for b in valid.blocks]
    head, a, b = next((x[:-1], x[-1], y[-1]) for x in blocks for y in blocks
                      if x[:-1] == y[:-1] and len(x[-1]) == len(y[-1]) > 1
                      and not set(x[-1]) & set(y[-1]))
    extra = head + (tuple(sorted(a[:1] + b[1:])),)
    for at in (0, len(blocks)):
        bad = poset.Tiling(valid.layer, tuple(
            map(poset.BlockPlacement, blocks[:at] + [extra] + blocks[at:])))
        want = _oracle_verify(bad)
        assert want is not None and want.clause == "shared-chain"
        assert tiling.verify_tiling(bad) == want
        assert list(tiling.verify_tilings([valid, bad])) == [None, want]


@pytest.mark.parametrize("tile", [
    lambda: tiling.tile_additive(fseq.natural(), 2, 8),
    lambda: tiling.tile_fibonacci(fseq.fibonacci(), 2, 8),
], ids=["natural-2-8", "fibonacci-2-8"])
def test_verify_tiling_accepts_a_tile_without_chain_ids(tile, monkeypatch):
    # 40,320 and 65,520 chains over 8 and 21 blocks: the level sections
    # decide a valid tiling without numbering one chain
    t = tile()

    def refuse(*args):
        raise AssertionError("a valid tiling built chain ids")

    monkeypatch.setattr(tiling, "chain_ids", refuse)
    assert tiling.verify_tiling(t) is None


@pytest.mark.parametrize("fault", ["move-slot", "drop"])
def test_verifier_faults_at_the_chains_cap_match_the_oracle(fault):
    # the bench's largest tile: 12,376 blocks over 74,256 chains
    valid = tiling.tile_fibonacci(fseq.fibonacci(), 6, 9)
    layer = valid.layer
    blocks = [b.subsets for b in valid.blocks]
    i = len(blocks) // 2
    if fault == "drop":
        del blocks[i]
    else:
        last = blocks[i][-1]
        free = next(x for x in range(layer.sizes[-1]) if x not in last)
        blocks[i] = blocks[i][:-1] + (tuple(sorted(last[1:] + (free,))),)
    bad = poset.Tiling(layer, tuple(map(poset.BlockPlacement, blocks)))
    want = _oracle_verify(bad)
    assert want is not None
    assert want.clause == ("uncovered-chain" if fault == "drop" else "shared-chain")
    assert tiling.verify_tiling(bad) == want


# ---------------------------------------------------------------------------
# exhaustive enumeration

def test_enumeration_exact_counts():
    nat = fseq.natural()
    expected = {(1, 3): 1, (2, 3): 4, (2, 4): 32, (3, 4): 132}
    for (k, n), want in expected.items():
        layer = poset.build_layer(nat, k, n)
        res = tiling.enumerate_tilings(layer)
        assert res.count == want, (k, n)
        assert not res.truncated
        assert res.tilings is None


def test_enumeration_dominates_constructive_counter():
    nat = fseq.natural()
    for (k, n) in [(2, 3), (2, 4), (3, 4), (2, 5), (4, 5)]:
        layer = poset.build_layer(nat, k, n)
        res = tiling.enumerate_tilings(layer)
        assert res.count >= tiling.count_tilings_additive(nat, n, k), (k, n)


def test_enumeration_zero_for_unstructured_product():
    prod = fseq.product(fseq.periodic(2, 2), fseq.periodic(3, 3))
    layer = poset.build_layer(prod, 5, 7)
    assert layer.sizes == (1, 6, 1)
    res = tiling.enumerate_tilings(layer)
    assert res.count == 0


def test_enumeration_listing_and_truncation():
    layer = poset.build_layer(fseq.natural(), 2, 3)
    res = tiling.enumerate_tilings(layer, limit=10)
    assert res.count == 4 and len(res.tilings) == 4 and not res.truncated
    for t in res.tilings:
        assert tiling.verify_tiling(t) is None
    raw = [_blocks(t) for t in res.tilings]
    assert raw == sorted(raw)
    res = tiling.enumerate_tilings(layer, limit=2)
    assert res.count == 4 and len(res.tilings) == 2 and res.truncated


def test_enumeration_node_cap():
    # the count-only pass expands 82 slot-relabelling classes of natural 4..5
    layer = poset.build_layer(fseq.natural(), 4, 5)
    with pytest.raises(errors.CapExceeded) as err:
        tiling.enumerate_tilings(layer, caps=errors.Caps(nodes=50))
    assert err.value.cap_name == "nodes"
    assert err.value.partial_count is not None
    # partial_count is a lower bound on the count wherever the cap bites,
    # in the count (classes) or in a listing (raw states), and a
    # run that finishes under a cap counts every tiling within it
    for k, n, count in ((3, 4, 132), (4, 5, 44928)):
        layer = poset.build_layer(fseq.natural(), k, n)
        seen = set()
        for cap in range(1, 201):
            for limit in (None, 5):
                outcome = _cap_outcome(layer, cap, limit)
                seen.add((limit, outcome[0]))
                if outcome[0] == "cap":
                    assert 0 <= outcome[3] <= count, (k, n, cap, limit)
                else:
                    assert outcome[1] == count and outcome[2] <= cap, (k, n, cap, limit)
        assert {(None, "cap"), (5, "cap"), (None, "done")} <= seen, (k, n)


def _cap_outcome(layer, cap, limit):
    try:
        res = tiling.enumerate_tilings(layer, limit, caps=errors.Caps(nodes=cap))
    except errors.CapExceeded as exc:
        return ("cap", exc.cap_name, exc.limit, exc.partial_count)
    return ("done", res.count, res.nodes)


def _naive_tilings(layer):
    """Every tiling as sorted block subsets, by a plain recursive exact cover
    over chain sets that branches on the lowest uncovered chain."""
    m = layer.m
    prime = [layer.seq.term(j) for j in range(1, m + 1)]
    blocks = []
    for sizes in sorted(set(permutations(prime))):
        pools = [combinations(range(s), a) for s, a in zip(layer.sizes, sizes)]
        blocks += [(subsets, frozenset(iproduct(*subsets))) for subsets in iproduct(*pools)]

    def cover(uncovered, chosen):
        if not uncovered:
            yield tuple(sorted(chosen))
            return
        low = min(uncovered)
        for subsets, chains in blocks:
            if low in chains and chains <= uncovered:
                yield from cover(uncovered - chains, chosen + [subsets])

    return sorted(cover(frozenset(iproduct(*map(range, layer.sizes))), []))


def test_enumeration_matches_naive_exact_cover():
    nat, fib = fseq.natural(), fseq.fibonacci()
    prod = fseq.product(fseq.periodic(2, 2), fseq.periodic(3, 3))
    layers = [(nat, k, n) for n in range(1, 5) for k in range(1, n + 1)]
    layers += [(fib, 2, 4), (prod, 5, 7)]
    for seq, k, n in layers:
        layer = poset.build_layer(seq, k, n)
        want = _naive_tilings(layer)
        res = tiling.enumerate_tilings(layer, limit=len(want) + 1)
        assert res.count == len(want), (k, n)
        assert [_blocks(t) for t in res.tilings] == want, (k, n)
    assert want == []  # the last layer, product 5..7, has no tiling


def test_enumeration_natural_3_5_count_and_work():
    # 2.2 M nodes unmemoized, 319,099 raw uncovered sets, about 2,800 classes
    res = tiling.enumerate_tilings(poset.build_layer(fseq.natural(), 3, 5))
    assert res.count == 411168
    assert res.nodes < 5_000


def test_enumeration_natural_6_7_count_and_work():
    # 42 chains: a raw-keyed memo passes the default 10^7 node cap here; the
    # lumped two-level transfer of ROADMAP item 10 gives the same count
    res = tiling.enumerate_tilings(poset.build_layer(fseq.natural(), 6, 7))
    assert res.count == 23_624_926_248_960
    assert res.nodes < 20_000


def _raw_search(layer, node_cap=tiling.DEFAULT_NODE_CAP):
    """A _Search over the layer's placements, in enumerate_tilings' row order."""
    placements = sorted(poset.enumerate_placements(layer), key=lambda p: p.subsets)
    return tiling._Search(layer.sizes, [p.subsets for p in placements], node_cap)


_PRODUCT_22_33 = fseq.product(fseq.periodic(2, 2), fseq.periodic(3, 3))
_GAP = fseq.explicit(["1", "1", "2", "4", "3", "5"])


@pytest.mark.parametrize("seq, k, n", [
    (fseq.natural(), 1, 1), (fseq.natural(), 2, 5), (fseq.fibonacci(), 2, 5),
    (_PRODUCT_22_33, 2, 6), (_PRODUCT_22_33, 5, 7), (_GAP, 3, 5),
])
def test_search_rows_match_chain_ids(seq, k, n):
    # the search builds its masks from slot subsets; they must number
    # chains as poset.chain_ids and enumerate_chains do
    layer = poset.build_layer(seq, k, n)
    search = _raw_search(layer)
    placements = sorted(poset.enumerate_placements(layer), key=lambda p: p.subsets)
    chains = {c: i for i, c in enumerate(poset.enumerate_chains(layer))}
    rows = [[chains[c] for c in iproduct(*p.subsets)] for p in placements]
    assert rows == [poset.chain_ids(layer, p.subsets) for p in placements]
    assert search.masks == [sum(1 << e for e in row) for row in rows]
    elem_rows = [sum(1 << r for r, row in enumerate(rows) if e in row)
                 for e in range(layer.chain_count)]
    assert search.elem_rows == elem_rows
    everything = (1 << len(rows)) - 1
    assert [search._alive(everything, r) for r in range(len(rows))] == [
        sum(1 << q for q, other in enumerate(rows) if not set(row) & set(other)) for row in rows
    ]

# the fixed layers that the tier-1 tests and the enumerate bench count by
# exact cover, but natural 6..7, which a raw-keyed memo cannot count
_COUNTED_LAYERS = (
    [(fseq.natural(), k, n) for n in range(1, 6) for k in range(1, n + 1)]
    + [(fseq.fibonacci(), 2, 4), (fseq.fibonacci(), 2, 5), (fseq.fibonacci(), 10, 11)]
    + [(_PRODUCT_22_33, 2, 6), (_PRODUCT_22_33, 5, 7), (_GAP, 3, 5)]
    + [(fseq.explicit(["1", "1", "3", "4", "7", "11"]), 2, 4), (fseq.rec2(1, 2), 2, 3)]
    + [(fseq.explicit([1, 2, 2, 4]), 2, 3), (fseq.explicit([1, 0, 2, 4, 8, 16, 32, 64]), 2, 3)]
    + [(fseq.explicit([1, 2, 0, 2, 2, 2]), k, k + 1) for k in (3, 4)]
)


# (count-only nodes, limit-1 listing nodes) of each counted layer: the
# classes the count expands, and those plus the classes that the first
# tiling's count lookups expand, so a change to the count loop or to the
# listing that expands other states, or more of them, shows here.  A layer
# with one tiling lists it in its count's nodes: the first tiling's walk
# takes each row that alone covers the lowest chain without a count.
_PINNED_NODES = {
    "natural 1..1": (1, 1),
    "natural 1..2": (1, 1),
    "natural 2..2": (2, 2),
    "natural 1..3": (1, 1),
    "natural 2..3": (6, 6),
    "natural 3..3": (3, 3),
    "natural 1..4": (1, 1),
    "natural 2..4": (20, 20),
    "natural 3..4": (21, 21),
    "natural 4..4": (4, 4),
    "natural 1..5": (1, 1),
    "natural 2..5": (60, 60),
    "natural 3..5": (2762, 2767),
    "natural 4..5": (82, 82),
    "natural 5..5": (5, 5),
    "fibonacci 2..4": (6, 6),
    "fibonacci 2..5": (31, 31),
    "fibonacci 10..11": (4895, 4895),
    "product(periodic(c=2, M=2), periodic(c=3, M=3)) 2..6": (185, 187),
    "product(periodic(c=2, M=2), periodic(c=3, M=3)) 5..7": (1, 1),
    "explicit[5 terms] 3..5": (54, 54),
    "explicit[5 terms] 2..4": (58, 61),
    "rec2(1, 2) 2..3": (13, 13),
    "explicit[3 terms] 2..3": (2, 2),
    "explicit[7 terms] 2..3": (1, 1),
    "explicit[5 terms] 3..4": (1, 1),
    "explicit[5 terms] 4..5": (1, 1),
}
_COUNTED_IDS = [f"{s.label()} {k}..{n}" for s, k, n in _COUNTED_LAYERS]


@pytest.mark.parametrize("seq, k, n", _COUNTED_LAYERS, ids=_COUNTED_IDS)
def test_count_by_classes_matches_raw_count(seq, k, n):
    layer = poset.build_layer(seq, k, n)
    counted, listed = tiling.enumerate_tilings(layer), tiling.enumerate_tilings(layer, 1)
    search = _raw_search(layer)
    assert counted.count == listed.count == _recorded(search)[0][search.root[0]]
    assert (counted.nodes, listed.nodes) == _PINNED_NODES[f"{seq.label()} {k}..{n}"]


@pytest.mark.parametrize("k, limit, cap, partial", [
    (4, None, 50, 19_872), (4, 1000, 300, 44_928),
    (3, None, 1_000, 43_416), (3, 1000, 3_000, 411_168),
])
def test_partial_count_is_pinned(k, limit, cap, partial):
    # the root's children counted when natural k..5 passes the node cap in
    # the count, and the root's exact count when it passes the cap while
    # listing: 82 and 2,762 nodes count natural 4..5 and 3..5
    layer = poset.build_layer(fseq.natural(), k, 5)
    assert _cap_outcome(layer, cap, limit) == ("cap", "nodes", cap, partial)


def _raw_count(search, uncovered, memo):
    """The count of one uncovered set by the raw search from that set alone."""
    if uncovered not in memo:
        alive = sum(1 << r for r, mask in enumerate(search.masks) if not mask & ~uncovered)
        kids = search._children(uncovered, alive)
        memo[uncovered] = sum(_raw_count(search, u, memo) for _, u in kids)
    return memo[uncovered]


def _alive(search, uncovered):
    """The rows inside an uncovered set."""
    return sum(1 << r for r, mask in enumerate(search.masks) if not mask & ~uncovered)


def _recorded(search):
    """The raw-keyed recorded pass, the listing's oracle: memo[uncovered] is
    the count of each raw set that MRV branching reaches from the root, and
    dag[uncovered] a solvable set's solvable children as (row, uncovered),
    filled as sets finish: children first, the root last."""
    memo, dag = {0: 1}, {}
    stack = [(*search.root, None)]
    while stack:
        uncovered, alive, kids = stack.pop()
        if kids is not None:
            memo[uncovered] = sum(memo[u] for _, u in kids)
            if memo[uncovered]:
                dag[uncovered] = [(r, u) for r, u in kids if memo[u]]
        elif uncovered not in memo:
            kids = search._children(uncovered, alive)
            stack.append((uncovered, alive, kids))
            stack += [(u, search._alive(alive, r), None) for r, u in kids if u not in memo]
    return memo, dag


def _recorded_listing(search, limit):
    """(memo, lists): lists[uncovered] holds the first `limit` solutions of
    each solvable recorded set as listing keys (row r sets bit top - r),
    merged from the record bottom-up, in descending key order."""
    memo, dag = _recorded(search)
    lists = {0: [0]}
    for uncovered, kids in dag.items():
        keys = [key | 1 << (search.top - r) for r, u in kids for key in lists[u]]
        lists[uncovered] = sorted(keys, reverse=True)[:limit]
    return memo, lists


def _slot_counts(layer, uncovered):
    """Per level, the sorted uncovered-chain counts of its slots, read by
    poset.chain_at (slots with none included)."""
    chains = [poset.chain_at(layer, c) for c in range(layer.chain_count) if uncovered >> c & 1]
    return [
        sorted(sum(chain[i] == slot for chain in chains) for slot in range(size))
        for i, size in enumerate(layer.sizes)
    ]


@pytest.mark.parametrize("seq, k, n", [
    (fseq.natural(), 2, 4), (fseq.natural(), 3, 4), (fseq.natural(), 4, 5),
    (fseq.fibonacci(), 2, 5), (_GAP, 3, 5), (_PRODUCT_22_33, 3, 6),
])
def test_slot_key_keeps_slot_counts_and_count(seq, k, n):
    layer = poset.build_layer(seq, k, n)
    search = _raw_search(layer)
    memo, _ = _recorded(search)
    raw_counts = {0: 1}
    moved = 0
    for uncovered, count in memo.items():
        key = search._key(uncovered)
        moved += key != uncovered
        assert search._key(key) == key
        assert _slot_counts(layer, key) == _slot_counts(layer, uncovered)
        assert _raw_count(search, key, raw_counts) == count
    assert moved  # the key relabels some reached state on every layer here


def _listing_oracle(layer):
    """Every tiling as sorted block subsets, in canonical order: every
    solution of the search pruned by _raw_count, sorted by block subsets.
    Its rows are in enumerate_placements' order, not the listing's."""
    placements = list(poset.enumerate_placements(layer))
    search = tiling._Search(layer.sizes, [p.subsets for p in placements], tiling.DEFAULT_NODE_CAP)
    counts = {0: 1}  # pruned by the oracle's own counts, not the search's memo
    solutions, stack = [], [((), *search.root)]
    while stack:
        path, uncovered, alive = stack.pop()
        if not uncovered:
            solutions.append(path)
            continue
        kids = search._children(uncovered, alive)
        stack += [(path + (r,), u, search._alive(alive, r))
                  for r, u in kids if _raw_count(search, u, counts)]
    return sorted(tuple(sorted(placements[r].subsets for r in s)) for s in solutions)


def _check_listing_against_oracle(layer, caps=errors.Caps()):
    want = _listing_oracle(layer)
    count = len(want)
    assert tiling.enumerate_tilings(layer).count == count
    for limit in sorted({0, 1, 7, count - 1, count, count + 1} - {-1}):
        res = tiling.enumerate_tilings(layer, limit, caps=caps)
        assert res.count == count, limit
        assert [_blocks(t) for t in res.tilings] == want[:limit], limit
        assert res.truncated == (count > limit), limit


def test_enumeration_listing_matches_sorted_oracle():
    nat, fib = fseq.natural(), fseq.fibonacci()
    prod = fseq.product(fseq.periodic(2, 2), fseq.periodic(3, 3))
    gap = fseq.explicit(["1", "1", "2", "4", "3", "5"])
    layers = [(nat, 3, 4), (nat, 2, 5), (fib, 2, 5), (prod, 2, 6), (prod, 5, 7), (gap, 3, 5)]
    for seq, k, n in layers:
        _check_listing_against_oracle(poset.build_layer(seq, k, n))
    # the last two layers have no tiling
    assert tiling.enumerate_tilings(poset.build_layer(prod, 5, 7), 1).tilings == ()
    assert tiling.enumerate_tilings(poset.build_layer(gap, 3, 5), 1).tilings == ()


@given(st.lists(st.integers(1, 4), min_size=2, max_size=5), st.data())
@settings(max_examples=60, deadline=None)
def test_enumeration_listing_matches_oracle_on_explicit_sequences(terms, data):
    # term(0) = term(1) = 1, then the drawn terms; with term(1) = 1 a layer
    # with k = 1 or k = n has exactly one tiling, so draw 2 <= k < n
    n = data.draw(st.integers(3, len(terms) + 1))
    k = data.draw(st.integers(2, n - 1))
    layer = poset.build_layer(fseq.explicit(["1", "1"] + [str(t) for t in terms]), k, n)
    assume(layer.chain_count <= 36)
    try:
        # a listing expands raw states too: filter on its node count, since
        # the count-only pass can fit a cap that the listing passes
        count = tiling.enumerate_tilings(layer, 1, caps=errors.Caps(nodes=2_000)).count
    except errors.CapExceeded:
        assume(False)
    assume(count <= 2_000)
    _check_listing_against_oracle(layer, caps=errors.Caps(nodes=10_000))


def test_enumeration_listing_expands_each_state_once():
    # visiting every path of the memo's DAG took 141,324 and 31,592 nodes
    nat = poset.build_layer(fseq.natural(), 4, 5)
    assert tiling.enumerate_tilings(nat, limit=1000).nodes < 10_000
    prod = poset.build_layer(fseq.product(fseq.periodic(2, 2), fseq.periodic(3, 3)), 2, 6)
    assert tiling.enumerate_tilings(prod, limit=100).nodes < 10_000


def test_enumeration_listing_fits_a_node_bound():
    # the raw-keyed recorded pass listed natural 3..5 in 319,099 nodes; the
    # listing expands only the raw states on the paths of the tilings it
    # lists, beyond the count's 2,762 classes
    layer = poset.build_layer(fseq.natural(), 3, 5)
    counted = tiling.enumerate_tilings(layer)
    listed = tiling.enumerate_tilings(layer, 1000, caps=errors.Caps(nodes=10_000))
    assert (listed.count, len(listed.tilings), listed.truncated) == (411_168, 1000, True)
    assert counted.nodes < listed.nodes
    assert list(tiling.verify_tilings(listed.tilings)) == [None] * 1000


def test_enumeration_natural_6_7_lists_under_the_default_cap():
    res = tiling.enumerate_tilings(poset.build_layer(fseq.natural(), 6, 7), 100)
    assert (res.count, res.truncated, len(res.tilings)) == (23_624_926_248_960, True, 100)
    blocks = [_blocks(t) for t in res.tilings]
    assert blocks == sorted(set(blocks))
    assert list(tiling.verify_tilings(res.tilings)) == [None] * 100


def test_enumeration_listing_gives_a_waiting_state_its_first_key():
    # listing 42 of these 351 tilings replaces bounds on raw states that an
    # earlier first-tiling walk passed through or another path reached: the
    # first key memoized per raw set must serve every path to it
    layer = poset.build_layer(fseq.explicit(["1", "1", "2", "2", "3", "5"]), 2, 5)
    want = _listing_oracle(layer)
    res = tiling.enumerate_tilings(layer, 42)
    assert (res.count, [_blocks(t) for t in res.tilings]) == (351, want[:42])


@given(st.lists(st.integers(1, 4), min_size=2, max_size=5), st.integers(1, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_first_tiling_and_listing_of_every_recorded_state(terms, limit, data):
    # every solvable state the recorded pass reaches: its count, its first
    # tiling by the greedy walk, and its first `limit` tilings by the heap
    # equal the oracle's; the walks share one first-key memo, as a listing's do
    n = data.draw(st.integers(3, len(terms) + 1))
    k = data.draw(st.integers(2, n - 1))
    layer = poset.build_layer(fseq.explicit(["1", "1"] + [str(t) for t in terms]), k, n)
    assume(layer.chain_count <= 36)
    try:
        assume(tiling.enumerate_tilings(layer, caps=errors.Caps(nodes=2_000)).count <= 2_000)
    except errors.CapExceeded:
        assume(False)
    search = _raw_search(layer)
    memo, lists = _recorded_listing(search, limit)
    for uncovered, keys in lists.items():
        if not uncovered:
            continue
        alive = _alive(search, uncovered)
        assert search.count(uncovered, alive) == memo[uncovered]
        assert search._first(uncovered, alive) == keys[0]
        search.root = (uncovered, alive)
        got = [sum(1 << (search.top - r) for r in rows) for rows in search.listing(limit)]
        assert got == keys


def test_enumeration_rejects_negative_limit():
    layer = poset.build_layer(fseq.natural(), 3, 4)
    with pytest.raises(ValueError):
        tiling.enumerate_tilings(layer, -1)
    res = tiling.enumerate_tilings(layer, 0)
    assert res.count == 132 and res.tilings == () and res.truncated


def test_enumeration_respects_placement_cap():
    layer = poset.build_layer(fseq.natural(), 3, 4)
    with pytest.raises(errors.CapExceeded) as err:
        tiling.enumerate_tilings(layer, caps=errors.Caps(placements=5))
    assert err.value.cap_name == "placements"


# ---------------------------------------------------------------------------
# counters and bounds

def test_count_additive_values():
    nat = fseq.natural()
    expected = {
        (3, 2): 3,
        (4, 2): 12,
        (4, 3): 18,
        (5, 2): 60,
        (5, 3): 2160,
        (5, 4): 180,
    }
    for (n, k), want in expected.items():
        assert tiling.count_tilings_additive(nat, n, k) == want
    for n in range(1, 8):
        assert tiling.count_tilings_additive(nat, n, 1) == 1
        assert tiling.count_tilings_additive(nat, n, n) == 1


def test_count_additive_requires_identity():
    with pytest.raises(errors.IdentityError):
        tiling.count_tilings_additive(fseq.fibonacci(), 4, 2)
    # boundary cells skip the identity check entirely
    assert tiling.count_tilings_additive(fseq.fibonacci(), 4, 4) == 1
    assert tiling.count_tilings_additive(fseq.fibonacci(), 4, 1) == 1


def test_count_fibonacci_modes():
    fib = fseq.fibonacci()
    derived = {
        (5, 2): 30, (5, 3): 45,
        (6, 2): 1680, (6, 3): 510300000, (6, 4): 18900,
        (7, 2): 2162160, (7, 5): 5108103000,
    }
    for (n, k), want in derived.items():
        assert tiling.count_tilings_fibonacci(fib, n, k, mode="derived") == want
    paper = {(5, 2): 60, (5, 3): 90, (6, 2): 20160, (6, 4): 226800}
    for (n, k), want in paper.items():
        assert tiling.count_tilings_fibonacci(fib, n, k, mode="paper") == want
    for n in range(1, 8):
        for k in (1, n - 1, n):
            if 1 <= k <= n:
                assert tiling.count_tilings_fibonacci(fib, n, k) == 1
    with pytest.raises(ValueError):
        tiling.count_tilings_fibonacci(fib, 5, 2, mode="nope")
    with pytest.raises(errors.IdentityError):
        tiling.count_tilings_fibonacci(fseq.natural(), 5, 2)


def test_count_fibonacci_flags_a_non_integral_family_count():
    # term(1) = 0 passes the convolution identity through n = 4, and (4, 2)
    # would split 8 slots into 2 groups of 4 and 2 empty groups, whose
    # 8! / (4!^2 2! 2!) unordered families is not an integer.  No block has
    # an empty level, so derived mode refuses the layer as the tiler does;
    # the printed closed form still takes its ordered count
    seq = fseq.explicit([1, 0, 2, 4, 8])
    assert fseq.check_identity_2(seq, 4) is None
    with pytest.raises(errors.ZeroTermError, match=r"prime size term\(1\) .* levels 2\.\.4"):
        tiling.count_tilings_fibonacci(seq, 4, 2)
    assert tiling.count_tilings_fibonacci(seq, 4, 2, mode="paper") == 70
    # levels 2..3 have a zero prime size too: enumerate counts no tiling
    seq = fseq.explicit([1, 0, 2, 4, 8, 16, 32, 64])
    with pytest.raises(errors.ZeroTermError, match=r"prime size term\(1\) .* levels 2\.\.3"):
        tiling.count_tilings_fibonacci(seq, 3, 2)
    assert tiling.enumerate_tilings(poset.build_layer(seq, 2, 3)).count == 0


def test_counters_reach_deep_cells():
    # a deep cell of an all-zero sequence is refused for its zero levels
    # before any recursion, with a typed error and no RecursionError
    zero = fseq.explicit([1] + [0] * 800)
    for counter in (tiling.count_tilings_additive, tiling.count_tilings_fibonacci):
        with pytest.raises(errors.ZeroTermError, match="level 400 of .* has zero slots"):
            counter(zero, 800, 400)


# hypothesis raises the recursion limit while a test runs; the deep-cell pins
# run under the limit found at import
_RECURSION_LIMIT = sys.getrecursionlimit()


def _under_import_recursion_limit(run):
    raised = sys.getrecursionlimit()
    sys.setrecursionlimit(_RECURSION_LIMIT)
    try:
        return run()
    finally:
        sys.setrecursionlimit(raised)


def test_counters_have_no_depth_limit():
    # one cell per row below (1200, 1199): (n, n - 1) splits into (n - 1, n - 1)
    # and (n - 1, n - 2), a binomial comb(n, 2) each
    got = _under_import_recursion_limit(
        lambda: tiling.count_tilings_additive(fseq.natural(), 1200, 1199))
    assert got == prod(comb(j, 2) for j in range(3, 1201))
    # paper mode has no refusal: every cell of this zero sequence counts 1
    zero = fseq.explicit([1] + [0] * 1300)
    assert _under_import_recursion_limit(
        lambda: tiling.count_tilings_fibonacci(zero, 1100, 550, mode="paper")) == 1


# the tilers' and the counters' cell recursions as written before they shared
# one driver on an explicit stack, kept as the driver's reference

def _reference_layer_tilings(seq, k, n, which, choose, caps):
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


def _reference_counter(seq, which, mode):
    check = cache(lambda n: tiling._witness(seq, which, n))
    refuse = tiling._refusal(seq)
    memo = {}

    def base(n, k):
        if mode == "paper":
            return k == 1 or n - k + 1 <= which
        refuse(k, n)
        return not tiling.needs_identity(seq, k, n)

    def split(n, k, asked):
        witness = asked and check(n)
        if witness:
            raise errors.IdentityError(which, witness)
        total = seq.term(n)
        a, ga, b, gb = tiling._groups(seq, n, k, which)
        if ga == gb == 1:
            got = comb(total, a)
        else:
            denom = factorial(a) ** ga * factorial(b) ** gb
            if mode == "derived":
                denom *= factorial(ga) * factorial(gb)
            got = factorial(total) // denom
            if mode == "paper":
                ga = gb = 1
        got *= rec(n - 1, k) ** ga
        return got * rec(n - 1, k - 1) ** gb if gb else got

    def rec(n, k, asked=False):
        got = memo.get((n, k))
        if got is None:
            got = memo[n, k] = 1 if base(n, k) else split(n, k, asked)
        return got

    return lambda n, k: rec(n, k, asked=True)


# terms 1..7 that keep an identity, cut short at random
_IDENTITY_PREFIXES = st.tuples(st.sampled_from([
    [1, 2, 3, 4, 5, 6, 7],
    [1, 1, 2, 3, 5, 8, 13],
    [1, 2, 5, 12, 29, 70, 169],
    [2, 2, 2, 2, 2, 2, 2],
    [0, 2, 4, 8, 16, 32, 64],
]), st.integers(0, 7)).map(lambda p: p[0][:p[1]])


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.lists(st.integers(0, 3), max_size=7), _IDENTITY_PREFIXES),
       st.integers(0, 10_000))
@example([], 0)
@example([0, 2, 4, 8], 0)  # paper mode's (n - 1, k - 1) with no b-group
@example([1, 2, 3, 4, 5, 6, 7], 7)
@example([1, 1, 2, 3, 5, 8, 13], 7)
def test_cell_driver_matches_the_reference_recursions(terms, seed):
    # every cell with 1 <= k <= n <= 7, short lists and zeros included: the
    # same count, tiling list or first error, asked one cell per counter and
    # row by row of one shared counter
    seq = fseq.explicit([1] + terms)
    cells = [(n, k) for n in range(1, 8) for k in range(1, n + 1)]
    for which in (1, 2):
        for mode in ("derived", "paper"):
            shared = tiling._constructive_counter(seq, which, mode)
            reference = _reference_counter(seq, which, mode)
            for n, k in cells:
                want = _outcome(lambda: _reference_counter(seq, which, mode)(n, k))
                got = _outcome(lambda: tiling._constructive_counter(seq, which, mode)(n, k))
                assert got == want, (which, mode, n, k)
                assert _outcome(lambda: shared(n, k)) == _outcome(lambda: reference(n, k))
        # (choice source, caps): every family only on small layers
        sources = [
            (lambda: tiling._choice_source(None), errors.Caps(chains=5040)),
            (lambda: tiling._choice_source(seed), errors.Caps(chains=5040)),
            (lambda: tiling._all_families, errors.Caps(chains=24)),
        ]
        for source, caps in sources:
            for n, k in cells:
                want = _outcome(lambda: _reference_layer_tilings(seq, k, n, which, source(), caps))
                got = _outcome(lambda: list(map(_blocks, tiling._layer_tilings(
                    seq, k, n, which, source(), caps))))
                assert got == want, (which, n, k)


def test_stirling_lambda():
    assert tiling.stirling_lambda(6, 3, 2) == 15
    assert tiling.stirling_lambda(7, 3, 2) == 0
    assert tiling.stirling_lambda(0, 0, 0) == 1
    assert tiling.stirling_lambda(0, 0, 5) == 1
    assert tiling.stirling_lambda(0, 3, 0) == 0
    assert tiling.stirling_lambda(4, 2, 2) == 3
    with pytest.raises(ValueError):
        tiling.stirling_lambda(-1, 1, 1)


def test_equal_block_bound():
    nat = fseq.natural()
    assert tiling.equal_block_bound(nat, 3, 2) == 15
    with pytest.raises(errors.NonIntegralError):
        tiling.equal_block_bound(fseq.explicit(["1", "3", "2"]), 2, 2)


def test_upper_bound_check():
    nat = fseq.natural()
    chk = check_count_upper_bound(nat, 3, 2)
    assert chk == UpperBoundCheck(
        holds=True, lhs=3, rhs=15, eta=6, kappa=3, lam=2
    )
    for n in range(1, 7):
        for k in range(1, n + 1):
            chk = check_count_upper_bound(nat, n, k)
            assert chk.holds, (n, k)
            assert chk.eta == chk.kappa * chk.lam
    # the convolution layers take the convolution counter
    fib = fseq.fibonacci()
    assert check_count_upper_bound(fib, 5, 3).lhs == 45
    for n in range(1, 8):
        for k in range(1, n + 1):
            chk = check_count_upper_bound(fib, n, k)
            assert chk.holds, (n, k)
            assert chk.eta == chk.kappa * chk.lam


# ---------------------------------------------------------------------------
# triangles

def test_triangle_fnomial_is_pascal_for_natural():
    table = tiling.triangle(fseq.natural(), "fnomial", 5, include_zero=True)
    from math import comb

    for n in range(1, 6):
        for k in range(n + 1):
            assert table.cells[(n, k)] == comb(n, k)
    assert not table.notes


@pytest.mark.parametrize("kind", tiling.TRIANGLE_KINDS)
def test_triangle_cells_are_ints_converted_on_lookup(kind, monkeypatch):
    table = tiling.triangle(fseq.natural(), kind, 6, include_zero=True)
    converted = []

    def counting_int(value):
        converted.append(value)
        return int(value)

    monkeypatch.setattr(tiling, "int", counting_int, raising=False)
    keys = list(table.cells)
    assert len(table.cells) == len(keys) > 0
    assert all(key in table.cells for key in keys)
    assert (0, 0) not in table.cells
    assert converted == []
    assert all(type(table.cells[key]) is int for key in keys)
    assert len(converted) == len(keys)


def test_triangle_additive_boundaries():
    table = tiling.triangle(fseq.natural(), "additive", 4)
    for n in range(1, 5):
        assert table.cells[(n, 1)] == 1
        assert table.cells[(n, n)] == 1
    assert table.cells[(4, 2)] == 12
    assert table.cells[(4, 3)] == 18


def test_triangle_annotates_failing_cells():
    table = tiling.triangle(fseq.fibonacci(), "additive", 4)
    assert (4, 2) in table.notes
    assert (4, 2) not in table.cells
    csv = table.to_csv()
    assert csv.startswith("n,k,value\n")
    assert "!" in csv
    # annotations never add CSV columns
    for line in csv.strip().split("\n")[1:]:
        assert line.count(",") == 2


def test_held_fnomial_triangle_is_its_values_and_one_list_a_row():
    # its 10,200 distinct values take about 3.9 MiB, and one list a row
    # adds a few hundred KiB more
    seq = fseq.fibonacci()
    tracemalloc.start()
    try:
        table = tiling.triangle(seq, "fnomial", 200)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.cells) == 200 * 201 // 2
    assert held < 4.5 * 2**20, f"held {held / 2**20:.2f} MiB"


def test_triangle_csv_exact():
    table = tiling.triangle(fseq.fibonacci(), "fnomial", 4, include_zero=True)
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "n,k,value"
    assert lines[-5:] == ["4,0,1", "4,1,3", "4,2,6", "4,3,3", "4,4,1"]


def test_triangle_text_alignment():
    text = tiling.triangle(fseq.natural(), "additive", 4).to_text()
    rows = text.strip().split("\n")
    assert len(rows) == 4
    assert rows[3].split("|")[1].split() == ["1", "12", "18", "1"]


@pytest.mark.parametrize("seq", [
    fseq.natural(),
    fseq.fibonacci(),
    fseq.rec2(1, 2),
    fseq.explicit([1, 2, 4, 6, 8, 10, 12, 14]),
    fseq.explicit([1, 0, 2, 4, 8, 16, 32, 64]),
    fseq.explicit([1, 1, 0, 1, 0, 1, 0, 1]),
    fseq.explicit([1, 1, 3, 4, 7, 11, 18, 29]),
])
def test_triangle_shared_memo_matches_single_cells(seq):
    counters = {
        ("additive", "derived"): lambda n, k: tiling.count_tilings_additive(seq, n, k),
        # no public single-cell additive count takes the printed base cases
        ("additive", "paper"): lambda n, k: tiling._constructive_counter(seq, 1, "paper")(n, k),
        ("fibonacci", "derived"): lambda n, k: tiling.count_tilings_fibonacci(seq, n, k),
        ("fibonacci", "paper"): lambda n, k: tiling.count_tilings_fibonacci(
            seq, n, k, mode="paper"),
    }
    for (kind, mode), count in counters.items():
        table = tiling.triangle(seq, kind, 7, mode=mode)
        for n in range(1, 8):
            for k in range(1, n + 1):
                try:
                    want = ("cell", count(n, k))
                except (errors.IdentityError, errors.NonIntegralError, errors.ZeroTermError,
                        errors.TilingError) as exc:
                    want = ("note", str(exc))
                got = ("cell", table.cells[(n, k)]) if (n, k) in table.cells else (
                    "note", table.notes[(n, k)])
                assert got == want, (kind, mode, n, k)


def test_triangle_equal_blocks():
    table = tiling.triangle(fseq.fibonacci(), "equal-blocks", 5)
    # bound applies without any identity requirement
    assert not table.notes
    assert table.cells[(5, 2)] >= 30


def test_triangle_validation():
    with pytest.raises(ValueError):
        tiling.triangle(fseq.natural(), "nope", 3)
    with pytest.raises(ValueError):
        tiling.triangle(fseq.natural(), "fnomial", 0)
    with pytest.raises(errors.CapExceeded):
        tiling.triangle(fseq.natural(), "fnomial", tiling.DEFAULT_ROW_CAP + 1)


# ---------------------------------------------------------------------------
# properties

_policy_seeds = st.integers(0, 10_000)


@given(_policy_seeds, st.integers(2, 5), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_random_policy_tilings_always_verify(seed, k, extra):
    n = min(k + extra, 6)
    t = tiling.tile_additive(fseq.natural(), k, n, seed)
    assert tiling.verify_tiling(t) is None


@given(_policy_seeds, st.integers(1, 4), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_random_policy_fibonacci_tilings_always_verify(seed, k, extra):
    n = min(k + extra, 7)
    t = tiling.tile_fibonacci(fseq.fibonacci(), k, n, seed)
    assert tiling.verify_tiling(t) is None


_SEEDS = st.one_of(
    st.none(), st.integers(-(10**30), 10**30), st.booleans(), st.floats(), st.text(max_size=3)
)


@given(st.lists(st.integers(0, 4), max_size=7), st.integers(-1, 6), st.integers(-2, 3), _SEEDS)
@settings(max_examples=200, deadline=None)
@example([1, 2, 3, 4], 2, 2, True)
@example([1, 1, 2, 3, 5], 2, 3, 7.0)
@example([], 1, 0, "7")
def test_tilers_verify_or_refuse_any_input(terms, k, extra, seed):
    # a tiling that verifies, or a typed refusal; never a TypeError from a
    # stray seed or a RecursionError, under the recursion limit at import
    seq, n = fseq.explicit([1] + terms), k + extra
    for tile in (tiling.tile_additive, tiling.tile_fibonacci):
        try:
            t = _under_import_recursion_limit(lambda: tile(seq, k, n, seed, caps=errors.Caps(chains=2000)))
        except (errors.CobwebError, ValueError):
            continue
        assert type(seed) is int or seed is None, seed
        assert tiling.verify_tiling(t) is None, (terms, k, n, seed)
