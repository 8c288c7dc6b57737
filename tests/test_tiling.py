"""Tilers, verifier, exhaustive enumeration, counters, triangles."""
from itertools import combinations, permutations, product as iproduct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cobweb import errors, fseq, poset, tiling


def _blocks(t):
    return tuple(b.subsets for b in t.blocks)


# ---------------------------------------------------------------------------
# constructive tilers

def test_policy_validation():
    with pytest.raises(ValueError):
        tiling.TilePolicy(mode="nope")
    with pytest.raises(ValueError):
        tiling.TilePolicy("enumerate-all")


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
    p42 = tiling.TilePolicy("seeded-random", 42)
    t1 = tiling.tile_additive(fseq.natural(), 2, 5, p42)
    t2 = tiling.tile_additive(fseq.natural(), 2, 5, tiling.TilePolicy("seeded-random", 42))
    assert _blocks(t1) == _blocks(t2)
    assert tiling.verify_tiling(t1) is None
    t3 = tiling.tile_fibonacci(fseq.fibonacci(), 2, 6, p42)
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
        tiling.tile_additive(fseq.natural(), 2, 5, chain_cap=100)
    assert err.value.cap_name == "chains"
    assert err.value.needed == 120


# ---------------------------------------------------------------------------
# choice streams

def test_additive_stream_counts_match_counter():
    nat = fseq.natural()
    for n in range(1, 6):
        for k in range(1, n + 1):
            got = sum(1 for _ in tiling.iter_tiling_choices_additive(nat, k, n))
            assert got == tiling.count_tilings_additive(nat, n, k), (k, n)


def test_fibonacci_stream_counts_match_derived_counter():
    fib = fseq.fibonacci()
    expected = {(2, 4): 3, (2, 5): 30, (3, 5): 45}
    for (k, n), want in expected.items():
        stream = list(tiling.iter_tiling_choices_fibonacci(fib, k, n))
        assert len(stream) == want
        assert len(stream) == tiling.count_tilings_fibonacci(fib, n, k, mode="derived")
        for t in stream:
            assert tiling.verify_tiling(t) is None


def test_streams_yield_distinct_sorted_tilings():
    stream = list(tiling.iter_tiling_choices_additive(fseq.natural(), 2, 4))
    raw = [_blocks(t) for t in stream]
    assert raw == sorted(raw)
    assert len(set(raw)) == len(raw)


def test_stream_identity_precondition():
    with pytest.raises(errors.IdentityError):
        list(tiling.iter_tiling_choices_additive(fseq.fibonacci(), 2, 4))


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
    assert tiling.verify_tiling(poset.make_tiling(layer, _natural_23_blocks())) is None


def test_verify_block_sizes_clause():
    layer = poset.build_layer(fseq.natural(), 2, 3)
    blocks = _natural_23_blocks()
    blocks[0] = poset.BlockPlacement(subsets=((0, 1), (0, 1)))
    v = tiling.verify_tiling(poset.make_tiling(layer, blocks))
    assert v is not None and v.clause == "block-sizes"


def test_verify_rejects_out_of_range_slot():
    layer = poset.build_layer(fseq.natural(), 2, 3)
    blocks = _natural_23_blocks()
    blocks[0] = poset.BlockPlacement(subsets=((5,), (0, 1)))
    v = tiling.verify_tiling(poset.make_tiling(layer, blocks))
    assert v is not None and v.clause == "block-sizes"


def test_verify_shared_chain_clause():
    layer = poset.build_layer(fseq.natural(), 2, 3)
    blocks = _natural_23_blocks()
    blocks[1] = poset.BlockPlacement(subsets=((0,), (0, 2)))
    v = tiling.verify_tiling(poset.make_tiling(layer, blocks))
    assert v is not None and v.clause == "shared-chain"


def test_verify_uncovered_chain_clause():
    layer = poset.build_layer(fseq.natural(), 2, 3)
    v = tiling.verify_tiling(poset.make_tiling(layer, _natural_23_blocks()[:2]))
    assert v is not None and v.clause == "uncovered-chain"
    assert v.witness == (0, 2)


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


def test_enumeration_worker_invariance():
    layer = poset.build_layer(fseq.natural(), 3, 4)
    results = [
        tiling.enumerate_tilings(layer, limit=500, workers=w) for w in (1, 2, 4)
    ]
    counts = {r.count for r in results}
    assert counts == {132}
    listings = [[_blocks(t) for t in r.tilings] for r in results]
    assert listings[0] == listings[1] == listings[2]


def test_enumeration_node_cap():
    layer = poset.build_layer(fseq.natural(), 3, 4)
    with pytest.raises(errors.CapExceeded) as err:
        tiling.enumerate_tilings(layer, node_cap=50)
    assert err.value.cap_name == "nodes"
    assert err.value.partial_count is not None
    with pytest.raises(ValueError):
        tiling.enumerate_tilings(layer, workers=0)
    # partial_count is a lower bound on the 132 tilings wherever the cap bites
    for cap in range(1, 201):
        for limit in (None, 5):
            outcome = _cap_outcome(layer, cap, limit, 1)
            if outcome[0] == "cap":
                assert 0 <= outcome[3] <= 132, (cap, limit)


def _cap_outcome(layer, cap, limit, workers):
    try:
        res = tiling.enumerate_tilings(layer, limit, workers=workers, node_cap=cap)
    except errors.CapExceeded as exc:
        return ("cap", exc.cap_name, exc.limit, exc.partial_count)
    listing = None if res.tilings is None else [_blocks(t) for t in res.tilings]
    return ("done", res.count, res.nodes, listing)


def test_enumeration_cap_outcome_is_worker_invariant():
    layer = poset.build_layer(fseq.natural(), 3, 4)
    seen = set()
    for cap in range(1, 201):
        for limit in (None, 5):
            outcomes = [_cap_outcome(layer, cap, limit, w) for w in (1, 2, 4)]
            assert outcomes[0] == outcomes[1] == outcomes[2], (cap, limit)
            seen.add(outcomes[0][0])
            if outcomes[0][0] == "done":
                assert outcomes[0][1] == 132 and outcomes[0][2] <= cap
    assert seen == {"cap", "done"}


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
    # the count memo keeps this well under the 2.2 M nodes of an unmemoized search
    res = tiling.enumerate_tilings(poset.build_layer(fseq.natural(), 3, 5))
    assert res.count == 411168
    assert res.nodes < 400_000


def _listing_oracle(layer):
    """Every tiling as sorted block subsets, in canonical order: every
    solution of the search pruned by the count memo, sorted by block subsets."""
    chain_ids = {c: i for i, c in enumerate(poset.enumerate_chains(layer))}
    placements = list(poset.enumerate_placements(layer))
    rows = [[chain_ids[c] for c in p.chains()] for p in placements]
    search = tiling._Search(len(chain_ids), rows, tiling.DEFAULT_NODE_CAP)
    search.count()
    solutions, stack = [], [((), *search.root)]
    while stack:
        path, uncovered, alive = stack.pop()
        if not uncovered:
            solutions.append(path)
            continue
        kids = search._children(uncovered, alive)
        stack += [(path + (r,), u, a) for r, u, a in kids if search.memo[u]]
    return sorted(tuple(sorted(placements[r].subsets for r in s)) for s in solutions)


def _check_listing_against_oracle(layer, node_cap=None):
    want = _listing_oracle(layer)
    count = len(want)
    for limit in sorted({0, 1, 7, count - 1, count, count + 1} - {-1}):
        res = tiling.enumerate_tilings(layer, limit, node_cap=node_cap)
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
        count = tiling.enumerate_tilings(layer, node_cap=2_000).count
    except errors.CapExceeded:
        assume(False)
    assume(count <= 2_000)
    _check_listing_against_oracle(layer, node_cap=10_000)


def test_enumeration_listing_expands_each_state_once():
    # visiting every path of the memo's DAG took 141,324 and 31,592 nodes
    nat = poset.build_layer(fseq.natural(), 4, 5)
    assert tiling.enumerate_tilings(nat, limit=1000).nodes < 10_000
    prod = poset.build_layer(fseq.product(fseq.periodic(2, 2), fseq.periodic(3, 3)), 2, 6)
    assert tiling.enumerate_tilings(prod, limit=100).nodes < 10_000


def test_enumeration_listing_adds_no_nodes(monkeypatch):
    # the listing merges what the count pass recorded and expands no state,
    # so a listing fits under the cap its count fits under
    layer = poset.build_layer(fseq.natural(), 4, 5)
    counted = tiling.enumerate_tilings(layer).nodes
    scans = 0
    children = tiling._Search._children

    def counting_children(self, uncovered, alive):
        nonlocal scans
        scans += 1
        return children(self, uncovered, alive)

    monkeypatch.setattr(tiling._Search, "_children", counting_children)
    listed = tiling.enumerate_tilings(layer, 1000, node_cap=counted)
    assert listed.nodes == counted == scans == 3155
    assert len(listed.tilings) == 1000
    with pytest.raises(errors.CapExceeded):
        tiling.enumerate_tilings(layer, 1000, node_cap=counted - 1)


def test_enumeration_rejects_negative_limit():
    layer = poset.build_layer(fseq.natural(), 3, 4)
    with pytest.raises(ValueError):
        tiling.enumerate_tilings(layer, -1)
    res = tiling.enumerate_tilings(layer, 0)
    assert res.count == 132 and res.tilings == () and res.truncated


def test_enumeration_respects_placement_cap():
    layer = poset.build_layer(fseq.natural(), 3, 4)
    with pytest.raises(errors.CapExceeded) as err:
        tiling.enumerate_tilings(layer, placement_cap=5)
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
    # term(1) = 0 passes the convolution identity through n = 4, but (4, 2)
    # splits 8 slots into 2 groups of 4 and 2 empty groups: 8! / (4!^2 2! 2!)
    # unordered families is not an integer, while the ordered count is
    seq = fseq.explicit([1, 0, 2, 4, 8])
    assert fseq.check_identity_2(seq, 4) is None
    with pytest.raises(errors.NonIntegralError, match=r"multinomial 8! / 2304 .* \(4, 2\)"):
        tiling.count_tilings_fibonacci(seq, 4, 2)
    assert tiling.count_tilings_fibonacci(seq, 4, 2, mode="paper") == 70


def test_counters_reach_deep_cells():
    # every cell of an all-zero sequence counts one tiling; the recursion
    # still goes about n calls deep
    zero = fseq.explicit([1] + [0] * 800)
    assert tiling.count_tilings_additive(zero, 800, 400) == 1
    assert tiling.count_tilings_fibonacci(zero, 800, 400) == 1


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
    chk = tiling.check_count_upper_bound(nat, 3, 2)
    assert chk == tiling.UpperBoundCheck(
        holds=True, lhs=3, rhs=15, eta=6, kappa=3, lam=2
    )
    for n in range(1, 7):
        for k in range(1, n + 1):
            chk = tiling.check_count_upper_bound(nat, n, k)
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
        ("additive", "paper"): lambda n, k: tiling.count_tilings_additive(seq, n, k),
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
                except (errors.IdentityError, errors.NonIntegralError) as exc:
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
        tiling.triangle(fseq.natural(), "fnomial", 10, row_cap=5)


# ---------------------------------------------------------------------------
# properties

_policy_seeds = st.integers(0, 10_000)


@given(_policy_seeds, st.integers(2, 5), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_random_policy_tilings_always_verify(seed, k, extra):
    n = min(k + extra, 6)
    t = tiling.tile_additive(
        fseq.natural(), k, n, tiling.TilePolicy("seeded-random", seed)
    )
    assert tiling.verify_tiling(t) is None


@given(_policy_seeds, st.integers(1, 4), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_random_policy_fibonacci_tilings_always_verify(seed, k, extra):
    n = min(k + extra, 7)
    t = tiling.tile_fibonacci(
        fseq.fibonacci(), k, n, tiling.TilePolicy("seeded-random", seed)
    )
    assert tiling.verify_tiling(t) is None
