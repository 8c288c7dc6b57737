"""Sequence algebra: shift, point product, building by kind, divisor factorization."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobweb import errors, fseq, seqalg
from helpers import h_natural


def test_shift_and_product_wrappers():
    assert fseq.prefix(fseq.shifted(fseq.natural(), 3), 7) == [1, 1, 1, 1, 2, 3, 4]
    prod = fseq.product(fseq.periodic(2, 2), fseq.periodic(3, 3))
    assert fseq.prefix(prod, 9) == [1, 2, 3, 2, 1, 6, 1, 2, 3]


def test_build_dispatch():
    assert fseq.prefix(fseq.from_descriptor({"kind": "natural"}), 3) == [1, 2, 3]
    periodic = fseq.from_descriptor({"kind": "periodic", "c": 2, "M": 3})
    assert fseq.prefix(periodic, 6) == [1, 1, 2, 1, 1, 2]
    rec2 = fseq.from_descriptor({"kind": "rec2", "f1": 1, "f2": 3})
    assert fseq.prefix(rec2, 4) == [1, 3, 10, 33]
    with pytest.raises(errors.DescriptorError):
        fseq.from_descriptor({"kind": "nope"})


def test_unit_sequence():
    u = fseq.constant(1)
    assert fseq.prefix(u, 5) == [1, 1, 1, 1, 1]
    h = seqalg.h_general(u, 5)
    assert fseq.prefix(seqalg.reconstruct(h, 5), 5) == [1, 1, 1, 1, 1]


def test_h_natural_list():
    got = [h_natural(n) for n in range(1, 18)]
    assert got == [1, 2, 3, 2, 5, 1, 7, 2, 3, 1, 11, 1, 13, 1, 1, 2, 17]


def test_h_natural_prime_powers():
    assert h_natural(6) == 1
    assert h_natural(16) == 2
    assert h_natural(121) == 11
    assert h_natural(2 * 3 * 5) == 1
    with pytest.raises(ValueError):
        h_natural(0)


def test_h_general_matches_h_natural():
    h = seqalg.h_general(fseq.natural(), 100)
    assert isinstance(h, seqalg.HSequence)
    assert list(h.terms) == [h_natural(n) for n in range(1, 101)]


def test_h_general_fibonacci():
    h = seqalg.h_general(fseq.fibonacci(), 12)
    assert list(h.terms) == [1, 1, 2, 3, 5, 4, 13, 7, 17, 11, 89, 6]
    # the last component by hand: 144 over lcm(1, 1, 2, 3, 8)
    assert h.terms[11] == 144 // 24


def test_h_general_constant():
    h = seqalg.h_general(fseq.constant(5), 6)
    assert list(h.terms) == [5, 1, 1, 1, 1, 1]


def test_h_general_divisibility_witness():
    w = seqalg.h_general(fseq.explicit([1, 2, 3]), 2)
    assert isinstance(w, seqalg.DivisibilityWitness)
    assert (w.n, w.term, w.lcm) == (2, 3, 2)


def _h_general_by_divisors(seq, N):
    """h(n) or the first witness, from the lcm over every d < n dividing n."""
    terms = []
    for n in range(1, N + 1):
        t = seq.term(n)
        divisor_lcm = math.lcm(*(seq.term(d) for d in range(1, n) if n % d == 0))
        if t % divisor_lcm:
            return seqalg.DivisibilityWitness(n=n, term=t, lcm=divisor_lcm)
        terms.append(t // divisor_lcm)
    return seqalg.HSequence(base=seq, terms=tuple(terms))


@given(st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]), min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_h_general_matches_divisor_scan(terms):
    seq = fseq.explicit([1] + terms)
    N = len(terms)
    want = _h_general_by_divisors(seq, N)
    assert seqalg.h_general(seq, N) == want
    if isinstance(want, seqalg.DivisibilityWitness):
        # no term past the witness is read
        cut = fseq.explicit([1] + terms[:want.n])
        assert seqalg.h_general(cut, N) == want


def test_h_general_rejects_zero_terms():
    with pytest.raises(errors.ZeroTermError):
        seqalg.h_general(fseq.explicit([1, 1, 0]), 2)


def test_hsequence_to_dict():
    h = seqalg.h_general(fseq.natural(), 4)
    assert h.to_dict() == {
        "base": {"kind": "natural"},
        "h": ["1", "2", "3", "2"],
    }


def test_reconstruct_prefixes():
    nat = fseq.natural()
    h = seqalg.h_general(nat, 24)
    for s in range(1, 25):
        rebuilt = seqalg.reconstruct(h, s)
        assert fseq.prefix(rebuilt, s) == fseq.prefix(nat, s), s

    fib = fseq.fibonacci()
    h = seqalg.h_general(fib, 24)
    for s in range(1, 25):
        rebuilt = seqalg.reconstruct(h, s)
        assert fseq.prefix(rebuilt, s) == fseq.prefix(fib, s), s


def test_reconstruct_continuation_past_prefix():
    h = seqalg.h_general(fseq.natural(), 10)
    rebuilt = seqalg.reconstruct(h, 3)
    # agrees on 1..3, then continues periodically
    assert fseq.prefix(rebuilt, 6) == [1, 2, 3, 2, 1, 6]


def test_reconstruct_depth_one_is_all_ones():
    h = seqalg.h_general(fseq.natural(), 5)
    rebuilt = seqalg.reconstruct(h, 1)
    assert fseq.prefix(rebuilt, 8) == [1] * 8


def test_reconstruct_can_disagree_beyond_its_guarantee():
    # divisibility holds everywhere here, yet the periodic product overshoots
    seq = fseq.explicit([1, 1, 2, 4, 4, 1, 8])
    h = seqalg.h_general(seq, 6)
    assert isinstance(h, seqalg.HSequence)
    assert list(h.terms) == [1, 2, 4, 2, 1, 2]
    rebuilt = seqalg.reconstruct(h, 6)
    assert rebuilt.term(6) == 16
    assert seq.term(6) == 8


def test_reconstruct_round_trips_at_3000_factors():
    # one product per factor h(j) != 1 would nest 467 levels, past the
    # descriptor bound; the balanced tree nests ten
    h = seqalg.h_general(fseq.natural(), 3000)
    text = fseq.to_json(seqalg.reconstruct(h, 3000))
    back = fseq.from_json(text)
    assert fseq.to_json(back) == text
    assert fseq.prefix(back, 3000) == seqalg.reconstruct_prefix(h, 3000) == list(range(1, 3001))


def test_reconstruct_validates_depth():
    h = seqalg.h_general(fseq.natural(), 5)
    with pytest.raises(ValueError):
        seqalg.reconstruct(h, 0)
    with pytest.raises(ValueError):
        seqalg.reconstruct(h, 6)


# products of random factors along divisors, on which h_general always
# succeeds; the plain random sequences drawn beside them succeed sometimes
_factorable = (
    st.lists(st.integers(1, 4), min_size=1, max_size=16)
    .map(lambda hs: [1] + [math.prod(hs[j - 1] for j in range(1, n + 1) if n % j == 0)
                           for n in range(1, len(hs) + 1)])
    .map(fseq.explicit)
)


@given(_factorable | st.lists(st.integers(1, 12), min_size=1, max_size=16).map(
    lambda ts: fseq.explicit([1] + ts)))
@settings(max_examples=150, deadline=None)
def test_reconstruct_prefix_matches_reconstruct(seq):
    N = len(seq.params["terms"]) - 1
    h = seqalg.h_general(seq, N)
    if isinstance(h, seqalg.DivisibilityWitness):
        return
    for s in range(1, N + 1):
        assert seqalg.reconstruct_prefix(h, s) == fseq.prefix(seqalg.reconstruct(h, s), s), s


def test_reconstruct_prefix_validates_depth():
    h = seqalg.h_general(fseq.natural(), 5)
    for s in (0, 6):
        with pytest.raises(ValueError, match="within 1..5"):
            seqalg.reconstruct_prefix(h, s)
