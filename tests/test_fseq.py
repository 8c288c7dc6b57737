"""Sequence kernel: terms, factorials, generalized binomials, identities."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobweb import digits, errors, fseq, tiling


def test_prefixes_of_primitive_families():
    assert fseq.prefix(fseq.natural(), 6) == [1, 2, 3, 4, 5, 6]
    assert fseq.prefix(fseq.fibonacci(), 10) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert fseq.prefix(fseq.constant(5), 4) == [5, 5, 5, 5]
    assert fseq.prefix(fseq.nondiminishing(5, 10), 12) == [1] * 9 + [5, 5, 5]
    assert fseq.prefix(fseq.periodic(2, 3), 6) == [1, 1, 2, 1, 1, 2]
    assert fseq.prefix(fseq.periodic(7, 4), 8) == [1, 1, 1, 7, 1, 1, 1, 7]
    # alpha=2, c=1 doubles from index 2 on
    assert fseq.prefix(fseq.geometric(2, 1), 7) == [1, 2, 4, 8, 16, 32, 64]
    assert fseq.prefix(fseq.rec2(1, 2), 9) == [1, 2, 5, 12, 29, 70, 169, 408, 985]
    assert fseq.prefix(fseq.rec2(1, 3), 5) == [1, 3, 10, 33, 109]


def test_index_zero_is_one_everywhere():
    for seq in (
        fseq.natural(),
        fseq.fibonacci(),
        fseq.constant(9),
        fseq.periodic(2, 2),
        fseq.geometric(3, 2),
        fseq.rec2(2, 7),
        fseq.explicit([1, 4]),
        fseq.shifted(fseq.natural(), 2),
        fseq.product(fseq.natural(), fseq.fibonacci()),
    ):
        assert seq.term(0) == 1


def test_term_rejects_negative_index():
    with pytest.raises(ValueError):
        fseq.natural().term(-1)


def test_explicit_terms_and_range():
    seq = fseq.explicit(["1", "3", "2"])
    assert [seq.term(i) for i in range(3)] == [1, 3, 2]
    with pytest.raises(errors.SequenceRangeError):
        seq.term(3)


def test_explicit_validation():
    with pytest.raises(errors.DescriptorError):
        fseq.explicit([2, 3])  # index 0 must hold 1
    with pytest.raises(errors.DescriptorError):
        fseq.explicit([])
    with pytest.raises(errors.DescriptorError):
        fseq.explicit([1, -2])
    with pytest.raises(errors.DescriptorError):
        fseq.explicit([1, "x"])


def test_constructor_parameter_validation():
    with pytest.raises(errors.DescriptorError):
        fseq.constant(0)
    with pytest.raises(errors.DescriptorError):
        fseq.periodic(2, 0)
    with pytest.raises(errors.DescriptorError):
        fseq.geometric(0, 1)
    with pytest.raises(errors.DescriptorError):
        fseq.rec2(1, 0)
    with pytest.raises(errors.DescriptorError):
        fseq.shifted(fseq.natural(), -1)


def test_shift_prefix():
    assert fseq.prefix(fseq.shifted(fseq.natural(), 3), 7) == [1, 1, 1, 1, 2, 3, 4]
    assert fseq.prefix(fseq.shifted(fseq.periodic(2, 2), 10), 14) == [1] * 10 + [1, 2, 1, 2]


def test_shift_zero_is_identity():
    base = fseq.fibonacci()
    assert fseq.prefix(fseq.shifted(base, 0), 12) == fseq.prefix(base, 12)


def test_product_prefix():
    prod = fseq.product(fseq.periodic(2, 2), fseq.periodic(3, 3))
    assert fseq.prefix(prod, 9) == [1, 2, 3, 2, 1, 6, 1, 2, 3]
    mixed = fseq.product(fseq.constant(3), fseq.shifted(fseq.constant(2), 10))
    assert fseq.prefix(mixed, 12) == [3] * 10 + [6, 6]
    unit_left = fseq.product(fseq.constant(1), fseq.natural())
    assert fseq.prefix(unit_left, 8) == fseq.prefix(fseq.natural(), 8)


def test_f_factorial():
    nat = fseq.natural()
    assert [fseq.f_factorial(nat, i) for i in range(6)] == [1, 1, 2, 6, 24, 120]
    fib = fseq.fibonacci()
    assert [fseq.f_factorial(fib, i) for i in range(7)] == [1, 1, 1, 2, 6, 30, 240]
    with pytest.raises(ValueError):
        fseq.f_factorial(nat, -1)


def test_falling():
    nat = fseq.natural()
    assert fseq.falling(nat, 5, 2) == 20
    assert fseq.falling(nat, 5, 0) == 1
    assert fseq.falling(nat, 5, 5) == 120
    with pytest.raises(ValueError):
        fseq.falling(nat, 3, 4)
    with pytest.raises(ValueError):
        fseq.falling(nat, 3, -1)


def test_fnomial_natural_is_binomial():
    from math import comb

    nat = fseq.natural()
    for n in range(9):
        for k in range(n + 1):
            f = fseq.fnomial(nat, n, k)
            assert f.is_integer
            assert f.value == comb(n, k)


def test_fnomial_fibonacci_values():
    fib = fseq.fibonacci()
    # row 5 of the generalized triangle
    assert [int(fseq.fnomial(fib, 5, k).value) for k in range(6)] == [1, 5, 15, 15, 5, 1]
    f = fseq.fnomial(fib, 5, 2)
    assert (f.numerator, f.denominator, f.value) == (15, 1, Fraction(15))


def test_fnomial_non_integer_case():
    seq = fseq.explicit(["1", "3", "2"])
    f = fseq.fnomial(seq, 2, 1)
    assert not f.is_integer
    assert f.value == Fraction(2, 3)


def test_fnomial_zero_denominator():
    seq = fseq.explicit([1, 1, 0, 4])
    with pytest.raises(errors.ZeroTermError):
        fseq.fnomial(seq, 3, 2)
    # zero only in the numerator range is fine
    f = fseq.fnomial(seq, 2, 1)
    assert f.value == 0 and f.is_integer


def test_fnomial_range_validation():
    with pytest.raises(ValueError):
        fseq.fnomial(fseq.natural(), 2, 3)


def test_admissible_families():
    cases = [
        fseq.natural(),
        fseq.fibonacci(),
        fseq.constant(5),
        fseq.nondiminishing(5, 10),
        fseq.periodic(2, 3),
        fseq.periodic(7, 4),
        fseq.geometric(2, 1),
        fseq.rec2(1, 2),
        fseq.rec2(1, 3),
        fseq.product(fseq.periodic(2, 2), fseq.periodic(3, 3)),
    ]
    for seq in cases:
        assert fseq.is_admissible_prefix(seq, 15) is None, seq.label()


def test_admissible_witness_is_lexicographically_first():
    assert fseq.is_admissible_prefix(fseq.explicit(["1", "3", "2"]), 2) == (2, 1)


def test_admissible_vacuous():
    assert fseq.is_admissible_prefix(fseq.natural(), 0) is None
    with pytest.raises(ValueError):
        fseq.is_admissible_prefix(fseq.natural(), -1)


def test_identity_1():
    assert fseq.check_identity_1(fseq.natural(), 20) is None
    scaled = fseq.product(fseq.constant(3), fseq.natural())
    assert fseq.check_identity_1(scaled, 20) is None
    assert fseq.check_identity_1(fseq.fibonacci(), 15) == (2, 2)
    with pytest.raises(ValueError):
        fseq.check_identity_1(fseq.natural(), 1)


def test_identity_2():
    assert fseq.check_identity_2(fseq.fibonacci(), 15) is None
    assert fseq.check_identity_2(fseq.rec2(1, 2), 15) is None
    assert fseq.check_identity_2(fseq.rec2(1, 3), 15) is None
    assert fseq.check_identity_2(fseq.natural(), 10) == (2, 1)
    lucas = fseq.explicit([1, 1, 3, 4, 7, 11, 18])
    assert fseq.check_identity_2(lucas, 6) is not None
    with pytest.raises(ValueError):
        fseq.check_identity_2(fseq.fibonacci(), 2)


def test_descriptor_round_trip():
    seq = fseq.product(
        fseq.shifted(fseq.rec2(1, 3), 2),
        fseq.explicit([1, 2, 4]),
    )
    d = fseq.to_descriptor(seq)
    back = fseq.from_descriptor(d)
    assert fseq.to_descriptor(back) == d
    assert [back.term(i) for i in range(3)] == [seq.term(i) for i in range(3)]


def test_descriptor_json_round_trip():
    seq = fseq.geometric(3, 2)
    text = fseq.to_json(seq)
    data = json.loads(text)
    assert data == {"alpha": 3, "c": 2, "kind": "geometric"}
    back = fseq.from_json(text)
    assert fseq.prefix(back, 5) == fseq.prefix(seq, 5)


@pytest.mark.parametrize(
    "seq, text, label",
    [
        (fseq.natural(), '{"kind": "natural"}', "natural"),
        (fseq.fibonacci(), '{"kind": "fibonacci"}', "fibonacci"),
        (fseq.constant(4), '{"kind": "constant", "t": 4}', "constant(4)"),
        (fseq.nondiminishing(3, 2), '{"M": 2, "c": 3, "kind": "nondiminishing"}',
         "nondiminishing(c=3, M=2)"),
        (fseq.periodic(3, 2), '{"M": 2, "c": 3, "kind": "periodic"}',
         "periodic(c=3, M=2)"),
        (fseq.geometric(2, 3), '{"alpha": 2, "c": 3, "kind": "geometric"}',
         "geometric(alpha=2, c=3)"),
        (fseq.rec2(1, 2), '{"f1": 1, "f2": 2, "kind": "rec2"}', "rec2(1, 2)"),
        (fseq.shifted(fseq.natural(), 2),
         '{"inner": {"kind": "natural"}, "kind": "shift", "s": 2}',
         "shift(natural, s=2)"),
        (fseq.product(fseq.periodic(2, 2), fseq.constant(3)),
         '{"kind": "product", "left": {"M": 2, "c": 2, "kind": "periodic"}, '
         '"right": {"kind": "constant", "t": 3}}',
         "product(periodic(c=2, M=2), constant(3))"),
        (fseq.explicit([1, 2, 3]), '{"kind": "explicit", "terms": ["1", "2", "3"]}',
         "explicit[2 terms]"),
    ],
)
def test_descriptor_and_label_pinned(seq, text, label):
    assert fseq.to_json(seq) == text
    assert seq.label() == label
    assert fseq.to_json(fseq.from_json(text)) == text


def test_huge_parameters_are_written_as_strings():
    # Up to 640 digits an int parameter stays a JSON number; past that it
    # is a decimal string, and labels print it at any size.
    below, above = 10**640 - 1, 10**4400
    assert fseq.to_descriptor(fseq.constant(below)) == {"kind": "constant", "t": below}
    d = fseq.to_descriptor(fseq.geometric(above, 2))
    assert d == {"kind": "geometric", "alpha": "1" + "0" * 4400, "c": 2}
    assert fseq.from_descriptor(d).term(2) == above * 4
    assert fseq.from_json(fseq.to_json(fseq.constant(above))).term(1) == above
    assert fseq.constant(above).label() == "constant(1" + "0" * 4400 + ")"


def test_descriptor_accepts_string_parameters():
    seq = fseq.from_descriptor({"kind": "periodic", "c": "2", "M": "3"})
    assert fseq.prefix(seq, 6) == [1, 1, 2, 1, 1, 2]


def test_descriptor_errors():
    with pytest.raises(errors.DescriptorError):
        fseq.from_descriptor({"kind": "nope"})
    with pytest.raises(errors.DescriptorError):
        fseq.from_descriptor({"kind": "constant"})
    with pytest.raises(errors.DescriptorError):
        fseq.from_descriptor(["kind"])
    with pytest.raises(errors.DescriptorError):
        fseq.from_json("{not json")
    with pytest.raises(errors.DescriptorError):
        fseq.from_descriptor({"kind": "shift", "s": 1})
    with pytest.raises(errors.DescriptorError):
        fseq.from_descriptor({"kind": "explicit", "terms": "1,2"})


# property tests over the descriptor algebra

_primitive = st.sampled_from(
    [
        fseq.natural(),
        fseq.fibonacci(),
        fseq.constant(4),
        fseq.nondiminishing(3, 2),
        fseq.periodic(3, 2),
        fseq.geometric(2, 1),
        fseq.rec2(1, 2),
    ]
)


@given(_primitive, st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_shift_composes_additively(seq, s, t):
    lhs = fseq.shifted(fseq.shifted(seq, t), s)
    rhs = fseq.shifted(seq, s + t)
    assert fseq.prefix(lhs, 12) == fseq.prefix(rhs, 12)


@given(_primitive, _primitive, st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_product_terms_multiply(a, b, n):
    assert fseq.product(a, b).term(n) == a.term(n) * b.term(n)


@given(_primitive, _primitive)
@settings(max_examples=40, deadline=None)
def test_product_preserves_admissibility(a, b):
    if fseq.is_admissible_prefix(a, 12) is None and fseq.is_admissible_prefix(b, 12) is None:
        assert fseq.is_admissible_prefix(fseq.product(a, b), 12) is None


@given(_primitive)
@settings(max_examples=30, deadline=None)
def test_descriptor_round_trip_property(seq):
    back = fseq.from_json(fseq.to_json(seq))
    assert fseq.prefix(back, 10) == fseq.prefix(seq, 10)


# ---------------------------------------------------------------------------
# row kernel against per-cell fnomial

_explicit_terms = st.lists(st.integers(0, 6), max_size=9).map(lambda ts: fseq.explicit([1] + ts))


def _outcome(fn):
    """("value", v) or ("error", type, message) of calling fn."""
    try:
        return ("value", fn())
    except (errors.ZeroTermError, errors.SequenceRangeError) as exc:
        return ("error", type(exc), str(exc))


def _per_cell_scan(seq, N):
    """Cells, notes and first error of a cell-by-cell scan of rows 0..N."""
    cells, notes = {}, {}
    for n in range(N + 1):
        for k in range(n + 1):
            got = _outcome(lambda: fseq.fnomial(seq, n, k))
            if got[0] == "error":
                return cells, notes, got
            f = got[1]
            if f.is_integer:
                cells[(n, k)] = int(f.value)
            else:
                notes[(n, k)] = f"non-integer {f.value}"
    return cells, notes, None


@given(_explicit_terms, st.integers(0, 11))
@settings(max_examples=150, deadline=None)
def test_fnomial_row_matches_per_cell(seq, n):
    row = fseq.fnomial_row(seq, n)
    for k in range(n + 1):
        want = _outcome(lambda: fseq.fnomial(seq, n, k).value)
        assert _outcome(lambda: next(row)) == want
        if want[0] == "error":
            return
    assert next(row, None) is None


@given(_explicit_terms, st.integers(0, 11))
@settings(max_examples=150, deadline=None)
def test_admissible_scan_matches_per_cell(seq, N):
    _, notes, error = _per_cell_scan(seq, N)
    got = _outcome(lambda: fseq.is_admissible_prefix(seq, N))
    if notes:
        # the scan stops at the first non-integral cell, before any error
        assert got == ("value", next(iter(notes)))
    elif error is not None:
        assert got == error
    else:
        assert got == ("value", None)


@given(_explicit_terms, st.integers(1, 11), st.booleans())
@settings(max_examples=150, deadline=None)
def test_fnomial_triangle_matches_per_cell(seq, rows, include_zero):
    cells, notes, error = _per_cell_scan(seq, rows)
    got = _outcome(lambda: tiling.triangle(seq, "fnomial", rows, include_zero=include_zero))
    if error is not None:
        assert got == error
        return
    table = got[1]

    def keep(n, k):
        return n >= 1 and (include_zero or k >= 1)

    assert table.cells == {key: v for key, v in cells.items() if keep(*key)}
    assert table.notes == {key: v for key, v in notes.items() if keep(*key)}


@given(_explicit_terms, st.integers(0, 11))
@settings(max_examples=150, deadline=None)
def test_fnomial_row_is_int_exactly_on_integral_cells(seq, n):
    try:
        for k, value in enumerate(fseq.fnomial_row(seq, n)):
            integral = fseq.fnomial(seq, n, k).is_integer
            assert type(value) is (int if integral else Fraction), (n, k)
    except (errors.ZeroTermError, errors.SequenceRangeError):
        pass  # raised at the same cell by both, as tested above


def test_fnomial_row_leaves_the_integers_and_comes_back():
    row = list(fseq.fnomial_row(fseq.explicit([1, 3, 2]), 2))
    assert row == [1, Fraction(2, 3), 1]
    assert [type(v) for v in row] == [int, Fraction, int]


@pytest.mark.parametrize("seq,n", [(fseq.fibonacci(), 40), (fseq.rec2(1, 3), 60)])
def test_fnomial_row_stays_int_on_admissible_rows(seq, n):
    row = list(fseq.fnomial_row(seq, n))
    assert all(type(v) is int for v in row)
    assert row == [fseq.fnomial(seq, n, k).value for k in range(n + 1)]


def test_fnomial_row_rejects_negative_row():
    with pytest.raises(ValueError):
        next(fseq.fnomial_row(fseq.natural(), -1))


def test_fnomial_row_natural_is_pascal():
    assert list(fseq.fnomial_row(fseq.natural(), 6)) == [1, 6, 15, 20, 15, 6, 1]


def test_deep_left_nested_product_does_not_recurse():
    # far more levels than the interpreter's default recursion limit
    seq = fseq.constant(1)
    for j in range(2, 3002):
        seq = fseq.product(seq, fseq.periodic(2, j))
    assert seq.term(12) == 2 ** 5
    assert seq.term(3001) == 2  # 3001 is prime
    assert fseq.product(fseq.natural(), seq).term(6) == 6 * 2 ** 3


def test_product_reads_factors_left_to_right():
    # with two factors out of range, the leftmost one reports the error
    short = [fseq.explicit([1, 2]), fseq.explicit([1, 2, 3]), fseq.explicit([1])]
    chain = fseq.product(fseq.product(short[0], short[1]), short[2])
    with pytest.raises(errors.SequenceRangeError, match="has 1 terms"):
        chain.term(2)
    chain = fseq.product(fseq.product(fseq.natural(), short[1]), short[2])
    with pytest.raises(errors.SequenceRangeError, match="has 0 terms"):
        chain.term(2)


def _chunked_text(value):
    """Decimal text of a nonnegative int, 500 digits at a time (under the
    lowest int/str digit limit, 640)."""
    chunks = []
    while True:
        value, low = divmod(value, 10**500)
        if not value:
            return str(low) + "".join(chunks)
        chunks.insert(0, str(low).zfill(500))


@given(st.integers(1, 60_000), st.booleans())
@settings(max_examples=60, deadline=None)
def test_decimal_helpers_round_trip_at_any_size(bits, negative):
    value = (1 << bits) - 12345 if bits > 20 else bits
    text = _chunked_text(value)
    if negative:
        value, text = -value, "-" + text
    assert digits.to_decimal(value) == text
    assert digits.parse_decimal(text) == value
    assert digits.parse_decimal(f" +{text.lstrip('-')}\n") == abs(value)
    if value % 7:
        assert digits.to_decimal(Fraction(value, 7)) == f"{text}/7"


def test_parse_decimal_rejects_what_int_rejects():
    long = "9" * 5000
    assert digits.parse_decimal(long[:1000] + "_" + long[1000:]) == 10**5000 - 1
    for bad in ("", "12a", "1.5", "1e5", long + "a", "a" + long, "1" + "__" + long, long + ".0"):
        with pytest.raises(ValueError):
            digits.parse_decimal(bad)
