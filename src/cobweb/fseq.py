"""Exact kernel for cobweb poset sequences.

A cobweb poset is determined by a sequence of nonnegative integers.  This
module evaluates such sequences and the generalized binomial coefficients
built from them.  Everything is exact: terms are Python ints, generalized
binomials are exact rationals (ints or Fractions), and admissibility is a
divisibility verdict, so no floating point appears anywhere.

Index 0 of every sequence is fixed to 1 regardless of the descriptor, so
factorial-style products over empty ranges are total.  The classical value
0 at index 0 of the Fibonacci family corresponds to the poset's empty root
and never enters a product.

Descriptors form a small closed algebra: primitive families (natural,
fibonacci, constant, nondiminishing, periodic, geometric, rec2, explicit)
plus two combinators (shift, product).  Descriptors round-trip through
JSON with term values rendered as decimal strings, since terms exceed
64-bit range for modest indices in the geometric and rec2 families; an
int parameter of more than 640 digits is rendered as a string too.
Integers convert at any number of digits (cobweb.digits).  Every sequence,
however built, nests at most MAX_DESCRIPTOR_DEPTH = 256 levels, a bare kind
counting as one: building a deeper one is a DescriptorError, because term(),
label() and the descriptor walks recurse once per level.

fnomial evaluates one cell by itself: two k-term products and a
Fraction.  Scans over whole rows (the admissibility check, the fnomial
triangle) use fnomial_row instead, which walks a row by the exact
recurrence {n, k} = {n, k-1} * term(n-k+1) / term(k).  Each step reads two
terms, multiplies the running value by one and divides it by the other, so
a row costs O(n) small-by-big operations and a scan of N rows O(N^2),
against O(N^3) big multiplications cell by cell.  The running value is an
int while the cells are integral: a step is one divmod, and only a nonzero
remainder makes it a Fraction, which turns back into an int once a later
cell is integral again.  Only the cells k <= n/2 are computed: a cell past
the midpoint is its mirror {n, n-k}, the same object, since once term(1..k)
are nonzero the terms n-k+1..k cancel from {n, k}.  The row raises the same
error at the same cell as the per-cell code, because step k reads term(k)
and then, up to the midpoint, term(n-k+1): the only terms the cell (n, k)
reads that (n, k-1) did not (past the midpoint, term(n-k+1) was read at
step n-k+1).  A caller that prints every cell (the fnomial triangle) asks
for the row in exact decimal arithmetic instead (cobweb.digits.EXACT): the
same steps on Decimal integers, whose str() is linear where converting an
int is quadratic.  Scans that print nothing (admissibility) keep ints,
which are faster there.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

from .digits import EXACT, parse_decimal, to_decimal
from .errors import DescriptorError, SequenceRangeError, ZeroTermError

__all__ = [
    "MAX_DESCRIPTOR_DEPTH",
    "FSeq",
    "FNomial",
    "natural",
    "fibonacci",
    "constant",
    "nondiminishing",
    "periodic",
    "geometric",
    "rec2",
    "explicit",
    "shifted",
    "product",
    "prefix",
    "f_factorial",
    "falling",
    "fnomial",
    "fnomial_row",
    "is_admissible_prefix",
    "check_identity_1",
    "check_identity_2",
    "from_descriptor",
    "to_descriptor",
    "from_json",
    "to_json",
]

MAX_DESCRIPTOR_DEPTH = 256
# Int parameters below this bound (at most 640 digits, the least int/str
# limit CPython accepts) stay JSON numbers, which any Python json reader
# parses; larger ones are written as decimal strings, as terms are.
_JSON_INT_BOUND = 10**640
_TOO_DEEP = f"descriptor nests deeper than {MAX_DESCRIPTOR_DEPTH} levels"

# Parameter types other than an int minimum.
_SEQ = "sequence"
_TERMS = "terms"


@dataclass(frozen=True)
class Kind:
    """One sequence family: parameter fields, term rule and label format.

    fields maps each parameter, in constructor order, to its type: an int
    (the least value it accepts), _SEQ for a sub-sequence or _TERMS for a
    term list.  rule(params, n, memo) gives the term at index n >= 1; a
    recurrence reads its predecessors from memo, which FSeq.term fills
    upward before asking for n.  label formats the parameters, with a
    sub-sequence as its label and a term list as its length past index 0.
    """

    fields: dict
    rule: Callable[[dict, int, dict], int]
    label: str
    recurrence: bool = False


def _rec2_rule(p: dict, n: int, memo: dict) -> int:
    # two-term recurrence t(n) = f2 * t(n-1) + t(n-2)
    if n <= 2:
        return p["f1"] if n == 1 else p["f2"]
    return p["f2"] * memo[n - 1] + memo[n - 2]


_FIBONACCI = {"f1": 1, "f2": 1}


def _explicit_rule(p: dict, n: int, memo: dict) -> int:
    terms = p["terms"]
    if n >= len(terms):
        raise SequenceRangeError(
            f"explicit sequence has {len(terms) - 1} terms past index 0; "
            f"index {n} is out of range"
        )
    return terms[n]


KINDS: dict[str, Kind] = {
    "natural": Kind({}, lambda p, n, memo: n, "natural"),
    "fibonacci": Kind(
        {},
        lambda p, n, memo: _rec2_rule(_FIBONACCI, n, memo),
        "fibonacci",
        recurrence=True,
    ),
    "constant": Kind({"t": 1}, lambda p, n, memo: p["t"], "constant({t})"),
    "nondiminishing": Kind(
        {"c": 1, "M": 1},
        lambda p, n, memo: p["c"] if n >= p["M"] else 1,
        "nondiminishing(c={c}, M={M})",
    ),
    "periodic": Kind(
        {"c": 1, "M": 1},
        lambda p, n, memo: p["c"] if n % p["M"] == 0 else 1,
        "periodic(c={c}, M={M})",
    ),
    "geometric": Kind(
        {"alpha": 1, "c": 1},
        lambda p, n, memo: p["alpha"] ** (n - 1) * p["c"] ** n,
        "geometric(alpha={alpha}, c={c})",
    ),
    "rec2": Kind({"f1": 1, "f2": 1}, _rec2_rule, "rec2({f1}, {f2})", recurrence=True),
    "shift": Kind(
        {"inner": _SEQ, "s": 0},
        lambda p, n, memo: 1 if n <= p["s"] else p["inner"].term(n - p["s"]),
        "shift({inner}, s={s})",
    ),
    "product": Kind(
        {"left": _SEQ, "right": _SEQ},
        lambda p, n, memo: p["left"].term(n) * p["right"].term(n),
        "product({left}, {right})",
    ),
    "explicit": Kind({"terms": _TERMS}, _explicit_rule, "explicit[{terms} terms]"),
}


class FSeq:
    """Nonnegative integer sequence with memoized terms; term(0) == 1.

    Instances are immutable apart from the memo, whose entries are pure and
    write-once: concurrent readers observe either a missing entry or the
    final value, so repeated queries agree regardless of schedule.
    """

    __slots__ = ("kind", "params", "_depth", "_memo")

    def __init__(self, kind: str, params: dict, depth: int):
        self.kind = kind
        self.params = params
        self._depth = depth
        self._memo: dict[int, int] = {0: 1}

    def term(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"term index must be nonnegative, got {n}")
        memo = self._memo
        got = memo.get(n)
        if got is None:
            kind = KINDS[self.kind]
            if kind.recurrence:
                start = n
                while start - 1 not in memo:
                    start -= 1
                for j in range(start, n):
                    memo[j] = kind.rule(self.params, j, memo)
            got = memo[n] = kind.rule(self.params, n, memo)
        return got

    def __repr__(self) -> str:
        return f"FSeq({self.label()})"

    def label(self) -> str:
        """Short human-readable tag used in diagnostics."""
        kind = KINDS[self.kind]
        values = {}
        for name, value in self.params.items():
            spec = kind.fields[name]
            if spec == _SEQ:
                value = value.label()
            elif spec == _TERMS:
                value = len(value) - 1
            else:
                value = to_decimal(value)
            values[name] = value
        return kind.label.format(**values)


# ---------------------------------------------------------------------------
# constructors

def _decimal(value, what: str):
    """value, with a decimal string parsed to an int."""
    if not isinstance(value, str):
        return value
    try:
        return parse_decimal(value)
    except ValueError:
        raise DescriptorError(f"{what} is not an integer: {value!r}") from None


def _check_int(value: int, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DescriptorError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DescriptorError(f"{name} must be >= {minimum}, got {to_decimal(value)}")
    return value


def _parse_terms(terms) -> tuple[int, ...]:
    parsed = []
    for i, value in enumerate(terms):
        value = _decimal(value, f"explicit term {i}")
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise DescriptorError(f"explicit term {i} must be a nonnegative integer")
        parsed.append(value)
    if not parsed or parsed[0] != 1:
        raise DescriptorError("explicit term list must start with 1 at index 0")
    return tuple(parsed)


def _make(kind: str, **params) -> FSeq:
    """Sequence of a kind, its parameters checked and its depth bounded."""
    depth = 1
    for name, spec in KINDS[kind].fields.items():
        value = params[name]
        if spec == _SEQ:
            if not isinstance(value, FSeq):
                raise DescriptorError(f"{kind} needs a sequence for {name!r}")
            depth = max(depth, value._depth + 1)
        elif spec == _TERMS:
            params[name] = _parse_terms(value)
        else:
            params[name] = _check_int(value, name, spec)
    if depth > MAX_DESCRIPTOR_DEPTH:
        raise DescriptorError(_TOO_DEEP)
    return FSeq(kind, params, depth)


def natural() -> FSeq:
    """The sequence whose n-th term is n."""
    return _make("natural")


def fibonacci() -> FSeq:
    """Terms 1, 1, 2, 3, 5, ... from index 1."""
    return _make("fibonacci")


def constant(t: int) -> FSeq:
    """Every term from index 1 on equals t."""
    return _make("constant", t=t)


def nondiminishing(c: int, M: int) -> FSeq:
    """Terms are 1 before index M and c from index M on."""
    return _make("nondiminishing", c=c, M=M)


def periodic(c: int, M: int) -> FSeq:
    """Term is c at indices divisible by M, else 1."""
    return _make("periodic", c=c, M=M)


def geometric(alpha: int, c: int) -> FSeq:
    """Term alpha**(n-1) * c**n."""
    return _make("geometric", alpha=alpha, c=c)


def rec2(f1: int, f2: int) -> FSeq:
    """Two-term recurrence t(n) = t(2) * t(n-1) + t(n-2) seeded with f1, f2."""
    return _make("rec2", f1=f1, f2=f2)


def explicit(terms) -> FSeq:
    """Finite term list indexed from 0; access past the end is an error."""
    return _make("explicit", terms=terms)


def shifted(inner: FSeq, s: int) -> FSeq:
    """Prepend s ones: term(n) = 1 for n <= s, inner term(n - s) past that."""
    return _make("shift", inner=inner, s=s)


def product(left: FSeq, right: FSeq) -> FSeq:
    """Pointwise product of two sequences."""
    return _make("product", left=left, right=right)


# ---------------------------------------------------------------------------
# descriptor serialization

def to_descriptor(seq: FSeq) -> dict:
    """Plain-data descriptor; term values and int parameters of more than
    640 digits are decimal strings."""
    out = {"kind": seq.kind}
    for name, spec in KINDS[seq.kind].fields.items():
        value = seq.params[name]
        if spec == _SEQ:
            value = to_descriptor(value)
        elif spec == _TERMS:
            value = [to_decimal(t) for t in value]
        elif abs(value) >= _JSON_INT_BOUND:
            value = to_decimal(value)
        out[name] = value
    return out


def from_descriptor(d: dict) -> FSeq:
    """Build a sequence from a plain-data descriptor, validating parameters
    and a nesting depth of at most MAX_DESCRIPTOR_DEPTH."""
    return _from_descriptor(d, 1)


def _from_descriptor(d: dict, depth: int) -> FSeq:
    # checked before any sequence is built: this recursion walks outside input
    if depth > MAX_DESCRIPTOR_DEPTH:
        raise DescriptorError(_TOO_DEEP)
    if not isinstance(d, dict):
        raise DescriptorError(f"descriptor must be an object, got {type(d).__name__}")
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise DescriptorError(f"unknown sequence kind {kind!r}")
    params = {}
    for name, spec in KINDS[kind].fields.items():
        if name not in d:
            raise DescriptorError(f"{kind} descriptor needs field {name!r}")
        value = d[name]
        if spec == _SEQ:
            value = _from_descriptor(value, depth + 1)
        elif spec == _TERMS:
            if not isinstance(value, (list, tuple)):
                raise DescriptorError(f"{kind} descriptor needs a {name!r} array")
        else:
            value = _decimal(value, f"field {name!r}")
        params[name] = value
    return _make(kind, **params)


def to_json(seq: FSeq) -> str:
    return json.dumps(to_descriptor(seq), sort_keys=True)


def from_json(text: str) -> FSeq:
    try:
        data = json.loads(text, parse_int=parse_decimal)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"descriptor is not valid JSON: {exc}") from exc
    except RecursionError:
        # the JSON parser's own nesting limit, well past MAX_DESCRIPTOR_DEPTH
        raise DescriptorError(_TOO_DEEP) from None
    return from_descriptor(data)


# ---------------------------------------------------------------------------
# term arithmetic

def prefix(seq: FSeq, count: int) -> list[int]:
    """Terms 1..count as a list."""
    return [seq.term(n) for n in range(1, count + 1)]


def f_factorial(seq: FSeq, n: int) -> int:
    """Product of terms 1..n (distinct from the ordinary factorial of term n)."""
    if n < 0:
        raise ValueError(f"factorial index must be nonnegative, got {n}")
    out = 1
    for j in range(1, n + 1):
        out *= seq.term(j)
    return out


def falling(seq: FSeq, n: int, k: int) -> int:
    """Product of the k terms ending at index n: term(n-k+1) * ... * term(n)."""
    if k < 0 or k > n:
        raise ValueError(f"falling product needs 0 <= k <= n, got n={n}, k={k}")
    out = 1
    for j in range(n - k + 1, n + 1):
        out *= seq.term(j)
    return out


@dataclass(frozen=True)
class FNomial:
    """Generalized binomial: raw falling product over raw factorial."""

    numerator: int
    denominator: int
    value: Fraction
    is_integer: bool


def fnomial(seq: FSeq, n: int, k: int) -> FNomial:
    """Exact generalized binomial falling(n, k) / f_factorial(k).

    A zero term inside the denominator range is an error; a zero inside the
    numerator only makes the value 0.
    """
    if k < 0 or k > n:
        raise ValueError(f"fnomial needs 0 <= k <= n, got n={n}, k={k}")
    den = 1
    for j in range(1, k + 1):
        den *= _denominator_term(seq, j)
    num = falling(seq, n, k)
    value = Fraction(num, den)
    return FNomial(num, den, value, num % den == 0)


def _denominator_term(seq: FSeq, j: int) -> int:
    t = seq.term(j)
    if t == 0:
        raise _zero_denominator(seq, j)
    return t


def _zero_denominator(seq: FSeq, j: int) -> ZeroTermError:
    return ZeroTermError(f"term {j} of {seq.label()} is zero; denominator undefined")


def fnomial_row(
    seq: FSeq, n: int, decimal: bool = False
) -> Iterator[Union[int, Decimal, Fraction]]:
    """Lazily yield fnomial(seq, n, k).value for k = 0..n, as an int when
    the cell is integral and as a Fraction otherwise; with decimal=True an
    integral cell is an integral Decimal instead, for callers that print it.

    Uses {n, k} = {n, k-1} * term(n-k+1) / term(k) for k <= n/2, and yields
    the stored cell n - k, the same object, for each k past the midpoint,
    after checking that term(k), the term cell n - k + 1 read, is nonzero.  Errors surface at
    the same k, with the same exception, as the per-cell fnomial.
    """
    if n < 0:
        raise ValueError(f"fnomial row needs n >= 0, got {n}")
    # The steps use EXACT's methods, which take int terms exactly, and never
    # the caller's context, which a suspended row must not change.
    num, mul, split = (
        (Decimal, EXACT.multiply, EXACT.divmod) if decimal else (int, operator.mul, divmod)
    )
    term = seq.term
    value = num(1)
    row = [value]
    tops = [1]  # tops[j] = term(n - j + 1), read at cell j of the first half
    yield value
    for k in range(1, n + 1):
        j = n - k + 1
        den = tops[j] if j < len(tops) else term(k)  # past the midpoint, cell j read it
        if not den:
            raise _zero_denominator(seq, k)
        if 2 * k > n:
            # term(1..k) are nonzero, so the terms n-k+1..k cancel and
            # {n, k} = {n, n-k}, the same rational and so the same type.
            yield row[n - k]
            continue
        top = term(j)
        tops.append(top)
        if type(value) is Fraction:
            value *= Fraction(top, den)
            if value.denominator == 1:
                value = num(value.numerator)
        else:
            # Decimal's divmod truncates where int's floors; they agree here,
            # since terms, and so the running value, are nonnegative.
            whole = mul(value, top)
            value, rest = split(whole, den)
            if rest:
                value = Fraction(int(whole), den)
        row.append(value)
        yield value


def is_admissible_prefix(seq: FSeq, N: int) -> Optional[tuple[int, int]]:
    """First (n, k) with a non-integral fnomial for 0 <= k <= n <= N, else None.

    Pairs are scanned in lexicographic order, so the reported witness is the
    least failure.
    """
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    # fnomial_row's int steps, which stop at the first remainder: row n
    # reads term(n) first and divides by it only at its last cell
    terms = [1]
    for n in range(1, N + 1):
        terms.append(seq.term(n))
        value = 1
        for k in range(1, n // 2 + 1):
            value, rest = divmod(value * terms[n - k + 1], terms[k])
            if rest:
                return (n, k)
        if not terms[n]:
            raise _zero_denominator(seq, n)
    return None


def _first_violation(seq: FSeq, N: int, least: int, holds) -> Optional[tuple[int, int]]:
    """First (m, k) with m >= 2, k >= 1, m + k <= N, in lexicographic order,
    at which holds(t, m, k) is false, t reading terms, else None; N must be at
    least `least`."""
    if N < least:
        raise ValueError(f"N must be at least {least}, got {N}")
    t = seq.term
    for m in range(2, N):
        for k in range(1, N - m + 1):
            if not holds(t, m, k):
                return (m, k)
        if m == 2:  # row 2 has read every term up to N, in the identity's order
            t = [seq.term(j) for j in range(N + 1)].__getitem__
    return None


def check_identity_1(seq: FSeq, N: int) -> Optional[tuple[int, int]]:
    """First (m, k) with term(m + k) != term(m) + term(k), else None.

    Scans m >= 2, k >= 1, m + k <= N in lexicographic order.  By symmetry of
    the right-hand side this covers every unordered instance except (1, 1),
    whose value is pinned by the side condition term(1) = 1 rather than by
    the identity.
    """
    return _first_violation(seq, N, 2, lambda t, m, k: t(m + k) == t(m) + t(k))


def check_identity_2(seq: FSeq, N: int) -> Optional[tuple[int, int]]:
    """First (m, k) violating the convolution identity, else None.

    Checks term(m + k) == term(k + 1) * term(m) + term(m - 1) * term(k) for
    m > 1, k >= 1, m + k <= N, in lexicographic order.
    """
    return _first_violation(
        seq, N, 3, lambda t, m, k: t(m + k) == t(k + 1) * t(m) + t(m - 1) * t(k)
    )
