"""Operation lists of the three benchmark workloads, the known-defect
operations, and the independent references their outputs are checked
against.

An operation is one `cobweb` command line.  Its expectation is either an
exit code plus an output digest recorded in `expected.json` (kind "digest"),
or, when the output depends on the workload seed, an exit code plus a
structural check of the tiling it prints (kind "tiling").
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

WORKLOADS = ("enumerate", "bigint-and-tile")

PRODUCT = json.dumps({
    "kind": "product",
    "left": {"kind": "periodic", "c": 2, "M": 2},
    "right": {"kind": "periodic", "c": 3, "M": 3},
})
LUCAS_LIKE = json.dumps({"kind": "explicit", "terms": ["1", "1", "3", "4", "7", "11"]})
UNTILEABLE = json.dumps({"kind": "explicit", "terms": ["1", "1", "2", "4", "3", "5"]})
REC2_1_3 = json.dumps({"kind": "rec2", "f1": 1, "f2": 3})
WITNESS_132 = json.dumps({"kind": "explicit", "terms": ["1", "3", "2"]})
SHIFT_DEPTH = 1200


@dataclass(frozen=True)
class Op:
    """One CLI invocation and how its outcome is judged."""

    name: str
    argv: tuple[str, ...]
    check: str = "digest"
    exit: int = 0
    # Independent reference applied to the output when it is recorded (for
    # "digest" ops) or in every run (for "tiling" and known-defect ops).
    reference: Optional[Callable[[str], Optional[str]]] = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# independent references (no cobweb code)

def fibonacci_terms(count: int) -> list[int]:
    """F(0..count) with F(0) = 1, the package's index-0 convention."""
    terms = [1, 1]
    a, b = 1, 1
    while len(terms) <= count:
        terms.append(b)
        a, b = b, a + b
    return terms[: count + 1]


def terms_of(kind: str, count: int) -> list[int]:
    if kind == "natural":
        return [1] + list(range(1, count + 1))
    if kind == "fibonacci":
        return fibonacci_terms(count)
    raise ValueError(kind)


def fnomial_row(terms: list[int], n: int) -> list[int]:
    """{n choose k} for k = 0..n by the product formula."""
    row = [1]
    for k in range(1, n + 1):
        num = row[-1] * terms[n - k + 1]
        value, rest = divmod(num, terms[k])
        if rest:
            raise ValueError(f"fnomial({n}, {k}) is not an integer")
        row.append(value)
    return row


def parse_big(text: str) -> int:
    """Decimal string to int without the interpreter's digit limit."""
    value = 0
    for start in range(0, len(text), 1000):
        chunk = text[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def prime_power_base(n: int) -> int:
    """p when n is a power of the prime p, else 1."""
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else 1
    return n


def divisor_quotients(terms: list[int], count: int) -> list[int]:
    out = []
    for n in range(1, count + 1):
        lcm = 1
        for d in range(1, n):
            if n % d == 0:
                lcm = math.lcm(lcm, terms[d])
        out.append(terms[n] // lcm)
    return out


def _csv_cells(text: str) -> dict[tuple[int, int], str]:
    lines = text.splitlines()
    if lines[0] != "n,k,value":
        raise ValueError("CSV header missing")
    cells = {}
    for line in lines[1:]:
        n, k, value = line.split(",")
        cells[(int(n), int(k))] = value
    return cells


def fnomial_csv(kind: str, rows: int):
    def check(out: str) -> Optional[str]:
        cells = _csv_cells(out)
        terms = terms_of(kind, rows)
        for n in range(1, rows + 1):
            row = fnomial_row(terms, n)
            for k in range(1, n + 1):
                if cells.get((n, k)) != str(row[k]):
                    return f"{kind} fnomial({n}, {k}) differs from the product formula"
        if len(cells) != rows * (rows + 1) // 2:
            return "unexpected cell count"
        return None
    return check


def natural_fnomials_json(rows: int):
    def check(out: str) -> Optional[str]:
        cells = json.loads(out)["cells"]
        got = {(c["n"], c["k"]): c["value"] for c in cells}
        want = {(n, k): str(math.comb(n, k)) for n in range(1, rows + 1) for k in range(n + 1)}
        return None if got == want else "natural fnomials differ from math.comb"
    return check


def terms_json(kind: str, count: int):
    def check(out: str) -> Optional[str]:
        got = json.loads(out)["terms"]
        want = [str(t) for t in terms_of(kind, count)[1:]]
        return None if got == want else f"{kind} terms differ from the reference"
    return check


def factorials_json(kind: str, count: int):
    def check(out: str) -> Optional[str]:
        got = json.loads(out)["factorials"]
        if len(got) != count:
            return f"{len(got)} factorials, expected {count}"
        running = 1
        for i, (text, t) in enumerate(zip(got, terms_of(kind, count)[1:]), start=1):
            running *= t
            if parse_big(text) != running:
                return f"{kind} factorial {i} differs from the running product"
        return None
    return check


def admissible_json(expected: bool, witness: Optional[dict] = None):
    def check(out: str) -> Optional[str]:
        obj = json.loads(out)
        if obj["admissible"] is not expected:
            return f"admissible is {obj['admissible']}, expected {expected}"
        if witness is not None and obj.get("witness") != witness:
            return f"witness {obj.get('witness')}, expected {witness}"
        return None
    return check


def cta3_json(kind: str, count: int):
    def check(out: str) -> Optional[str]:
        obj = json.loads(out)
        if kind == "natural":
            want = [prime_power_base(n) for n in range(1, count + 1)]
        else:
            want = divisor_quotients(terms_of(kind, count), count)
        if obj["h"] != [str(h) for h in want]:
            return f"{kind} divisor quotients differ from the reference"
        if obj["reconstruction"] != {"ok": True, "depth": count}:
            return f"reconstruction {obj['reconstruction']}"
        return None
    return check


def enumeration_json(count: int, limit: Optional[int] = None, kind: Optional[str] = None):
    """Anchor count, and when listing, every listed tiling valid and sorted."""
    def check(out: str) -> Optional[str]:
        obj = json.loads(out)
        if obj["count"] != str(count):
            return f"count {obj['count']}, anchor {count}"
        if limit is None:
            return None
        tilings = obj["tilings"]
        if len(tilings) != min(limit, count) or obj["truncated"] != (count > limit):
            return "listing length or truncation flag is wrong"
        if tilings != sorted(tilings) or len({json.dumps(t) for t in tilings}) != len(tilings):
            return "listed tilings are not distinct and sorted"
        layer = obj["layer"]
        sizes = [int(s) for s in layer["sizes"]]
        for blocks in tilings:
            problem = tiling_problem(kind, layer["k"], layer["n"], sizes, blocks, check_count=False)
            if problem:
                return problem
        return None
    return check


def tiling_problem(kind, k, n, sizes, blocks, check_count=True) -> Optional[str]:
    """Why `blocks` is not a tiling of levels k..n, or None.

    The blocks must partition the chain set, each block's level sizes must be
    a permutation of term(1..m), and (for natural and fibonacci) the block
    count must equal the F-nomial {n choose m}.
    """
    m = n - k + 1
    if len(sizes) != m:
        return f"layer has {len(sizes)} levels, expected {m}"
    prime = None if kind is None else sorted(terms_of(kind, m)[1:])
    seen = set()
    for bi, block in enumerate(blocks):
        if len(block) != m:
            return f"block {bi} spans {len(block)} levels"
        for level, subset in enumerate(block):
            if not subset or subset != sorted(set(subset)) or subset[-1] >= sizes[level]:
                return f"block {bi} level {level} is not a sorted slot set"
        if prime is not None and sorted(len(s) for s in block) != prime:
            return f"block {bi} sizes are not a permutation of the prime sizes"
        stack = [()]
        for subset in block:
            stack = [c + (s,) for c in stack for s in subset]
        for chain in stack:
            if chain in seen:
                return f"chain {chain} lies in two blocks"
            seen.add(chain)
    if len(seen) != math.prod(sizes):
        return f"{len(seen)} of {math.prod(sizes)} chains covered"
    if check_count and kind is not None:
        want = fnomial_row(terms_of(kind, n), n)[m]
        if len(blocks) != want:
            return f"{len(blocks)} blocks, F-nomial is {want}"
    return None


def parse_tiling(fmt: str, out: str):
    """(k, n, sizes, blocks) from the json or text rendering of one tiling."""
    if fmt == "json":
        obj = json.loads(out)
        blocks = obj["blocks"]
        if obj["block_count"] != str(len(blocks)) or obj["verified"] is not True:
            raise ValueError("block_count or verified field is wrong")
        k, n = obj["layer"]["k"], obj["layer"]["n"]
        sizes = None
    else:
        head, *lines = out.splitlines()
        fields = dict(part.split("=") for part in head.split()[1:])
        k, n = int(fields["k"]), int(fields["n"])
        sizes = [int(s) for s in fields["sizes"].split(",")]
        blocks = []
        for i, line in enumerate(lines):
            label, body = line.split(": ")
            if label != f"block {i}":
                raise ValueError(f"line {i} is {label!r}")
            blocks.append([[int(s) for s in part.split(",")] for part in body.split(" | ")])
    return k, n, sizes, blocks


def tiling_output(kind: str, fmt: str):
    def check(out: str) -> Optional[str]:
        try:
            k, n, sizes, blocks = parse_tiling(fmt, out)
        except (ValueError, KeyError) as exc:
            return f"unparseable tiling: {exc}"
        want_sizes = terms_of(kind, n)[k:n + 1]
        if sizes is not None and sizes != want_sizes:
            return f"layer sizes {sizes}, expected {want_sizes}"
        return tiling_problem(kind, k, n, want_sizes, blocks)
    return check


def csv_rows(rows: int):
    def check(out: str) -> Optional[str]:
        cells = _csv_cells(out)
        if len(cells) != rows * (rows + 1) // 2 or any(v.startswith("!") for v in cells.values()):
            return "triangle is incomplete or annotated"
        return None
    return check


def json_count(count: int):
    def check(out: str) -> Optional[str]:
        got = json.loads(out)["count"]
        return None if got == str(count) else f"count {got}, expected {count}"
    return check


# ---------------------------------------------------------------------------
# operation lists

def _enum(name, seq, k, n, *extra, exit=0, reference=None):
    argv = ("enumerate", "--seq", seq, "--k", str(k), "--n", str(n)) + extra
    return Op(name, argv, exit=exit, reference=reference)


def _tile(name, seq, k, n, fmt, seed=None, reference=None, exit=0, variant=None):
    argv = ("tile", "--seq", seq, "--k", str(k), "--n", str(n), "--format", fmt)
    if variant:
        argv += ("--variant", variant)
    if seed is not None:
        argv += ("--policy", "seeded-random", "--seed", str(seed))
        return Op(name, argv, check="tiling", reference=tiling_output(seq, fmt))
    return Op(name, argv, exit=exit, reference=reference)


def enumerate_ops(seed: int) -> list[Op]:
    """Every exact-cover search: count-only first, then listing."""
    return [
        _enum("natural-4-5", "natural", 4, 5, reference=enumeration_json(44928)),
        _enum("natural-2-5", "natural", 2, 5),
        _enum("fibonacci-2-5", "fibonacci", 2, 5),
        _enum("product-2-6", PRODUCT, 2, 6, reference=enumeration_json(11131)),
        _enum("lucas-like-2-4", LUCAS_LIKE, 2, 4),
        _enum("untileable-3-5", UNTILEABLE, 3, 5, exit=1, reference=enumeration_json(0)),
        _enum("natural-4-5-w2", "natural", 4, 5, "--workers", "2",
              reference=enumeration_json(44928)),
        _enum("list-natural-4-5", "natural", 4, 5, "--limit", "1000",
              reference=enumeration_json(44928, 1000, "natural")),
        _enum("list-natural-2-5-w2", "natural", 2, 5, "--limit", "400", "--workers", "2",
              reference=enumeration_json(386, 400, "natural")),
        _enum("list-fibonacci-2-5", "fibonacci", 2, 5, "--limit", "100",
              reference=enumeration_json(136, 100, "fibonacci")),
        _enum("list-product-2-6", PRODUCT, 2, 6, "--limit", "100",
              reference=enumeration_json(11131, 100)),
    ]


def bigint_and_tile(seed: int) -> list[Op]:
    """Constructive tiles, then exact arithmetic; no exact cover runs."""
    rng = random.Random(seed)
    fib_seed, nat_seed = rng.randrange(1, 10**9), rng.randrange(1, 10**9)
    return [
        _tile("tile-fibonacci-6-9", "fibonacci", 6, 9, "json",
              reference=tiling_output("fibonacci", "json")),
        _tile("tile-fibonacci-5-8-dot", "fibonacci", 5, 8, "dot"),
        _tile("tile-fibonacci-4-8-random", "fibonacci", 4, 8, "json", seed=fib_seed),
        _tile("tile-fibonacci-2-8-text", "fibonacci", 2, 8, "text",
              reference=tiling_output("fibonacci", "text")),
        _tile("tile-natural-4-8-dot", "natural", 4, 8, "dot"),
        _tile("tile-natural-3-8-random", "natural", 3, 8, "text", seed=nat_seed),
        _tile("tile-natural-2-8", "natural", 2, 8, "json",
              reference=tiling_output("natural", "json")),
        _tile("tile-product-refused", PRODUCT, 2, 6, "json", exit=1, variant="auto"),
        Op("seq-fibonacci-5000", ("seq", "--seq", "fibonacci", "--count", "5000"),
           reference=terms_json("fibonacci", 5000)),
        Op("seq-natural-fnomials-150", ("seq", "--seq", "natural", "--fnomials", "--count", "150"),
           reference=natural_fnomials_json(150)),
        Op("seq-natural-factorials-1500",
           ("seq", "--seq", "natural", "--factorials", "--count", "1500"),
           reference=factorials_json("natural", 1500)),
        Op("admissible-fibonacci-200", ("admissible", "--seq", "fibonacci", "--count", "200"),
           reference=admissible_json(True)),
        Op("admissible-natural-200", ("admissible", "--seq", "natural", "--count", "200"),
           reference=admissible_json(True)),
        Op("admissible-rec2-150", ("admissible", "--seq", REC2_1_3, "--count", "150")),
        Op("admissible-witness", ("admissible", "--seq", WITNESS_132, "--count", "2"), exit=1,
           reference=admissible_json(False, {"n": 2, "k": 1, "value": "2/3"})),
        Op("triangle-fnomial-fibonacci-200", ("triangle", "--seq", "fibonacci", "--rows", "200"),
           reference=fnomial_csv("fibonacci", 200)),
        Op("triangle-fnomial-natural-200", ("triangle", "--seq", "natural", "--rows", "200"),
           reference=fnomial_csv("natural", 200)),
        Op("triangle-fibonacci-paper-10",
           ("triangle", "--seq", "fibonacci", "--kind", "fibonacci", "--mode", "paper",
            "--rows", "10")),
        Op("triangle-additive-natural-15",
           ("triangle", "--seq", "natural", "--kind", "additive", "--rows", "15"),
           reference=csv_rows(15)),
        Op("triangle-equal-blocks-7",
           ("triangle", "--seq", "natural", "--kind", "equal-blocks", "--rows", "7"),
           reference=csv_rows(7)),
        Op("cta3-natural-2000", ("cta3", "--seq", "natural", "--count", "2000"),
           reference=cta3_json("natural", 2000)),
        Op("cta3-fibonacci-300", ("cta3", "--seq", "fibonacci", "--count", "300"),
           reference=cta3_json("fibonacci", 300)),
    ]


def build(workload: str, seed: int) -> list[Op]:
    """The operation list of one workload; the seed feeds only the
    seeded-random tile operations."""
    makers = {"enumerate": enumerate_ops, "bigint-and-tile": bigint_and_tile}
    return makers[workload](seed)


def known_defects() -> list[Op]:
    """Operations whose contract-correct outcome the program misses today.

    Each sits just past a threshold that the timed operations stay below:
    search recursion depth, the node cap under workers, the 4,300-digit
    int/str limit, and descriptor nesting depth.
    """
    deep = '{"kind":"shift","s":1,"inner":' * SHIFT_DEPTH + '{"kind":"natural"}' + "}" * SHIFT_DEPTH
    return [
        _enum("deep-search-fibonacci-10-11", "fibonacci", 10, 11, reference=json_count(1)),
        _enum("node-cap-under-workers", "natural", 3, 4, "--cap-nodes", "200", "--workers", "2",
              exit=3),
        Op("triangle-additive-natural-16",
           ("triangle", "--seq", "natural", "--kind", "additive", "--rows", "16"),
           reference=csv_rows(16)),
        Op("seq-fibonacci-factorials-220",
           ("seq", "--seq", "fibonacci", "--count", "220", "--factorials"),
           reference=factorials_json("fibonacci", 220)),
        Op("cta3-fibonacci-600", ("cta3", "--seq", "fibonacci", "--count", "600"),
           reference=cta3_json("fibonacci", 600)),
        Op(f"shift-depth-{SHIFT_DEPTH}", ("seq", "--seq", deep, "--count", "3"), exit=2),
    ]
