"""Command-line surface: sequence inspection, admissibility reports, tiling
construction and enumeration, triangle emission, and divisor-quotient
factorization, with JSON/text/CSV/DOT output.

Exit codes: 0 success, 1 semantic negative (witness found, verification
failed, empty enumeration, reconstruction mismatch), 2 usage or descriptor
error, 3 cap exceeded.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from contextlib import nullcontext
from decimal import Decimal
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import fseq, seqalg
from .digits import EXACT, parse_decimal, to_decimal
from .errors import (
    CAP_DEFAULTS,
    CapExceeded,
    Caps,
    CobwebError,
    DescriptorError,
    IdentityError,
    SequenceRangeError,
    TilingError,
)
from .fseq import FSeq
from .poset import Tiling, build_layer, tiling_to_dict, to_dot
from .tiling import (
    TRIANGLE_KINDS,
    detect_variant,
    enumerate_tilings,
    tile_additive,
    tile_fibonacci,
    triangle,
    verify_tiling,
    verify_tilings,
)

__all__ = ["main", "entry", "load_sequence", "run_reported"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def load_sequence(spec: str) -> FSeq:
    """Sequence from a bare kind name, inline JSON descriptor, or file path."""
    text = spec.strip()
    if text.startswith("{"):
        return fseq.from_json(text)
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as handle:
            return fseq.from_json(handle.read())
    return fseq.from_descriptor({"kind": text})


def _integer(text: str) -> int:
    """A flag's or a cap variable's text as an int of any size: the type of
    every integer flag, named int so that argparse's refusal still reads
    "invalid int value"."""
    return parse_decimal(text)


_integer.__name__ = "int"


def _resolve_cap(flag: Optional[str], name: str) -> Optional[int]:
    """--cap-<name>'s text, else COBWEB_CAP_<NAME>'s, as an int of any size; None if unset."""
    env = f"COBWEB_CAP_{name.upper()}"
    source, text = (f"--cap-{name}", flag) if flag is not None else (env, os.environ.get(env))
    if text is None:
        return None
    try:
        value = _integer(text)
    except ValueError as exc:
        raise ValueError(f"{source} must be an integer, got {text!r}") from exc
    if value < 1:
        raise ValueError(f"cap-{name} must be >= 1, got {to_decimal(value)}")
    return value


def _emit(chunks: Iterable[str], output: Optional[str]) -> None:
    """Write the chunks in turn to --output, opened once, or to stdout,
    through .write alone (a stdout may have nothing else)."""
    with open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout) as handle:
        write = handle.write
        for chunk in chunks:
            write(chunk)


def _emit_json(
    obj, output: Optional[str], key: Optional[str] = None, items: Iterable[str] = ()
) -> None:
    """Write json.dumps(obj, sort_keys=True, indent=2) and a newline, with
    the rendered items, if obj has key, as the array under key in place of
    the empty list there, whose '"key": []' must be the first of the dump.
    json.dumps encodes indent in pure Python before 3.13, so the long arrays
    (a triangle's cells, terms, a tiling's blocks, a list of tilings) are
    rendered by the callers and _json_items, byte for byte alike, and written
    an item at a time: no text of the whole array or document is built."""
    chunks = (json.dumps(obj, sort_keys=True, indent=2) + "\n",)
    if key in obj:
        head, _, tail = chunks[0].partition(f'"{key}": []')
        chunks = itertools.chain((head + f'"{key}": ',), _json_items(items), (tail,))
    _emit(chunks, output)


def _json_array(items: list, depth: int) -> str:
    """Rendered items as json.dumps(..., indent=2) writes an array depth levels deep."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _json_items(items: Iterable[str]) -> Iterator[str]:
    """_json_array(list(items), 1) in chunks: one per item, then the
    closing bracket."""
    lead, close = "[\n    ", "[]"
    for item in items:
        yield lead + item
        lead, close = ",\n    ", "\n  ]"
    yield close


def _block_renderer(depth: int):
    """Function writing one block depth levels deep; each distinct level
    subset is rendered once, whatever its level."""
    inner = "\n" + "  " * (depth + 1)
    head, sep, tail = "[" + inner + "  ", "," + inner + "  ", inner + "]"

    @functools.cache
    def subset(s: tuple) -> str:
        return head + sep.join(map(str, s)) + tail if s else "[]"

    return lambda block: _json_array(list(map(subset, block)), depth)


def _report(ns: argparse.Namespace, obj: dict, text: str) -> None:
    """obj under --format json, else text; for short reports only, since
    both renderings are built."""
    if ns.format == "json":
        _emit_json(obj, ns.output)
    else:
        _emit((text,), ns.output)


# ---------------------------------------------------------------------------
# commands

def _cmd_seq(ns: argparse.Namespace, seq: FSeq) -> int:
    count = ns.count
    if count < 0:
        raise ValueError(f"--count must be >= 0, got {to_decimal(count)}")
    if ns.fnomials:
        table = triangle(seq, "fnomial", max(count, 1), include_zero=True)
        if ns.format == "json":
            _emit_triangle_json(seq, table, ns.output)
        else:
            _emit((table.to_text(),), ns.output)
        return EXIT_OK
    # Decimal integers print in linear time (cobweb.digits)
    values = map(Decimal, fseq.prefix(seq, count))
    key = "terms"
    if ns.factorials:
        # f_factorial(seq, i) for i = 1..count, as one running product
        values = itertools.accumulate(values, EXACT.multiply)
        key = "factorials"
    # every value before the first byte; only their texts are made as written
    texts = map(str, list(values))
    if ns.format == "json":
        obj = {"seq": fseq.to_descriptor(seq), key: []}
        _emit_json(obj, ns.output, key, (f'"{text}"' for text in texts))
    else:
        # " ".join(texts) + "\n", a term at a time
        first = itertools.islice(texts, 1)
        _emit(itertools.chain(first, (" " + text for text in texts), ("\n",)), ns.output)
    return EXIT_OK


def _cmd_admissible(ns: argparse.Namespace, seq: FSeq) -> int:
    count = ns.count
    if count < 0:
        raise ValueError(f"--count must be >= 0, got {to_decimal(count)}")
    witness = fseq.is_admissible_prefix(seq, count)
    if witness is None:
        _report(
            ns,
            {"admissible": True, "n": count, "seq": fseq.to_descriptor(seq)},
            f"admissible up to {count}\n",
        )
        return EXIT_OK
    wn, wk = witness
    value = to_decimal(fseq.fnomial(seq, wn, wk).value)
    _report(
        ns,
        {
            "admissible": False,
            "seq": fseq.to_descriptor(seq),
            "witness": {"n": wn, "k": wk, "value": value},
        },
        f"witness (n, k) = ({wn}, {wk}) value {value}\n",
    )
    return EXIT_NEGATIVE


def _render_tiling_text(tiling) -> Iterator[str]:
    """The text rendering of a tiling, a line at a time."""
    yield (
        f"layer k={tiling.layer.k} n={tiling.layer.n} "
        f"sizes={','.join(str(s) for s in tiling.layer.sizes)}\n"
    )
    for i, block in enumerate(tiling.blocks):
        parts = " | ".join(",".join(str(s) for s in subset) for subset in block)
        yield f"block {i}: {parts}\n"


def _cmd_tile(ns: argparse.Namespace, seq: FSeq) -> int:
    k, n = ns.k, ns.n
    if ns.policy == "seeded-random" and ns.seed is None:
        # an OS-seeded generator would give a different tiling on every run
        raise ValueError("the seeded-random policy needs a seed")
    seed = ns.seed if ns.policy == "seeded-random" else None
    variant = ns.variant
    if variant == "auto":
        variant, w1, w2 = detect_variant(seq, k, n)
        if variant is None:
            _report(
                ns,
                {
                    "error": "no identity-1/2 structure; use enumerate",
                    "witness_additive": list(w1),
                    "witness_fibonacci": list(w2),
                },
                "no identity-1/2 structure; use enumerate "
                f"(witnesses {tuple(w1)} and {tuple(w2)})\n",
            )
            return EXIT_NEGATIVE
    tile = tile_additive if variant == "additive" else tile_fibonacci
    try:
        result = tile(seq, k, n, seed, caps=ns.caps)
    except IdentityError as exc:
        obj = {"error": str(exc), "identity": exc.which, "witness": list(exc.witness)}
        _report(ns, obj, str(exc) + "\n")
        return EXIT_NEGATIVE
    violation = verify_tiling(result)
    if violation is not None:
        clause, detail = violation.clause, violation.detail
        obj = {"error": "verification failed", "clause": clause, "detail": detail}
        _report(ns, obj, f"verification failed: {clause}: {detail}\n")
        return EXIT_NEGATIVE
    if ns.format == "dot":
        _emit((to_dot(result.layer, result),), ns.output)
    elif ns.format == "text":
        _emit(_render_tiling_text(result), ns.output)
    else:
        # "blocks" sorts before "layer", the only other nested value, so the
        # first '"blocks": []' is the placeholder
        obj = tiling_to_dict(Tiling(result.layer, ()))
        obj["variant"] = variant
        obj["block_count"] = str(len(result.blocks))
        obj["verified"] = True
        _emit_json(obj, ns.output, "blocks", map(_block_renderer(2), result.blocks))
    return EXIT_OK


def _cmd_enumerate(ns: argparse.Namespace, seq: FSeq) -> int:
    layer = build_layer(seq, ns.k, ns.n)
    # only the JSON report lists tilings; min keeps a negative limit an error
    limit = ns.limit if ns.format == "json" or not ns.limit else min(ns.limit, 0)
    # the search is sequential; --workers is only validated
    if ns.workers < 1:
        raise ValueError(f"workers must be positive, got {to_decimal(ns.workers)}")
    try:
        result = enumerate_tilings(layer, limit, caps=ns.caps)
    except CapExceeded as exc:
        partial = None if exc.partial_count is None else to_decimal(exc.partial_count)
        obj = {"complete": False, "count": partial, "error": str(exc)}
        _report(ns, obj, f"incomplete: {exc}\n")
        return EXIT_CAP
    count = to_decimal(result.count)
    obj = {"count": count, "complete": True, "truncated": result.truncated}
    if result.tilings is not None:
        for violation in verify_tilings(result.tilings):
            if violation is not None:
                raise TilingError(f"enumerated tiling failed verification: {violation.detail}")
        obj["layer"] = {
            "k": layer.k,
            "n": layer.n,
            "sizes": [str(s) for s in layer.sizes],
        }
        obj["tilings"] = []
    if ns.format == "json":
        # obj's other values are numbers, booleans, decimal strings and
        # nonempty lists, so the placeholder occurs once; each distinct
        # placement is rendered once, and each tiling is one chunk
        render = functools.cache(_block_renderer(3))
        arrays = (_json_array(list(map(render, t.blocks)), 2) for t in result.tilings or ())
        _emit_json(obj, ns.output, "tilings", arrays)
    else:
        _emit((f"count {count}\n",), ns.output)
    return EXIT_OK if result.count > 0 else EXIT_NEGATIVE


def _emit_triangle_json(seq: FSeq, table, output: Optional[str]) -> None:
    notes = [
        {"n": n, "k": k, "note": text} for (n, k), text in sorted(table.notes.items())
    ]
    obj = {
        "kind": table.kind,
        "rows": table.rows,
        "seq": fseq.to_descriptor(seq),
        "cells": [],
        "notes": notes,
    }
    # "cells" sorts first, so its '"cells": []' is the placeholder; a cell
    # text is digits only and needs no escaping
    start = table.start

    def cells():
        for n, texts, noted in table.row_texts():
            pairs = zip(range(start, n + 1), texts)
            if noted:  # a note's text, led by "!", is not a cell
                pairs = [(k, text) for k, text in pairs if text[0] != "!"]
            item = '{\n      "k": %d,\n      "n": ' + str(n) + ',\n      "value": "%s"\n    }'
            yield from map(item.__mod__, pairs)

    _emit_json(obj, output, "cells", cells())


def _cmd_triangle(ns: argparse.Namespace, seq: FSeq) -> int:
    table = triangle(
        seq, ns.kind, ns.rows, mode=ns.mode, include_zero=ns.include_zero
    )
    if ns.format == "csv":
        _emit(table.csv_rows(), ns.output)
    elif ns.format == "text":
        _emit((table.to_text(),), ns.output)
    else:
        _emit_triangle_json(seq, table, ns.output)
    return EXIT_NEGATIVE if table.notes else EXIT_OK


def _cmd_cta3(ns: argparse.Namespace, seq: FSeq) -> int:
    count = ns.count
    if count < 1:
        raise ValueError(f"--count must be >= 1, got {to_decimal(count)}")
    depth = count if ns.reconstruct is None else ns.reconstruct
    if not 1 <= depth <= count:
        raise ValueError(
            f"--reconstruct must lie in 1..{to_decimal(count)}, got {to_decimal(depth)}"
        )
    result = seqalg.h_general(seq, count)
    if isinstance(result, seqalg.DivisibilityWitness):
        term, lcm = to_decimal(result.term), to_decimal(result.lcm)
        _report(
            ns,
            {"witness": {"n": result.n, "term": term, "lcm": lcm}},
            f"divisibility fails at n = {result.n}: "
            f"term {term} not divisible by lcm {lcm}\n",
        )
        return EXIT_NEGATIVE
    mismatch = None
    for i, got in enumerate(seqalg.reconstruct_prefix(result, depth), 1):
        expected = seq.term(i)
        if expected != got:
            mismatch = {"n": i, "expected": to_decimal(expected), "got": to_decimal(got)}
            break
    obj = result.to_dict()
    obj["reconstruction"] = (
        {"ok": True, "depth": depth} if mismatch is None
        else {"ok": False, "depth": depth, "mismatch": mismatch}
    )
    if ns.format == "json":
        _emit_json(obj, ns.output)
    else:
        lines = [",".join(obj["h"]) + "\n"]
        if mismatch is not None:
            lines.append(
                f"reconstruction mismatch at n = {mismatch['n']}: "
                f"expected {mismatch['expected']}, got {mismatch['got']}\n"
            )
        _emit(lines, ns.output)
    return EXIT_OK if mismatch is None else EXIT_NEGATIVE


_HANDLERS = {
    "seq": _cmd_seq,
    "admissible": _cmd_admissible,
    "tile": _cmd_tile,
    "enumerate": _cmd_enumerate,
    "triangle": _cmd_triangle,
    "cta3": _cmd_cta3,
}


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobweb",
        description="Exact cobweb-layer experiments: sequences, tilings, triangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, formats, default):
        sp.add_argument(
            "--seq",
            required=True,
            help="bare kind name, inline JSON descriptor, or descriptor file path",
        )
        sp.add_argument("--format", choices=formats, default=default)
        sp.add_argument("--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("seq", help="print terms, factorials, or the fnomial table")
    common(p, ("json", "text"), "json")
    p.add_argument("--count", type=_integer, required=True, help="terms 1..N")
    p.add_argument("--factorials", action="store_true", help="sequence factorials instead of terms")
    p.add_argument("--fnomials", action="store_true", help="fnomial triangle with this many rows")

    p = sub.add_parser("admissible", help="integrality check of all fnomials up to N")
    common(p, ("json", "text"), "json")
    p.add_argument("--count", type=_integer, required=True, help="prefix length N")

    p = sub.add_parser("tile", help="construct and verify one tiling of a layer")
    common(p, ("json", "text", "dot"), "json")
    p.add_argument("--k", type=_integer, required=True, help="bottom level of the layer")
    p.add_argument("--n", type=_integer, required=True, help="top level of the layer")
    p.add_argument(
        "--variant", choices=("auto", "additive", "fibonacci"), default="auto"
    )
    p.add_argument(
        "--policy", choices=("first-slots", "seeded-random"), default="first-slots"
    )
    p.add_argument("--seed", type=_integer, default=None)
    p.add_argument("--cap-chains", default=None)

    p = sub.add_parser("enumerate", help="exhaustively count (and list) tilings")
    common(p, ("json", "text"), "json")
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--limit", type=_integer, default=None, help="also list up to this many tilings")
    p.add_argument("--workers", type=_integer, default=1, help="results do not depend on it")
    for name in CAP_DEFAULTS:
        p.add_argument(f"--cap-{name}", default=None)

    p = sub.add_parser("triangle", help="emit a counting triangle")
    common(p, ("csv", "text", "json"), "csv")
    p.add_argument("--kind", choices=TRIANGLE_KINDS, default="fnomial")
    p.add_argument("--rows", type=_integer, required=True)
    p.add_argument("--mode", choices=("paper", "derived"), default="derived")
    p.add_argument("--include-zero", action="store_true", help="include the k = 0 column")

    p = sub.add_parser("cta3", help="divisor-quotient factorization of a sequence")
    common(p, ("json", "text"), "json")
    p.add_argument("--count", type=_integer, required=True, help="emit h(1..N)")
    p.add_argument(
        "--reconstruct",
        type=_integer,
        default=None,
        help="check reconstruction on this prefix (default: all N terms)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    return run_reported(functools.partial(_run, ns))


def _run(ns: argparse.Namespace) -> int:
    # a subcommand reads only the caps it has flags for
    given = {name: _resolve_cap(getattr(ns, f"cap_{name}"), name)
             for name in CAP_DEFAULTS if hasattr(ns, f"cap_{name}")}
    ns.caps = Caps(**{name: value for name, value in given.items() if value is not None})
    return _HANDLERS[ns.command](ns, load_sequence(ns.seq))


def run_reported(body: Callable[[], Optional[int]]) -> int:
    """Exit code of body(), 0 where it returns None, or of the refusal it
    raises, which prints as "error: <message>" on stderr: 3 for a cap, 2 for
    a usage or descriptor error (an index past an explicit sequence's end
    among them), 1 for any other CobwebError.  The scripts under scripts/
    run their main through it too, so they exit as the CLI does."""
    try:
        code = body()
    except (CobwebError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CapExceeded):
            return EXIT_CAP
        usage = isinstance(exc, (DescriptorError, SequenceRangeError, ValueError, OSError))
        return EXIT_USAGE if usage else EXIT_NEGATIVE
    return EXIT_OK if code is None else code


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
