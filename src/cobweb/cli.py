"""Command-line surface: sequence inspection, admissibility reports, tiling
construction and enumeration, triangle emission, and divisor-quotient
factorization, with JSON/text/CSV/DOT output.

Exit codes: 0 success, 1 semantic negative (witness found, verification
failed, empty enumeration, reconstruction mismatch), 2 usage or descriptor
error, 3 cap exceeded.
"""
from __future__ import annotations

import argparse
import itertools
import json
import operator
import os
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import fseq, seqalg
from .errors import (
    CapExceeded,
    CobwebError,
    DescriptorError,
    IdentityError,
    NonIntegralError,
    SequenceRangeError,
    TilingError,
    ZeroTermError,
)
from .fseq import FSeq
from .poset import build_layer, tiling_to_dict, to_dot
from .tiling import (
    TRIANGLE_KINDS,
    TilePolicy,
    detect_variant,
    enumerate_tilings,
    tile_additive,
    tile_fibonacci,
    triangle,
    verify_tiling,
)

__all__ = ["RunConfig", "main", "entry", "load_sequence"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAP = 3

_CAP_ENV = {
    "chains": "COBWEB_CAP_CHAINS",
    "placements": "COBWEB_CAP_PLACEMENTS",
    "nodes": "COBWEB_CAP_NODES",
}


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation: a command, its sequence, parameters, caps,
    and output routing."""

    command: str
    seq_spec: str
    fmt: str
    output: Optional[str] = None
    params: dict = field(default_factory=dict)
    caps: dict = field(default_factory=dict)


def load_sequence(spec: str) -> FSeq:
    """Sequence from a bare kind name, inline JSON descriptor, or file path."""
    text = spec.strip()
    if text.startswith("{"):
        return fseq.from_json(text)
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as handle:
            return fseq.from_json(handle.read())
    return fseq.from_descriptor({"kind": text})


def _resolve_cap(flag_value: Optional[int], name: str) -> Optional[int]:
    value = flag_value
    if value is None:
        raw = os.environ.get(_CAP_ENV[name])
        if raw is None:
            return None
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"{_CAP_ENV[name]} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"cap-{name} must be >= 1, got {value}")
    return value


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, output: Optional[str]) -> None:
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", output)


# ---------------------------------------------------------------------------
# commands

def _cmd_seq(cfg: RunConfig, seq: FSeq) -> int:
    count = cfg.params["count"]
    if count < 0:
        raise ValueError(f"--count must be >= 0, got {count}")
    if cfg.params["fnomials"]:
        table = triangle(seq, "fnomial", max(count, 1), include_zero=True)
        if cfg.fmt == "json":
            _emit_json(_triangle_obj(seq, table), cfg.output)
        else:
            _emit(table.to_text(), cfg.output)
        return EXIT_OK
    if cfg.params["factorials"]:
        # f_factorial(seq, i) for i = 1..count, as one running product
        values = list(itertools.accumulate(fseq.prefix(seq, count), operator.mul))
        key = "factorials"
    else:
        values = fseq.prefix(seq, count)
        key = "terms"
    if cfg.fmt == "json":
        _emit_json(
            {"seq": fseq.to_descriptor(seq), key: [str(v) for v in values]},
            cfg.output,
        )
    else:
        _emit(" ".join(str(v) for v in values) + "\n", cfg.output)
    return EXIT_OK


def _cmd_admissible(cfg: RunConfig, seq: FSeq) -> int:
    count = cfg.params["count"]
    if count < 0:
        raise ValueError(f"--count must be >= 0, got {count}")
    witness = fseq.is_admissible_prefix(seq, count)
    if witness is None:
        if cfg.fmt == "json":
            _emit_json(
                {"admissible": True, "n": count, "seq": fseq.to_descriptor(seq)},
                cfg.output,
            )
        else:
            _emit(f"admissible up to {count}\n", cfg.output)
        return EXIT_OK
    wn, wk = witness
    value = fseq.fnomial(seq, wn, wk).value
    if cfg.fmt == "json":
        _emit_json(
            {
                "admissible": False,
                "seq": fseq.to_descriptor(seq),
                "witness": {"n": wn, "k": wk, "value": str(value)},
            },
            cfg.output,
        )
    else:
        _emit(f"witness (n, k) = ({wn}, {wk}) value {value}\n", cfg.output)
    return EXIT_NEGATIVE


def _render_tiling_text(tiling) -> str:
    lines = [
        f"layer k={tiling.layer.k} n={tiling.layer.n} "
        f"sizes={','.join(str(s) for s in tiling.layer.sizes)}"
    ]
    for i, block in enumerate(tiling.blocks):
        parts = " | ".join(",".join(str(s) for s in subset) for subset in block.subsets)
        lines.append(f"block {i}: {parts}")
    return "\n".join(lines) + "\n"


def _cmd_tile(cfg: RunConfig, seq: FSeq) -> int:
    k, n = cfg.params["k"], cfg.params["n"]
    variant = cfg.params["variant"]
    if variant == "auto":
        variant, w1, w2 = detect_variant(seq, k, n)
        if variant is None:
            obj = {
                "error": "no identity-1/2 structure; use enumerate",
                "witness_additive": list(w1),
                "witness_fibonacci": list(w2),
            }
            if cfg.fmt == "json":
                _emit_json(obj, cfg.output)
            else:
                _emit(
                    "no identity-1/2 structure; use enumerate "
                    f"(witnesses {tuple(w1)} and {tuple(w2)})\n",
                    cfg.output,
                )
            return EXIT_NEGATIVE
    policy = TilePolicy(mode=cfg.params["policy"], seed=cfg.params["seed"])
    chain_cap = cfg.caps.get("chains")
    try:
        if variant == "additive":
            result = tile_additive(seq, k, n, policy, chain_cap=chain_cap)
        else:
            result = tile_fibonacci(seq, k, n, policy, chain_cap=chain_cap)
    except IdentityError as exc:
        obj = {"error": str(exc), "identity": exc.which, "witness": list(exc.witness)}
        if cfg.fmt == "json":
            _emit_json(obj, cfg.output)
        else:
            _emit(str(exc) + "\n", cfg.output)
        return EXIT_NEGATIVE
    violation = verify_tiling(result)
    if violation is not None:
        _emit_json(
            {"error": "verification failed", "clause": violation.clause,
             "detail": violation.detail},
            cfg.output,
        )
        return EXIT_NEGATIVE
    if cfg.fmt == "dot":
        _emit(to_dot(result.layer, result), cfg.output)
    elif cfg.fmt == "text":
        _emit(_render_tiling_text(result), cfg.output)
    else:
        obj = tiling_to_dict(result)
        obj["variant"] = variant
        obj["block_count"] = str(len(result.blocks))
        obj["verified"] = True
        _emit_json(obj, cfg.output)
    return EXIT_OK


def _cmd_enumerate(cfg: RunConfig, seq: FSeq) -> int:
    k, n = cfg.params["k"], cfg.params["n"]
    layer = build_layer(seq, k, n)
    limit = cfg.params["limit"]
    try:
        result = enumerate_tilings(
            layer,
            limit,
            workers=cfg.params["workers"],
            chain_cap=cfg.caps.get("chains"),
            placement_cap=cfg.caps.get("placements"),
            node_cap=cfg.caps.get("nodes"),
        )
    except CapExceeded as exc:
        partial = None if exc.partial_count is None else str(exc.partial_count)
        obj = {"complete": False, "count": partial, "error": str(exc)}
        if cfg.fmt == "json":
            _emit_json(obj, cfg.output)
        else:
            _emit(f"incomplete: {exc}\n", cfg.output)
        return EXIT_CAP
    obj = {
        "count": str(result.count),
        "complete": True,
        "truncated": result.truncated,
    }
    if result.tilings is not None:
        for t in result.tilings:
            violation = verify_tiling(t)
            if violation is not None:
                raise TilingError(f"enumerated tiling failed verification: {violation.detail}")
        obj["layer"] = {
            "k": layer.k,
            "n": layer.n,
            "sizes": [str(s) for s in layer.sizes],
        }
        obj["tilings"] = [tiling_to_dict(t)["blocks"] for t in result.tilings]
    if cfg.fmt == "json":
        _emit_json(obj, cfg.output)
    else:
        _emit(f"count {result.count}\n", cfg.output)
    return EXIT_OK if result.count > 0 else EXIT_NEGATIVE


def _triangle_obj(seq: FSeq, table) -> dict:
    cells = [
        {"n": n, "k": k, "value": str(v)}
        for (n, k), v in sorted(table.cells.items())
    ]
    notes = [
        {"n": n, "k": k, "note": text} for (n, k), text in sorted(table.notes.items())
    ]
    return {
        "kind": table.kind,
        "rows": table.rows,
        "seq": fseq.to_descriptor(seq),
        "cells": cells,
        "notes": notes,
    }


def _cmd_triangle(cfg: RunConfig, seq: FSeq) -> int:
    table = triangle(
        seq,
        cfg.params["kind"],
        cfg.params["rows"],
        mode=cfg.params["mode"],
        include_zero=cfg.params["include_zero"],
    )
    if cfg.fmt == "csv":
        _emit(table.to_csv(), cfg.output)
    elif cfg.fmt == "text":
        _emit(table.to_text(), cfg.output)
    else:
        _emit_json(_triangle_obj(seq, table), cfg.output)
    return EXIT_NEGATIVE if table.notes else EXIT_OK


def _cmd_cta3(cfg: RunConfig, seq: FSeq) -> int:
    count = cfg.params["count"]
    if count < 1:
        raise ValueError(f"--count must be >= 1, got {count}")
    depth = cfg.params["reconstruct"]
    if depth is None:
        depth = count
    if not 1 <= depth <= count:
        raise ValueError(f"--reconstruct must lie in 1..{count}, got {depth}")
    result = seqalg.h_general(seq, count)
    if isinstance(result, seqalg.DivisibilityWitness):
        obj = {
            "witness": {
                "n": result.n,
                "term": str(result.term),
                "lcm": str(result.lcm),
            }
        }
        if cfg.fmt == "json":
            _emit_json(obj, cfg.output)
        else:
            _emit(
                f"divisibility fails at n = {result.n}: "
                f"term {result.term} not divisible by lcm {result.lcm}\n",
                cfg.output,
            )
        return EXIT_NEGATIVE
    rebuilt = seqalg.reconstruct(result, depth)
    mismatch = None
    for i in range(1, depth + 1):
        expected = seq.term(i)
        got = rebuilt.term(i)
        if expected != got:
            mismatch = {"n": i, "expected": str(expected), "got": str(got)}
            break
    obj = result.to_dict()
    obj["reconstruction"] = (
        {"ok": True, "depth": depth} if mismatch is None
        else {"ok": False, "depth": depth, "mismatch": mismatch}
    )
    if cfg.fmt == "json":
        _emit_json(obj, cfg.output)
    else:
        _emit(",".join(str(h) for h in result.terms) + "\n", cfg.output)
        if mismatch is not None:
            _emit(
                f"reconstruction mismatch at n = {mismatch['n']}: "
                f"expected {mismatch['expected']}, got {mismatch['got']}\n",
                cfg.output,
            )
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
    p.add_argument("--count", type=int, required=True, help="terms 1..N")
    p.add_argument("--factorials", action="store_true", help="sequence factorials instead of terms")
    p.add_argument("--fnomials", action="store_true", help="fnomial triangle with this many rows")

    p = sub.add_parser("admissible", help="integrality check of all fnomials up to N")
    common(p, ("json", "text"), "json")
    p.add_argument("--count", type=int, required=True, help="prefix length N")

    p = sub.add_parser("tile", help="construct and verify one tiling of a layer")
    common(p, ("json", "text", "dot"), "json")
    p.add_argument("--k", type=int, required=True, help="bottom level of the layer")
    p.add_argument("--n", type=int, required=True, help="top level of the layer")
    p.add_argument(
        "--variant", choices=("auto", "additive", "fibonacci"), default="auto"
    )
    p.add_argument(
        "--policy", choices=("first-slots", "seeded-random"), default="first-slots"
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cap-chains", type=int, default=None)

    p = sub.add_parser("enumerate", help="exhaustively count (and list) tilings")
    common(p, ("json", "text"), "json")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--limit", type=int, default=None, help="also list up to this many tilings")
    p.add_argument("--workers", type=int, default=1, help="results do not depend on it")
    p.add_argument("--cap-chains", type=int, default=None)
    p.add_argument("--cap-placements", type=int, default=None)
    p.add_argument("--cap-nodes", type=int, default=None)

    p = sub.add_parser("triangle", help="emit a counting triangle")
    common(p, ("csv", "text", "json"), "csv")
    p.add_argument("--kind", choices=TRIANGLE_KINDS, default="fnomial")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--mode", choices=("paper", "derived"), default="derived")
    p.add_argument("--include-zero", action="store_true", help="include the k = 0 column")

    p = sub.add_parser("cta3", help="divisor-quotient factorization of a sequence")
    common(p, ("json", "text"), "json")
    p.add_argument("--count", type=int, required=True, help="emit h(1..N)")
    p.add_argument(
        "--reconstruct",
        type=int,
        default=None,
        help="check reconstruction on this prefix (default: all N terms)",
    )
    return parser


def _config_from(ns: argparse.Namespace) -> RunConfig:
    caps = {}
    for name in ("chains", "placements", "nodes"):
        flag = getattr(ns, f"cap_{name}", None)
        value = _resolve_cap(flag, name)
        if value is not None:
            caps[name] = value
    skip = {"command", "seq", "format", "output", "cap_chains", "cap_placements", "cap_nodes"}
    params = {k: v for k, v in vars(ns).items() if k not in skip}
    return RunConfig(
        command=ns.command,
        seq_spec=ns.seq,
        fmt=ns.format,
        output=ns.output,
        params=params,
        caps=caps,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg = _config_from(ns)
        seq = load_sequence(cfg.seq_spec)
        return _HANDLERS[cfg.command](cfg, seq)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (DescriptorError, SequenceRangeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IdentityError, NonIntegralError, TilingError, ZeroTermError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except CobwebError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
