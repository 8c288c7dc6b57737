#!/usr/bin/env python3
"""Census of layer tilings: constructive count vs exhaustive count vs bound.

Writes one CSV row per (k, n) cell. The exhaustive column is exact but
grows fast; keep --max-n small or pass --skip-exhaustive for wide sweeps.
"""
import argparse
import csv
import sys

from cobweb import cli, errors, fseq, poset, tiling
from cobweb.digits import to_decimal


def census_row(seq, k, n, skip_exhaustive):
    m = n - k + 1
    row = {"k": k, "n": n, "blocks": "", "constructive": "", "exhaustive": "", "bound": ""}
    f = fseq.fnomial(seq, n, m)
    row["blocks"] = to_decimal(f.value) if f.is_integer else f"non-integer {to_decimal(f.value)}"
    try:
        variant, _, _ = tiling.detect_variant(seq, k, n)
        if variant == "additive":
            row["constructive"] = to_decimal(tiling.count_tilings_additive(seq, n, k))
        elif variant == "fibonacci":
            row["constructive"] = to_decimal(tiling.count_tilings_fibonacci(seq, n, k))
        else:
            row["constructive"] = "no recursion"
    except errors.CobwebError as exc:
        row["constructive"] = f"error: {exc}"
    if not skip_exhaustive:
        try:
            layer = poset.build_layer(seq, k, n)
            row["exhaustive"] = to_decimal(tiling.enumerate_tilings(layer).count)
        except errors.CapExceeded as exc:
            row["exhaustive"] = f"capped: {exc}"
    try:
        row["bound"] = to_decimal(tiling.equal_block_bound(seq, n, k))
    except errors.NonIntegralError:
        row["bound"] = "undefined"
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seq", default="natural",
                        help="bare kind, inline JSON descriptor, or file path")
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--skip-exhaustive", action="store_true")
    parser.add_argument("--output", default=None, help="CSV path (default stdout)")
    args = parser.parse_args()

    seq = cli.load_sequence(args.seq)
    handle = open(args.output, "w", newline="", encoding="utf-8") if args.output else sys.stdout
    writer = csv.DictWriter(
        handle, fieldnames=["k", "n", "blocks", "constructive", "exhaustive", "bound"]
    )
    writer.writeheader()
    for n in range(1, args.max_n + 1):
        for k in range(1, n + 1):
            writer.writerow(census_row(seq, k, n, args.skip_exhaustive))
    if args.output:
        handle.close()
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
