#!/usr/bin/env python3
"""Census of layer tilings: constructive count vs exhaustive count vs bound.

Writes one CSV row per (k, n) cell. The exhaustive column is exact but
grows fast; keep --max-n small or pass --skip-exhaustive for wide sweeps.
A cell whose column meets a zero term reads "error: <message>".  Any other
refusal ends the census with "error: <message>" on stderr and the cobweb
CLI's exit code: 2 for usage, such as an index past an explicit sequence's
end, and 3 for a cap.
"""
import argparse
import csv
import sys

from cobweb import cli, errors, fseq, poset, tiling
from cobweb.digits import to_decimal


def blocks(seq, k, n):
    f = fseq.fnomial(seq, n, n - k + 1)
    return to_decimal(f.value) if f.is_integer else f"non-integer {to_decimal(f.value)}"


def constructive(seq, k, n):
    variant, _, _ = tiling.detect_variant(seq, k, n)
    if variant == "additive":
        return to_decimal(tiling.count_tilings_additive(seq, n, k))
    if variant == "fibonacci":
        return to_decimal(tiling.count_tilings_fibonacci(seq, n, k))
    return "no recursion"


def exhaustive(seq, k, n):
    try:
        return to_decimal(tiling.enumerate_tilings(poset.build_layer(seq, k, n)).count)
    except errors.CapExceeded as exc:
        return f"capped: {exc}"


def bound(seq, k, n):
    try:
        return to_decimal(tiling.equal_block_bound(seq, n, k))
    except errors.NonIntegralError:
        return "undefined"


# (name, column, the refusals that become the cell's "error: ..." text);
# any other refusal ends the census
COLUMNS = (
    ("blocks", blocks, errors.ZeroTermError),
    ("constructive", constructive, errors.CobwebError),
    ("exhaustive", exhaustive, errors.ZeroTermError),
    ("bound", bound, errors.ZeroTermError),
)


def census_row(seq, k, n, skip_exhaustive):
    row = {"k": k, "n": n}
    for name, column, refusals in COLUMNS:
        if name == "exhaustive" and skip_exhaustive:
            row[name] = ""
            continue
        try:
            row[name] = column(seq, k, n)
        except refusals as exc:
            row[name] = f"error: {exc}"
    return row


def write_census(handle, seq, args) -> None:
    writer = csv.DictWriter(handle, fieldnames=["k", "n", *(name for name, _, _ in COLUMNS)])
    writer.writeheader()
    for n in range(1, args.max_n + 1):
        for k in range(1, n + 1):
            writer.writerow(census_row(seq, k, n, args.skip_exhaustive))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seq", default="natural",
                        help="bare kind, inline JSON descriptor, or file path")
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--skip-exhaustive", action="store_true")
    parser.add_argument("--output", default=None, help="CSV path (default stdout)")
    args = parser.parse_args()

    seq = cli.load_sequence(args.seq)
    if args.output:
        with open(args.output, "w", newline="", encoding="utf-8") as handle:
            write_census(handle, seq, args)
        print(f"wrote {args.output}")
    else:
        write_census(sys.stdout, seq, args)


if __name__ == "__main__":
    sys.exit(cli.run_reported(main))
