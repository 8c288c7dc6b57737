#!/usr/bin/env python3
"""Print counting triangles for a gallery of builder sequences.

Each gallery entry shows the generalized-binomial table next to the
tiling-count triangles, so integrality and growth are easy to eyeball.
"""
import argparse
import sys

from cobweb import cli, fseq, tiling

GALLERY = [
    ("natural", fseq.natural(), ("fnomial", "additive", "equal-blocks")),
    ("fibonacci", fseq.fibonacci(), ("fnomial", "fibonacci", "equal-blocks")),
    ("rec2(1,2)", fseq.rec2(1, 2), ("fnomial", "fibonacci")),
    ("constant 5", fseq.constant(5), ("fnomial", "additive")),
    ("periodic B_{2,3}", fseq.periodic(2, 3), ("fnomial",)),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=6)
    parser.add_argument("--mode", choices=("paper", "derived"), default="derived")
    args = parser.parse_args()

    for name, seq, kinds in GALLERY:
        for kind in kinds:
            table = tiling.triangle(seq, kind, args.rows, mode=args.mode)
            print(f"== {name} :: {kind} (rows 1..{args.rows}) ==")
            print(table.to_text())
            for (n, k), note in sorted(table.notes.items()):
                print(f"   note ({n},{k}): {note}")
            print()


if __name__ == "__main__":
    sys.exit(cli.run_reported(main))
