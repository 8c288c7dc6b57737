#!/usr/bin/env python3
"""Render tiled layers to Graphviz DOT files, one per (sequence, k, n).

Block membership is color-coded; pipe any output through `dot -Tsvg`
to get a picture of the chain partition.
"""
import argparse
import pathlib
import sys

from cobweb import cli, poset, tiling

DEFAULT_LAYERS = [
    ("natural", 2, 4),
    ("natural", 3, 5),
    ("fibonacci", 2, 5),
    ("fibonacci", 3, 4),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="renders", help="output directory")
    parser.add_argument("--seq", default=None,
                        help="render a single sequence instead of the default set")
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--seed", type=int, default=None,
                        help="shuffle slot choices from this seed "
                        "instead of taking the first slots")
    args = parser.parse_args()

    jobs = [(args.seq, args.k, args.n)] if args.seq else DEFAULT_LAYERS
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for spec, k, n in jobs:
        seq = cli.load_sequence(spec)
        variant, w1, w2 = tiling.detect_variant(seq, k, n)
        if variant is None:
            print(f"skip {spec} {k}..{n}: no recursion (witnesses {w1}, {w2})")
            continue
        tiler = tiling.tile_additive if variant == "additive" else tiling.tile_fibonacci
        result = tiler(seq, k, n, args.seed)
        violation = tiling.verify_tiling(result)
        if violation is not None:
            print(f"{spec} {k}..{n} failed verification: {violation.clause}: {violation.detail}",
                  file=sys.stderr)
            sys.exit(1)
        path = outdir / f"{spec.replace(' ', '_')}_{k}_{n}.dot"
        path.write_text(poset.to_dot(result.layer, result), encoding="utf-8")
        print(f"{path}  ({len(result.blocks)} blocks, {variant})")


if __name__ == "__main__":
    sys.exit(cli.run_reported(main))
