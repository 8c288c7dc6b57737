"""Acceptance gate: nine oracle checks, one pass/fail line each.

Run with -s (or read the -v outcome lines) to see the per-criterion report.
"""
import contextlib
import json
import random

from cobweb import cli, fseq, poset, seqalg, tiling
from helpers import all_families, check_count_upper_bound, h_natural, reference_layer_tilings


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({desc}): FAIL")
        raise
    print(f"criterion {num} ({desc}): PASS")


def _families():
    return {
        "natural": fseq.natural(),
        "fibonacci": fseq.fibonacci(),
        "constant-5": fseq.constant(5),
        "nondiminishing-5-10": fseq.nondiminishing(5, 10),
        "periodic-2-3": fseq.periodic(2, 3),
        "periodic-7-4": fseq.periodic(7, 4),
        "geometric-2": fseq.geometric(2, 1),
        "rec2-1-2": fseq.rec2(1, 2),
        "rec2-1-3": fseq.rec2(1, 3),
        "product-22-33": fseq.product(fseq.periodic(2, 2), fseq.periodic(3, 3)),
    }


def test_criterion_1_admissibility():
    with criterion(1, "ten builder families admissible to 15; 1,3,2 fails at (2, 1)"):
        for name, seq in _families().items():
            assert fseq.is_admissible_prefix(seq, 15) is None, name
        witness = fseq.is_admissible_prefix(fseq.explicit(["1", "3", "2"]), 2)
        assert witness == (2, 1)


def test_criterion_2_identities():
    with criterion(2, "additive and convolution identities on their families"):
        assert fseq.check_identity_1(fseq.natural(), 20) is None
        triples = fseq.explicit(["1"] + [str(3 * i) for i in range(1, 21)])
        assert fseq.check_identity_1(triples, 20) is None
        for seq in (fseq.fibonacci(), fseq.rec2(1, 2), fseq.rec2(1, 3)):
            assert fseq.check_identity_2(seq, 15) is None, seq.label()
        lucas = fseq.explicit(["1", "1", "3", "4", "7", "11", "18", "29"])
        assert fseq.check_identity_1(lucas, 7) is not None
        assert fseq.check_identity_2(lucas, 7) is not None


def test_criterion_3_constructive_tilings():
    with criterion(3, "constructed tilings verify and match the block-count law"):
        nat = fseq.natural()
        for k in range(1, 7):
            for n in range(k, 7):
                t = tiling.tile_additive(nat, k, n)
                assert tiling.verify_tiling(t) is None, (k, n)
                assert len(t.blocks) == fseq.fnomial(nat, n, n - k + 1).value
        fib = fseq.fibonacci()
        for k in range(1, 8):
            for n in range(k, 8):
                t = tiling.tile_fibonacci(fib, k, n)
                assert tiling.verify_tiling(t) is None, (k, n)
                assert len(t.blocks) == fseq.fnomial(fib, n, n - k + 1).value


def test_criterion_4_untileable_layer():
    with criterion(4, "periodic-product layer 5..7 has zero tilings; small natural layers tile"):
        prod = fseq.product(fseq.periodic(2, 2), fseq.periodic(3, 3))
        layer = poset.build_layer(prod, 5, 7)
        assert layer.sizes == (1, 6, 1)
        assert tiling.enumerate_tilings(layer).count == 0
        nat = fseq.natural()
        for k in range(1, 4):
            for n in range(k, 5):
                res = tiling.enumerate_tilings(poset.build_layer(nat, k, n))
                assert res.count >= 1, (k, n)


def test_criterion_5_counting_consistency():
    with criterion(5, "counter equals choice-stream size; enumeration dominates; boundaries 1"):
        nat = fseq.natural()
        for n in range(1, 6):
            for k in range(1, n + 1):
                counted = tiling.count_tilings_additive(nat, n, k)
                streamed = len(reference_layer_tilings(nat, k, n, 1, all_families))
                assert counted == streamed, (n, k)
                total = tiling.enumerate_tilings(poset.build_layer(nat, k, n)).count
                assert total >= counted, (n, k)
        for n in range(1, 9):
            assert tiling.count_tilings_additive(nat, n, 1) == 1
            assert tiling.count_tilings_additive(nat, n, n) == 1


def test_criterion_6_upper_bound():
    with criterion(6, "constructive counts within the equal-block partition bound"):
        nat = fseq.natural()
        for n in range(1, 7):
            for k in range(1, n + 1):
                chk = check_count_upper_bound(nat, n, k)
                assert chk.holds, (n, k)
                assert fseq.fnomial(nat, n, k - 1).is_integer


def test_criterion_7_divisor_quotient_factorization():
    with criterion(7, "h-sequences, frozen prefixes, and reconstruction to depth 24"):
        nat = fseq.natural()
        general = seqalg.h_general(nat, 100)
        assert isinstance(general, seqalg.HSequence)
        assert list(general.terms) == [h_natural(n) for n in range(1, 101)]
        assert list(general.terms[:17]) == [
            1, 2, 3, 2, 5, 1, 7, 2, 3, 1, 11, 1, 13, 1, 1, 2, 17
        ]
        fib = fseq.fibonacci()
        fib_h = seqalg.h_general(fib, 12)
        assert list(fib_h.terms) == [1, 1, 2, 3, 5, 4, 13, 7, 17, 11, 89, 6]
        for base in (nat, fib):
            h = seqalg.h_general(base, 24)
            for s in range(1, 25):
                rebuilt = seqalg.reconstruct(h, s)
                for i in range(1, s + 1):
                    assert rebuilt.term(i) == base.term(i), (base.label(), s, i)


def test_criterion_8_fnomial_multiplicativity():
    with criterion(8, "fnomials multiply under pointwise product; shifted naturals exact"):
        pool = list(_families().values())
        rng = random.Random(2026)
        for _ in range(200):
            a, b = rng.choice(pool), rng.choice(pool)
            n = rng.randint(0, 12)
            k = rng.randint(0, n)
            left = fseq.fnomial(fseq.product(a, b), n, k).value
            right = fseq.fnomial(a, n, k).value * fseq.fnomial(b, n, k).value
            assert left == right, (a.label(), b.label(), n, k)
        shifted = fseq.shifted(fseq.natural(), 3)
        assert fseq.prefix(shifted, 10) == [1, 1, 1, 1, 2, 3, 4, 5, 6, 7]


def test_criterion_9_determinism(capsys):
    with criterion(9, "byte-identical reruns and worker-count invariance"):
        tile_argv = ["tile", "--seq", "fibonacci", "--k", "2", "--n", "5"]
        enum_argv = ["enumerate", "--seq", "natural", "--k", "2", "--n", "4",
                     "--limit", "8"]
        outputs = []
        for argv in (tile_argv, tile_argv, enum_argv, enum_argv):
            code = cli.main(argv)
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[2] == outputs[3]
        assert json.loads(outputs[2])["count"] == "32"
        worker_argv = ["enumerate", "--seq", "natural", "--k", "3", "--n", "4"]
        worker_outputs = set()
        for w in ("1", "2", "4"):
            assert cli.main(worker_argv + ["--workers", w]) == 0
            worker_outputs.add(capsys.readouterr().out)
        assert len(worker_outputs) == 1
        assert json.loads(worker_outputs.pop())["count"] == "132"
