"""Command-line surface: subcommands, formats, exit codes, caps."""
import contextlib
import decimal
import functools
import hashlib
import io
import itertools
import json
import operator
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cobweb import cli, errors, fseq, poset, tiling
from cobweb.digits import to_decimal

REC2 = '{"kind": "rec2", "f1": 1, "f2": 2}'
NON_ADMISSIBLE = '{"kind": "explicit", "terms": ["1", "3", "2"]}'
PRODUCT_22_33 = (
    '{"kind": "product", "left": {"kind": "periodic", "c": 2, "M": 2},'
    ' "right": {"kind": "periodic", "c": 3, "M": 3}}'
)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_same_text(got, want, note=None):
    """got == want, failing in seconds on long texts: pytest's diff of two
    long strings is quadratic, so unequal texts are compared by length,
    then by lines, and else at their first differing character."""
    if got == want:
        return
    assert len(got) == len(want), note
    assert got.splitlines() == want.splitlines(), note
    at = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
    pytest.fail(f"{note}: texts differ at {at}: {got[at:at + 20]!r} != {want[at:at + 20]!r}")


def shift_chain(depth):
    """A descriptor of depth nested levels: depth - 1 shifts around natural."""
    shifts = depth - 1
    return '{"kind": "shift", "s": 1, "inner": ' * shifts + '{"kind": "natural"}' + "}" * shifts


def parse_chunked(text):
    """int(text) for decimal text of any length, 500 digits at a time (under
    the lowest int/str digit limit, 640)."""
    assert text.isdigit() and text.isascii()
    value = 0
    for i in range(0, len(text), 500):
        chunk = text[i:i + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


HUGE_TERM = "7" + "1234567890" * 500  # 5,001 digits, past the 4,300-digit limit
HUGE = '{"kind": "explicit", "terms": ["1", "%s"]}' % HUGE_TERM
HUGE_T = "1" + "0" * 4400
HUGE_CONSTANT = '{"kind": "constant", "t": "%s"}' % HUGE_T
# term 1 is 0 * 10^4400: the zero-term error names the huge parameter
ZERO_TIMES_HUGE = (
    '{"kind": "product", "left": {"kind": "explicit", "terms": ["1", "0"]},'
    ' "right": %s}' % HUGE_CONSTANT
)


# ---------------------------------------------------------------------------
# seq

def test_seq_text_terms(capsys):
    code, out, _ = run(
        ["seq", "--seq", REC2, "--count", "9", "--format", "text"], capsys
    )
    assert code == 0
    assert out == "1 2 5 12 29 70 169 408 985\n"


def test_seq_json_terms(capsys):
    code, out, _ = run(["seq", "--seq", "natural", "--count", "5"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj == {"seq": {"kind": "natural"}, "terms": ["1", "2", "3", "4", "5"]}


def test_seq_factorials(capsys):
    code, out, _ = run(
        ["seq", "--seq", "fibonacci", "--count", "6", "--factorials",
         "--format", "text"],
        capsys,
    )
    assert code == 0
    assert out == "1 1 2 6 30 240\n"


@pytest.mark.parametrize("spec", [
    "natural",
    "fibonacci",
    '{"kind": "periodic", "c": 2, "M": 2}',
])
def test_seq_factorials_match_f_factorial(spec, capsys):
    seq = cli.load_sequence(spec)
    for count in (0, 1, 7, 25):
        code, out, _ = run(["seq", "--seq", spec, "--count", str(count), "--factorials"], capsys)
        assert code == 0
        want = [str(fseq.f_factorial(seq, i)) for i in range(1, count + 1)]
        assert json.loads(out)["factorials"] == want


def test_seq_fnomial_table(capsys):
    code, out, _ = run(
        ["seq", "--seq", "fibonacci", "--count", "4", "--fnomials"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "fnomial"
    cells = {(c["n"], c["k"]): c["value"] for c in obj["cells"]}
    assert [cells[(4, k)] for k in range(5)] == ["1", "3", "6", "3", "1"]
    assert obj["notes"] == []


# ---------------------------------------------------------------------------
# admissible

def test_admissible_positive(capsys):
    code, out, _ = run(["admissible", "--seq", "fibonacci", "--count", "15"], capsys)
    assert code == 0
    assert json.loads(out)["admissible"] is True


def test_admissible_witness_json(capsys):
    code, out, _ = run(["admissible", "--seq", NON_ADMISSIBLE, "--count", "3"], capsys)
    assert code == 1
    obj = json.loads(out)
    assert obj["admissible"] is False
    assert obj["witness"] == {"n": 2, "k": 1, "value": "2/3"}


def test_admissible_witness_text(capsys):
    code, out, _ = run(
        ["admissible", "--seq", NON_ADMISSIBLE, "--count", "3", "--format", "text"],
        capsys,
    )
    assert code == 1
    assert out == "witness (n, k) = (2, 1) value 2/3\n"


# ---------------------------------------------------------------------------
# tile

def test_tile_json(capsys):
    code, out, _ = run(["tile", "--seq", "natural", "--k", "2", "--n", "3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["variant"] == "additive"
    assert obj["block_count"] == "3"
    assert obj["verified"] is True
    assert obj["blocks"] == [[[0], [0, 1]], [[0, 1], [2]], [[1], [0, 1]]]


def _tile_document(seq, k, n, variant, seed):
    """The tile --format json document as json.dumps writes the whole object."""
    tile = tiling.tile_additive if variant == "additive" else tiling.tile_fibonacci
    obj = poset.tiling_to_dict(tile(seq, k, n, seed))
    obj.update(variant=variant, block_count=str(len(obj["blocks"])), verified=True)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _check_tile_json(kind, variant, seed, k, n, tmp_path, capsys):
    argv = ["tile", "--seq", kind, "--k", str(k), "--n", str(n), "--format", "json"]
    if seed is not None:
        argv += ["--policy", "seeded-random", "--seed", str(seed)]
    want = _tile_document(cli.load_sequence(kind), k, n, variant, seed)
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert_same_text(out, want)
    target = tmp_path / "tile.json"
    assert run(argv + ["--output", str(target)], capsys) == (0, "", "")
    assert_same_text(target.read_text(encoding="utf-8"), want)


@pytest.mark.parametrize("kind,variant,seed", [
    ("fibonacci", "fibonacci", None), ("natural", "additive", None),
    ("fibonacci", "fibonacci", 7), ("natural", "additive", 11),
])
def test_tile_json_is_byte_identical(kind, variant, seed, tmp_path, capsys):
    _check_tile_json(kind, variant, seed, 2, 5, tmp_path, capsys)


def test_tile_json_is_byte_identical_where_subsets_recur_across_levels(tmp_path, capsys):
    # subsets such as (0,) lie at several levels of fibonacci 4..8, and the
    # renderer caches each subset's text whatever its level
    _check_tile_json("fibonacci", "fibonacci", None, 4, 8, tmp_path, capsys)


def test_block_arrays_match_json_dumps_at_any_depth():
    blocks = [poset.BlockPlacement(((0, 1), (), (3,))), poset.BlockPlacement(((2,),))]
    for depth in range(4):
        want = json.dumps([[list(s) for s in b.subsets] for b in blocks], indent=2)
        got = cli._json_array(list(map(cli._block_renderer(depth + 1), blocks)), depth)
        assert got == want.replace("\n", "\n" + "  " * depth)
        assert cli._json_array([], depth) == "[]"
    # the streamed top-level array: one chunk per item, then the bracket
    texts = [cli._block_renderer(2)(b) for b in blocks]
    assert list(cli._json_items(iter(texts))) == [
        "[\n    " + texts[0], ",\n    " + texts[1], "\n  ]"]
    assert "".join(cli._json_items(texts)) == cli._json_array(texts, 1)
    assert list(cli._json_items([])) == ["[]"]


def test_tile_auto_picks_fibonacci(capsys):
    code, out, _ = run(["tile", "--seq", "fibonacci", "--k", "3", "--n", "4"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["variant"] == "fibonacci"
    assert obj["block_count"] == "6"


def test_tile_additive_on_all_ones_prime_sizes(capsys):
    # levels 3..4 have prime sizes (1, 1): only single chains tile them,
    # whether or not the additive identity holds
    code, out, _ = run(
        ["tile", "--seq", "fibonacci", "--k", "3", "--n", "4", "--variant", "additive",
         "--format", "text"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[1:] == [
        f"block {3 * i + j}: {i} | {j}" for i in range(2) for j in range(3)
    ]


def test_tile_auto_tiles_all_ones_prime_sizes_without_an_identity(capsys):
    spec = '{"kind": "explicit", "terms": ["1", "1", "1", "5", "7"]}'
    code, out, _ = run(["tile", "--seq", spec, "--k", "3", "--n", "4"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert (obj["variant"], obj["block_count"], obj["verified"]) == ("additive", "35", True)
    assert obj["blocks"] == [[[i], [j]] for i in range(5) for j in range(7)]


@pytest.mark.parametrize("fmt", ["json", "text", "dot"])
def test_tile_reports_a_failed_verification_in_its_format(fmt, capsys, monkeypatch):
    violation = tiling.TilingViolation("block-count", "1 blocks, law requires 2", 1)
    monkeypatch.setattr(cli, "verify_tiling", lambda t: violation)
    argv = ["tile", "--seq", "natural", "--k", "2", "--n", "3", "--format", fmt]
    code, out, err = run(argv, capsys)
    assert (code, err) == (1, "")
    if fmt == "json":
        assert json.loads(out) == {"error": "verification failed", "clause": "block-count",
                                   "detail": "1 blocks, law requires 2"}
    else:
        assert out == "verification failed: block-count: 1 blocks, law requires 2\n"


def test_tile_text(capsys):
    code, out, _ = run(
        ["tile", "--seq", "natural", "--k", "2", "--n", "3", "--format", "text"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "layer k=2 n=3 sizes=2,3"
    assert lines[1] == "block 0: 0 | 0,1"


def test_tile_dot(capsys):
    code, out, _ = run(
        ["tile", "--seq", "natural", "--k", "2", "--n", "3", "--format", "dot"],
        capsys,
    )
    assert code == 0
    assert out.startswith("digraph layer {")
    assert "rankdir=BT;" in out
    assert "color=" in out


def test_tile_wrong_variant_reports_witness(capsys):
    code, out, _ = run(
        ["tile", "--seq", "natural", "--k", "2", "--n", "4",
         "--variant", "fibonacci"],
        capsys,
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["identity"] == 2
    assert obj["witness"] == [2, 1]


def test_tile_structureless_sequence(capsys):
    code, out, _ = run(["tile", "--seq", PRODUCT_22_33, "--k", "5", "--n", "7"], capsys)
    assert code == 1
    obj = json.loads(out)
    assert obj["error"] == "no identity-1/2 structure; use enumerate"
    assert obj["witness_additive"] == [2, 2]
    assert obj["witness_fibonacci"] == [2, 1]


def test_tile_seeded_policy_reproducible(capsys):
    argv = ["tile", "--seq", "natural", "--k", "2", "--n", "5",
            "--policy", "seeded-random", "--seed", "7"]
    first = run(argv, capsys)
    second = run(argv, capsys)
    assert first == second
    assert first[0] == 0


def test_tile_seeded_random_needs_a_seed(capsys):
    # seeded from the OS, three runs printed two different tilings
    for variant in ("auto", "additive"):
        code, out, err = run(
            ["tile", "--seq", "natural", "--k", "2", "--n", "4", "--variant", variant,
             "--policy", "seeded-random", "--format", "text"],
            capsys,
        )
        assert (code, out) == (2, ""), variant
        assert err == "error: the seeded-random policy needs a seed\n", variant


def test_tile_chain_cap(capsys):
    code, _, err = run(
        ["tile", "--seq", "natural", "--k", "2", "--n", "5", "--cap-chains", "100"],
        capsys,
    )
    assert code == 3
    assert "chains cap of 100 exceeded" in err


# ---------------------------------------------------------------------------
# enumerate

def test_enumerate_count(capsys):
    code, out, _ = run(["enumerate", "--seq", "natural", "--k", "2", "--n", "3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj == {"count": "4", "complete": True, "truncated": False}


def test_enumerate_listing(capsys):
    code, out, _ = run(
        ["enumerate", "--seq", "natural", "--k", "2", "--n", "3", "--limit", "10"],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == "4"
    assert len(obj["tilings"]) == 4
    assert obj["layer"] == {"k": 2, "n": 3, "sizes": ["2", "3"]}
    assert [[[0], [0, 1]], [[0, 1], [2]], [[1], [0, 1]]] in obj["tilings"]


def _listing_object(seq, k, n, limit, block=lambda block: block):
    """The enumerate --limit object, each block given as block(its subsets)."""
    layer = poset.build_layer(seq, k, n)
    res = tiling.enumerate_tilings(layer, limit)
    return {
        "count": str(res.count),
        "complete": True,
        "truncated": res.truncated,
        "layer": {"k": k, "n": n, "sizes": [str(s) for s in layer.sizes]},
        "tilings": [list(map(block, poset.tiling_to_dict(t)["blocks"])) for t in res.tilings],
    }


def _listing_document(seq, k, n, limit):
    """The enumerate --limit document as json.dumps writes the whole object."""
    return json.dumps(_listing_object(seq, k, n, limit), sort_keys=True, indent=2) + "\n"


def _listing_reference(seq, k, n):
    """(count, document): document(limit) is _listing_document(seq, k, n,
    limit), cut from the full listing's document, so a listing must be the
    head of the full one.  json.dumps encodes indent in pure Python before
    3.13, and one dump of a long listing takes seconds, so the full document
    is dumped with a "block <i>" string for each block, and each distinct
    block is dumped once, at its depth of 3, into its strings."""
    count = tiling.enumerate_tilings(poset.build_layer(seq, k, n)).count
    blocks = {}

    def block(subsets):
        return blocks.setdefault(tuple(map(tuple, subsets)), f"block {len(blocks)}")

    skeleton = json.dumps(_listing_object(seq, k, n, count, block), sort_keys=True, indent=2)
    texts = [json.dumps(b, indent=2).replace("\n", "\n      ") for b in blocks]
    full = re.sub(r'"block (\d+)"', lambda m: texts[int(m[1])], skeleton) + "\n"
    start = full.index('\n  "tilings": [')
    # each tiling is an array two levels deep, so past "tilings" its last
    # line is the only one indented by 4 that closes an array
    end = "\n    ]"
    assert full.count(end, start) == count and full.endswith('\n  "truncated": false\n}\n')

    def document(limit):
        if limit >= count:
            return full
        if not limit:
            return full[:start] + '\n  "tilings": [],\n  "truncated": true\n}\n'
        cut = start
        for _ in range(limit):
            cut = full.index(end, cut + 1)
        return full[:cut] + end + '\n  ],\n  "truncated": true\n}\n'

    return count, document


GAP = '{"kind": "explicit", "terms": ["1", "1", "2", "4", "3", "5"]}'


@pytest.mark.parametrize("spec,k,n", [
    ("natural", 3, 4), ("natural", 2, 5), ("fibonacci", 2, 5), (PRODUCT_22_33, 2, 6),
    (GAP, 3, 5),
])
def test_enumerate_listing_json_is_byte_identical(spec, k, n, capsys):
    seq = cli.load_sequence(spec)
    count, document = _listing_reference(seq, k, n)
    for limit in (0, 1, 7, count + 1):
        argv = ["enumerate", "--seq", spec, "--k", str(k), "--n", str(n), "--limit", str(limit)]
        code, out, err = run(argv, capsys)
        assert (code, err) == (0 if count else 1, ""), limit
        assert_same_text(out, document(limit), limit)
    assert (count == 0) == (spec == GAP)


@pytest.mark.parametrize("spec,k,n", [("natural", 3, 4), (GAP, 3, 5)])
def test_listing_reference_cuts_match_one_dump_per_limit(spec, k, n):
    seq = cli.load_sequence(spec)
    count, document = _listing_reference(seq, k, n)
    for limit in (0, 1, 7, count, count + 1):
        assert document(limit) == _listing_document(seq, k, n, limit), limit


def test_enumerate_listing_json_to_file(tmp_path, capsys):
    target = tmp_path / "listing.json"
    argv = ["enumerate", "--seq", "natural", "--k", "3", "--n", "4", "--limit", "7"]
    code, out, _ = run(argv + ["--output", str(target)], capsys)
    assert (code, out) == (0, "")
    want = _listing_document(fseq.natural(), 3, 4, 7)
    assert_same_text(target.read_text(encoding="utf-8"), want)


def test_enumerate_zero_is_negative(capsys):
    code, out, _ = run(
        ["enumerate", "--seq", PRODUCT_22_33, "--k", "5", "--n", "7"], capsys
    )
    assert code == 1
    assert json.loads(out)["count"] == "0"


ZERO_PRIME = '{"kind": "explicit", "terms": ["1", "2", "0", "2", "2", "2"]}'


@pytest.mark.parametrize("k,n", [(3, 4), (4, 5)])
def test_enumerate_zero_prime_size_counts_zero(k, n, capsys):
    # prime sizes (2, 0): no placement fits, so no tiling exists
    code, out, err = run(
        ["enumerate", "--seq", ZERO_PRIME, "--k", str(k), "--n", str(n), "--limit", "3"], capsys
    )
    assert (code, err) == (1, "")
    assert json.loads(out) == {"count": "0", "complete": True, "truncated": False, "tilings": [],
                               "layer": {"k": k, "n": n, "sizes": ["2", "2"]}}


def test_enumerate_text(capsys):
    code, out, _ = run(
        ["enumerate", "--seq", "natural", "--k", "2", "--n", "3",
         "--format", "text"],
        capsys,
    )
    assert code == 0
    assert out == "count 4\n"


def test_enumerate_node_cap_flag(capsys):
    # the count-only pass expands 82 normal-form classes on natural 4..5
    code, out, _ = run(
        ["enumerate", "--seq", "natural", "--k", "4", "--n", "5",
         "--cap-nodes", "50"],
        capsys,
    )
    assert code == 3
    obj = json.loads(out)
    assert obj["complete"] is False
    assert "nodes cap of 50 exceeded" in obj["error"]


def test_enumerate_search_memory_fits_under_an_address_space_limit():
    # natural 4..7 has 212,205 placements inside every default cap: a clash
    # mask per placement (about 5 GiB) ended in a raw MemoryError here; the
    # child limits only its own address space
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from cobweb import cli\n"
        "sys.exit(cli.main(['enumerate', '--seq', 'natural', '--k', '4', '--n', '7',"
        " '--format', 'text', '--cap-nodes', '1']))\n"
    )
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert (proc.returncode, proc.stdout) == (3, "incomplete: nodes cap of 1 exceeded\n")


def test_enumerate_natural_3_5_listing_is_pinned(capsys):
    # sha256 of the stdout, pinned from the raw-keyed recorded pass that the
    # demand-driven listing replaced
    code, out, err = run(["enumerate", "--seq", "natural", "--k", "3", "--n", "5",
                          "--limit", "1000"], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d7ef6aed241ef9a47d20744fe70c10f0de02f6fc63ca0fd83f42506bee2a52b6"
    )


def test_enumerate_node_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("COBWEB_CAP_NODES", "50")
    code, out, _ = run(["enumerate", "--seq", "natural", "--k", "4", "--n", "5"], capsys)
    assert code == 3
    assert json.loads(out)["complete"] is False


def test_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("COBWEB_CAP_NODES", "50")
    code, out, _ = run(
        ["enumerate", "--seq", "natural", "--k", "4", "--n", "5",
         "--cap-nodes", "100000"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["count"] == "44928"


def test_bad_cap_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COBWEB_CAP_NODES", "abc")
    code, _, err = run(["enumerate", "--seq", "natural", "--k", "2", "--n", "3"], capsys)
    assert code == 2
    assert "COBWEB_CAP_NODES" in err


def test_enumerate_negative_limit_is_usage_error(capsys):
    argv = ["enumerate", "--seq", "natural", "--k", "3", "--n", "4", "--limit"]
    code, out, err = run(argv + ["-1"], capsys)
    assert code == 2 and out == "" and "limit" in err
    code, out, _ = run(argv + ["0"], capsys)
    obj = json.loads(out)
    assert code == 0
    assert (obj["count"], obj["tilings"], obj["truncated"]) == ("132", [], True)


def test_enumerate_text_limit_lists_nothing(capsys, monkeypatch):
    # the text report shows only the count, so it neither lists nor verifies
    def fail(tiling):
        raise AssertionError("text report verified a tiling")

    monkeypatch.setattr(cli, "verify_tiling", fail)
    monkeypatch.setattr(cli, "verify_tilings", lambda tilings: map(fail, tilings))
    argv = ["enumerate", "--seq", "natural", "--k", "4", "--n", "5", "--format", "text"]
    assert run(argv + ["--limit", "1000"], capsys) == (0, "count 44928\n", "")
    code, out, err = run(argv + ["--limit", "-1"], capsys)
    assert code == 2 and out == "" and "limit" in err


def test_enumerate_json_listing_verifies_through_one_verifier(capsys, monkeypatch):
    # the name the text-report test patches is the one the listing calls
    violation = tiling.TilingViolation("block-count", "1 blocks, law requires 2", 1)
    seen = []
    monkeypatch.setattr(cli, "verify_tilings", lambda ts: seen.append(len(ts)) or [violation])
    argv = ["enumerate", "--seq", "natural", "--k", "3", "--n", "4", "--limit", "7"]
    code, out, err = run(argv, capsys)
    assert (code, out, seen) == (1, "", [7])
    assert "enumerated tiling failed verification: 1 blocks, law requires 2" in err


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.CapExceeded("nodes", 5), 3),
        (errors.DescriptorError("bad descriptor"), 2),
        (errors.SequenceRangeError("past the end"), 2),
        (ValueError("bad value"), 2),
        (OSError("unreadable"), 2),
        (errors.IdentityError(1, (2, 3)), 1),
        (errors.NonIntegralError("not an integer"), 1),
        (errors.TilingError("no split"), 1),
        (errors.ZeroTermError("zero term"), 1),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
)
def test_exit_code_per_error_type(error, code, capsys, monkeypatch):
    def handler(ns, seq):
        raise error

    monkeypatch.setitem(cli._HANDLERS, "seq", handler)
    argv = ["seq", "--seq", "natural", "--count", "3"]
    assert run(argv, capsys) == (code, "", f"error: {error}\n")


def test_enumerate_workers_match(capsys):
    # the search is sequential: stdout and exit code, a cap's refusal
    # included, are the same under every --workers
    listing = ["enumerate", "--seq", "natural", "--k", "3", "--n", "4", "--limit", "500"]
    capped = ["enumerate", "--seq", "natural", "--k", "4", "--n", "5", "--cap-nodes", "50"]
    for argv, code in ((listing, 0), (capped, 3)):
        base = run(argv, capsys)
        assert base[0] == code
        for workers in ("1", "2", "4"):
            assert run(argv + ["--workers", workers], capsys) == base, (argv, workers)
    assert json.loads(run(listing, capsys)[1])["count"] == "132"


def test_enumerate_workers_must_be_positive(capsys):
    argv = ["enumerate", "--seq", "natural", "--k", "3", "--n", "4", "--workers", "0"]
    assert run(argv, capsys) == (2, "", "error: workers must be positive, got 0\n")


def test_enumerate_deep_search_does_not_recurse(capsys):
    # 4,895 chains, one single-chain block each: a search depth far past the
    # interpreter's default recursion limit
    code, out, err = run(
        ["enumerate", "--seq", "fibonacci", "--k", "10", "--n", "11"], capsys
    )
    assert code == 0
    assert json.loads(out)["count"] == "1"
    assert err == ""


def test_enumerate_all_one_levels_are_cheap(capsys):
    # one chain and one placement; the size assignments are built level by
    # level, not as 40! permutations of the prime sizes
    argv = ["enumerate", "--seq", '{"kind": "constant", "t": 1}', "--k", "1", "--n", "40"]
    assert run(argv + ["--format", "text"], capsys) == (0, "count 1\n", "")


# (name, argv, cap): each argv needs more than cap of the named resource
CAP_CASES = [
    ("chains", ["tile", "--seq", "natural", "--k", "2", "--n", "5"], 100),
    ("chains", ["enumerate", "--seq", "natural", "--k", "3", "--n", "4"], 10),
    ("placements", ["enumerate", "--seq", "natural", "--k", "3", "--n", "4"], 20),
    ("nodes", ["enumerate", "--seq", "natural", "--k", "4", "--n", "5"], 50),
]


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("name, argv, cap", CAP_CASES)
def test_every_cap_by_flag_and_env(name, argv, cap, source, capsys, monkeypatch):
    if source == "flag":
        argv = argv + [f"--cap-{name}", str(cap)]
    else:
        monkeypatch.setenv(f"COBWEB_CAP_{name.upper()}", str(cap))
    code, out, err = run(argv, capsys)
    assert code == 3
    assert f"{name} cap of {cap} exceeded" in out + err


@pytest.mark.parametrize("name", errors.CAP_DEFAULTS)
def test_cap_env_must_be_integer(name, capsys, monkeypatch):
    monkeypatch.setenv(f"COBWEB_CAP_{name.upper()}", "1e3")
    code, _, err = run(["enumerate", "--seq", "natural", "--k", "2", "--n", "3"], capsys)
    assert code == 2
    assert f"COBWEB_CAP_{name.upper()} must be an integer" in err


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("name", errors.CAP_DEFAULTS)
def test_zero_cap_is_usage_error(name, source, capsys, monkeypatch):
    argv = ["enumerate", "--seq", "natural", "--k", "2", "--n", "3"]
    if source == "flag":
        argv += [f"--cap-{name}", "0"]
    else:
        monkeypatch.setenv(f"COBWEB_CAP_{name.upper()}", "0")
    code, _, err = run(argv, capsys)
    assert code == 2
    assert f"cap-{name} must be >= 1" in err


CAPLESS_RUNS = [
    ["seq", "--seq", "natural", "--count", "3"],
    ["admissible", "--seq", "natural", "--count", "5"],
    ["triangle", "--seq", "natural", "--rows", "2"],
    ["cta3", "--seq", "natural", "--count", "4"],
]


@pytest.mark.parametrize("argv", CAPLESS_RUNS, ids=lambda argv: argv[0])
def test_cap_env_leaves_capless_subcommands_alone(argv, capsys, monkeypatch):
    # a subcommand reads only the cap variables of its own --cap flags
    want = run(argv, capsys)
    assert want[0] == 0
    for name in errors.CAP_DEFAULTS:
        for raw in ("abc", "0"):
            monkeypatch.setenv(f"COBWEB_CAP_{name.upper()}", raw)
            assert run(argv, capsys) == want, (name, raw)
        monkeypatch.delenv(f"COBWEB_CAP_{name.upper()}")


def test_tile_reads_only_the_chain_cap_env(capsys, monkeypatch):
    argv = ["tile", "--seq", "natural", "--k", "2", "--n", "3"]
    want = run(argv, capsys)
    assert want[0] == 0
    for raw in ("abc", "0"):
        monkeypatch.setenv("COBWEB_CAP_NODES", raw)
        monkeypatch.setenv("COBWEB_CAP_PLACEMENTS", raw)
        assert run(argv, capsys) == want, raw
    monkeypatch.setenv("COBWEB_CAP_CHAINS", "abc")
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert "COBWEB_CAP_CHAINS must be an integer" in err


@pytest.mark.parametrize("name", errors.CAP_DEFAULTS)
def test_cap_flag_must_be_integer(name, capsys):
    # a flag is read as text, through the same parse as its variable
    argv = ["enumerate", "--seq", "natural", "--k", "2", "--n", "3", f"--cap-{name}", "1e3"]
    assert run(argv, capsys) == (2, "", f"error: --cap-{name} must be an integer, got '1e3'\n")


HUGE_CAP = "1" + "0" * 4999  # 5,000 digits, past the 4,300-digit limit


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("name", errors.CAP_DEFAULTS)
def test_cap_past_digit_limit(name, source, capsys, monkeypatch):
    argv = ["enumerate", "--seq", "natural", "--k", "2", "--n", "3", "--format", "text"]
    if source == "flag":
        argv += [f"--cap-{name}", HUGE_CAP]
    else:
        monkeypatch.setenv(f"COBWEB_CAP_{name.upper()}", HUGE_CAP)
    assert run(argv, capsys) == (0, "count 4\n", "")


def test_cap_refusal_past_digit_limit(capsys):
    # the limit and the need of a refusal both render past the digit limit
    needed = "2" + "0" * 5000
    spec = '{"kind": "explicit", "terms": ["1", "1", "%s"]}' % needed
    argv = ["tile", "--seq", spec, "--k", "1", "--n", "2", "--variant", "additive",
            "--cap-chains", HUGE_CAP]
    want = f"error: chains cap of {HUGE_CAP} exceeded (needed {needed})\n"
    assert run(argv, capsys) == (3, "", want)


# ---------------------------------------------------------------------------
# triangle

def test_triangle_csv_default(capsys):
    code, out, _ = run(
        ["triangle", "--seq", "natural", "--kind", "additive", "--rows", "4"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,k,value"
    assert "4,2,12" in lines
    assert "4,3,18" in lines


def test_triangle_notes_flip_exit_code(capsys):
    code, out, _ = run(
        ["triangle", "--seq", "fibonacci", "--kind", "additive", "--rows", "4",
         "--format", "json"],
        capsys,
    )
    assert code == 1
    obj = json.loads(out)
    assert any(note["n"] == 4 and note["k"] == 2 for note in obj["notes"])


def test_triangle_fibonacci_modes_differ(capsys):
    argv = ["triangle", "--seq", "fibonacci", "--kind", "fibonacci", "--rows", "5"]
    _, derived, _ = run(argv, capsys)
    _, paper, _ = run(argv + ["--mode", "paper"], capsys)
    assert "5,2,30" in derived
    assert "5,2,60" in paper


def test_triangle_include_zero(capsys):
    code, out, _ = run(
        ["triangle", "--seq", "natural", "--rows", "3", "--include-zero"], capsys
    )
    assert code == 0
    assert "1,0,1" in out.split("\n")


def test_triangle_row_cap(capsys):
    code, _, err = run(["triangle", "--seq", "natural", "--rows", "300"], capsys)
    assert code == 3
    assert "rows cap of 200 exceeded" in err


# sha256 of the stdout of `triangle --format csv --rows 7`: (sequence, kind)
# -> (exit code, derived, paper), the code a (derived, paper) pair where the
# modes differ.  The paper digests were pinned from the separate additive and
# convolution counters that one shared recursion replaced.  The derived ones
# count the tiler's choice tree: its base cases, plus one tiling where every
# prime size is 1.
_TRIANGLE_SEQS = {
    "natural": "natural",
    "fibonacci": "fibonacci",
    "rec2(1,2)": REC2,
    "rec2(1,3)": '{"kind": "rec2", "f1": 1, "f2": 3}',
    "even": '{"kind": "explicit", "terms": ["1", "2", "4", "6", "8", "10", "12", "14"]}',
    "zero": '{"kind": "explicit", "terms": ["1", "0", "0", "0", "0", "0", "0", "0"]}',
    "short": '{"kind": "explicit", "terms": ["1", "1", "2", "3", "4"]}',
    # the additive identity holds through n = 4; the convolution one fails
    # at (m, k) = (2, 1)
    "bent": '{"kind": "explicit", "terms": ["1", "1", "2", "3", "4", "6", "7", "8"]}',
    "zero-first": '{"kind": "explicit", "terms": ["1", "0", "2", "4", "8", "16", "32", "64"]}',
}
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
_NO_CONVOLUTION = "cd25ed22919506ea2b198a2bb92a2593282fe21f7901d24b958effb6068d38e0"
# the same notes, and one more on each m = 2 cell, which derived mode no
# longer takes as a base case
_NO_CONVOLUTION_DERIVED = "f5365798ad52f6211e56307dad4cad4b01b73cdf476a4ef7c181fea6ce738d09"
_NO_ADDITIVE = "cab8b540515af30fdaddd0741c2063297fc733d193e88175b7f5f4c71d9dc3d7"
_SHORT_ERROR = "error: explicit sequence has 4 terms past index 0; index 5 is out of range\n"
_ONES = "ad1fa8456ca6116aa686e062e492545c9b48e9312e2e7afd4e76903508ba9f0d"
_ZERO_REFUSED = "dbd0be8482e03fb714a7494f07018fea7410253acae7b7f00ecb9a2aafa18636"
_ZERO_FIRST_REFUSED = "429d7d2ef859872d516bd089c4deeb9c031bb03eb9a5348e8127c992bd18d9bc"
_TRIANGLE_DIGESTS = {
    ("natural", "additive"): (
        0,
        "59ac7bf76fcd6d04ba87925fb628b6c9371ca3a6e51067a4076e54965ccc6470",
        "59ac7bf76fcd6d04ba87925fb628b6c9371ca3a6e51067a4076e54965ccc6470",
    ),
    ("natural", "fibonacci"): (1, _NO_CONVOLUTION_DERIVED, _NO_CONVOLUTION),
    ("fibonacci", "additive"): (
        1,
        "67f37ff8a8d09bd246ee16fb52911e35204809f670dd624e8546aee49a598590",
        "7e4187358f1e31be52a21efd9da3bd1064693fb703297c23d1a2a3b6a2a88872",
    ),
    ("fibonacci", "fibonacci"): (
        0,
        "8212b8c63485d75b6e64152417c06bcea72bed22bf449a1f24d01bcf74098da3",
        "2c7372ec9170679c126a9c4f23cd71e5af8666afe7f8dfe272a36c73977e4f45",
    ),
    ("rec2(1,2)", "additive"): (1, _NO_ADDITIVE, _NO_ADDITIVE),
    ("rec2(1,2)", "fibonacci"): (
        0,
        "97e0b8e0b90cd8da4ce2318231f1aa4006c19b378f8ee937df982aad5add48e5",
        "f96d2c2fecf02498f00864b6a36cd1923f6cf36bbb43d9db0159c95f03ce2c3a",
    ),
    ("rec2(1,3)", "additive"): (1, _NO_ADDITIVE, _NO_ADDITIVE),
    ("rec2(1,3)", "fibonacci"): (
        0,
        "3a578afcf4090f310b71467350e053ced693cbe25b48f93a54ee870dc21d6adb",
        "22a9fbf4ccda64f61dff2210123a70921cef34d2b2d114f47dba17134e4ad20f",
    ),
    ("even", "additive"): (
        0,
        "b48e32857db5c48f55e22674c71b1fa352bf52b907761a7758b1afe306a7fa86",
        "b48e32857db5c48f55e22674c71b1fa352bf52b907761a7758b1afe306a7fa86",
    ),
    ("even", "fibonacci"): (1, _NO_CONVOLUTION_DERIVED, _NO_CONVOLUTION),
    # derived mode refuses every cell, as the tiler does: a zero level, or
    # (zero-first, k >= 2) the zero prime size term(1)
    ("zero", "additive"): ((1, 0), _ZERO_REFUSED, _ONES),
    ("zero", "fibonacci"): ((1, 0), _ZERO_REFUSED, _ONES),
    # row 5 reads term 5, past the list: _SHORT_ERROR.  Under the convolution
    # identity, paper mode notes every cell past its index base cases before
    # reading a term past 4; derived mode reads term 5 to test whether levels
    # 5..6 are prime-shaped.
    ("short", "additive"): (2, _EMPTY, _EMPTY),
    ("short", "fibonacci"): ((2, 1), _EMPTY, _NO_CONVOLUTION),
    ("bent", "additive"): (
        1,
        "2da634387943bc6883679e69ce52f97a101c57be016d5e01069c9725028a7c83",
        "2da634387943bc6883679e69ce52f97a101c57be016d5e01069c9725028a7c83",
    ),
    ("bent", "fibonacci"): (1, _NO_CONVOLUTION_DERIVED, _NO_CONVOLUTION),
    ("zero-first", "additive"): (1, _ZERO_FIRST_REFUSED, _NO_ADDITIVE),
    ("zero-first", "fibonacci"): (
        1,
        _ZERO_FIRST_REFUSED,
        "a9a3399381a9ed68544961e78e76d6a14cd493a926295e26f26fd65b257afb99",
    ),
}


@pytest.mark.parametrize("name,kind", sorted(_TRIANGLE_DIGESTS))
def test_constructive_triangles_are_pinned(name, kind, capsys):
    code, *digests = _TRIANGLE_DIGESTS[(name, kind)]
    codes = code if isinstance(code, tuple) else (code, code)
    for mode, code, digest in zip(("derived", "paper"), codes, digests):
        argv = ["triangle", "--seq", _TRIANGLE_SEQS[name], "--kind", kind, "--mode", mode,
                "--format", "csv", "--rows", "7"]
        got, out, err = run(argv, capsys)
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), mode
        assert err == (_SHORT_ERROR if code == 2 else ""), mode


# ---------------------------------------------------------------------------
# cta3

def test_cta3_text(capsys):
    code, out, _ = run(
        ["cta3", "--seq", "natural", "--count", "17", "--format", "text"], capsys
    )
    assert code == 0
    assert out == "1,2,3,2,5,1,7,2,3,1,11,1,13,1,1,2,17\n"


def test_cta3_json_reconstruction(capsys):
    code, out, _ = run(["cta3", "--seq", "fibonacci", "--count", "12"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["h"] == ["1", "1", "2", "3", "5", "4", "13", "7", "17", "11", "89", "6"]
    assert obj["base"] == {"kind": "fibonacci"}
    assert obj["reconstruction"] == {"ok": True, "depth": 12}


def test_cta3_divisibility_witness(capsys):
    code, out, _ = run(
        ["cta3", "--seq", '{"kind": "explicit", "terms": ["1", "2", "3"]}',
         "--count", "2"],
        capsys,
    )
    assert code == 1
    assert json.loads(out)["witness"] == {"n": 2, "term": "3", "lcm": "2"}


def test_cta3_reconstruction_mismatch(capsys):
    spec = '{"kind": "explicit", "terms": ["1", "1", "2", "4", "4", "1", "8"]}'
    code, out, _ = run(["cta3", "--seq", spec, "--count", "6"], capsys)
    assert code == 1
    obj = json.loads(out)
    assert obj["reconstruction"]["ok"] is False
    assert obj["reconstruction"]["mismatch"] == {"n": 6, "expected": "8", "got": "16"}


def test_cta3_text_mismatch_to_file_keeps_both_lines(tmp_path, capsys):
    # both lines go through one open of --output, so the mismatch line does
    # not truncate the factor line
    spec = '{"kind": "explicit", "terms": ["1", "1", "2", "4", "4", "1", "8"]}'
    argv = ["cta3", "--seq", spec, "--count", "6", "--format", "text"]
    code, out, _ = run(argv, capsys)
    assert (code, out) == (1, "1,2,4,2,1,2\nreconstruction mismatch at n = 6: expected 8, got 16\n")
    target = tmp_path / "cta3.txt"
    assert run(argv + ["--output", str(target)], capsys) == (1, "", "")
    assert target.read_bytes() == out.encode()


def test_cta3_partial_reconstruction_depth(capsys):
    spec = '{"kind": "explicit", "terms": ["1", "1", "2", "4", "4", "1", "8"]}'
    code, out, _ = run(
        ["cta3", "--seq", spec, "--count", "6", "--reconstruct", "5"], capsys
    )
    assert code == 0
    assert json.loads(out)["reconstruction"] == {"ok": True, "depth": 5}


def test_cta3_deep_product_chain_does_not_recurse(capsys):
    # the reconstruction nests one product per factor h(j) != 1, far more
    # levels than the interpreter's default recursion limit
    code, out, err = run(["cta3", "--seq", "fibonacci", "--count", "600"], capsys)
    assert code == 0
    assert json.loads(out)["reconstruction"] == {"ok": True, "depth": 600}
    assert err == ""


# ---------------------------------------------------------------------------
# integers past the interpreter's 4,300-digit int/str limit

def test_triangle_cells_past_digit_limit(capsys):
    code, out, err = run(
        ["triangle", "--seq", "natural", "--kind", "additive", "--rows", "16"], capsys
    )
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    nat = fseq.natural()
    assert len(rows) == 16 * 17 // 2
    for n, k, value in rows:
        assert parse_chunked(value) == tiling.count_tilings_additive(nat, int(n), int(k))
    assert max(len(value) for _, _, value in rows) > 5000


def test_seq_factorials_past_digit_limit(capsys):
    code, out, err = run(
        ["seq", "--seq", "fibonacci", "--count", "220", "--factorials"], capsys
    )
    assert (code, err) == (0, "")
    got = [parse_chunked(v) for v in json.loads(out)["factorials"]]
    terms = fseq.prefix(fseq.fibonacci(), 220)
    assert got == list(itertools.accumulate(terms, operator.mul))
    assert len(json.loads(out)["factorials"][-1]) > 5000


HUGE_FLAG = "1" + "0" * 5000  # 5,001 digits, past the 4,300-digit limit
EXPLICIT_3 = '{"kind": "explicit", "terms": ["1", "2", "3", "4"]}'


def test_enumerate_limit_past_digit_limit(capsys):
    argv = ["enumerate", "--seq", "natural", "--k", "2", "--n", "3", "--limit"]
    code, out, err = run(argv + [HUGE_FLAG], capsys)
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert (obj["count"], len(obj["tilings"]), obj["truncated"]) == ("4", 4, False)
    assert run(argv + ["4"], capsys) == (code, out, err)


def test_tile_seed_past_digit_limit(capsys):
    argv = ["tile", "--seq", "natural", "--k", "2", "--n", "4", "--policy", "seeded-random"]
    code, out, err = run(argv + ["--seed", HUGE_FLAG], capsys)
    assert (code, err) == (0, "")
    want = tiling.tile_additive(fseq.natural(), 2, 4, 10**5000)
    assert json.loads(out)["blocks"] == poset.tiling_to_dict(want)["blocks"]


def test_triangle_rows_past_digit_limit(capsys):
    argv = ["triangle", "--seq", "natural", "--rows", HUGE_FLAG]
    assert run(argv, capsys) == (3, "", f"error: rows cap of 200 exceeded (needed {HUGE_FLAG})\n")


@pytest.mark.parametrize("argv,index", [
    (["seq", "--seq", EXPLICIT_3, "--count", HUGE_FLAG], "4"),
    (["tile", "--seq", EXPLICIT_3, "--k", "2", "--n", HUGE_FLAG], "4"),
    (["enumerate", "--seq", EXPLICIT_3, "--k", "2", "--n", HUGE_FLAG], "4"),
    (["enumerate", "--seq", EXPLICIT_3, "--k", HUGE_FLAG, "--n", HUGE_FLAG], HUGE_FLAG),
], ids=["seq-count", "tile-n", "enumerate-n", "enumerate-k"])
def test_range_flags_past_digit_limit(argv, index, capsys):
    want = f"error: explicit sequence has 3 terms past index 0; index {index} is out of range\n"
    assert run(argv, capsys) == (2, "", want)


@pytest.mark.parametrize("argv,err", [
    (["seq", "--seq", "natural", "--count"], "--count must be >= 0, got "),
    (["enumerate", "--seq", "natural", "--k", "2", "--n", "3", "--limit"],
     "limit must be >= 0, got "),
    (["enumerate", "--seq", "natural", "--k", "2", "--n", "3", "--workers"],
     "workers must be positive, got "),
    (["cta3", "--seq", "natural", "--count", "3", "--reconstruct"],
     "--reconstruct must lie in 1..3, got "),
    (["triangle", "--seq", "natural", "--rows"], "rows must be positive, got "),
    (["tile", "--seq", "natural", "--k", "2", "--n"], "layer needs 1 <= k <= n, got k=2, n="),
], ids=["seq-count", "limit", "workers", "reconstruct", "rows", "tile-n"])
def test_negative_flags_past_digit_limit(argv, err, capsys):
    assert run(argv + ["-" + HUGE_FLAG], capsys) == (2, "", f"error: {err}-{HUGE_FLAG}\n")


# ---------------------------------------------------------------------------
# printed F-nomials and factorials against the int kernel

def capture(argv):
    """(exit code, stdout, stderr) of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def int_kernel_cells(seq, rows, include_zero):
    """([(n, k, text)], error): each printed cell of the fnomial triangle as
    the per-cell kernel's value prints, a note's text led by "!", or the
    first error a cell raises.  fseq.fnomial shares no code with the rows
    the triangle is built from."""
    cells = []
    try:
        for n in range(1, rows + 1):
            for k in range(n + 1):
                f = fseq.fnomial(seq, n, k)
                if k or include_zero:
                    text = to_decimal(f.value)
                    cells.append((n, k, text if f.is_integer else "!non-integer " + text))
    except errors.CobwebError as exc:
        return None, exc
    return cells, None


def expected_triangle(seq, rows, include_zero, fmt):
    """The triangle's printed form, from int_kernel_cells alone."""
    cells, _ = int_kernel_cells(seq, rows, include_zero)
    if fmt == "csv":
        return "n,k,value\n" + "".join(f"{n},{k},{text}\n" for n, k, text in cells)
    if fmt == "text":
        width = max(len(text) for _, _, text in cells)
        lines = [
            f"{n:>3} | " + " ".join(text.rjust(width) for m, _, text in cells if m == n)
            for n in range(1, rows + 1)
        ]
        return "\n".join(lines) + "\n"
    obj = {
        "kind": "fnomial",
        "rows": rows,
        "seq": fseq.to_descriptor(seq),
        "cells": [{"n": n, "k": k, "value": t} for n, k, t in cells if t[0] != "!"],
        "notes": [{"n": n, "k": k, "note": t[1:]} for n, k, t in cells if t[0] == "!"],
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# small terms, zeros among them, and one past the 4,300-digit limit
_TERM_TEXTS = st.lists(st.sampled_from(["0", "1", "2", "3", "4", "6", HUGE_TERM]), max_size=7)


@given(_TERM_TEXTS, st.integers(1, 8), st.booleans(), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
@example([], 1, False, 0)
@example(["3", "2"], 2, True, 2)  # row 2 leaves the integers and comes back
@example(["2", "0", "3"], 3, False, 3)  # a zero term in the running product
@example([HUGE_TERM, "2", HUGE_TERM], 3, True, 3)
def test_printed_fnomials_and_factorials_match_the_int_kernel(terms, rows, include_zero, count):
    spec = json.dumps({"kind": "explicit", "terms": ["1"] + terms})
    seq = fseq.from_json(spec)
    cells, error = int_kernel_cells(seq, rows, include_zero)
    zero = ["--include-zero"] if include_zero else []
    for fmt in ("csv", "text", "json"):
        got = capture(["triangle", "--seq", spec, "--rows", str(rows), "--format", fmt] + zero)
        if error is not None:
            code = 2 if isinstance(error, errors.SequenceRangeError) else 1
            assert got == (code, "", f"error: {error}\n")
        else:
            notes = any(text[0] == "!" for _, _, text in cells)
            assert (got[0], got[2]) == (int(notes), "")
            assert_same_text(got[1], expected_triangle(seq, rows, include_zero, fmt), fmt)
    rows = max(count, 1)
    cells, error = int_kernel_cells(seq, rows, True)
    for fmt in ("json", "text"):
        got = capture(["seq", "--seq", spec, "--count", str(count), "--fnomials", "--format", fmt])
        if error is not None:
            code = 2 if isinstance(error, errors.SequenceRangeError) else 1
            assert got == (code, "", f"error: {error}\n")
        else:
            assert (got[0], got[2]) == (0, "")
            assert_same_text(got[1], expected_triangle(seq, rows, True, fmt), fmt)
    code, out, err = capture(["seq", "--seq", spec, "--count", str(count), "--factorials"])
    if count > len(terms):
        assert (code, out) == (2, "")
    else:
        products = itertools.accumulate(fseq.prefix(seq, count), operator.mul)
        assert (code, err) == (0, "")
        assert json.loads(out)["factorials"] == [to_decimal(v) for v in products]


def test_printed_values_neither_read_nor_change_the_decimal_context():
    ctx = decimal.getcontext()
    before = (ctx, ctx.prec, ctx.rounding, dict(ctx.traps), dict(ctx.flags))
    argvs = [
        ["seq", "--seq", "fibonacci", "--count", "120", "--factorials"],
        ["seq", "--seq", "fibonacci", "--count", "120", "--fnomials", "--format", "text"],
        ["triangle", "--seq", "fibonacci", "--rows", "120", "--format", "json"],
    ]
    with decimal.localcontext() as low:
        low.prec = 5  # a Decimal operator would round every value to 5 digits
        got = [capture(argv) for argv in argvs]
    ctx = decimal.getcontext()
    assert (ctx, ctx.prec, ctx.rounding, dict(ctx.traps), dict(ctx.flags)) == before
    products = itertools.accumulate(fseq.prefix(fseq.fibonacci(), 120), operator.mul)
    assert json.loads(got[0][1])["factorials"] == [to_decimal(v) for v in products]
    fib = fseq.fibonacci()
    assert_same_text(got[1][1], expected_triangle(fib, 120, True, "text"))
    assert_same_text(got[2][1], expected_triangle(fib, 120, False, "json"))


def test_explicit_term_past_digit_limit_round_trips(capsys):
    seq = fseq.from_json(HUGE)
    assert seq.term(1) == parse_chunked(HUGE_TERM)
    assert fseq.from_json(fseq.to_json(seq)).term(1) == seq.term(1)
    code, out, err = run(["seq", "--seq", HUGE, "--count", "1"], capsys)
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["terms"] == [HUGE_TERM]
    assert obj["seq"]["terms"] == ["1", HUGE_TERM]


def test_huge_parameter_in_output_and_errors(capsys):
    code, out, err = run(["seq", "--seq", HUGE_CONSTANT, "--count", "2"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"seq": {"kind": "constant", "t": HUGE_T}, "terms": [HUGE_T] * 2}
    code, out, err = run(["admissible", "--seq", ZERO_TIMES_HUGE, "--count", "1"], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: term 1 of product(explicit[1 terms], constant(%s)) is zero; "
        "denominator undefined\n" % HUGE_T
    )


def test_output_does_not_depend_on_the_digit_limit():
    # 640 digits is the least limit CPython accepts; every command below
    # converts values of 641 to 4,300 digits, which the default limit allows.
    term = "3" + "1234567890" * 100
    cases = [
        ["seq", "--seq", "fibonacci", "--count", "100", "--factorials"],
        ["seq", "--seq", '{"kind": "explicit", "terms": ["1", "%s"]}' % term, "--count", "1"],
        ["seq", "--seq", '{"kind": "constant", "t": "%s"}' % term, "--count", "1"],
        ["triangle", "--seq", "natural", "--kind", "additive", "--rows", "14",
         "--format", "json"],
        ["cta3", "--seq", '{"kind": "explicit", "terms": ["1", "%s", "%s"]}' % (term, term),
         "--count", "2"],
        ["admissible", "--seq", '{"kind": "explicit", "terms": ["1", "%s", "2"]}' % term,
         "--count", "2"],
    ]
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640")
    for argv in cases:
        expected = io.StringIO()
        with contextlib.redirect_stdout(expected):
            code = cli.main(argv)
        proc = subprocess.run(
            [sys.executable, "-m", "cobweb.cli", *argv], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stderr) == (code, ""), argv
        assert_same_text(proc.stdout, expected.getvalue(), argv)
        assert max(map(len, expected.getvalue().split('"'))) > 640, argv


# ---------------------------------------------------------------------------
# descriptor depth

def test_descriptor_at_depth_limit_works(capsys):
    depth = fseq.MAX_DESCRIPTOR_DEPTH
    code, out, err = run(
        ["seq", "--seq", shift_chain(depth), "--count", "600", "--format", "text"], capsys
    )
    assert (code, err) == (0, "")
    # every shift prepends one 1
    assert out.split() == ["1"] * (depth - 1) + [str(n) for n in range(1, 601 - (depth - 1))]


@pytest.mark.parametrize("depth", [fseq.MAX_DESCRIPTOR_DEPTH + 1, 500, 1200])
def test_descriptor_past_depth_limit_is_usage_error(depth, capsys):
    # 500 levels parse as JSON and fail the depth check; 1,200 levels
    # exceed the JSON parser's own nesting limit first
    code, out, err = run(["seq", "--seq", shift_chain(depth), "--count", "600"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: descriptor nests deeper than {fseq.MAX_DESCRIPTOR_DEPTH} levels\n"


# ---------------------------------------------------------------------------
# every argument vector ends in a documented exit code

_SPECS = st.sampled_from([
    "natural",
    "fibonacci",
    REC2,
    NON_ADMISSIBLE,
    PRODUCT_22_33,
    '{"kind": "explicit", "terms": ["1", "2", "0", "3"]}',
    ZERO_PRIME,
    '{"kind": "explicit", "terms": [1, 2.5]}',
    '{"kind": "periodic", "c": 0, "M": 2}',
    "nope",
    "{bad json",
    HUGE,
    HUGE_CONSTANT,
    ZERO_TIMES_HUGE,
    shift_chain(500),
    shift_chain(1200),
])
_SMALL = st.integers(-2, 6).map(str)
_FORMAT = st.sampled_from(["json", "text", "csv", "dot"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(cli._HANDLERS)))
    spec = draw(_SPECS)
    argv = [command, "--seq", spec]
    if command in ("seq", "admissible", "cta3"):
        argv += ["--count", draw(st.integers(-1, 30).map(str))]
    elif command in ("tile", "enumerate"):
        argv += ["--k", draw(_SMALL), "--n", draw(st.integers(-1, 4).map(str))]
    else:
        # The equal-blocks kind takes factorials of term products, and no
        # cap bounds their size yet: a huge term would not terminate, and
        # six rows on rec2 take about 20 s (factorial(243600) per cell).
        huge = spec in (HUGE, HUGE_CONSTANT)
        kinds = [k for k in tiling.TRIANGLE_KINDS if not huge or k != "equal-blocks"]
        rows = st.integers(-2, 5).map(str)
        argv += ["--rows", draw(rows), "--kind", draw(st.sampled_from(kinds))]
    optional = {
        "seq": [["--factorials"], ["--fnomials"]],
        "cta3": [["--reconstruct", draw(_SMALL)]],
        "tile": [["--variant", draw(st.sampled_from(["auto", "additive", "fibonacci"]))],
                 ["--policy", "seeded-random", "--seed", draw(_SMALL)],
                 ["--cap-chains", draw(_SMALL)]],
        "enumerate": [["--limit", draw(_SMALL)], ["--workers", draw(_SMALL)],
                      ["--cap-chains", draw(_SMALL)], ["--cap-placements", draw(_SMALL)],
                      ["--cap-nodes", draw(_SMALL)]],
        "triangle": [["--mode", "paper"], ["--include-zero"]],
    }.get(command, [])
    for option in optional:
        if draw(st.booleans()):
            argv += option
    if draw(st.booleans()):
        argv += ["--format", draw(_FORMAT)]
    return argv


# hypothesis raises the recursion limit while a test runs, which would hide
# a recursion-depth defect, so each argv runs under the limit found at import
_RECURSION_LIMIT = sys.getrecursionlimit()


@given(_argv())
@settings(max_examples=150, deadline=None)
def test_every_argv_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    raised = sys.getrecursionlimit()
    sys.setrecursionlimit(_RECURSION_LIMIT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.setrecursionlimit(raised)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    assert "Exceeds the limit" not in err.getvalue(), argv


# ---------------------------------------------------------------------------
# streamed output: long documents are written a row, tiling or item at a time

def _dump(obj):
    """A document as json.dumps writes the whole object."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _triangle_reference(spec, kind, rows, fmt):
    """The triangle's CSV or JSON document, from its cells and notes."""
    seq = cli.load_sequence(spec)
    table = tiling.triangle(seq, kind, rows)
    cells = [(n, k) for n in range(1, rows + 1) for k in range(1, n + 1)]
    notes = table.notes
    if fmt == "csv":
        return "n,k,value\n" + "".join(
            f"{n},{k},!{notes[n, k].replace(',', ';')}\n" if (n, k) in notes
            else f"{n},{k},{table.cells[n, k]}\n"
            for n, k in cells
        )
    return _dump({
        "kind": kind,
        "rows": rows,
        "seq": fseq.to_descriptor(seq),
        "cells": [{"n": n, "k": k, "value": str(table.cells[n, k])}
                  for n, k in cells if (n, k) not in notes],
        "notes": [{"n": n, "k": k, "note": notes[n, k]} for n, k in cells if (n, k) in notes],
    })


def _seq_reference(spec, key, values):
    return _dump({"seq": fseq.to_descriptor(cli.load_sequence(spec)), key: list(map(str, values))})


# its descriptor's own nonempty "terms" sorts before the "terms": [] placeholder
EXPLICIT_7 = '{"kind": "explicit", "terms": ["1", "1", "2", "3", "5", "8", "13"]}'
# a constructive triangle whose notes hold commas, which CSV turns into ";"
NOTED = ("natural", "fibonacci", 5)


@pytest.mark.parametrize("argv,code,reference", [
    pytest.param(["seq", "--seq", "natural", "--count", "0"], 0,
                 lambda: _seq_reference("natural", "terms", []), id="seq-empty"),
    pytest.param(["seq", "--seq", EXPLICIT_7, "--count", "0"], 0,
                 lambda: _seq_reference(EXPLICIT_7, "terms", []), id="seq-explicit-empty"),
    pytest.param(["seq", "--seq", EXPLICIT_7, "--count", "6"], 0,
                 lambda: _seq_reference(EXPLICIT_7, "terms", [1, 2, 3, 5, 8, 13]),
                 id="seq-explicit"),
    pytest.param(["seq", "--seq", EXPLICIT_7, "--count", "5", "--factorials"], 0,
                 lambda: _seq_reference(EXPLICIT_7, "factorials", [1, 2, 6, 30, 240]),
                 id="seq-factorials"),
    pytest.param(["seq", "--seq", "fibonacci", "--count", "6", "--fnomials"], 0,
                 lambda: expected_triangle(fseq.fibonacci(), 6, True, "json"), id="seq-fnomials"),
    pytest.param(["triangle", "--seq", NOTED[0], "--kind", NOTED[1], "--rows", str(NOTED[2]),
                  "--format", "json"], 1,
                 lambda: _triangle_reference(*NOTED, "json"), id="triangle-json-notes"),
    pytest.param(["triangle", "--seq", NOTED[0], "--kind", NOTED[1], "--rows", str(NOTED[2])], 1,
                 lambda: _triangle_reference(*NOTED, "csv"), id="triangle-csv-notes"),
    pytest.param(["triangle", "--seq", EXPLICIT_7, "--rows", "6", "--format", "json"], 1,
                 lambda: _triangle_reference(EXPLICIT_7, "fnomial", 6, "json"),
                 id="triangle-json-non-integer"),
    pytest.param(["tile", "--seq", "natural", "--k", "1", "--n", "1"], 0,
                 lambda: _tile_document(fseq.natural(), 1, 1, "additive", None),
                 id="tile-one-block"),
    pytest.param(["enumerate", "--seq", "natural", "--k", "1", "--n", "1", "--limit", "1"], 0,
                 lambda: _listing_document(fseq.natural(), 1, 1, 1), id="enumerate-one-block"),
    *(pytest.param(["enumerate", "--seq", "natural", "--k", "2", "--n", "3", "--limit", str(limit)],
                   0, functools.partial(_listing_document, fseq.natural(), 2, 3, limit),
                   id=f"enumerate-limit-{limit}")
      for limit in (0, 1, 5)),  # natural 2..3 has 4 tilings
])
def test_streamed_documents_match_one_dump(argv, code, reference, tmp_path, capsys):
    want = reference()
    got = run(argv, capsys)
    assert got[::2] == (code, "")
    assert_same_text(got[1], want, "stdout")
    target = tmp_path / "out"
    assert run(argv + ["--output", str(target)], capsys) == (code, "", "")
    assert_same_text(target.read_text(encoding="utf-8"), want, "--output")


class WriteOnly:
    """A stdout with write and flush alone, keeping each chunk written."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return len(text)

    def flush(self):
        pass


def write_only(argv):
    """(exit code, chunks written to stdout, stderr) of one CLI run."""
    out, err = WriteOnly(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.chunks, err.getvalue()


# (argv, chunks written): a long document takes one chunk per row, tiling or
# item, plus its head and tail; a short report or a text table is one chunk
_CHUNKED = [
    (["seq", "--seq", "fibonacci", "--count", "6"], 9),
    (["seq", "--seq", "fibonacci", "--count", "6", "--format", "text"], 7),
    (["seq", "--seq", "natural", "--count", "4", "--factorials"], 7),
    (["seq", "--seq", "natural", "--count", "4", "--factorials", "--format", "text"], 5),
    (["seq", "--seq", "natural", "--count", "3", "--fnomials"], 12),  # 10 cells
    (["seq", "--seq", "natural", "--count", "3", "--fnomials", "--format", "text"], 1),
    (["admissible", "--seq", "natural", "--count", "5"], 1),
    (["admissible", "--seq", NON_ADMISSIBLE, "--count", "2", "--format", "text"], 1),
    (["tile", "--seq", "natural", "--k", "2", "--n", "3"], 6),  # 3 blocks
    (["tile", "--seq", "natural", "--k", "2", "--n", "3", "--format", "text"], 4),
    (["tile", "--seq", "natural", "--k", "2", "--n", "3", "--format", "dot"], 1),
    (["enumerate", "--seq", "natural", "--k", "2", "--n", "3", "--limit", "3"], 6),
    (["enumerate", "--seq", "natural", "--k", "2", "--n", "3", "--format", "text"], 1),
    (["triangle", "--seq", "fibonacci", "--rows", "6"], 7),
    (["triangle", "--seq", "fibonacci", "--rows", "6", "--format", "text"], 1),
    (["triangle", "--seq", "fibonacci", "--rows", "3", "--format", "json"], 9),  # 6 cells
    (["cta3", "--seq", "natural", "--count", "6"], 1),
    (["cta3", "--seq", "natural", "--count", "6", "--format", "text"], 1),
]


@pytest.mark.parametrize("argv,chunks", _CHUNKED, ids=lambda v: " ".join(v) if type(v) is list else None)
def test_every_format_writes_to_a_write_only_stdout(argv, chunks):
    code, written, err = write_only(argv)
    assert (code, "".join(written), err) == capture(argv)
    assert len(written) == chunks


def test_failing_triangle_writes_nothing(tmp_path):
    argv = ["triangle", "--seq", '{"kind": "explicit", "terms": ["1", "2"]}', "--rows", "5"]
    code, written, err = write_only(argv)
    assert (code, written) == (2, [])
    assert err.startswith("error: explicit sequence has 1 terms")
    target = tmp_path / "triangle.csv"
    assert capture(argv + ["--output", str(target)])[:2] == (2, "")
    assert not target.exists()


def test_node_cap_refusal_writes_only_its_report(tmp_path):
    argv = ["enumerate", "--seq", "natural", "--k", "3", "--n", "5", "--limit", "5",
            "--cap-nodes", "10"]
    code, written, err = write_only(argv)
    assert (code, len(written), err) == (3, 1, "")
    report = json.loads(written[0])
    assert sorted(report) == ["complete", "count", "error"]
    assert report["complete"] is False and "nodes cap of 10 exceeded" in report["error"]
    target = tmp_path / "refusal.json"
    assert capture(argv + ["--output", str(target)]) == (3, "", "")
    assert target.read_text(encoding="utf-8") == written[0]


class Discard:
    """A stdout that keeps only the length of what it is given."""

    size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


def test_big_triangle_is_never_held_as_text():
    # 14,239,130 bytes of CSV (bench/expected.json); were the document or a
    # full copy of it ever built, the traced peak would pass its size
    out = Discard()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["triangle", "--seq", "fibonacci", "--rows", "200"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out.size) == (0, 14_239_130)
    assert peak < out.size, f"traced peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# plumbing

def test_load_sequence_variants(tmp_path):
    assert fseq.to_descriptor(cli.load_sequence("natural")) == {"kind": "natural"}
    assert cli.load_sequence(REC2).term(3) == 5
    path = tmp_path / "seq.json"
    path.write_text(REC2, encoding="utf-8")
    assert cli.load_sequence(str(path)).term(3) == 5


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(
        ["seq", "--seq", "natural", "--count", "3", "--output", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["terms"] == ["1", "2", "3"]


def test_usage_errors(capsys):
    assert run(["seq", "--seq", "nope", "--count", "3"], capsys)[0] == 2
    assert run(["seq", "--seq", "{bad json", "--count", "3"], capsys)[0] == 2
    assert run(["seq", "--seq", "natural"], capsys)[0] == 2
    assert run(["seq", "--seq", "natural", "--count", "-1"], capsys)[0] == 2
    assert run(["nonsense"], capsys)[0] == 2
    assert run(
        ["enumerate", "--seq", "natural", "--k", "2", "--n", "3",
         "--cap-nodes", "0"],
        capsys,
    )[0] == 2
    assert run(["tile", "--seq", "natural", "--k", "0", "--n", "3"], capsys)[0] == 2


@pytest.mark.parametrize("argv,err", [
    (["admissible", "--seq", "natural", "--count", "-1"], "--count must be >= 0, got -1"),
    (["cta3", "--seq", "natural", "--count", "0"], "--count must be >= 1, got 0"),
    (["seq", "--seq", '{"kind": "rec2", "f1": 1.5, "f2": 1}', "--count", "1"],
     "f1 must be an integer, got 1.5"),
    (["seq", "--seq", '{"kind": "rec2", "f1": true, "f2": 1}', "--count", "1"],
     "f1 must be an integer, got True"),
], ids=["admissible-count", "cta3-count", "descriptor-float", "descriptor-bool"])
def test_guards_are_usage_errors(argv, err, capsys):
    assert run(argv, capsys) == (2, "", f"error: {err}\n")


def test_malformed_integer_flag_is_an_argparse_refusal(capsys):
    code, out, err = run(["seq", "--seq", "natural", "--count", "1e3"], capsys)
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --count: invalid int value: '1e3'\n")


def test_zero_level_is_semantic_error(capsys):
    spec = '{"kind": "explicit", "terms": ["1", "2", "0", "3"]}'
    code, _, err = run(["tile", "--seq", spec, "--k", "1", "--n", "3"], capsys)
    assert code == 1
    assert "zero" in err


def _readme_examples():
    """(argv, tail, expected lines) for each `cobweb ...` example in the
    README's "Command line" block; tail is the N of a `| tail -N` or None."""
    text = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```\n", 2)[1]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *expected = chunk.split("\n")
        command, _, tail = command.partition(" | tail -")
        argv = shlex.split(command)
        assert argv[0] == "cobweb", command
        examples.append(
            pytest.param(argv[1:], int(tail) if tail else None, expected, id=argv[1]))
    return examples


@pytest.mark.parametrize("argv,tail,expected", _readme_examples())
def test_readme_examples(argv, tail, expected, capsys):
    _, out, err = run(argv, capsys)
    lines = out.splitlines()
    assert (lines[-tail:] if tail else lines) == expected
    assert err == ""


def test_tile_auto_reads_every_level_before_the_identity_scans(capsys):
    # both identities fail at (2, 1) inside the list, but level 4 lies past it
    spec = '{"kind": "explicit", "terms": ["1", "1", "3", "5"]}'
    code, out, err = run(["tile", "--seq", spec, "--k", "2", "--n", "4"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: explicit sequence has 3 terms past index 0; index 4 is out of range\n"


def test_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "cobweb.cli", "seq", "--seq", "natural",
         "--count", "3", "--format", "text"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 2 3\n"
    assert proc.stderr == ""
