"""Command-line surface: subcommands, formats, exit codes, caps."""
import contextlib
import hashlib
import io
import itertools
import json
import operator
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobweb import cli, errors, fseq, poset, tiling

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


def _tile_document(seq, k, n, variant, policy):
    """The tile --format json document as json.dumps writes the whole object."""
    tile = tiling.tile_additive if variant == "additive" else tiling.tile_fibonacci
    obj = poset.tiling_to_dict(tile(seq, k, n, policy))
    obj.update(variant=variant, block_count=str(len(obj["blocks"])), verified=True)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("kind,variant,seed", [
    ("fibonacci", "fibonacci", None), ("natural", "additive", None),
    ("fibonacci", "fibonacci", 7), ("natural", "additive", 11),
])
def test_tile_json_is_byte_identical(kind, variant, seed, tmp_path, capsys):
    argv = ["tile", "--seq", kind, "--k", "2", "--n", "5", "--format", "json"]
    policy = tiling.TilePolicy()
    if seed is not None:
        argv += ["--policy", "seeded-random", "--seed", str(seed)]
        policy = tiling.TilePolicy(mode="seeded-random", seed=seed)
    want = _tile_document(cli.load_sequence(kind), 2, 5, variant, policy)
    assert run(argv, capsys) == (0, want, "")
    target = tmp_path / "tile.json"
    assert run(argv + ["--output", str(target)], capsys) == (0, "", "")
    assert target.read_text(encoding="utf-8") == want


def test_block_arrays_match_json_dumps_at_any_depth():
    blocks = [poset.BlockPlacement(((0, 1), (), (3,))), poset.BlockPlacement(((2,),))]
    for depth in range(4):
        want = json.dumps([[list(s) for s in b.subsets] for b in blocks], indent=2)
        assert cli._blocks_json(blocks, depth) == want.replace("\n", "\n" + "  " * depth)
        assert cli._blocks_json([], depth) == "[]"


def test_tile_auto_picks_fibonacci(capsys):
    code, out, _ = run(["tile", "--seq", "fibonacci", "--k", "3", "--n", "4"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["variant"] == "fibonacci"
    assert obj["block_count"] == "6"


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


def _listing_document(seq, k, n, limit):
    """The enumerate --limit document as json.dumps writes the whole object."""
    layer = poset.build_layer(seq, k, n)
    res = tiling.enumerate_tilings(layer, limit)
    obj = {
        "count": str(res.count),
        "complete": True,
        "truncated": res.truncated,
        "layer": {"k": k, "n": n, "sizes": [str(s) for s in layer.sizes]},
        "tilings": [poset.tiling_to_dict(t)["blocks"] for t in res.tilings],
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


GAP = '{"kind": "explicit", "terms": ["1", "1", "2", "4", "3", "5"]}'


@pytest.mark.parametrize("spec,k,n", [
    ("natural", 3, 4), ("natural", 2, 5), ("fibonacci", 2, 5), (PRODUCT_22_33, 2, 6),
    (GAP, 3, 5),
])
def test_enumerate_listing_json_is_byte_identical(spec, k, n, capsys):
    seq = cli.load_sequence(spec)
    count = tiling.enumerate_tilings(poset.build_layer(seq, k, n)).count
    for limit in (0, 1, 7, count + 1):
        argv = ["enumerate", "--seq", spec, "--k", str(k), "--n", str(n), "--limit", str(limit)]
        code, out, err = run(argv, capsys)
        assert (code, err) == (0 if count else 1, ""), limit
        assert out == _listing_document(seq, k, n, limit), limit
    assert (count == 0) == (spec == GAP)


def test_enumerate_listing_json_to_file(tmp_path, capsys):
    target = tmp_path / "listing.json"
    argv = ["enumerate", "--seq", "natural", "--k", "3", "--n", "4", "--limit", "7"]
    code, out, _ = run(argv + ["--output", str(target)], capsys)
    assert (code, out) == (0, "")
    assert target.read_text(encoding="utf-8") == _listing_document(fseq.natural(), 3, 4, 7)


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
    code, out, _ = run(
        ["enumerate", "--seq", "natural", "--k", "3", "--n", "4",
         "--cap-nodes", "50"],
        capsys,
    )
    assert code == 3
    obj = json.loads(out)
    assert obj["complete"] is False
    assert "nodes cap of 50 exceeded" in obj["error"]


def test_enumerate_node_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("COBWEB_CAP_NODES", "50")
    code, out, _ = run(["enumerate", "--seq", "natural", "--k", "3", "--n", "4"], capsys)
    assert code == 3
    assert json.loads(out)["complete"] is False


def test_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("COBWEB_CAP_NODES", "50")
    code, out, _ = run(
        ["enumerate", "--seq", "natural", "--k", "3", "--n", "4",
         "--cap-nodes", "100000"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["count"] == "132"


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
    argv = ["enumerate", "--seq", "natural", "--k", "4", "--n", "5", "--format", "text"]
    assert run(argv + ["--limit", "1000"], capsys) == (0, "count 44928\n", "")
    code, out, err = run(argv + ["--limit", "-1"], capsys)
    assert code == 2 and out == "" and "limit" in err


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
    argv = ["enumerate", "--seq", "natural", "--k", "3", "--n", "4", "--limit", "5"]
    base = run(argv, capsys)
    multi = run(argv + ["--workers", "4"], capsys)
    assert base == multi


def test_enumerate_deep_search_does_not_recurse(capsys):
    # 4,895 chains, one single-chain block each: a search depth far past the
    # interpreter's default recursion limit
    code, out, err = run(
        ["enumerate", "--seq", "fibonacci", "--k", "10", "--n", "11"], capsys
    )
    assert code == 0
    assert json.loads(out)["count"] == "1"
    assert err == ""


# (name, argv, cap): each argv needs more than cap of the named resource
CAP_CASES = [
    ("chains", ["tile", "--seq", "natural", "--k", "2", "--n", "5"], 100),
    ("chains", ["enumerate", "--seq", "natural", "--k", "3", "--n", "4"], 10),
    ("placements", ["enumerate", "--seq", "natural", "--k", "3", "--n", "4"], 20),
    ("nodes", ["enumerate", "--seq", "natural", "--k", "3", "--n", "4"], 50),
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


@pytest.mark.parametrize("name", cli.CAP_NAMES)
def test_cap_env_must_be_integer(name, capsys, monkeypatch):
    monkeypatch.setenv(f"COBWEB_CAP_{name.upper()}", "1e3")
    code, _, err = run(["enumerate", "--seq", "natural", "--k", "2", "--n", "3"], capsys)
    assert code == 2
    assert f"COBWEB_CAP_{name.upper()} must be an integer" in err


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("name", cli.CAP_NAMES)
def test_zero_cap_is_usage_error(name, source, capsys, monkeypatch):
    argv = ["enumerate", "--seq", "natural", "--k", "2", "--n", "3"]
    if source == "flag":
        argv += [f"--cap-{name}", "0"]
    else:
        monkeypatch.setenv(f"COBWEB_CAP_{name.upper()}", "0")
    code, _, err = run(argv, capsys)
    assert code == 2
    assert f"cap-{name} must be >= 1" in err


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


# sha256 of the stdout of `triangle --format csv --rows 7`, pinned from the
# output of the separate additive and convolution counters that one shared
# recursion replaced: (sequence, kind) -> (exit code, derived, paper)
_TRIANGLE_SEQS = {
    "natural": "natural",
    "fibonacci": "fibonacci",
    "rec2(1,2)": REC2,
    "rec2(1,3)": '{"kind": "rec2", "f1": 1, "f2": 3}',
    "even": '{"kind": "explicit", "terms": ["1", "2", "4", "6", "8", "10", "12", "14"]}',
    "zero": '{"kind": "explicit", "terms": ["1", "0", "0", "0", "0", "0", "0", "0"]}',
    "short": '{"kind": "explicit", "terms": ["1", "1", "2", "3", "4"]}',
    # the additive identity holds through n = 4, the convolution one through
    # n = 4 with a non-integral family count at (4, 2)
    "bent": '{"kind": "explicit", "terms": ["1", "1", "2", "3", "4", "6", "7", "8"]}',
    "zero-first": '{"kind": "explicit", "terms": ["1", "0", "2", "4", "8", "16", "32", "64"]}',
}
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
_NO_CONVOLUTION = "cd25ed22919506ea2b198a2bb92a2593282fe21f7901d24b958effb6068d38e0"
_NO_ADDITIVE = "cab8b540515af30fdaddd0741c2063297fc733d193e88175b7f5f4c71d9dc3d7"
_SHORT_ERROR = "error: explicit sequence has 4 terms past index 0; index 5 is out of range\n"
_ONES = "ad1fa8456ca6116aa686e062e492545c9b48e9312e2e7afd4e76903508ba9f0d"
_TRIANGLE_DIGESTS = {
    ("natural", "additive"): (
        0,
        "59ac7bf76fcd6d04ba87925fb628b6c9371ca3a6e51067a4076e54965ccc6470",
        "59ac7bf76fcd6d04ba87925fb628b6c9371ca3a6e51067a4076e54965ccc6470",
    ),
    ("natural", "fibonacci"): (1, _NO_CONVOLUTION, _NO_CONVOLUTION),
    ("fibonacci", "additive"): (
        1,
        "7e4187358f1e31be52a21efd9da3bd1064693fb703297c23d1a2a3b6a2a88872",
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
        "781b9173dff25602ec7c391dcd455c5895cf3752adb681f6a906c2c5aa06f5b4",
        "f96d2c2fecf02498f00864b6a36cd1923f6cf36bbb43d9db0159c95f03ce2c3a",
    ),
    ("rec2(1,3)", "additive"): (1, _NO_ADDITIVE, _NO_ADDITIVE),
    ("rec2(1,3)", "fibonacci"): (
        0,
        "941ca01ee6b489537949ebea0ad9d64cd3b9bfa758ac64faf2a5b957fe54575f",
        "22a9fbf4ccda64f61dff2210123a70921cef34d2b2d114f47dba17134e4ad20f",
    ),
    ("even", "additive"): (
        0,
        "b48e32857db5c48f55e22674c71b1fa352bf52b907761a7758b1afe306a7fa86",
        "b48e32857db5c48f55e22674c71b1fa352bf52b907761a7758b1afe306a7fa86",
    ),
    ("even", "fibonacci"): (1, _NO_CONVOLUTION, _NO_CONVOLUTION),
    ("zero", "additive"): (0, _ONES, _ONES),
    ("zero", "fibonacci"): (0, _ONES, _ONES),
    # row 5 reads term 5, past the list: _SHORT_ERROR
    ("short", "additive"): (2, _EMPTY, _EMPTY),
    ("short", "fibonacci"): (1, _NO_CONVOLUTION, _NO_CONVOLUTION),
    ("bent", "additive"): (
        1,
        "2da634387943bc6883679e69ce52f97a101c57be016d5e01069c9725028a7c83",
        "2da634387943bc6883679e69ce52f97a101c57be016d5e01069c9725028a7c83",
    ),
    ("bent", "fibonacci"): (1, _NO_CONVOLUTION, _NO_CONVOLUTION),
    ("zero-first", "additive"): (1, _NO_ADDITIVE, _NO_ADDITIVE),
    ("zero-first", "fibonacci"): (
        1,
        "763b343e1490af80a55e1695f1a7c25b7d3910da5edf700a4456c1fd512aa349",
        "a9a3399381a9ed68544961e78e76d6a14cd493a926295e26f26fd65b257afb99",
    ),
}


@pytest.mark.parametrize("name,kind", sorted(_TRIANGLE_DIGESTS))
def test_constructive_triangles_are_pinned(name, kind, capsys):
    code, *digests = _TRIANGLE_DIGESTS[(name, kind)]
    for mode, digest in zip(("derived", "paper"), digests):
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
        assert proc.stdout == expected.getvalue(), argv
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


def test_zero_level_is_semantic_error(capsys):
    spec = '{"kind": "explicit", "terms": ["1", "2", "0", "3"]}'
    code, _, err = run(["tile", "--seq", spec, "--k", "1", "--n", "3"], capsys)
    assert code == 1
    assert "zero" in err


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
