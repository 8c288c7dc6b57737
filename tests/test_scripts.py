"""The scripts under scripts/ run end to end on small arguments."""
import csv
import importlib.util
import io
import os
import pathlib
import subprocess
import sys

import pytest

from cobweb import tiling

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("tiling_census.py", ["--max-n", "4"]),
        ("render_layers.py", ["--out", "{tmp}", "--seed", "3"]),
        ("triangle_gallery.py", ["--rows", "6"]),
        # row 8 of the natural census holds values past 4,300 digits
        ("tiling_census.py", ["--seq", "natural", "--max-n", "8", "--skip-exhaustive"]),
        ("render_layers.py", ["--out", "{tmp}"]),
    ],
)
def test_script_runs(script, args, tmp_path):
    proc = run_script(script, args, tmp_path)
    assert proc.returncode == 0, proc.stderr


def run_script(script, args, tmp_path):
    """The finished process of one script run, "{tmp}" in args read as tmp_path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)]
        + [a.replace("{tmp}", str(tmp_path)) for a in args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


SHORT = '{"kind":"explicit","terms":["1","1","2"]}'  # two terms past index 0
PAST_THE_END = "error: explicit sequence has 2 terms past index 0; index 3 is out of range\n"


@pytest.mark.parametrize(
    "script, args, code, err",
    [
        ("tiling_census.py", ["--seq", SHORT, "--max-n", "3"], 2, PAST_THE_END),
        ("render_layers.py", ["--out", "{tmp}", "--seq", SHORT, "--k", "2", "--n", "4"],
         2, PAST_THE_END),
        ("triangle_gallery.py", ["--rows", "201"], 3,
         "error: rows cap of 200 exceeded (needed 201)\n"),
        ("tiling_census.py", ["--seq", "nope"], 2, "error: unknown sequence kind 'nope'\n"),
    ],
)
def test_script_refusals_exit_as_the_cli_does(script, args, code, err, tmp_path):
    proc = run_script(script, args, tmp_path)
    assert (proc.returncode, proc.stderr) == (code, err)


def test_census_notes_a_zero_term_per_cell(tmp_path):
    # term 2 is zero: every column that reaches level 2 notes it in its cell
    zero = '{"kind":"explicit","terms":["1","1","0","2"]}'
    args = ["--seq", zero, "--max-n", "3"]
    census = run_script("tiling_census.py", args, tmp_path)
    assert (census.returncode, census.stderr) == (0, "")
    rows = {(row["k"], row["n"]): row for row in csv.DictReader(io.StringIO(census.stdout))}
    assert len(rows) == 6
    assert rows["1", "2"]["blocks"] == "error: term 2 of explicit[3 terms] is zero; denominator undefined"
    assert rows["1", "2"]["exhaustive"] == "error: level 2 of explicit[3 terms] has zero slots"
    assert rows["3", "3"]["bound"] == "error: term 2 of explicit[3 terms] is zero; denominator undefined"
    # --output writes the same CSV, and its refusal leaves no traceback
    out = tmp_path / "census.csv"
    proc = run_script("tiling_census.py", args + ["--output", str(out)], tmp_path)
    assert (proc.returncode, proc.stdout) == (0, f"wrote {out}\n")
    assert out.read_text(encoding="utf-8") == census.stdout
    proc = run_script("tiling_census.py", args + ["--output", str(tmp_path / "no" / "x.csv")], tmp_path)
    assert proc.returncode == 2 and proc.stderr.startswith("error: ")


def test_render_layers_exits_on_a_failed_verification(tmp_path, monkeypatch, capsys):
    # an explicit check, not an assert, so that python -O keeps it
    path = ROOT / "scripts" / "render_layers.py"
    spec = importlib.util.spec_from_file_location("render_layers", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    violation = tiling.TilingViolation("shared-chain", "chain (0, 0) lies in blocks 0 and 1")
    monkeypatch.setattr(tiling, "verify_tiling", lambda t: violation)
    monkeypatch.setattr(sys, "argv", ["render_layers.py", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code == 1
    assert capsys.readouterr().err == (
        "natural 2..4 failed verification: shared-chain: chain (0, 0) lies in blocks 0 and 1\n"
    )
    assert list(tmp_path.iterdir()) == []
