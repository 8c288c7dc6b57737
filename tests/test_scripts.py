"""The scripts under scripts/ run end to end on small arguments."""
import importlib.util
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)]
        + [a.format(tmp=tmp_path) for a in args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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
