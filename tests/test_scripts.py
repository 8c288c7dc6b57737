"""The scripts under scripts/ run end to end on small arguments."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("tiling_census.py", ["--max-n", "4"]),
        ("render_layers.py", ["--out", "{tmp}", "--seed", "3"]),
        ("triangle_gallery.py", ["--rows", "6"]),
        # row 8 of the natural census holds values past 4,300 digits
        ("tiling_census.py", ["--seq", "natural", "--max-n", "8", "--skip-exhaustive"]),
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
