"""scripts/claim_study.py on a 2-cell toy grid, run as users run it."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "claim_study.py"
TOY_GRID = ["--d-in", "12", "--n-target", "100", "--m-non-target", "200",
            "--proj-dim", "4", "--epochs", "0", "1", "--seeds", "1", "--fresh", "2000"]


def test_toy_grid_is_reproducible_and_bounds_hold(tmp_path):
    outputs = []
    for name in ("first.tsv", "second.tsv"):
        out = tmp_path / name
        subprocess.run([sys.executable, str(SCRIPT), "--output", str(out)] + TOY_GRID,
                       check=True, capture_output=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    header, *rows = [line.split("\t") for line in outputs[0].decode().splitlines()]
    assert header[:8] == ["d_in", "d_out", "epochs", "seed", "promised",
                          "rejected", "cp99_low", "cp99_high"]
    assert [row[:4] for row in rows] == [["12", "4", "0", "0"], ["12", "4", "1", "0"]]
    for row in rows:
        cell = dict(zip(header, row))
        assert cell["promised"] == repr(1 - 0.9)
        assert float(cell["cp99_low"]) <= float(cell["rejected"]) <= float(cell["cp99_high"])
