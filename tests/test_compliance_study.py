import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_compliance_study_writes_its_five_outputs(tmp_path):
    # --out-dir is read against the repository root, so an absolute one keeps the run in tmp_path
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compliance_study.py"), "-R", "2", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    outputs = ["appc_like_mc.json", "appc_like_draw.csv", "appc_like_draw_analysis.json",
               "appc_like_draw_points.csv", "appc_like_census.csv"]
    assert all((tmp_path / name).is_file() for name in outputs)
    points = (tmp_path / "appc_like_draw_points.csv").read_text().splitlines()
    assert points[0] == "label,lower,upper,ci_lower,ci_upper,point"
    assert json.loads((tmp_path / "appc_like_draw_analysis.json").read_text())["schema"] == "factorbounds-analysis-v1"
