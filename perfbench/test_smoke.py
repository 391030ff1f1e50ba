"""Self-test of the benchmark at a tiny config (a few seconds in total).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once untraced and twice traced.  It checks that every
metric ``BENCHMARK.json`` names is reported, that each run's ops agree on
their output digest, that the traced digest equals the untraced one, and
that the per-layer counters repeat exactly between the two traced runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, trace: int) -> tuple[dict, dict]:
    """One tiny run; returns its result line and its full record."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_work" / f"tiny-{workload}" / "result.json").read_text())
    return result, record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload(workload):
    plain, plain_rec = run(workload, 0)
    traced, traced_rec = run(workload, 1)
    again, again_rec = run(workload, 1)

    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    for res, group in ((plain, "end_to_end"), (traced, "per_layer"), (again, "per_layer")):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in BENCH[group]} == \
            {k: v["unit"] for k, v in res["metrics"].items()}
    for m in BENCH["end_to_end"]:
        assert plain["metrics"][m["name"]]["value"] > 0

    artifact = [k for k in plain_rec["digests"] if k != "setup"][0]
    digests = [r["digests"][artifact] for r in (plain_rec, traced_rec, again_rec)]
    assert all(len(d) == 1 for d in digests) and digests[0] == digests[1] == digests[2]
    assert plain_rec["digests"]["setup"] == traced_rec["digests"]["setup"]
    assert traced_rec["counters"] == again_rec["counters"]
    assert traced["metrics"]["model.forward_video.calls"]["value"] > 0
