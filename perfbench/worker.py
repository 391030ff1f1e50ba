"""One benchmark process: either the set-up of a workload or its timed ops.

    python3 perfbench/worker.py setup <workload> <seed> <dir> [--tiny]
    python3 perfbench/worker.py ops <workload> <op-dir> <seconds> <min-ops>
                                <warm-up-ops> <trace 0|1> <out.json> <setup-dir>...

``run.py`` starts it with ``src`` on ``PYTHONPATH`` and times the set-up
process from outside, so interpreter start and imports count as set-up.
Every command goes in-process through ``talgate.cli.main``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from talgate import cli
from talgate.metrics import validate_report
from talgate.model import load_checkpoint
from talgate.train import read_training_log

from tracing import Tracer

# Every workload at this size finishes in well under a second (self-test only).
TINY = {"num_classes": 4, "num_videos": 4, "frames": 32, "dim": 4,
        "ambiguity": [0.1, 0.1, 0.7, 0.7], "helpfulness": [0.3, 0.3, 0.9, 0.9], "epochs": 2}


def run_config(seed: int, tiny: bool) -> dict:
    """The stock config (every default) or the tiny one, at the run's seed."""
    return {**(TINY if tiny else {}), "seed": seed}


def talgate(*argv) -> str:
    """Run one talgate command in-process; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"talgate {argv[0]} exited {rc}")
    return out.getvalue()


def setup(workload: str, seed: int, d: Path, tiny: bool) -> None:
    d.mkdir(parents=True)
    cfg = d / "config.json"
    cfg.write_text(json.dumps(run_config(seed, tiny)))
    talgate("gen", "--config", cfg, "--out", d / "corpus")
    if workload == "stock-eval":
        talgate("train", "--corpus", d / "corpus", "--config", cfg, "--out", d / "run")


def op_argv(workload: str, s: Path, op: Path) -> tuple[list, Path]:
    """One talgate command of the op, on set-up ``s``, and the artifact whose
    bytes it must reproduce."""
    if workload == "stock-train":
        return ["train", "--corpus", s / "corpus", "--config", s / "config.json",
                "--out", op], op / "model.ckpt"
    return ["eval", "--ckpt", s / "run" / "model.ckpt", "--corpus", s / "corpus",
            "--conflict", "--probe", "--out", op / "report.json"], op / "report.json"


def check(workload: str, s: Path, op: Path, printed: str) -> dict:
    """Validate one op's output; returns its quality figures."""
    if workload == "stock-train":
        load_checkpoint(op / "model.ckpt")
        epochs = {**cli.default_run_config(), **json.loads((s / "config.json").read_text())}["epochs"]
        records = read_training_log(op / "train_log.jsonl")
        if len(records) != epochs:
            raise ValueError(f"train_log.jsonl has {len(records)} epochs, expected {epochs}")
        loss = records[-1]["loss_total"]
        if not math.isfinite(loss):
            raise ValueError(f"final loss_total is {loss}")
        return {"train_loss": loss}
    text = (op / "report.json").read_text()
    if printed != text:
        raise ValueError("eval printed other bytes than it wrote to report.json")
    payload = validate_report(json.loads(text))
    return {"map_avg": payload["map_avg"], "lap_pp": payload["lap"], "mconf": payload["mconf"]}


def one_op(workload: str, setups: list[Path], op: Path, tracer=None) -> dict:
    """Run the workload's op once: its command on each set-up in turn, each
    into its own directory under ``op``; then check every output.  With a
    tracer, the spans cover the commands only, not the checks."""
    shutil.rmtree(op, ignore_errors=True)
    cmds = [op_argv(workload, s, op / str(i)) for i, s in enumerate(setups)]
    if tracer:
        tracer.reset()
        tracer.install()
    printed = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        for argv, _ in cmds:
            printed.append(talgate(*argv))
    except (Exception, SystemExit) as exc:
        traceback.print_exc()
        return {"start": t0, "wall_s": time.perf_counter() - t0,
                "error": f"{type(exc).__name__}: {exc}"}
    finally:
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        if tracer:
            tracer.uninstall()
    rec = {"start": t0, "wall_s": wall, "cpu_s": cpu}
    try:
        rec["quality"] = [check(workload, s, op / str(i), out)
                          for i, (s, out) in enumerate(zip(setups, printed))]
        h = hashlib.sha256()
        for _, artifact in cmds:
            h.update(artifact.read_bytes())
        rec["digest"] = h.hexdigest()
    except Exception as exc:
        traceback.print_exc()
        rec["error"] = f"check failed: {type(exc).__name__}: {exc}"
    return rec


def run_ops(workload: str, setups: list[Path], op: Path, seconds: float, min_ops: int,
            warmup: int, trace: bool, out: Path) -> None:
    """Run the op ``warmup`` times untimed, then for ``seconds`` and at least
    ``min_ops`` times, then, with ``trace``, twice more traced; writes every
    op's record to ``out``."""
    warmup_ops = [one_op(workload, setups, op) for _ in range(warmup)]
    ops = []
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        ops.append(one_op(workload, setups, op))
    result = {"numpy": np.__version__, "artifact": op_argv(workload, setups[0], op)[1].name,
              "warmup_ops": warmup_ops, "ops": ops,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace:
        tracer = Tracer()
        result["traced_ops"] = []
        for i in range(2):
            rec = one_op(workload, setups, op, tracer)
            rec["layers"] = tracer.layer_stats()
            tracer.write_spans(out.parent / "spans.jsonl", i)
            result["traced_ops"].append(rec)
    out.write_text(json.dumps(result))


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        setup(argv[1], int(argv[2]), Path(argv[3]), tiny="--tiny" in argv)
    else:
        _, workload, op, seconds, min_ops, warmup, trace, out, *setups = argv
        run_ops(workload, [Path(s) for s in setups], Path(op), float(seconds), int(min_ops),
                int(warmup), trace == "1", Path(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
