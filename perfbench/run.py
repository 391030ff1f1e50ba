"""talgate benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload stock-eval --seed 1 --seconds 30 --trace 0

Run it from anywhere; it works on the checkout it sits in.  Every process
it starts runs ``src/talgate`` with BLAS on one thread.  The workload's
set-up runs once for each seed ``setup_seeds`` gives, each time in a fresh
process; then one more process runs the op ``WARMUP_OPS[workload]`` times
untimed and again and again for ``--seconds`` (and at least ``MIN_OPS``
times), and checks every output.  ``--trace 1`` adds two traced ops and
reports per-layer metrics instead of end-to-end ones.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, whose names and units come from
``BENCHMARK.json``.  The lines before it give the sample counts, the
output digests, the quality figures and the environment.  A full record
lands in ``.perfbench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostref
from tracing import metric_names

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("stock-train", "stock-eval")
# gen alone takes under a second: stock-train repeats it at the run's seed
TRAIN_SETUPS = 5
# gen + train takes about ten: stock-eval trains this many checkpoints, each
# at its own seed, and one op scores them all, which evens out how much
# decoding and NMS work one checkpoint's scores happen to cause
EVAL_CHECKPOINTS = 3
# untimed ops first: the first op of a process pays for page faults and
# allocator growth the others do not; a 9 s train op is too dear to repeat
WARMUP_OPS = {"stock-train": 0, "stock-eval": 1}
MIN_OPS = 3
BLAS_THREADS = 1
DEADLINE_S = 170.0  # a run must end within 180 s
RUN_METRICS = {"cli.op_wall_s", "cli.op_cpu_s", "host.ref_s", "trace.overhead_s"}


def setup_seeds(workload: str, seed: int) -> list[int]:
    """The seed of each set-up of a run; runs at distinct seeds share none."""
    if workload == "stock-train":
        return [seed] * TRAIN_SETUPS
    return [EVAL_CHECKPOINTS * seed + i for i in range(EVAL_CHECKPOINTS)]


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tree_digest(d: Path) -> str:
    """SHA-256 over every file under d (relative path, then bytes), except
    training logs, whose per-epoch wall times differ from run to run."""
    h = hashlib.sha256()
    for p in sorted(x for x in d.rglob("*") if x.is_file() and x.name != "train_log.jsonl"):
        h.update(str(p.relative_to(d)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def environment(nproc: int, cpu: int) -> dict:
    src = ROOT / "src" / "talgate"
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": nproc, "pinned_cpu": cpu, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "git_commit": commit,
            "src_lines": sum(len(p.read_text().splitlines()) for p in src.glob("*.py"))}


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tiny: bool):
        self.workload, self.seed, self.seconds, self.trace, self.tiny = (
            workload, seed, seconds, trace, tiny)
        self.work = ROOT / ".perfbench_work" / (("tiny-" if tiny else "") + workload)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.env.pop("ACTIONVLM_SEED", None)  # it would override the config seed
        # At these shapes OpenBLAS gains little from a second thread, and on
        # a shared host that thread mostly adds noise.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.deadline = time.monotonic() + DEADLINE_S

    def child(self, *args) -> tuple[float, float]:
        """Run worker.py to completion; returns its start (perf_counter) and
        wall time."""
        cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL)
        # wait(timeout=...) polls in steps of up to 50 ms, which would show in
        # setup_s; block in wait() and let a timer enforce the deadline instead
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            rc = proc.wait()
        except BaseException:  # interrupted: leave no worker behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        if rc != 0 and time.monotonic() >= self.deadline:
            raise BenchError(f"worker {args[0]} ran past the {DEADLINE_S:.0f} s deadline")
        if rc != 0:
            raise BenchError(f"worker {args[0]} exited {rc}")
        return t0, time.perf_counter() - t0

    def run(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        seeds = setup_seeds(self.workload, self.seed)
        setups, setup_digests, dirs = [], [], []
        speedometer = hostref.Speedometer(self.work / "host_samples.txt", self.env)
        try:
            if not speedometer.ready():
                raise BenchError("the host probe did not start")
            for i, seed in enumerate(seeds):
                d = self.work / f"setup{i}"
                setups.append(self.child("setup", self.workload, seed, d,
                                         *(["--tiny"] if self.tiny else [])))
                setup_digests.append(tree_digest(d))
                dirs.append(d)
            # every stock-train set-up holds the same corpus: train on the first
            op_setups = dirs[:1] if self.workload == "stock-train" else dirs
            out = self.work / "ops.json"
            self.child("ops", self.workload, self.work / "op", self.seconds, MIN_OPS,
                       WARMUP_OPS[self.workload], int(self.trace), out, *op_setups)
        finally:
            probe_lived = speedometer.proc.poll() is None
            samples = speedometer.stop()
        if not probe_lived:
            raise BenchError("the host probe ended before the run did")
        rec = json.loads(out.read_text())
        rec.update(setups=setups, setup_digests=setup_digests, setup_seeds=seeds,
                   host_samples=samples)
        return rec


def median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def summarize(workload: str, seed: int, trace: bool, rec: dict, bench: dict, env: dict) -> dict:
    ops = rec["warmup_ops"] + rec["ops"] + rec.get("traced_ops", [])
    good = [o for o in ops if "error" not in o]
    digests = sorted({o["digest"] for o in good})
    qualities = [o["quality"] for o in good]
    problems = [f"op {i}: {o['error']}" for i, o in enumerate(ops) if "error" in o]
    if len(digests) > 1:
        problems.append(f"{rec['artifact']} differs between ops: {digests}")
    if any(q != qualities[0] for q in qualities):
        problems.append("quality figures differ between ops")
    by_seed = {}
    for setup_seed, digest in zip(rec["setup_seeds"], rec["setup_digests"]):
        by_seed.setdefault(setup_seed, set()).add(digest)
    if any(len(ds) > 1 for ds in by_seed.values()):
        problems.append("set-up outputs differ between set-ups at one seed")

    timed = [o for o in rec["ops"] if "error" not in o]
    walls = [o["wall_s"] for o in timed]
    samples = rec["host_samples"]
    setup_walls = [wall for _, wall in rec["setups"]]
    setup_adj = [hostref.adjust(wall, start, samples) for start, wall in rec["setups"]]
    op_adj = [hostref.adjust(o["wall_s"], o["start"], samples) for o in timed]
    ops_phase = (timed[0]["start"], timed[-1]["start"] + timed[-1]["wall_s"]) if timed else (0, 0)
    host_ref = median(c for t, c in samples if ops_phase[0] <= t <= ops_phase[1])
    if trace:
        traced = rec["traced_ops"]
        layers = [o["layers"] for o in traced]
        counts = [{m["name"]: lay.get(m["name"], 0) for m in bench["per_layer"]
                   if m["unit"] != "s"} for lay in layers]
        if any(c != counts[0] for c in counts):
            problems.append("layer counters differ between the two traced ops")
        values = {
            "cli.op_wall_s": median(walls),
            "cli.op_cpu_s": median(o["cpu_s"] for o in timed),
            "host.ref_s": host_ref,
            "trace.overhead_s": median(o["wall_s"] for o in traced) - median(walls),
        }
        for m in bench["per_layer"]:
            name = m["name"]
            if name in counts[0]:  # exact counts, equal in both traced ops when correct
                values[name] = counts[0][name]
            elif name not in values:
                values[name] = median(lay.get(name, 0.0) for lay in layers)
        wanted = bench["per_layer"]
    else:
        counts = []
        values = {"setup_s": median(setup_adj),
                  "op_s": median(op_adj),
                  "peak_rss_mb": rec["peak_rss_mb"]}
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "env": {**env, "numpy": rec["numpy"]},
        "setup_seeds": rec["setup_seeds"],
        "digests": {"setup": rec["setup_digests"], rec["artifact"]: digests},
        "quality": qualities[0] if qualities else None,
        "counters": counts[0] if counts else None,
        "problems": problems, "host_ref_s": host_ref,
        "setup_wall_s": setup_walls, "setup_adjusted_s": setup_adj,
        "op_wall_s": walls, "op_adjusted_s": op_adj,
        "result": {"correct": not problems, "attempted": len(ops),
                   "failed": sum("error" in o for o in ops), "metrics": metrics},
    }


def report(s: dict) -> None:
    print(f"== {s['workload']} seed={s['seed']} trace={s['trace']}")
    print(f"env: {json.dumps(s['env'], sort_keys=True)}")
    for name, key in (("set-up", "setup"), ("op", "op")):
        for kind in ("wall", "adjusted"):
            xs = s[f"{key}_{kind}_s"]
            if xs:
                print(f"{name} {kind} s ({len(xs)} samples): min {min(xs):.3f} "
                      f"median {median(xs):.3f} max {max(xs):.3f}")
    print(f"host probe sample during the ops: median {s['host_ref_s']:.5f} s "
          f"(nominal {hostref.REF_S} s)")
    print(f"quality: {json.dumps(s['quality'], sort_keys=True)}")
    print(f"digests: {json.dumps(s['digests'], sort_keys=True)}")
    if s["counters"] is not None:
        print(f"counters: {json.dumps(s['counters'], sort_keys=True)}")
    for p in s["problems"]:
        print(f"FAILED CHECK: {p}")
    for name, m in s["result"]["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny corpus and 2 epochs, for the self-test")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through child()
    if not (ROOT / "src" / "talgate" / "cli.py").is_file():
        print(f"error: no talgate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = {m["name"] for m in bench["per_layer"]} - metric_names() - RUN_METRICS
    if unknown:
        print(f"error: BENCHMARK.json names per-layer metrics no trace produces: "
              f"{sorted(unknown)}", file=sys.stderr)
        return 2
    # The benchmark, the probe and every process they start share one CPU, so
    # that the probe sees the same host speed as the timed work.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    rc = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        runner = Runner(workload, args.seed, args.seconds, bool(args.trace), args.tiny)
        try:
            rec = runner.run()
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 3
        s = summarize(workload, args.seed, bool(args.trace), rec, bench, environment(len(cpus), cpus[-1]))
        (runner.work / "result.json").write_text(json.dumps(s, indent=2, sort_keys=True) + "\n")
        report(s)
        print(json.dumps(s["result"]), flush=True)
        rc = rc or (0 if s["result"]["correct"] else 1)
    return rc


if __name__ == "__main__":
    sys.exit(main())
