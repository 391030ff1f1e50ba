"""SHA-256 of every artifact of a fixed set of talgate runs, one line each.

    python3 scripts/artifact_digests.py OUT

Runs, in-process through ``talgate.cli.main`` and into the empty or new
directory OUT, the stock ``gen`` and ``train``, ``eval`` of that checkpoint
with ``--conflict --probe``, with no flag and with ``--conflict`` alone,
and a 6-video ``gen`` plus ``ablate`` in every mode of
``cli.ABLATION_MODES``, then prints
``sha256 path`` for every file under OUT and for each command's stdout, in
path order.  Two more lines hash the streams eval generates and keeps no
file of: ``generated/stock-twin`` the stock corpus's conflicted twin and
``generated/stock-probe`` its probe clips (each video's id and its four
streams, in order); a report shows them only through its rounded LAP and
probe numbers.  Six more hash what the stock checkpoint's scoring passes
return before any metric rounds it: the ``model.predict_corpus`` tables of
the corpus as stored, its vision view, its twin and the probe clips
(``scores/stock-*``, every row's start, end, label, score and video) and
the gates of the corpus and of the probe clips (``scores/stock-*gates``,
each video's gate in read order), so a last-bit change in scoring shows
here even where the report's 6-decimal rounding hides it.  ``train_log.jsonl`` is hashed without its ``wall_time`` fields
and stdout with OUT stripped from it, so two checkouts that compute the
same bytes print the same lines: run a copy of this script in each and
diff the outputs.  BLAS runs on one thread, since a threaded GEMM may sum
in another order.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from talgate import cli, model, synthgen

SMALL = {"num_videos": 6}
# each eval of the stock checkpoint: (name suffix, flags)
EVAL_FLAGS = (("", ["--conflict", "--probe"]), ("-plain", []), ("-conflict", ["--conflict"]))


def commands(out: Path) -> list[tuple[str, list]]:
    stock, small = out / "stock", out / "small"
    return [
        ("gen", ["gen", "--out", stock / "corpus"]),
        ("train", ["train", "--corpus", stock / "corpus", "--out", stock / "run"]),
    ] + [(f"eval{suffix}", ["eval", "--ckpt", stock / "run" / "model.ckpt", "--corpus",
                             stock / "corpus", *flags, "--out", stock / f"report{suffix}.json"])
         for suffix, flags in EVAL_FLAGS] + [
        ("small-gen", ["gen", "--config", small / "config.json", "--out", small / "corpus"]),
    ] + [(f"small-ablate-{mode}", ["ablate", "--corpus", small / "corpus", "--config",
                                   small / "config.json", "--mode", mode, "--out", small / mode])
         for mode in cli.ABLATION_MODES]


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "train_log.jsonl":
        records = [json.loads(line) for line in data.splitlines()]
        data = "".join(json.dumps({k: v for k, v in r.items() if k != "wall_time"}, sort_keys=True)
                       + "\n" for r in records).encode()
    return hashlib.sha256(data).hexdigest()


def streams_digest(videos) -> str:
    h = hashlib.sha256()
    for v in videos:
        h.update(v.id.encode())
        for stream in (v.vis, v.lang.cls_stream, v.lang.loc_stream, v.lang.adv_stream):
            h.update(stream.tobytes())
    return h.hexdigest()


def table_digest(table) -> str:
    h = hashlib.sha256()
    for column in (table.start, table.end, table.label, table.score, table.video):
        h.update(column.tobytes())
    return h.hexdigest()


def gates_digest(gates) -> str:
    h = hashlib.sha256()
    for gate in gates:
        h.update(gate.tobytes())
    return h.hexdigest()


def scores_lines(out: Path) -> list[str]:
    """The digests of the stock checkpoint's scoring tables and gates."""
    state = model.load_checkpoint(out / "stock" / "run" / "model.ckpt")
    corpus = synthgen.open_corpus(out / "stock" / "corpus")
    stored, gates, _, vision, twin = model.predict_corpus(
        state, corpus.videos, synthgen.VideoRecord.vision_view, synthgen.inject_conflict(corpus.config))
    probe, probe_gates, _ = model.predict_corpus(state, synthgen.generate_distractors(corpus.config))
    tables = (("stored", stored), ("vision", vision), ("twin", twin), ("probe", probe))
    return [f"{table_digest(t)}  scores/stock-{name}" for name, t in tables] + [
        f"{gates_digest(gates)}  scores/stock-gates",
        f"{gates_digest(probe_gates)}  scores/stock-probe-gates"]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: artifact_digests.py OUT", file=sys.stderr)
        return 1
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 1
    (out / "small").mkdir(parents=True)
    (out / "small" / "config.json").write_text(json.dumps(SMALL))
    lines = []
    for name, argv_ in commands(out):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            rc = cli.main([str(a) for a in argv_])
        if rc != 0:
            print(f"talgate {name} exited {rc}", file=sys.stderr)
            return rc
        text = printed.getvalue().replace(str(out), "")
        lines.append(f"{hashlib.sha256(text.encode()).hexdigest()}  stdout/{name}")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        lines.append(f"{digest(path)}  {path.relative_to(out)}")
    corpus = synthgen.read_corpus(out / "stock" / "corpus")
    lines.append(f"{streams_digest(map(synthgen.inject_conflict(corpus.config), corpus.videos))}"
                 "  generated/stock-twin")
    lines.append(f"{streams_digest(synthgen.generate_distractors(corpus.config))}"
                 "  generated/stock-probe")
    lines += scores_lines(out)
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
