"""Command-line front end: gen / train / eval / ablate / report.

Every command is a function of its arguments and the files they name, so
re-running one reproduces the corpus, checkpoint, and report byte for
byte; the config's ``seed`` is the only seed, and no environment variable
changes a result.  A run config is flat JSON whose keys are the fields of
``GenConfig``, ``ModelConfig`` and ``TrainConfig``; each default is the
dataclass field's (``default_run_config``).  Every command checks the whole
config at load, before it writes anything: an unknown key, a value of the
wrong JSON type, a non-finite number or an out-of-range value exits 2
naming the config file.

There is one scorer, ``build_report``: ``eval`` writes its report, and each
``ablate`` row is the ``map_avg`` and ``lap`` of the report that
``eval --conflict`` writes for the row's model.  It reads the corpus once,
in one ``model.predict_corpus`` call that scores each video as stored, as
its vision view and as its conflicted twin (``synthgen.inject_conflict``)
before the next is read; the probe clips are a stream that
``metrics.ambiguity_probe`` generates from the corpus config.

Exit codes: 0 success, 1 usage error, 2 data/invariant error (an OS error
that names its path included: a missing corpus, say), 3 internal.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import logging
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, FormatError, check_types, read_json, write_atomic
from .metrics import (TIOU_THRESHOLDS, MetricsReport, ambiguity_probe, ap_by_class,
                      canonical_json, difficulty_buckets, hallucination_rates, lap,
                      map_at, mla, validate_report)
from .model import (ModelConfig, ModelState, load_checkpoint, predict_corpus,
                    save_checkpoint)
from .synthgen import (Corpus, GenConfig, VideoRecord, generate_corpus, inject_conflict,
                       open_corpus, read_corpus, write_corpus)
from .train import TrainConfig, fit, read_training_log

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

SWEEP_LAMBDAS = (1.0, 0.8, 0.6, 0.4, 0.2, 0.0)
# each ablation mode's rows: a label plus the run-config overrides of the model it trains
ABLATION_ROWS = {
    "sweep": [(f"fixed-{v:.1f}", {"lambda_mode": "fixed", "fixed_lambda": v}) for v in SWEEP_LAMBDAS]
             + [("learned", {"lambda_mode": "learned"})],
    "vision-only": [("vision-only", {"lambda_mode": "fixed", "fixed_lambda": 0.0})],
    "language-only": [("language-only", {"lambda_mode": "language_only"})],
    "no-adv-loss": [("no-adv-loss", {"lambda_adv": 0.0})],
    "no-tg-loss": [("no-tg-loss", {"lambda_tg": 0.0})],
}
ABLATION_MODES = tuple(ABLATION_ROWS)


def default_run_config() -> dict:
    """Every config key with its default, the dataclass field's (a tuple as a JSON list)."""
    run = {}
    for cls in (GenConfig, ModelConfig, TrainConfig):
        run.update((f.name, list(f.default) if isinstance(f.default, tuple) else f.default)
                   for f in fields(cls) if f.default is not MISSING)
    return run


def build_config(cls, run: dict):
    """A validated ``cls`` from the run-config keys named like its fields."""
    return cls(**{f.name: run[f.name] for f in fields(cls)}).validate()


def load_run_config(path: str | None) -> dict:
    """The full run config: the defaults updated with the keys the config
    file at ``path`` sets (none without a file), each of the JSON type of its
    default and every value range-checked.  The file is read once, so a pipe
    serves as well as a file."""
    cfg = default_run_config()
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file {p} does not exist")
        data = read_json(p, "config file")
        if not isinstance(data, dict):
            raise FormatError(f"config file {p} must hold a single JSON object")
        unknown = sorted(set(data) - set(cfg))
        if unknown:
            raise ConfigError(f"config file {p}: unknown config key(s) {', '.join(unknown)}; "
                              f"valid keys: {', '.join(sorted(cfg))}")
        check_types(f"config file {p}", data, GenConfig, ModelConfig, TrainConfig)
        cfg.update(data)
        try:  # every value in range, the model checked at the config's own dim
            for cls in (GenConfig, ModelConfig, TrainConfig):
                build_config(cls, cfg)
        except ConfigError as exc:
            raise ConfigError(f"config file {p}: {exc}") from exc
    return cfg


def _stamp(out_dir: Path, run: dict, command: str) -> None:
    """Config echo plus tool/version stamp; both byte-stable."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / "config.json", json.dumps(run, sort_keys=True, indent=2) + "\n")
    write_atomic(out_dir / "run.json", json.dumps(
        {"command": command, "seed": run["seed"], "tool": "talgate", "version": __version__},
        sort_keys=True, indent=2) + "\n")


def _check_compatible(state: ModelState, corpus: Corpus) -> None:
    if state.cfg.dim != corpus.config.dim or state.cfg.num_classes != corpus.config.num_classes:
        raise ConfigError(
            f"checkpoint expects dim={state.cfg.dim}, num_classes={state.cfg.num_classes}; "
            f"corpus has dim={corpus.config.dim}, num_classes={corpus.config.num_classes}")


def build_report(state: ModelState, corpus: Corpus, *, conflict: bool = False,
                 probe: bool = False) -> MetricsReport:
    """Score one checkpoint on one corpus at ``TIOU_THRESHOLDS``: the one
    scorer of ``eval`` and of every ``ablate`` row.

    ``corpus.videos`` is read once, by one ``predict_corpus`` call, so a
    stored corpus (``synthgen.open_corpus``) reads each blob once and holds
    one video at a time.  Each video is scored three ways as it is read:
    as stored, which gives the mAP, the hallucination rates and the gates
    ``mla`` reads; as its vision view, the video without its language (the
    vision-only path, which a gate of 0 reproduces bitwise), the closest
    in-run stand-in for a vision-only baseline, whose per-class APs make
    the difficulty buckets of the classes with ground truth, the classes
    ``map_at`` scores; and, with ``conflict``, as its conflicted twin
    (``synthgen.inject_conflict``), whose table gives ``lap``.  Each table
    is dropped once scored.  With ``probe``, ``metrics.ambiguity_probe``
    then generates and scores the distractor clips one at a time.
    """
    views = [VideoRecord.vision_view] + ([inject_conflict(corpus.config)] if conflict else [])
    proposals, lams, gt, vision, *twin = predict_corpus(state, corpus.videos, *views)
    per_threshold, map_avg = map_at(proposals, gt)
    fixed_rate, infinite_rate = hallucination_rates(proposals, len(gt))
    lap_value = lap(map_avg, *twin, gt) if conflict else None
    vision_aps = ap_by_class(vision, gt, range(corpus.config.num_classes), TIOU_THRESHOLDS)
    del proposals, vision, twin  # scored; the probe below runs without them

    # a class without ground truth has no AP (None at every threshold) and no bucket
    buckets = difficulty_buckets({c: float(np.mean(aps)) for c, aps in vision_aps.items()
                                  if aps[0] is not None})
    mla_per_bucket = {}
    for name, bucket in (("hard", buckets.hard), ("medium", buckets.medium), ("easy", buckets.easy)):
        if bucket:
            mla_per_bucket[name] = mla(lams, bucket, list(gt.values()))

    mconf = mlen = acc_at = None
    if probe:
        stats = ambiguity_probe(state, corpus.config)
        mconf, mlen, acc_at = stats.mconf, stats.mlen, stats.acc_at

    return MetricsReport(
        map_per_threshold=per_threshold, map_avg=map_avg,
        fixed_rate=fixed_rate, infinite_rate=infinite_rate, lap=lap_value,
        mla_per_bucket=mla_per_bucket or None, mconf=mconf, mlen=mlen, acc_at=acc_at)


def cmd_gen(args) -> int:
    run = load_run_config(args.config)
    corpus = generate_corpus(build_config(GenConfig, run))
    out = Path(args.out)
    write_corpus(corpus, out)
    _stamp(out, run, "gen")
    print(f"wrote {len(corpus.videos)} videos to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    corpus = read_corpus(args.corpus)
    # the model, and the config echo, take dim and num_classes from the corpus
    run.update(dim=corpus.config.dim, num_classes=corpus.config.num_classes)
    model_cfg = build_config(ModelConfig, run)
    train_cfg = build_config(TrainConfig, run)
    state, train_log = fit(corpus, model_cfg, train_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "model.ckpt"
    save_checkpoint(state, ckpt)
    train_log.write_jsonl(out / "train_log.jsonl")
    _stamp(out, run, "train")
    loss = f" (final total loss {train_log.epochs[-1].mean_total:.4f})" if train_log.epochs else ""
    print(f"trained {train_cfg.epochs} epochs{loss}; checkpoint at {ckpt}")
    return EXIT_OK


def cmd_eval(args) -> int:
    state = load_checkpoint(args.ckpt)
    corpus = open_corpus(args.corpus)
    _check_compatible(state, corpus)
    report = build_report(state, corpus, conflict=args.conflict, probe=args.probe)
    text = report.to_json()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(out, text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_ablate(args) -> int:
    run = load_run_config(args.config)
    corpus = read_corpus(args.corpus)
    # every row's model, and the config echo, take dim and num_classes from the corpus
    run.update(dim=corpus.config.dim, num_classes=corpus.config.num_classes)
    rows = []
    for label, overrides in ABLATION_ROWS[args.mode]:
        row_run = {**run, **overrides}
        state, _ = fit(corpus, build_config(ModelConfig, row_run), build_config(TrainConfig, row_run))
        report = build_report(state, corpus, conflict=True)  # the row model's eval --conflict report
        rows.append({"label": label, "map_avg": report.map_avg, "lap": report.lap})
        print(f"{label}: map_avg={report.map_avg:.4f} lap={report.lap:+.2f}pp")
    table = {"mode": args.mode, "rows": rows}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / "ablation.json", canonical_json(table))
    write_atomic(out / "ablation.txt", render_ablation(table))
    _stamp(out, run, "ablate")
    return EXIT_OK


def _align(rows: list[list[str]]) -> str:
    """First column left-aligned, the rest right-aligned, two-space gutter."""
    if not rows:
        return ""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for r in rows:
        cells = [r[0].ljust(widths[0])]
        cells += [c.rjust(w) for c, w in zip(r[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def render_ablation(table: dict) -> str:
    rows = [["row", "map_avg", "lap_pp"]]
    for r in table["rows"]:
        rows.append([str(r["label"]), f"{r['map_avg']:.4f}", f"{r['lap']:+.2f}"])
    return f"mode: {table['mode']}\n" + _align(rows)


def _pct(v: float) -> str:
    return f"{100.0 * v:.2f}%"


def render_metrics(payload: dict) -> str:
    rows = []
    for k in sorted(payload["map_per_threshold"]):
        rows.append([f"mAP@{k}", _pct(payload["map_per_threshold"][k])])
    rows.append(["mAP avg", _pct(payload["map_avg"])])
    if payload["lap"] is not None:
        rows.append(["LAP", f"{payload['lap']:+.2f}pp"])
    rows.append(["fixed rate", _pct(payload["fixed_rate"])])
    rows.append(["infinite rate", _pct(payload["infinite_rate"])])
    if payload["mla_per_bucket"] is not None:
        for name in ("hard", "medium", "easy"):
            if name in payload["mla_per_bucket"]:
                rows.append([f"mLA {name}", f"{payload['mla_per_bucket'][name]:.4f}"])
    for key in ("mconf", "mlen"):
        if payload[key] is not None:
            rows.append([f"probe {key}", f"{payload[key]:.4f}"])
    if payload["acc_at"] is not None:
        for k in sorted(payload["acc_at"]):
            rows.append([f"probe acc@{k}", _pct(payload["acc_at"][k])])
    return _align(rows)


def render_train_log(records: list[dict]) -> str:
    rows = [["epoch", "phase", "total", "dh", "tg", "adv", "mean_lambda"]]
    for r in records:
        rows.append([str(r["epoch"]), str(r["phase"]), f"{r['loss_total']:.4f}",
                     f"{r['loss_dh']:.4f}", f"{r['loss_tg']:.4f}",
                     f"{r['loss_adv']:.4f}", f"{r['mean_lambda']:.4f}"])
    return _align(rows)


def _render_kv(payload: dict) -> str:
    return _align([[str(k), json.dumps(payload[k])] for k in sorted(payload)])


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    if not run_dir.is_dir():
        raise ConfigError(f"{run_dir} is not a directory")
    sections: list[tuple[str, str]] = []
    for name, read, render in (("run.json", read_json, _render_kv),
                               ("config.json", read_json, _render_kv),
                               ("train_log.jsonl", read_training_log, render_train_log),
                               ("ablation.json", read_json, render_ablation)):
        p = run_dir / name
        if p.exists():
            payload = read(p)
            try:
                sections.append((name, render(payload)))
            except (LookupError, TypeError, ValueError) as exc:
                raise FormatError(f"malformed {p}: bad or missing key {exc}") from exc

    consumed = {"run.json", "config.json", "ablation.json"}
    for p in sorted(run_dir.glob("*.json")):
        if p.name in consumed or p.name.endswith(".ckpt.json"):
            continue
        payload = read_json(p)  # a file that does not parse is a data error, not a skip
        try:
            payload = validate_report(payload)
        except FormatError:
            log.info("skipping %s: not a metrics report", p.name)
            continue
        sections.append((p.name, render_metrics(payload)))

    if not sections:
        print(f"nothing to report in {run_dir}")
        return EXIT_OK
    out = []
    for name, body in sections:
        out.append(f"== {name} ==")
        out.append(body.rstrip("\n"))
        out.append("")
    print("\n".join(out).rstrip("\n"))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 here (argparse's default status is 2, which this
    tool reserves for data errors)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="talgate",
                description="Gated vision-language temporal action localization on synthetic corpora.")
    p.add_argument("--version", action="version", version=f"talgate {__version__}")
    p.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    g = sub.add_parser("gen", help="generate a synthetic corpus")
    g.add_argument("--config", help="flat JSON run config (defaults when omitted)")
    g.add_argument("--out", required=True, help="corpus output directory")
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train a model on a corpus")
    t.add_argument("--corpus", required=True, help="corpus directory from gen")
    t.add_argument("--config", help="flat JSON run config")
    t.add_argument("--out", required=True, help="run output directory")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="score a checkpoint and write a metrics report")
    e.add_argument("--ckpt", required=True, help="checkpoint file")
    e.add_argument("--corpus", required=True, help="corpus directory")
    e.add_argument("--conflict", action="store_true",
                   help="also score an auto-generated conflict-injected twin (lap)")
    e.add_argument("--probe", action="store_true",
                   help="also run the no-action ambiguity probe (mconf/mlen)")
    e.add_argument("--out", required=True, help="report file path")
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="train and score ablation rows")
    a.add_argument("--corpus", required=True, help="corpus directory")
    a.add_argument("--config", help="flat JSON run config")
    a.add_argument("--mode", required=True, choices=ABLATION_MODES)
    a.add_argument("--out", required=True, help="run output directory")
    a.set_defaults(func=cmd_ablate)

    r = sub.add_parser("report", help="render run artifacts as aligned text")
    r.add_argument("--run", required=True, help="run directory holding JSON artifacts")
    r.set_defaults(func=cmd_report)
    return p


def pad_heap() -> None:
    """Keep 4 MB free atop glibc's heap when it trims (mallopt M_TOP_PAD, -2), so what a scored
    video frees the next reuses, not faults back in; call it once numpy is imported."""
    with contextlib.suppress(AttributeError, OSError, TypeError):  # a libc without mallopt
        ctypes.CDLL(None).mallopt(-2, 4 << 20)


def main(argv=None) -> int:
    pad_heap()
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except Exception as exc:
        # an OS error that names its path: a missing corpus, an --out that is a directory
        if isinstance(exc, (ConfigError, FormatError)) or (isinstance(exc, OSError) and exc.filename):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
