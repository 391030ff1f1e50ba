"""Span recording around talgate's public functions, installed from outside.

``Tracer.install`` replaces each target with a wrapper that records a span
(name, start, end, parent span) or, for the hottest target, only a call
count.  A function is patched in every ``talgate`` module whose namespace
holds it, because modules import names from each other
(``talgate.train.forward_video``, ``talgate.cli.predict_corpus``,
``talgate.metrics.tiou`` ...); methods are patched on their class.  Spans
stay in memory until ``write_spans``.

Per-layer metrics are named ``<module>.<function>.<stat>``, for example
``nn.Conv1d.backward.self_s``.  A span's self time is its duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# (module, attribute path); every target is recorded as a span
SPAN_TARGETS = (
    ("synthgen", "generate_corpus"), ("synthgen", "inject_conflict"),
    ("synthgen", "generate_distractors"), ("synthgen", "read_corpus"),
    ("synthgen", "write_corpus"),
    ("blobio", "read_matrix"), ("blobio", "write_matrix"),
    ("blobio", "read_named_matrices"), ("blobio", "write_named_matrices"),
    ("nn", "Rng.normal_matrix"),
    ("nn", "Conv1d.forward"), ("nn", "Conv1d.backward"),
    ("nn", "Linear.forward"), ("nn", "Linear.backward"),
    ("model", "forward_video"), ("model", "backward_video"),
    ("model", "template_loss"), ("model", "template_loss_grad"),
    ("model", "decode_proposals"), ("model", "nms"),
    ("model", "predict_corpus"), ("model", "ModelState.zero_grads"),
    ("model", "save_checkpoint"), ("model", "load_checkpoint"),
    ("train", "fit"), ("train", "detection_loss"), ("train", "Adam.step"),
    ("metrics", "average_precision"), ("metrics", "map_at"), ("metrics", "lap"),
    ("metrics", "hallucination_rates"), ("metrics", "ambiguity_probe"),
    ("cli", "build_report"),
)
# called ~10^5 times per evaluation: counted, not timed, to keep overhead low
COUNT_TARGETS = (("model", "tiou"),)

SPAN_STATS = ("calls", "self_s", "total_s")


def metric_names() -> set[str]:
    """Every per-layer metric name a traced op can produce."""
    names = {f"{m}.{a}.{s}" for m, a in SPAN_TARGETS for s in SPAN_STATS}
    names |= {f"{m}.{a}.calls" for m, a in COUNT_TARGETS}
    names.add("model.nms.kept_ratio")
    return names


class Tracer:
    def __init__(self):
        self.spans: list = []     # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def _span_wrapper(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        nms = name == "model.nms"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if nms:
                counts["model.nms.in"] += len(args[0])
                counts["model.nms.out"] += len(out)
            return out
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "talgate" or n.startswith("talgate."))]
        for targets, make in ((SPAN_TARGETS, self._span_wrapper),
                              (COUNT_TARGETS, self._count_wrapper)):
            for mod_name, attr in targets:
                mod = importlib.import_module(f"talgate.{mod_name}")
                name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, make(name, orig))
                    continue
                orig = getattr(mod, attr)
                wrapped = make(name, orig)
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, key, orig))
                            setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def layer_stats(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since reset."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            dur = end - start
            stats[name + ".calls"] = stats.get(name + ".calls", 0) + 1
            stats[name + ".total_s"] = stats.get(name + ".total_s", 0.0) + dur
            stats[name + ".self_s"] = stats.get(name + ".self_s", 0.0) + dur - covered
        for key, n in self.counts.items():
            if key.endswith(".calls"):
                stats[key] = n
        n_in = self.counts["model.nms.in"]
        stats["model.nms.kept_ratio"] = self.counts["model.nms.out"] / n_in if n_in else 0.0
        return stats

    def write_spans(self, path, op: int) -> None:
        """Append the recorded spans, one JSON object a line."""
        with open(path, "a") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"op": op, "id": i, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")
