"""Localization quality and language-bias diagnostics.

A corpus pass arrives as ``model.predict_corpus`` returns it: one
``model.Proposals`` table (NMS has run, row video i is the i-th video read,
rows in canonical order) and its ground truth as a mapping from video id to
segments in the same order, entry i for video i.  Average precision uses
greedy one-to-one matching in descending score order (ties broken by video
id, start, end) at a fixed temporal IoU threshold, and all-points
interpolation (the precision envelope).  Each class's entries are ordered
and their tIoU against the ground truth computed once; only the matching
runs per threshold.  Classes with no ground truth are excluded from means
and logged.  Every mAP the tool reports, ``eval``'s and each ``ablate``
row's, averages ``TIOU_THRESHOLDS`` (0.3:0.1:0.7, the THUMOS14 protocol);
no config changes them.

Bias diagnostics: the language-attribution performance drop (lap: the
conflicted twin's mAP against the given aligned mAP, from the twin's table,
which ``predict_corpus`` scores in the corpus's own read), output degeneracy
rates over each video's first rows (hallucination_rates), the mean gate per
difficulty bucket (mla, over ``predict_corpus``'s gates), and a no-action
ambiguity probe (mconf / mlen / acc_at) reading each clip's first kept row.
``ambiguity_probe`` generates the clips it scores from the corpus config
(``synthgen.generate_distractors``) and scores them as one
``predict_corpus`` pass, one clip at a time.

``validate_report`` checks a report against ``REPORT_SCHEMA`` before it is
written (``eval``) or read back (``report``).  jsonschema is loaded there, on
first use, so the commands that write no report (gen, train, ablate) never
import it.
"""

from __future__ import annotations

import functools
import json
import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .model import ModelState, Proposals, predict_corpus, tiou_array
from .synthgen import GenConfig, Segment, generate_distractors

log = logging.getLogger(__name__)

TIOU_THRESHOLDS = (0.3, 0.4, 0.5, 0.6, 0.7)
PROBE_SPAN_THRESHOLDS = (0.3, 0.5, 0.7)
HALLUCINATION_TOP_K = 10
_NEAR_DUPLICATE_TIOU = 0.95


def ap_by_class(proposals: Proposals, gt: dict[str, list[Segment]],
                classes, thresholds) -> dict[int, list[float | None]]:
    """All-points interpolated AP of each class at each tIoU threshold, in
    threshold order; None for a class without ground-truth segments.

    ``gt`` holds every video of the corpus table ``proposals``, entry i
    for video i.  Each class's entries are ordered and their tIoU against
    the ground truth computed once; only the greedy matching runs per
    threshold.
    """
    rank = np.argsort(np.argsort(list(gt)))  # each video's place in id order
    video, start, end, label = proposals.video, proposals.start, proposals.end, proposals.label
    # one stable sort for all classes: a class's entries keep their relative order
    order = np.lexsort((end, start, rank[video], -proposals.score))  # ties by video id, start, end
    video, start, end, label = video[order], start[order], end[order], label[order]
    segs = list(gt.values())
    aps = {}
    for c in classes:
        mine = label == c
        aps[c] = _class_ap(segs, video[mine], start[mine], end[mine], c, thresholds)
    return aps


def _class_ap(gt, video, ps, pe, label, thresholds) -> list[float | None]:
    """``ap_by_class`` for one class, given each video's ground truth and
    the class's entries in AP order."""
    # every entry against its video's ground truth, in rows padded with (0, 1)
    own = [[s for s in segs if s.label == label] for segs in gt]
    count = np.array([len(segs) for segs in own], dtype=np.int64)
    npos = int(count.sum())
    if npos == 0:
        return [None] * len(thresholds)
    gs = np.zeros((len(own), int(count.max(initial=0))))
    ge = np.ones_like(gs)
    real = np.arange(gs.shape[1]) < count[:, None]
    gs[real] = [g.start for segs in own for g in segs]
    ge[real] = [g.end for segs in own for g in segs]
    if np.any(~(ps < pe) & (count[video] > 0)) or np.any(~(gs < ge)):
        raise ValueError(f"average_precision of a degenerate interval (class {label})")
    iou = np.where(real[video], tiou_array(ps[:, None], pe[:, None], gs[video], ge[video]), 0.0)
    best = iou.max(axis=1, initial=0.0)
    aps = []
    for threshold in thresholds:
        # below the threshold against every ground truth: a false positive,
        # whatever is matched already; the rest match greedily in order
        reach = np.flatnonzero(best >= threshold)
        matched = [[False] * len(x) for x in own]
        tp = np.zeros(len(video))
        for i, row, k in zip(reach.tolist(), iou[reach].tolist(), video[reach].tolist()):
            best_iou, best_j = 0.0, -1
            for j, (v, used) in enumerate(zip(row, matched[k])):
                if v > best_iou and not used:
                    best_iou, best_j = v, j
            if best_j >= 0 and best_iou >= threshold:
                matched[k][best_j] = True
                tp[i] = 1.0
        fp = 1.0 - tp
        tpc = np.cumsum(tp)
        fpc = np.cumsum(fp)
        recall = tpc / npos
        precision = tpc / np.maximum(tpc + fpc, 1.0)
        mrec = np.concatenate(([0.0], recall, [1.0]))
        mpre = np.concatenate(([0.0], precision, [0.0]))
        mpre = np.maximum.accumulate(mpre[::-1])[::-1]  # the precision envelope
        steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
        aps.append(float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1])))
    return aps


def average_precision(proposals: Proposals, gt: dict[str, list[Segment]],
                      label: int, threshold: float) -> float | None:
    """All-points interpolated AP for one class at one tIoU threshold.

    Returns None when the class has no ground-truth segments.
    """
    return ap_by_class(proposals, gt, (label,), (threshold,))[label][0]


def map_at(proposals: Proposals, gt: dict[str, list[Segment]],
           thresholds=TIOU_THRESHOLDS) -> tuple[dict[float, float], float]:
    """Mean AP per threshold plus the average over thresholds, over the
    classes with ground truth (``ap_by_class``'s arguments)."""
    if not thresholds:
        raise ConfigError("map_at needs at least one tIoU threshold")
    classes = sorted({s.label for segs in gt.values() for s in segs})
    if not classes:
        raise ConfigError("map_at needs ground truth for at least one class")
    for c in sorted(set(proposals.label.tolist()) - set(classes)):
        log.info("class %d has proposals but no ground truth; excluded from mAP", c)
    aps = ap_by_class(proposals, gt, classes, thresholds)
    per_threshold = {float(t): float(np.mean([aps[c][i] for c in classes]))
                     for i, t in enumerate(thresholds)}
    return per_threshold, float(np.mean(list(per_threshold.values())))


def lap(map_aligned: float, conflicted: Proposals, gt: dict[str, list[Segment]]) -> float:
    """Performance drop under conflicting language, in mAP percentage points:
    ``map_aligned``, the corpus's mAP at ``TIOU_THRESHOLDS``, less that of
    ``conflicted``, the corpus table of its conflicted twin (the
    ``predict_corpus`` table of the view ``synthgen.inject_conflict``
    gives), against the corpus's ground truth ``gt``, which the twin
    shares."""
    _, map_conflicted = map_at(conflicted, gt)
    return 100.0 * (map_aligned - map_conflicted)


def hallucination_rates(proposals: Proposals, videos: int,
                        top_k: int = HALLUCINATION_TOP_K) -> tuple[float, float]:
    """Degenerate-output rates over per-video top-k proposals (the first
    ``top_k`` rows of each video) of a corpus table of ``videos`` videos.

    fixed_rate: fraction of videos whose rounded top-k boundary multiset is
    shared by at least half the corpus (group of identical outputs of size
    >= max(2, ceil(n/2)), counting the video itself).

    infinite_rate: fraction of videos holding >= 3 same-class proposals
    that pairwise overlap with tIoU > 0.95.  A zero-length interval among
    three or more top-k proposals of its class is a ValueError, as in
    ``tiou``.
    """
    if videos == 0:
        return 0.0, 0.0
    rank = np.arange(len(proposals)) - np.searchsorted(proposals.video, proposals.video)  # in its video
    top, rank = proposals.take(rank < top_k), rank[rank < top_k]
    keys = [[] for _ in range(videos)]
    for v, s, e in sorted(zip(top.video.tolist(), map(round, top.start.tolist()),
                              map(round, top.end.tolist()))):
        keys[v].append((s, e))
    counts = Counter(map(tuple, keys))
    need = max(2, math.ceil(videos / 2))
    fixed = sum(1 for k in keys if counts[tuple(k)] >= need) / videos
    trio = _near_duplicate_trio(top, rank, videos)
    return float(fixed), float(np.count_nonzero(trio) / videos)


def _near_duplicate_trio(top: Proposals, rank: np.ndarray, videos: int) -> np.ndarray:
    """Per video, whether three of its rows in ``top`` share a label and
    pairwise overlap with tIoU > 0.95.  Row r of video v goes to [v, r]
    (``rank``) of V x k arrays padded with label -1, which matches no row."""
    k = int(rank.max(initial=-1)) + 1
    s, e = np.zeros((videos, k)), np.ones((videos, k))
    label = np.full((videos, k), -1, dtype=np.int64)
    s[top.video, rank], e[top.video, rank], label[top.video, rank] = top.start, top.end, top.label
    same = (label[:, :, None] == label[:, None, :]) & (label[:, :, None] >= 0) & ~np.eye(k, dtype=bool)
    if np.any(~(s < e) & (same.sum(axis=2) >= 2)):
        raise ValueError("tiou of a zero-length interval among three or more proposals of its class")
    near = same & (tiou_array(s[:, :, None], e[:, :, None], s[:, None, :], e[:, None, :])
                   > _NEAR_DUPLICATE_TIOU)
    links = near.astype(np.int64)
    return np.any((links @ links > 0) & near, axis=(1, 2))  # a near pair with a row near both


def mla(frame_lambdas, bucket, gt) -> float:
    """Mean gate value for a difficulty bucket.

    ``frame_lambdas`` and ``gt`` are parallel per-video sequences; lambda is
    averaged over frames inside ground-truth segments whose class is in the
    bucket.
    """
    bucket = set(bucket)
    if not bucket:
        raise ConfigError("mla of an empty difficulty bucket")
    if len(frame_lambdas) != len(gt):
        raise ConfigError(f"got {len(frame_lambdas)} lambda tracks for {len(gt)} videos")
    values: list[float] = []
    for lam, segs in zip(frame_lambdas, gt):
        lam = np.asarray(lam, dtype=np.float64).reshape(-1)
        for seg in segs:
            if seg.label in bucket:
                values.extend(lam[int(seg.start):int(seg.end)].tolist())
    return float(np.mean(values)) if values else 0.0


@dataclass(frozen=True)
class DifficultyBuckets:
    hard: tuple[int, ...]
    medium: tuple[int, ...]
    easy: tuple[int, ...]


def difficulty_buckets(vision_only_ap: dict[int, float]) -> DifficultyBuckets:
    """Tertile split of classes by vision-only AP; ties break by class index.

    The bottom tertile is hard, the top easy.  With fewer than 3 classes
    everything is medium.
    """
    items = sorted(vision_only_ap.items(), key=lambda kv: (kv[1], kv[0]))
    c = len(items)
    if c < 3:
        return DifficultyBuckets((), tuple(sorted(vision_only_ap)), ())
    n = c // 3
    hard = tuple(sorted(cl for cl, _ in items[:n]))
    easy = tuple(sorted(cl for cl, _ in items[c - n:]))
    medium = tuple(sorted(cl for cl, _ in items[n:c - n]))
    return DifficultyBuckets(hard, medium, easy)


@dataclass(frozen=True)
class ProbeStats:
    mconf: float
    mlen: float
    acc_at: dict[float, float]


def ambiguity_probe(state: ModelState, cfg: GenConfig) -> ProbeStats:
    """Overconfidence probe on the no-action clips of corpus config ``cfg``
    (``synthgen.generate_distractors``: ``cfg.num_videos`` clips).

    Keeps only the highest-confidence proposal per clip, its first row in
    the ``predict_corpus`` table (NMS keeps each video's first decoded row);
    a clip with no proposals counts as confidence 0 and span 0.  acc_at[t]
    is the fraction of clips whose kept (normalized) span stays below t, at
    each of ``PROBE_SPAN_THRESHOLDS``.  The clips are generated and scored
    one at a time, each dropped before the next is built.
    """
    kept, _, gt = predict_corpus(state, generate_distractors(cfg))
    first = np.searchsorted(kept.video, np.arange(len(gt) + 1))  # clip i's rows: first[i]:first[i + 1]
    found = first[:-1] < first[1:]
    for clip_id, has_rows in zip(gt, found):
        if not has_rows:
            log.info("probe clip %s produced no proposals; counted as confidence 0, span 0", clip_id)
    top = kept.take(first[:-1][found])
    confs, spans = np.zeros(len(gt)), np.zeros(len(gt))
    confs[found] = top.score
    spans[found] = (top.end - top.start) / cfg.frames
    acc = {float(t): float(np.mean(spans < t)) for t in PROBE_SPAN_THRESHOLDS}
    return ProbeStats(float(np.mean(confs)), float(np.mean(spans)), acc)


_RATE = {"type": "number", "minimum": 0, "maximum": 1}
_OPT_RATE = {"type": ["number", "null"], "minimum": 0, "maximum": 1}

REPORT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["map_per_threshold", "map_avg", "lap", "fixed_rate",
                 "infinite_rate", "mla_per_bucket", "mconf", "mlen", "acc_at"],
    "properties": {
        "map_per_threshold": {
            "type": "object",
            "additionalProperties": False,
            "patternProperties": {r"^0\.\d{2}$": _RATE},
        },
        "map_avg": _RATE,
        "lap": {"type": ["number", "null"]},
        "fixed_rate": _RATE,
        "infinite_rate": _RATE,
        "mla_per_bucket": {
            "type": ["object", "null"],
            "additionalProperties": False,
            "properties": {"hard": _RATE, "medium": _RATE, "easy": _RATE},
        },
        "mconf": _OPT_RATE,
        "mlen": _OPT_RATE,
        "acc_at": {
            "type": ["object", "null"],
            "additionalProperties": False,
            "patternProperties": {r"^0\.\d{2}$": _RATE},
        },
    },
}


def canonical_json(value) -> str:
    """Deterministic JSON text: sorted keys, floats with 6 decimals."""
    def render(v, depth):
        pad = "  " * depth
        inner = "  " * (depth + 1)
        if v is None:
            return "null"
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            if not math.isfinite(v):
                raise FormatError(f"non-finite value {v} in report")
            text = f"{float(v):.6f}"
            return "0.000000" if text == "-0.000000" else text  # one spelling of zero
        if isinstance(v, str):
            return json.dumps(v)
        if isinstance(v, dict):
            if not v:
                return "{}"
            keys = sorted(v)
            if any(not isinstance(k, str) for k in keys):
                raise FormatError("canonical JSON requires string keys")
            parts = [f"{inner}{json.dumps(k)}: {render(v[k], depth + 1)}" for k in keys]
            return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
        if isinstance(v, (list, tuple)):
            if not v:
                return "[]"
            parts = [f"{inner}{render(x, depth + 1)}" for x in v]
            return "[\n" + ",\n".join(parts) + f"\n{pad}]"
        raise FormatError(f"cannot serialize {type(v).__name__} in report")
    return render(value, 0) + "\n"


@dataclass(eq=False)
class MetricsReport:
    map_per_threshold: dict[float, float]
    map_avg: float
    fixed_rate: float
    infinite_rate: float
    lap: float | None = None
    mla_per_bucket: dict[str, float] | None = None
    mconf: float | None = None
    mlen: float | None = None
    acc_at: dict[float, float] | None = None

    def to_dict(self) -> dict:
        return {
            "map_per_threshold": {f"{t:.2f}": v for t, v in self.map_per_threshold.items()},
            "map_avg": self.map_avg,
            "lap": self.lap,
            "fixed_rate": self.fixed_rate,
            "infinite_rate": self.infinite_rate,
            "mla_per_bucket": dict(self.mla_per_bucket) if self.mla_per_bucket is not None else None,
            "mconf": self.mconf,
            "mlen": self.mlen,
            "acc_at": {f"{t:.2f}": v for t, v in self.acc_at.items()} if self.acc_at is not None else None,
        }

    def to_json(self) -> str:
        payload = self.to_dict()
        validate_report(payload)
        return canonical_json(payload)


# built once: jsonschema.validate would check the schema itself on every call;
# and on first use, so that the commands that validate no report never import jsonschema
@functools.cache
def _report_validator():
    import jsonschema
    return jsonschema.validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)


def validate_report(payload: dict) -> dict:
    from jsonschema.exceptions import best_match
    error = best_match(_report_validator().iter_errors(payload))
    if error is not None:
        raise FormatError(f"metrics report violates schema: {error.message}")
    return payload
