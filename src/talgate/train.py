"""Alternating-epoch training with class-wise advantage bookkeeping.

``fit`` runs one loop, ``train_epoch``, in strict alternation.  Even epochs
(0, 2, ...) train the vision view (no language, gate 0) on the detection
loss.  Their record is the class table: each class's mean vision-only loss
over the steps whose video shows the class (``EpochLog.table_means``).  Odd
epochs train the gated model, adding the template loss and an advantage
regression whose targets come from the preceding vision epoch's table:

    target[l] = mean vision-only loss of the frame's class - per-frame
                vision+language loss at l,

evaluated on positive frames only and treated as a constant (no gradient
flows into the detection head through the targets).

A fit reads each video's ground truth once, before the first epoch,
through ``model.frame_targets`` (``corpus_targets``): the per-frame labels
(background is label C) and what every step derives from them
(``FrameTargets``: the one-hot class mask, the positive frames, their
covering segment bounds and their classes' places among the present ones)
feed every step's detection loss, template loss and advantage targets, and
a step's present classes are the labels' own.
Every fit runs Adam at the module's ``ADAM_*`` constants and weighs the
detection loss's DIoU term by 1.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, parse_json, write_atomic
from .model import (ModelConfig, ModelState, backward_video, forward_video,
                    frame_targets, template_loss, template_loss_grad)
from .nn import Rng, focal_loss, diou_loss
from .synthgen import Corpus, Segment

INTERVAL_PAD = 1e-6  # keeps decoded training intervals non-degenerate
ADAM_LR, ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 2e-3, 0.9, 0.999, 1e-8  # the same for every fit

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """An even epoch count, the template and advantage loss weights, and the parameters' seed."""
    epochs: int = 60
    lambda_tg: float = 0.1
    lambda_adv: float = 0.1
    seed: int = 0

    def validate(self) -> "TrainConfig":
        if self.epochs < 0 or self.epochs % 2 != 0:
            raise ConfigError(f"epochs must be even and non-negative (strict epoch alternation), got {self.epochs}")
        for name in ("lambda_tg", "lambda_adv"):
            if not (0.0 <= getattr(self, name) < np.inf):
                raise ConfigError(f"{name} must be finite and non-negative, got {getattr(self, name)}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        return self


class Adam:
    """Standard Adam with bias correction; no weight decay; lr, betas and
    eps are the module's ``ADAM_*`` constants.

    It updates ``values`` in place from ``grads``, two same-shape arrays,
    as whole vectors.  ``fit`` passes a ``ModelState``'s flat ``values`` and
    ``grads`` stores, so one step is a few elementwise operations over every
    parameter at once.  The step updates the moments in place and performs
    the operations of

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        values -= lr * (m / c1) / (sqrt(v / c2) + eps)

    in that order, with the bias corrections c1 = 1 - beta1**t and
    c2 = 1 - beta2**t.
    """

    def __init__(self, values: np.ndarray, grads: np.ndarray):
        self._values = values
        self._grads = grads
        self._m = np.zeros_like(values)
        self._v = np.zeros_like(values)
        self.t = 0

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        g, m, v = self._grads, self._m, self._v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        self._values -= ADAM_LR * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


@dataclass(eq=False)
class DetectionLossResult:
    loss: float
    per_frame: np.ndarray        # L x 1 unnormalized per-frame summands
    d_cls_scores: np.ndarray     # L x C
    d_offsets: np.ndarray        # L x 2


@dataclass(frozen=True, eq=False)
class FrameTargets:
    """One video's per-frame targets and the constants every step reads,
    derived once per fit (``corpus_targets``)."""
    labels: np.ndarray           # L, int64: the class of each frame, C on background
    onehot: np.ndarray           # L x C bool: each frame's class column; none on background
    positive: np.ndarray         # the positive (non-background) frames' indices, ascending
    seg_start: np.ndarray        # each positive frame's covering segment bounds
    seg_end: np.ndarray
    present: tuple[int, ...]     # the positive frames' classes, ascending
    present_index: np.ndarray    # each positive frame's class, as an index into present

    @classmethod
    def of(cls, gt: list[Segment], frames: int, num_classes: int) -> "FrameTargets":
        """``frame_targets`` of ``gt`` and the constants of its positive frames."""
        labels, gstart, gend = frame_targets(gt, frames, num_classes)
        positive = np.flatnonzero(labels < num_classes)
        present = tuple(sorted(set(labels[positive].tolist())))
        return cls(labels, labels[:, None] == np.arange(num_classes), positive,
                   gstart[positive], gend[positive], present,
                   np.searchsorted(present, labels[positive]))


def detection_loss(scores: np.ndarray, offsets: np.ndarray, targets: FrameTargets) -> DetectionLossResult:
    """Focal classification of the L x C scores over every frame plus DIoU
    regression of the L x 2 offsets on the positive frames of ``targets``
    (at weight 1), summed per frame and normalized by the positive count (floored at 1).

    Predicted intervals are padded by a fixed 1e-6 on both sides so frames
    whose offsets collapse to zero still yield a valid interval.
    """
    L = len(scores)
    li = targets.positive
    fl, d_scores = focal_loss(scores, targets.onehot)  # background matches no class
    per_frame = fl.sum(axis=1)
    m = max(1, len(li))
    d_scores /= m
    d_off = np.zeros((L, 2))
    if len(li):
        ps = li - offsets[li, 0] - INTERVAL_PAD
        pe = li + offsets[li, 1] + INTERVAL_PAD
        dl, dps, dpe = diou_loss(ps, pe, targets.seg_start, targets.seg_end)
        per_frame[li] += dl
        d_off[li, 0] = -dps / m
        d_off[li, 1] = dpe / m
    loss = float(per_frame.sum() / m)
    return DetectionLossResult(loss, per_frame.reshape(L, 1), d_scores, d_off)


def target_advantage(table_means: dict[int, float], per_frame_vl: np.ndarray,
                     targets: FrameTargets) -> tuple[np.ndarray, np.ndarray]:
    """Frozen regression targets for the advantage head: on each positive
    frame of ``targets``, the class table's mean for the frame's class less
    the frame's vision+language loss (``per_frame_vl``, one per frame).

    Returns (targets, frames): one target per positive frame and those
    frames (``targets.positive``); background frames have none.  A present
    class missing from the class table ``table_means`` is a ConfigError.
    """
    for c in targets.present:
        if c not in table_means:
            raise ConfigError(f"class {c} missing from the vision-only loss table")
    means = np.array([table_means[c] for c in targets.present])
    pf = np.asarray(per_frame_vl, dtype=np.float64).reshape(-1)
    return means[targets.present_index] - pf[targets.positive], targets.positive


def advantage_loss(adv_pred, targets, frames) -> tuple[float, np.ndarray]:
    """Mean squared error of the L x 1 ``adv_pred`` on the rows ``frames``
    (the positive frames) against ``targets``, one per row, and its gradient
    with respect to ``adv_pred``: (loss, grad), grad zero off those rows;
    (0, zeros) when there are none."""
    pred = np.asarray(adv_pred, dtype=np.float64)
    grad = np.zeros_like(pred)
    n = len(frames)
    if n == 0:
        return 0.0, grad
    d = pred[frames, 0] - targets
    grad[frames, 0] = 2.0 * d / n
    return float(np.mean(d * d)), grad


@dataclass(eq=False)
class StepLog:
    classes: tuple[int, ...]  # the classes the step's video shows, ascending
    dh: float
    tg: float
    adv: float
    total: float
    mean_lambda: float


@dataclass(eq=False)
class EpochLog:
    epoch: int
    phase: str  # "vision" or "vision_language"
    wall_time: float
    steps: list[StepLog] = field(default_factory=list)

    @property
    def table_means(self) -> dict[int, float] | None:
        """A vision epoch's class table: each class's mean detection loss
        over the steps whose video shows it, added up in video order, by
        class; None for a gated epoch."""
        if self.phase != "vision":
            return None
        sums, counts = {}, {}
        for s in self.steps:
            for c in s.classes:
                sums[c] = sums.get(c, 0.0) + s.dh
                counts[c] = counts.get(c, 0) + 1
        return {c: sums[c] / counts[c] for c in sorted(sums)}

    def _mean(self, name: str) -> float:
        return sum(getattr(s, name) for s in self.steps) / max(1, len(self.steps))

    @property
    def mean_total(self) -> float:
        return self._mean("total")

    def record(self) -> dict:
        return {
            "epoch": self.epoch,
            "phase": self.phase,
            "loss_dh": self._mean("dh"),
            "loss_tg": self._mean("tg"),
            "loss_adv": self._mean("adv"),
            "loss_total": self.mean_total,
            "mean_lambda": self._mean("mean_lambda"),
            "wall_time": self.wall_time,
        }


@dataclass(eq=False)
class TrainLog:
    epochs: list[EpochLog] = field(default_factory=list)

    def write_jsonl(self, path) -> None:
        lines = [json.dumps(e.record(), sort_keys=True) for e in self.epochs]
        write_atomic(path, "\n".join(lines) + ("\n" if lines else ""))


def read_training_log(path) -> list[dict]:
    records = []
    for i, line in enumerate(Path(path).read_bytes().splitlines()):
        if not line.strip():
            continue
        try:
            records.append(parse_json(line))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, a repeated key
            raise FormatError(f"bad training log line {i + 1} in {path}: {exc}") from exc
    return records


def corpus_targets(corpus: Corpus, num_classes: int) -> list[FrameTargets]:
    """Each video's ``FrameTargets``, from one read of its ground truth at
    the video's frame count.  A segment that ``frame_targets`` rejects is a
    ConfigError here."""
    return [FrameTargets.of(video.gt, len(video.vis), num_classes) for video in corpus.videos]


def train_epoch(corpus: Corpus, targets: list[FrameTargets], state: ModelState, opt: Adam,
                cfg: TrainConfig, table_means: dict[int, float] | None = None) -> list[StepLog]:
    """One pass over the corpus, one Adam step per video, each reading its
    video's entry of ``targets`` (``corpus_targets``), and its steps.
    Without a class table it trains the vision view on the detection loss;
    given the preceding vision epoch's ``table_means`` it trains the gated
    model, template and advantage terms included; only a gated step runs the
    template head, on the forward record's classification features."""
    if not corpus.videos:
        raise ConfigError("cannot train on an empty corpus")
    vision = table_means is None
    steps = []
    for video, truth in zip(corpus.videos, targets, strict=True):
        state.zero_grads()
        fwd = forward_video(state, video.vis, None if vision else video.lang)
        det = detection_loss(fwd.cls_scores, fwd.offsets, truth)
        if vision:
            tg = adv = mean_lambda = 0.0  # the gate reads 0
            d_tmpl = d_adv = None  # the template head does not run: its gradient is zero
        else:
            tmpl_logits = state.tmpl_out.forward(fwd.cls_feat)[0]
            tg = template_loss(tmpl_logits, truth.labels)
            d_tmpl = cfg.lambda_tg * template_loss_grad(tmpl_logits, truth.labels)
            adv, d_adv = advantage_loss(fwd.adv_pred,
                                        *target_advantage(table_means, det.per_frame, truth))
            d_adv = cfg.lambda_adv * d_adv
            mean_lambda = float(fwd.lam.mean())
        backward_video(state, fwd, det.d_cls_scores, det.d_offsets, d_tmpl, d_adv)
        del fwd  # this step's activations, freed before the next forward pass allocates its own
        opt.step()
        steps.append(StepLog(truth.present, det.loss, tg, adv,
                             det.loss + cfg.lambda_tg * tg + cfg.lambda_adv * adv, mean_lambda))
    return steps


def fit(corpus: Corpus, model_cfg: ModelConfig, train_cfg: TrainConfig) -> tuple[ModelState, TrainLog]:
    """Train for train_cfg.epochs epochs in strict vision/vision+language
    alternation, starting with a vision-only epoch.  Every fit starts from
    the seed, ``ModelState(model_cfg, Rng(train_cfg.seed))`` with fresh Adam
    moments, so a longer fit is a rerun with more epochs.  The videos'
    targets are derived once, before the first step; each epoch logs one
    INFO line (epoch, phase, mean total loss, seconds).

    ``cli.main`` sets glibc's heap pad (``cli.pad_heap``).  A direct
    caller, a script say, fits without it unless it calls ``pad_heap``
    itself: a 10-epoch stock fit ran 35% slower without it (2-vCPU x86-64
    host, OpenBLAS on one thread)."""
    train_cfg.validate()
    state = ModelState(model_cfg.validate(), Rng(train_cfg.seed))
    opt = Adam(state.values, state.grads)
    targets = corpus_targets(corpus, model_cfg.num_classes)
    log = TrainLog()
    for epoch in range(train_cfg.epochs):
        t0 = time.perf_counter()
        vision = epoch % 2 == 0
        steps = train_epoch(corpus, targets, state, opt, train_cfg,
                            None if vision else log.epochs[-1].table_means)
        record = EpochLog(epoch, "vision" if vision else "vision_language",
                          time.perf_counter() - t0, steps)
        log.epochs.append(record)
        logger.info("epoch %d %s loss_total %.6f %.2fs", epoch, record.phase, record.mean_total,
                    record.wall_time)
    return state, log
