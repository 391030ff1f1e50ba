"""Alternating-epoch training with class-wise advantage bookkeeping.

``fit`` runs one loop, ``train_epoch``, in strict alternation.  Even epochs
(0, 2, ...) train the vision view (no language, gate 0) on the detection
loss and fill a per-class running-mean table of those losses.  Odd epochs
train the gated model, adding the template loss and an advantage regression
whose targets come from the frozen table of the preceding vision epoch:

    target[l] = mean vision-only loss of the frame's class - per-frame
                vision+language loss at l,

evaluated on positive frames only and treated as a constant (no gradient
flows into the detection head through the targets).

A fit reads each video's ground truth once, before the first epoch,
through ``model.frame_targets`` (``corpus_targets``): the per-frame labels
(background is label C) and covering segment bounds feed every step's
detection loss, template loss and advantage targets, and a step's present
classes are the labels' own.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, write_atomic
from .model import (FrameOutputs, ModelConfig, ModelState, backward_video,
                    forward_video, frame_targets, template_loss,
                    template_loss_grad)
from .nn import Rng, focal_loss, diou_loss
from .synthgen import Corpus

INTERVAL_PAD = 1e-6  # keeps decoded training intervals non-degenerate

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    lr: float = 2e-3
    lambda_loc: float = 1.0
    lambda_tg: float = 0.1
    lambda_adv: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def validate(self) -> "TrainConfig":
        if self.epochs < 0 or self.epochs % 2 != 0:
            raise ConfigError(f"epochs must be even and non-negative (strict epoch alternation), got {self.epochs}")
        for name in ("lr", "adam_eps"):
            if not (0.0 < getattr(self, name) < np.inf):
                raise ConfigError(f"{name} must be finite and positive, got {getattr(self, name)}")
        for name in ("lambda_loc", "lambda_tg", "lambda_adv"):
            if not (0.0 <= getattr(self, name) < np.inf):
                raise ConfigError(f"{name} must be finite and non-negative, got {getattr(self, name)}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"Adam betas must lie in [0, 1), got beta1={self.beta1}, beta2={self.beta2}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        return self


class Adam:
    """Standard Adam with bias correction; no weight decay.

    It updates ``values`` in place from ``grads``, two same-shape arrays,
    as whole vectors.  ``fit`` passes a ``ModelState``'s flat ``values`` and
    ``grads`` stores, so one step is a few elementwise operations over every
    parameter at once.  The step runs in place on the moments and on two
    scratch vectors allocated once, so it makes no temporaries; it performs
    the operations of

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        values -= lr * (m / c1) / (sqrt(v / c2) + eps)

    in that order, with the bias corrections c1 = 1 - beta1**t and
    c2 = 1 - beta2**t.
    """

    def __init__(self, values: np.ndarray, grads: np.ndarray, cfg: TrainConfig):
        self._values = values
        self._grads = grads
        self._m = np.zeros_like(values)
        self._v = np.zeros_like(values)
        self._a = np.empty_like(values)
        self._b = np.empty_like(values)
        self.lr, self.beta1, self.beta2, self.eps = cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps
        self.t = 0

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        g, m, v, a, b = self._grads, self._m, self._v, self._a, self._b
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, g, out=a)
        v *= self.beta2
        np.multiply(1.0 - self.beta2, g, out=a)
        v += np.multiply(a, g, out=a)
        np.multiply(self.lr, np.divide(m, c1, out=a), out=a)
        np.add(np.sqrt(np.divide(v, c2, out=b), out=b), self.eps, out=b)
        self._values -= np.divide(a, b, out=a)


class ClasswiseLossTable:
    """Running mean of vision-only video losses, keyed by class."""

    def __init__(self):
        self._sums: dict[int, float] = {}
        self._counts: dict[int, int] = {}

    def add(self, label: int, loss: float) -> None:
        self._sums[label] = self._sums.get(label, 0.0) + float(loss)
        self._counts[label] = self._counts.get(label, 0) + 1

    def mean(self, label: int) -> float:
        if label not in self._sums:
            raise ConfigError(f"class {label} missing from the vision-only loss table")
        return self._sums[label] / self._counts[label]

    def means(self) -> dict[int, float]:
        return {c: self.mean(c) for c in sorted(self._sums)}


@dataclass(eq=False)
class DetectionLossResult:
    loss: float
    per_frame: np.ndarray        # L x 1 unnormalized per-frame summands
    d_cls_scores: np.ndarray     # L x C
    d_offsets: np.ndarray        # L x 2


def detection_loss(outputs: FrameOutputs, labels: np.ndarray, gstart: np.ndarray,
                   gend: np.ndarray, lambda_loc: float = 1.0) -> DetectionLossResult:
    """Focal classification over every frame plus DIoU regression on
    positive frames, summed per frame and normalized by the positive count
    (floored at 1).  ``labels``, ``gstart`` and ``gend`` are the per-frame
    targets of ``frame_targets``; label C marks background.

    Predicted intervals are padded by a fixed 1e-6 on both sides so frames
    whose offsets collapse to zero still yield a valid interval.
    """
    scores = outputs.cls_scores
    off = outputs.offsets
    L, C = scores.shape
    pos = labels < C
    y = np.zeros((L, C))
    if pos.any():
        y[np.nonzero(pos)[0], labels[pos]] = 1.0
    fl, dfl = focal_loss(scores, y)
    per_frame = fl.sum(axis=1)
    m = max(1, int(pos.sum()))
    d_scores = dfl / m
    d_off = np.zeros((L, 2))
    if pos.any():
        li = np.nonzero(pos)[0]
        ps = li - off[li, 0] - INTERVAL_PAD
        pe = li + off[li, 1] + INTERVAL_PAD
        dl, dps, dpe = diou_loss(ps, pe, gstart[li], gend[li])
        per_frame[li] += lambda_loc * dl
        d_off[li, 0] = -lambda_loc * dps / m
        d_off[li, 1] = lambda_loc * dpe / m
    loss = float(per_frame.sum() / m)
    return DetectionLossResult(loss, per_frame.reshape(L, 1), d_scores, d_off)


def _present_classes(labels: np.ndarray, num_classes: int) -> tuple[int, ...]:
    """The classes of the non-background frames, ascending."""
    return tuple(sorted(set(labels[labels < num_classes].tolist())))


def target_advantage(table: ClasswiseLossTable, per_frame_vl: np.ndarray, labels: np.ndarray,
                     num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Frozen regression targets for the advantage head from the per-frame
    labels of ``frame_targets`` (label ``num_classes`` is background).

    Returns (targets, mask), both L x 1; background frames are masked out.
    A class present in ``labels`` but missing from the table is a ConfigError.
    """
    pf = np.asarray(per_frame_vl, dtype=np.float64).reshape(-1, 1)
    targets = np.zeros_like(pf)
    for c in _present_classes(labels, num_classes):
        frames = labels == c
        targets[frames, 0] = table.mean(c) - pf[frames, 0]
    return targets, (labels < num_classes).reshape(-1, 1)


def advantage_loss(adv_pred, targets, mask) -> tuple[float, np.ndarray]:
    """Mean squared error over masked (positive) frames and its gradient
    with respect to ``adv_pred``: (loss, grad), (0, zeros) when no frame
    is masked in."""
    mask = np.asarray(mask, dtype=bool)
    diff = np.asarray(adv_pred, float) - np.asarray(targets, float)
    grad = np.zeros_like(diff)
    n = int(mask.sum())
    if n == 0:
        return 0.0, grad
    d = diff[mask]
    grad[mask] = 2.0 * d / n
    return float(np.mean(d * d)), grad


@dataclass(eq=False)
class StepLog:
    video_id: str
    classes: tuple[int, ...]
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
    table_means: dict[int, float] | None = None  # the class table a vision epoch filled

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
            records.append(json.loads(line))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise FormatError(f"bad training log line {i + 1} in {path}: {exc}") from exc
    return records


def corpus_targets(corpus: Corpus, num_classes: int) -> list[tuple]:
    """Each video's per-frame targets, (labels, gstart, gend, present
    classes), from one read of its ground truth: ``frame_targets`` at the
    video's frame count, then the classes of its non-background frames.
    A segment that ``frame_targets`` rejects is a ConfigError here."""
    targets = []
    for video in corpus.videos:
        labels, gstart, gend = frame_targets(video.gt, len(video.vis), num_classes)
        targets.append((labels, gstart, gend, _present_classes(labels, num_classes)))
    return targets


def train_epoch(corpus: Corpus, targets: list[tuple], state: ModelState, opt: Adam,
                cfg: TrainConfig, table: ClasswiseLossTable | None = None
                ) -> tuple[ClasswiseLossTable, list[StepLog]]:
    """One pass over the corpus, one Adam step per video, each reading its
    video's entry of ``targets`` (``corpus_targets``).  Without a table
    it trains the vision view on the detection loss and fills a new class
    table (each video's loss once per class it shows); given the preceding
    vision pass's table it trains the gated model, template and advantage
    terms included.  Returns the table a gated pass reads, and the steps."""
    if not corpus.videos:
        raise ConfigError("cannot train on an empty corpus")
    C = state.cfg.num_classes
    vision = table is None
    if vision:
        table = ClasswiseLossTable()
    steps = []
    for video, (labels, gstart, gend, present) in zip(corpus.videos, targets, strict=True):
        state.zero_grads()
        outputs, cache = forward_video(state, video.vis, None if vision else video.lang)
        det = detection_loss(outputs, labels, gstart, gend, cfg.lambda_loc)
        if vision:
            tg = adv = 0.0
            d_tmpl = d_adv = None  # the template head's gradient is zero: its backward is skipped
            for c in present:
                table.add(c, det.loss)
        else:
            tg = template_loss(outputs.tmpl_logits, labels)
            d_tmpl = cfg.lambda_tg * template_loss_grad(outputs.tmpl_logits, labels)
            adv, d_adv = advantage_loss(outputs.adv_pred, *target_advantage(table, det.per_frame, labels, C))
            d_adv = cfg.lambda_adv * d_adv
        backward_video(state, cache, det.d_cls_scores, det.d_offsets, d_tmpl, d_adv)
        del cache  # this step's activations, freed before the next forward pass allocates its own
        opt.step()
        steps.append(StepLog(video.id, present, det.loss, tg, adv,
                             det.loss + cfg.lambda_tg * tg + cfg.lambda_adv * adv,
                             float(outputs.lam.mean())))
    return table, steps


def fit(corpus: Corpus, model_cfg: ModelConfig, train_cfg: TrainConfig) -> tuple[ModelState, TrainLog]:
    """Train for train_cfg.epochs epochs in strict vision/vision+language
    alternation, starting with a vision-only epoch.  Every fit starts from
    the seed, ``ModelState(model_cfg, Rng(train_cfg.seed))`` with fresh Adam
    moments, so a longer fit is a rerun with more epochs.  The videos'
    targets are derived once, before the first step; each epoch logs one
    INFO line (epoch, phase, mean total loss, seconds)."""
    train_cfg.validate()
    state = ModelState(model_cfg.validate(), Rng(train_cfg.seed))
    opt = Adam(state.values, state.grads, train_cfg)
    targets = corpus_targets(corpus, model_cfg.num_classes)
    log = TrainLog()
    table: ClasswiseLossTable | None = None
    for epoch in range(train_cfg.epochs):
        t0 = time.perf_counter()
        vision = epoch % 2 == 0
        table, steps = train_epoch(corpus, targets, state, opt, train_cfg, None if vision else table)
        record = EpochLog(epoch, "vision" if vision else "vision_language",
                          time.perf_counter() - t0, steps, table.means() if vision else None)
        log.epochs.append(record)
        logger.info("epoch %d %s loss_total %.6f %.2fs", epoch, record.phase, record.mean_total,
                    record.wall_time)
    return state, log
