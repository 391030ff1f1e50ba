"""Anchor-free per-frame detector with an advantage-gated language residual.

The per-frame gate is lambda = 2*sigmoid(relu(a)) - 1 where a is a linear
prediction of the language advantage from the advantage carrier stream.
Classification and localization features are formed as a residual
aggregation: vision plus lambda times the matching language stream, so
lambda = 0 reduces the model to vision-only bit for bit.

Two small convolutional trunks (classification and localization) read the
aggregated features; per-frame heads emit class probabilities, boundary
offsets, and template-token logits used by the auxiliary captioning loss.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import blobio
from .errors import ConfigError, FormatError, check_type, read_json, write_atomic
from .nn import (Conv1d, Linear, Rng, ShapeError, as_matrix, log_softmax, relu,
                 relu_grad, sigmoid)
from .synthgen import LanguageBundle, Segment, VideoRecord

LAMBDA_MODES = ("learned", "fixed", "language_only")
_ONE_BELOW_1 = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class ModelConfig:
    dim: int
    num_classes: int
    head_layers: int = 2
    kernel: int = 3
    hidden: int | None = None
    nms_tiou: float = 0.5
    top_k_pre_nms: int = 200
    score_threshold: float = 0.01
    lambda_mode: str = "learned"
    fixed_lambda: float = 0.0

    @property
    def hidden_dim(self) -> int:
        return self.dim if self.hidden is None else self.hidden

    def validate(self) -> "ModelConfig":
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.head_layers < 1:
            raise ConfigError(f"head_layers must be >= 1, got {self.head_layers}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError(f"kernel must be odd and positive, got {self.kernel}")
        if self.hidden is not None and self.hidden < 1:
            raise ConfigError(f"hidden must be >= 1, got {self.hidden}")
        if not (0.0 < self.nms_tiou < 1.0):
            raise ConfigError(f"nms_tiou must lie in (0, 1), got {self.nms_tiou}")
        if self.top_k_pre_nms < 1:
            raise ConfigError(f"top_k_pre_nms must be >= 1, got {self.top_k_pre_nms}")
        if not (0.0 <= self.score_threshold < 1.0):
            raise ConfigError(f"score_threshold must lie in [0, 1), got {self.score_threshold}")
        if self.lambda_mode not in LAMBDA_MODES:
            raise ConfigError(f"lambda_mode must be one of {LAMBDA_MODES}, got {self.lambda_mode!r}")
        if not (0.0 <= self.fixed_lambda <= 1.0):
            raise ConfigError(f"fixed_lambda must lie in [0, 1], got {self.fixed_lambda}")
        return self


class ModelState:
    """All trainable parameters, created in a fixed seeded order.

    The parameters live in one store: ``values`` and ``grads`` are flat
    float64 vectors, and every layer's ``Param`` is a reshaped view into
    them, laid out in ``named_params`` order.  An optimizer updates
    ``values`` as one vector, and ``zero_grads`` is one fill.
    """

    def __init__(self, cfg: ModelConfig, rng: Rng | None):
        cfg.validate()
        self.cfg = cfg
        d, h = cfg.dim, cfg.hidden_dim
        # start the gate half-open so the language pathway actually trains;
        # the advantage regression then closes it wherever language fails to help
        self.adv_fc = Linear(d, 1, rng, w_scale=0.1 / np.sqrt(d))
        self.adv_fc.b.value[...] = 1.0
        self.cls_trunk = []
        self.loc_trunk = []
        for i in range(cfg.head_layers):
            din = d if i == 0 else h
            self.cls_trunk.append(Conv1d(cfg.kernel, din, h, rng))
        self.cls_out = Linear(h, cfg.num_classes, rng, w_scale=1.0 / np.sqrt(h))
        self.tmpl_out = Linear(h, cfg.num_classes + 1, rng, w_scale=1.0 / np.sqrt(h))
        for i in range(cfg.head_layers):
            din = d if i == 0 else h
            self.loc_trunk.append(Conv1d(cfg.kernel, din, h, rng))
        self.loc_out = Linear(h, 2, rng, w_scale=1.0 / np.sqrt(h))
        self.loc_out.b.value[...] = 1.0  # start with open, non-degenerate intervals

        params = [p for _, p in self.named_params()]
        self.values = np.concatenate([p.value.ravel() for p in params])
        self.grads = np.zeros_like(self.values)
        offset = 0
        for p in params:
            shape, end = p.shape, offset + p.value.size
            p.value = self.values[offset:end].reshape(shape)
            p.grad = self.grads[offset:end].reshape(shape)
            offset = end

    def named_params(self):
        layers = [("adv_fc", self.adv_fc)]
        layers += [(f"cls_trunk.{i}", conv) for i, conv in enumerate(self.cls_trunk)]
        layers += [("cls_out", self.cls_out), ("tmpl_out", self.tmpl_out)]
        layers += [(f"loc_trunk.{i}", conv) for i, conv in enumerate(self.loc_trunk)]
        layers.append(("loc_out", self.loc_out))
        return [(f"{prefix}.{suffix}", p) for prefix, layer in layers for suffix, p in layer.params()]

    def zero_grads(self) -> None:
        self.grads.fill(0.0)


@dataclass(eq=False)
class FrameOutputs:
    cls_scores: np.ndarray   # L x C probabilities
    offsets: np.ndarray      # L x 2 non-negative boundary offsets
    lam: np.ndarray          # L x 1 effective gate
    adv_pred: np.ndarray     # L x 1 predicted language advantage
    tmpl_logits: np.ndarray  # L x (C + 1) template-token logits


@dataclass(eq=False)
class _VideoCache:
    """What ``backward_video`` reads of one forward pass: per trunk, each conv
    layer's (padded input, pre-activation) and its output layers' input."""
    cls_convs: list
    cls_feat: np.ndarray  # read by cls_out and tmpl_out alike
    cls_scores: np.ndarray
    loc_convs: list
    loc_feat: np.ndarray
    loc_raw: np.ndarray
    bundle: LanguageBundle | None = None  # bundle, adv_in, adv_pred, lam: set when the advantage head ran
    adv_in: np.ndarray | None = None
    adv_pred: np.ndarray | None = None
    lam: np.ndarray | None = None


def lambda_from_advantage(adv_pred) -> np.ndarray:
    """Gate values 2*sigmoid(relu(a)) - 1, computed as tanh(relu(a) / 2).

    Exactly 0 for a <= 0; capped one ulp below 1 so the open interval
    [0, 1) holds even for saturating advantages.
    """
    a = np.asarray(adv_pred, dtype=np.float64)
    return np.minimum(np.tanh(relu(a) / 2.0), _ONE_BELOW_1)


def _lambda_grad(adv_pred, lam) -> np.ndarray:
    # d lambda / d a = (1 - lambda^2) / 2 on the open side of the relu
    a = np.asarray(adv_pred, dtype=np.float64)
    return 0.5 * (1.0 - lam * lam) * (a > 0.0)


def aggregate(vis, bundle: LanguageBundle, lam) -> tuple[np.ndarray, np.ndarray]:
    """Residual feature aggregation: vision plus gated language streams."""
    vis = as_matrix(vis, "vis")
    lam = as_matrix(lam, "lambda")
    if lam.shape != (vis.shape[0], 1):
        raise ShapeError(f"lambda shape {lam.shape} does not match frame count {vis.shape[0]}")
    for name, stream in (("cls_stream", bundle.cls_stream), ("loc_stream", bundle.loc_stream)):
        if stream.shape != vis.shape:
            raise ShapeError(f"{name} shape {stream.shape} does not match vis shape {vis.shape}")
    return vis + lam * bundle.cls_stream, vis + lam * bundle.loc_stream


def _trunk_forward(trunk: list, x) -> tuple[np.ndarray, list]:
    """A conv trunk's relu features and, per layer, the (padded input,
    pre-activation) its backward reads."""
    convs = []
    for conv in trunk:
        z, xp = conv.forward(x)
        convs.append((xp, z))
        x = relu(z)
    return x, convs


def head_forward(f_cls, f_loc, state: ModelState) -> tuple[FrameOutputs, _VideoCache]:
    """Run both trunks; lambda/advantage fields are zero placeholders."""
    feat, cls_convs = _trunk_forward(state.cls_trunk, f_cls)
    logits, cls_feat = state.cls_out.forward(feat)
    cls_scores = sigmoid(logits)
    tmpl_logits = state.tmpl_out.forward(cls_feat)[0]
    feat, loc_convs = _trunk_forward(state.loc_trunk, f_loc)
    loc_raw, loc_feat = state.loc_out.forward(feat)
    offsets = relu(loc_raw)
    L = cls_scores.shape[0]
    outputs = FrameOutputs(cls_scores, offsets, np.zeros((L, 1)), np.zeros((L, 1)), tmpl_logits)
    return outputs, _VideoCache(cls_convs, cls_feat, cls_scores, loc_convs, loc_feat, loc_raw)


def _trunk_backward(trunk: list, convs: list, d_feat, input_grad: bool):
    for i in reversed(range(len(trunk))):
        xp, z = convs[i]
        d_feat = trunk[i].backward(xp, d_feat * relu_grad(z), input_grad or i > 0)
    return d_feat


def forward_video(state: ModelState, vis,
                  bundle: LanguageBundle | None) -> tuple[FrameOutputs, _VideoCache]:
    """Full forward pass for one video.

    ``bundle=None`` runs the vision-only path: both trunks read raw vision
    features, the advantage head does not run, and the gate reads 0.
    Otherwise ``cfg.lambda_mode`` picks the gate: learned from the advantage
    head (``"learned"``), the constant ``cfg.fixed_lambda`` (``"fixed"``),
    or language-only (``"language_only"``: the trunks read the pure
    language streams, lambda = 1, and the advantage head does not run).  A
    gate fixed at 0 reproduces the vision-only path bit for bit.
    """
    vis = as_matrix(vis, "vis")
    if bundle is None:
        return head_forward(vis, vis, state)

    L = vis.shape[0]
    mode = state.cfg.lambda_mode
    if mode == "language_only":
        outputs, cache = head_forward(bundle.cls_stream, bundle.loc_stream, state)
        outputs.lam = np.ones((L, 1))
        return outputs, cache
    adv_pred, adv_in = state.adv_fc.forward(bundle.adv_stream)
    learned = mode == "learned"
    lam = lambda_from_advantage(adv_pred) if learned else np.full((L, 1), float(state.cfg.fixed_lambda))
    outputs, cache = head_forward(*aggregate(vis, bundle, lam), state)
    outputs.lam = lam
    outputs.adv_pred = adv_pred
    cache.bundle, cache.adv_in, cache.adv_pred, cache.lam = bundle, adv_in, adv_pred, lam
    return outputs, cache


def backward_video(state: ModelState, cache: _VideoCache, d_scores, d_offsets,
                   d_tmpl, d_adv=None) -> None:
    """Accumulate parameter gradients for one video.

    ``d_tmpl=None`` stands for a zero template-logit gradient and skips the
    template head's backward (a vision step).  ``d_adv`` is the direct
    gradient on the advantage prediction (from the advantage regression
    loss); the gate path contribution is added here when the gate is
    learned.  Both reach ``adv_fc`` only if it ran.
    """
    bundle = cache.bundle
    # only dlambda/da reads the trunk-input gradients; without it the first
    # conv layer of each trunk skips its input gradient
    learned = bundle is not None and state.cfg.lambda_mode == "learned"
    d_logits = d_scores * cache.cls_scores * (1.0 - cache.cls_scores)
    d_feat = state.cls_out.backward(cache.cls_feat, d_logits)
    if d_tmpl is not None:
        d_feat += state.tmpl_out.backward(cache.cls_feat, d_tmpl)
    d_f_cls = _trunk_backward(state.cls_trunk, cache.cls_convs, d_feat, learned)
    d_feat = state.loc_out.backward(cache.loc_feat, d_offsets * relu_grad(cache.loc_raw))
    d_f_loc = _trunk_backward(state.loc_trunk, cache.loc_convs, d_feat, learned)
    if bundle is None:
        return
    if learned:
        d_lam = (d_f_cls * bundle.cls_stream).sum(axis=1, keepdims=True) \
            + (d_f_loc * bundle.loc_stream).sum(axis=1, keepdims=True)
        d_gate = d_lam * _lambda_grad(cache.adv_pred, cache.lam)
        d_adv = d_gate if d_adv is None else d_gate + d_adv
    if d_adv is not None:
        state.adv_fc.backward(cache.adv_in, d_adv, input_grad=False)  # its input, the advantage stream, is data


def frame_targets(gt: list[Segment], frames: int, num_classes: int):
    """Per-frame labels plus covering segment bounds.

    Returns (labels, gstart, gend): label ``num_classes`` marks background,
    and the bounds are zero there.  Overlapping segments are an error.
    """
    labels = np.full(frames, num_classes, dtype=np.int64)
    gstart = np.zeros(frames)
    gend = np.zeros(frames)
    for seg in gt:
        s, e = int(seg.start), int(seg.end)
        if not (0 <= s < e <= frames):
            raise ConfigError(f"segment ({seg.start}, {seg.end}) out of bounds for {frames} frames")
        if not (0 <= seg.label < num_classes):
            raise ConfigError(f"segment label {seg.label} out of range for {num_classes} classes")
        if np.any(labels[s:e] != num_classes):
            raise ConfigError(f"overlapping ground-truth segments at frames {s}..{e}")
        labels[s:e] = seg.label
        gstart[s:e] = float(seg.start)
        gend[s:e] = float(seg.end)
    return labels, gstart, gend


def template_loss(tmpl_logits, labels: np.ndarray) -> float:
    """Mean per-frame cross-entropy against the template token sequence.

    The token at frame l is ``labels[l]`` from ``frame_targets``: the
    covering segment's class, or the background token C (the last logit
    column) when no segment covers l.
    """
    z = as_matrix(tmpl_logits, "tmpl_logits")
    logp = log_softmax(z)
    return float(-logp[np.arange(len(z)), labels].mean())


def template_loss_grad(tmpl_logits, labels: np.ndarray) -> np.ndarray:
    """d template_loss / d logits = (softmax - onehot) / L."""
    z = as_matrix(tmpl_logits, "tmpl_logits")
    L = len(z)
    g = np.exp(log_softmax(z))
    g[np.arange(L), labels] -= 1.0
    return g / L


@dataclass(frozen=True, eq=False)
class Proposals:
    """Proposals as a table of five parallel arrays, one row per proposal.

    ``video`` numbers the video of each row: 0 throughout the table of one
    video, 0..V-1 in the ``stack`` of V videos' tables.  Rows are in
    canonical order: video ascending, then score descending, then start,
    end and label ascending.  ``decode_proposals`` emits that order and
    ``nms``, ``stack``, ``split`` and slicing keep it.
    """
    start: np.ndarray  # float64
    end: np.ndarray    # float64
    label: np.ndarray  # int64
    score: np.ndarray  # float64
    video: np.ndarray  # int64, ascending

    def __len__(self) -> int:
        return len(self.start)

    def take(self, rows) -> "Proposals":
        """The table of the given rows, a slice or an index array; ascending
        indices keep the canonical order."""
        return Proposals(self.start[rows], self.end[rows], self.label[rows], self.score[rows],
                         self.video[rows])

    @classmethod
    def stack(cls, tables) -> "Proposals":
        """One table of the given one-video tables, table i as video i."""
        tables = list(tables)
        # the empty arrays admit an empty list
        return cls(np.concatenate([t.start for t in tables] + [np.zeros(0)]),
                   np.concatenate([t.end for t in tables] + [np.zeros(0)]),
                   np.concatenate([t.label for t in tables] + [np.zeros(0, dtype=np.int64)]),
                   np.concatenate([t.score for t in tables] + [np.zeros(0)]),
                   np.repeat(np.arange(len(tables)), [len(t) for t in tables]))

    def split(self, videos: int) -> list["Proposals"]:
        """The one-video tables of a stack of ``videos`` videos, the inverse
        of ``stack``."""
        bounds = np.searchsorted(self.video, np.arange(videos + 1)).tolist()
        return [Proposals(self.start[a:b], self.end[a:b], self.label[a:b], self.score[a:b],
                          np.zeros(b - a, dtype=np.int64)) for a, b in zip(bounds, bounds[1:])]


def tiou(a, b) -> float:
    """Temporal IoU of two intervals, objects with ``start`` and ``end``
    (ground-truth segments, say).  Zero-length intervals are an error."""
    sa, ea, sb, eb = float(a.start), float(a.end), float(b.start), float(b.end)
    if not (sa < ea) or not (sb < eb):
        raise ValueError(f"tiou of degenerate interval: ({sa}, {ea}) vs ({sb}, {eb})")
    return float(tiou_array(sa, ea, sb, eb))


def tiou_array(sa, ea, sb, eb) -> np.ndarray:
    """Elementwise temporal IoU of broadcast interval arrays a and b, the
    one tIoU arithmetic of the package.  Rejecting zero-length intervals is
    left to the caller (``tiou`` rejects them)."""
    inter = np.minimum(ea, eb) - np.maximum(sa, sb)
    inter = np.where(inter > 0.0, inter, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return inter / ((ea - sa) + (eb - sb) - inter)


def decode_proposals(outputs: FrameOutputs, cfg: ModelConfig) -> Proposals:
    """Frame-wise decoding: (l - off0, l + off1, c, score) above threshold.

    Boundaries are clamped to [0, L] (``max(0, l - off0)``,
    ``min(L, l + off1)``); empty intervals are dropped, so every row is a
    non-empty interval.  The table is in canonical order, ties kept in
    frame-major order, and cut to cfg.top_k_pre_nms rows.
    """
    scores = outputs.cls_scores
    off = outputs.offsets
    L = scores.shape[0]
    frames, labels = np.nonzero(scores >= cfg.score_threshold)
    start = frames - off[frames, 0]
    start = np.where(start > 0.0, start, 0.0)  # Python's max(0, x), NaN included
    end = frames + off[frames, 1]
    end = np.where(end < L, end, float(L))      # Python's min(L, x)
    live = start < end
    start, end, labels = start[live], end[live], labels[live]
    score = scores[frames[live], labels]
    order = np.lexsort((labels, end, start, -score))[:cfg.top_k_pre_nms]
    return Proposals(start[order], end[order], labels[order], score[order],
                     np.zeros(len(order), dtype=np.int64))


def nms(proposals: Proposals, tiou_threshold: float) -> Proposals:
    """Greedy class-wise suppression of overlaps above the threshold, in
    each video of the table on its own.

    A video's rows go in table order; one is kept unless a kept row of its
    video and label overlaps it by more than the threshold.  The greedy
    loops of all videos advance in lock-step: each round keeps the first
    live row of every video that still has one and computes, with
    ``tiou``'s arithmetic, its tIoU against the live rows of its video
    only.  A pass takes as many rounds as the most rows one video keeps.
    A zero-length interval that shares its video and label with another
    row is a ValueError, as in ``tiou``.
    """
    s, e, label, video = proposals.start, proposals.end, proposals.label, proposals.video
    group = video * (int(label.max(initial=0)) + 1) + label  # one number per (video, label)
    bad = np.flatnonzero(~(s < e) & (np.bincount(group)[group] > 1))
    if len(bad):
        i = bad[0]
        raise ValueError(f"nms of degenerate interval ({s[i]}, {e[i]}) with label {label[i]} "
                         f"in video {video[i]}")
    kept, live = [np.zeros(0, dtype=np.int64)], np.arange(len(s))
    while len(live):  # live rows stay in table order, so video-major
        v = video[live]
        first = np.concatenate(([True], v[1:] != v[:-1]))  # the first live row of its video
        heads = live[first]
        kept.append(heads)
        lead = heads[np.cumsum(first) - 1]  # the kept row of each live row's video
        over = tiou_array(s[lead], e[lead], s[live], e[live]) > tiou_threshold  # tiou(kept, candidate)
        stay = (label[live] != label[lead]) | ~over
        stay[first] = False
        live = live[stay]
    return proposals.take(np.sort(np.concatenate(kept)))


def predict_corpus(state: ModelState, videos: Iterable[VideoRecord]
                   ) -> tuple[dict[str, Proposals], list[np.ndarray]]:
    """Score a corpus: (kept proposals of every video keyed by id, each
    video's L x 1 gate), both in the order read.

    ``videos`` is read once: each video runs one forward pass, and only
    its decoded table and its gate are kept; then one ``nms`` pass
    suppresses the stack of tables.  A video is dropped before the next is
    read, so a generated stream (``synthgen.inject_conflict``) holds one
    video at a time.  Records without language (``lang=None``) take the
    vision-only path.
    """
    ids, decoded, gates = [], [], []
    for video in videos:
        outputs = forward_video(state, video.vis, video.lang)[0]
        ids.append(video.id)
        decoded.append(decode_proposals(outputs, state.cfg))
        gates.append(outputs.lam)
        del video, outputs  # freed before the stream builds the next
    kept = nms(Proposals.stack(decoded), state.cfg.nms_tiou).split(len(ids))
    return dict(zip(ids, kept)), gates


def save_checkpoint(state: ModelState, path) -> None:
    """Parameters in the named-matrix container plus a JSON config sidecar,
    each written atomically."""
    path = Path(path)
    blobio.write_named_matrices(path, [(name, p.value) for name, p in state.named_params()])
    write_atomic(Path(str(path) + ".json"),
                 json.dumps({"model_config": asdict(state.cfg)}, sort_keys=True, indent=2) + "\n")


def load_checkpoint(path) -> ModelState:
    path = Path(path)
    sidecar = Path(str(path) + ".json")
    if not sidecar.exists():
        raise FormatError(f"missing checkpoint sidecar {sidecar}")
    blob = read_json(sidecar, "checkpoint sidecar")
    try:
        given = blob["model_config"]
        for f in fields(ModelConfig):  # dim and num_classes, without a default, are integers
            if f.name in given:
                check_type("model_config", f.name, given[f.name], 0 if f.default is MISSING else f.default)
        cfg = ModelConfig(**given).validate()
    except (KeyError, TypeError, ConfigError) as exc:
        raise FormatError(f"bad checkpoint sidecar {sidecar}: {exc}") from exc
    state = ModelState(cfg, rng=None)
    stored = dict(blobio.read_named_matrices(path))
    for name, p in state.named_params():
        if name not in stored:
            raise FormatError(f"checkpoint {path} lacks parameter {name!r}")
        m = stored.pop(name)
        if m.shape != p.value.shape:
            raise FormatError(f"checkpoint parameter {name!r} has shape {m.shape}, model expects {p.value.shape}")
        p.value[...] = m
    if stored:
        raise FormatError(f"checkpoint {path} has unknown parameters {sorted(stored)}")
    return state
