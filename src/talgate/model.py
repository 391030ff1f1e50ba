"""Anchor-free per-frame detector with an advantage-gated language residual.

The per-frame gate is lambda = 2*sigmoid(relu(a)) - 1 where a is a linear
prediction of the language advantage from the advantage carrier stream.
Classification and localization features are formed as a residual
aggregation: vision plus lambda times the matching language stream, so
lambda = 0 reduces the model to vision-only bit for bit.

Two small convolutional trunks (classification and localization), each
``HEAD_LAYERS`` conv layers of kernel ``KERNEL`` and width ``dim``, read the
aggregated features; per-frame heads emit class probabilities and boundary
offsets, which a forward pass returns in one ``Forward`` record with the
gate and what ``backward_video`` reads.  A pass is a per-pass step (the
gate and the trunk inputs) and ``head_forward``, which also runs the
passes of one video read as one stack, each item with the bits of its own
pass.  The template head (token logits for the auxiliary captioning loss)
reads the record's classification features, in a gated training step
only.  A corpus pass (``predict_corpus``) scores each video read, and the
views of it, in one stacked forward pass, and returns one NMS-kept
proposals table plus each video's gate and ground truth, and one more
table per view.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import blobio
from .errors import ConfigError, FormatError, read_config_block, read_json, write_atomic
from .nn import (Conv1d, Linear, Rng, ShapeError, as_matrix, log_softmax, relu,
                 relu_grad, sigmoid)
from .synthgen import LanguageBundle, Segment, VideoRecord

LAMBDA_MODES = ("learned", "fixed", "language_only")
_ONE_BELOW_1 = float(np.nextafter(1.0, 0.0))
HEAD_LAYERS = 2          # conv layers per trunk, each of width dim
KERNEL = 3               # their kernel width
SCORE_THRESHOLD = 0.01   # decode keeps the (frame, class) scores at or above this
TOP_K_PRE_NMS = 200      # and at most this many of a video's rows, the highest scored
NMS_TIOU = 0.5           # predict_corpus suppresses same-class overlaps above this tIoU


@dataclass(frozen=True)
class ModelConfig:
    """A model's settings: the feature width and class count of its corpus,
    and its gate (``forward_video``).  The trunks' shape and the decoding
    settings are the module constants above."""
    dim: int
    num_classes: int
    lambda_mode: str = "learned"
    fixed_lambda: float = 0.0

    def validate(self) -> "ModelConfig":
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
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
        d = cfg.dim
        # start the gate half-open so the language pathway actually trains;
        # the advantage regression then closes it wherever language fails to help
        self.adv_fc = Linear(d, 1, rng, w_scale=0.1 / np.sqrt(d))
        self.adv_fc.b.value[...] = 1.0
        self.cls_trunk = [Conv1d(KERNEL, d, d, rng) for _ in range(HEAD_LAYERS)]
        self.cls_out = Linear(d, cfg.num_classes, rng, w_scale=1.0 / np.sqrt(d))
        self.tmpl_out = Linear(d, cfg.num_classes + 1, rng, w_scale=1.0 / np.sqrt(d))
        self.loc_trunk = [Conv1d(KERNEL, d, d, rng) for _ in range(HEAD_LAYERS)]
        self.loc_out = Linear(d, 2, rng, w_scale=1.0 / np.sqrt(d))
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
class Forward:
    """One forward pass of one video: its outputs and what ``backward_video``
    reads, per trunk each conv layer's (padded input, pre-activation), each
    an array of its own, and its output layers' input.  A scoring pass
    keeps the outputs it reads.
    The record of a stack of passes holds its outputs with a leading stack
    axis and nothing else (every other field None): it is scored, not
    backpropagated."""
    cls_scores: np.ndarray  # L x C probabilities
    offsets: np.ndarray     # L x 2 non-negative boundary offsets
    lam: np.ndarray         # L x 1 effective gate
    adv_pred: np.ndarray    # L x 1 predicted language advantage; 0 if the advantage head did not run
    cls_convs: list | None
    cls_feat: np.ndarray | None  # read by cls_out and the template head (tmpl_out) alike
    loc_convs: list | None
    loc_feat: np.ndarray | None
    loc_raw: np.ndarray | None
    bundle: LanguageBundle | None = None  # bundle and adv_in: set when the advantage head ran
    adv_in: np.ndarray | None = None


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


def aggregate(vis, bundle: LanguageBundle, lam, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Residual feature aggregation: vision plus gated language streams,
    written into ``out[0]`` and ``out[1]`` when ``out`` (2 x L x D) is given."""
    vis = as_matrix(vis, "vis")
    lam = as_matrix(lam, "lambda")
    if lam.shape != (vis.shape[0], 1):
        raise ShapeError(f"lambda shape {lam.shape} does not match frame count {vis.shape[0]}")
    streams = (bundle.cls_stream, bundle.loc_stream)
    for name, stream in zip(("cls_stream", "loc_stream"), streams):
        if stream.shape != vis.shape:
            raise ShapeError(f"{name} shape {stream.shape} does not match vis shape {vis.shape}")
    out = np.empty((2,) + vis.shape) if out is None else out
    for f, stream in zip(out, streams):
        np.multiply(lam, stream, out=f)
        f += vis  # into the product: the bits of vis + lam * stream
    return out[0], out[1]


def _trunk_forward(trunk: list, x, convs: list | None) -> np.ndarray:
    """A conv trunk's relu features.  Into ``convs``, unless it is None,
    goes per layer the (padded input, pre-activation) its backward reads."""
    for conv in trunk:
        z, xp = conv.forward(x)
        if convs is not None:
            convs.append((xp, z))
        x = relu(z)
    return x


def head_forward(f_cls, f_loc, state: ModelState) -> Forward:
    """Run both trunks and their output layers on one pass's L x D trunk
    inputs, or on a stack of passes' (S x L x D, item i pass i's); the gate
    and the advantage read 0.  A stack is scored, not backpropagated: its
    record keeps only the outputs, and each layer's buffers are free again
    for the next."""
    keep = np.ndim(f_cls) == 2
    cls_convs, loc_convs = ([], []) if keep else (None, None)
    logits, cls_feat = state.cls_out.forward(_trunk_forward(state.cls_trunk, f_cls, cls_convs))
    if not keep:
        cls_feat = None  # freed before the localization trunk allocates
    loc_raw, loc_feat = state.loc_out.forward(_trunk_forward(state.loc_trunk, f_loc, loc_convs))
    offsets = relu(loc_raw)
    if not keep:
        loc_feat = loc_raw = None
    gate_shape = logits.shape[:-1] + (1,)
    return Forward(sigmoid(logits), offsets, np.zeros(gate_shape), np.zeros(gate_shape),
                   cls_convs, cls_feat, loc_convs, loc_feat, loc_raw)


def _trunk_backward(trunk: list, convs: list, d_feat, input_grad: bool):
    for i in reversed(range(len(trunk))):
        xp, z = convs[i]
        # relu_grad(z) compared into a float buffer: a float product is faster
        # than one that casts a bool mask, and has the same bits
        mask = np.greater(z, 0.0, out=np.empty_like(z))
        d_feat = trunk[i].backward(xp, np.multiply(d_feat, mask, out=mask), input_grad or i > 0)
    return d_feat


def _pass_inputs(state: ModelState, vis, bundle: LanguageBundle | None, out=None) -> tuple:
    """The per-pass step of ``forward_video``: one pass's trunk inputs and
    gate, (f_cls, f_loc, lam, adv_pred, adv_in), the trunk inputs written
    into ``out[0]`` and ``out[1]`` when ``out`` (2 x L x D) is given.
    ``lam`` is None where the gate reads 0 (the vision-only path), and
    ``adv_pred`` and ``adv_in`` are None where the advantage head does not
    run."""
    vis = as_matrix(vis, "vis")
    L = vis.shape[0]
    mode = state.cfg.lambda_mode
    if bundle is None or mode == "language_only":
        f_cls, f_loc = (vis, vis) if bundle is None else (bundle.cls_stream, bundle.loc_stream)
        if out is not None:
            out[0], out[1] = f_cls, f_loc
            f_cls, f_loc = out
        return f_cls, f_loc, None if bundle is None else np.ones((L, 1)), None, None
    adv_pred, adv_in = state.adv_fc.forward(bundle.adv_stream)
    learned = mode == "learned"
    lam = lambda_from_advantage(adv_pred) if learned else np.full((L, 1), float(state.cfg.fixed_lambda))
    return *aggregate(vis, bundle, lam, out), lam, adv_pred, adv_in


def forward_video(state: ModelState, vis, bundle) -> Forward:
    """Full forward pass for one video, or for the passes of one video read.

    ``bundle=None`` runs the vision-only path: both trunks read raw vision
    features, the advantage head does not run, and the gate reads 0.
    Otherwise ``cfg.lambda_mode`` picks the gate: learned from the advantage
    head (``"learned"``), the constant ``cfg.fixed_lambda`` (``"fixed"``),
    or language-only (``"language_only"``: the trunks read the pure
    language streams, lambda = 1, and the advantage head does not run).  A
    gate fixed at 0 reproduces the vision-only path bit for bit.

    ``vis`` and ``bundle`` may instead be lists of S matrices and S bundles
    (or None), S passes of one read, each of the same shape: each runs its
    own per-pass step, writing its trunk inputs into one stack, then one
    ``head_forward`` runs the stack.  The record holds the outputs with a
    leading axis of S, item i with the bits of pass i run alone.
    """
    if isinstance(bundle, list):
        inputs = np.empty((2, len(bundle)) + np.shape(vis[0]))  # the trunk inputs of each pass
        passes = [_pass_inputs(state, v, b, inputs[:, i])
                  for i, (v, b) in enumerate(zip(vis, bundle, strict=True))]
        fwd = head_forward(inputs[0], inputs[1], state)
        for i, (_, _, lam, adv_pred, _) in enumerate(passes):
            if lam is not None:
                fwd.lam[i] = lam
            if adv_pred is not None:
                fwd.adv_pred[i] = adv_pred
        return fwd
    f_cls, f_loc, lam, adv_pred, adv_in = _pass_inputs(state, vis, bundle)
    fwd = head_forward(f_cls, f_loc, state)
    if lam is not None:
        fwd.lam = lam
    if adv_in is not None:
        fwd.adv_pred, fwd.bundle, fwd.adv_in = adv_pred, bundle, adv_in
    return fwd


def backward_video(state: ModelState, fwd: Forward, d_scores, d_offsets,
                   d_tmpl, d_adv=None) -> None:
    """Accumulate parameter gradients for one video.

    ``d_tmpl`` is the gradient on the template head's logits of
    ``fwd.cls_feat``; ``None`` stands for a zero gradient and skips the
    template head's backward (a vision step).  ``d_adv`` is the direct
    gradient on the advantage prediction (from the advantage regression
    loss); the gate path contribution is added here when the gate is
    learned.  Both reach ``adv_fc`` only if it ran.
    """
    bundle = fwd.bundle
    # only dlambda/da reads the trunk-input gradients; without it the first
    # conv layer of each trunk skips its input gradient
    learned = bundle is not None and state.cfg.lambda_mode == "learned"
    d_logits = d_scores * fwd.cls_scores * (1.0 - fwd.cls_scores)
    d_feat = state.cls_out.backward(fwd.cls_feat, d_logits)
    if d_tmpl is not None:
        d_feat += state.tmpl_out.backward(fwd.cls_feat, d_tmpl)
    d_f_cls = _trunk_backward(state.cls_trunk, fwd.cls_convs, d_feat, learned)
    d_feat = state.loc_out.backward(fwd.loc_feat, d_offsets * relu_grad(fwd.loc_raw))
    d_f_loc = _trunk_backward(state.loc_trunk, fwd.loc_convs, d_feat, learned)
    if bundle is None:
        return
    if learned:
        d_lam = (d_f_cls * bundle.cls_stream).sum(axis=1, keepdims=True) \
            + (d_f_loc * bundle.loc_stream).sum(axis=1, keepdims=True)
        d_gate = d_lam * _lambda_grad(fwd.adv_pred, fwd.lam)
        d_adv = d_gate if d_adv is None else d_gate + d_adv
    if d_adv is not None:
        state.adv_fc.backward(fwd.adv_in, d_adv, input_grad=False)  # its input, the advantage stream, is data


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
    video, 0..V-1 in the ``stack`` of V videos' tables (a corpus table,
    video i the i-th video read).  Rows are in canonical order: video
    ascending, then score descending, then start, end and label ascending.
    ``decode_proposals`` emits that order and ``nms``, ``stack`` and
    ascending ``take`` keep it.
    """
    start: np.ndarray  # float64
    end: np.ndarray    # float64
    label: np.ndarray  # int64
    score: np.ndarray  # float64
    video: np.ndarray  # int64, ascending

    def __len__(self) -> int:
        return len(self.start)

    def take(self, rows) -> "Proposals":
        """The table of the given rows, a slice, a mask or an index array;
        ascending indices keep the canonical order."""
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


def decode_proposals(scores: np.ndarray, offsets: np.ndarray) -> Proposals:
    """Frame-wise decoding of one video's L x C scores and L x 2 offsets:
    (l - off0, l + off1, c, score) for each score >= ``SCORE_THRESHOLD``.

    Boundaries are clamped to [0, L] (``max(0, l - off0)``,
    ``min(L, l + off1)``); empty intervals are dropped, so every row is a
    non-empty interval.  The table is in canonical order, ties kept in
    frame-major order, and cut to ``TOP_K_PRE_NMS`` rows.
    """
    L, C = scores.shape
    frame = np.arange(L)
    start = frame - offsets[:, 0]  # each frame's interval, once for all its classes
    start = np.where(start > 0.0, start, 0.0)  # Python's max(0, x), NaN included
    end = frame + offsets[:, 1]
    end = np.where(end < L, end, float(L))      # Python's min(L, x)
    hits = np.flatnonzero((scores >= SCORE_THRESHOLD) & (start < end)[:, None])  # frame-major
    frames, labels = np.divmod(hits, C)
    start, end, score = start[frames], end[frames], scores.reshape(-1)[hits]
    if len(score) > TOP_K_PRE_NMS:  # only rows scoring at least the k-th highest can make the cut
        top = np.flatnonzero(score >= np.partition(score, -TOP_K_PRE_NMS)[-TOP_K_PRE_NMS])
        start, end, labels, score = start[top], end[top], labels[top], score[top]
    order = np.lexsort((labels, end, start, -score))[:TOP_K_PRE_NMS]
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


def predict_corpus(state: ModelState, videos: Iterable[VideoRecord],
                   *views: Callable[[VideoRecord], VideoRecord]) -> tuple:
    """Score a corpus and, in the same read, views of it: (the kept
    proposals of every video as one table, row video i the i-th video read;
    each video's L x 1 gate; each video's ground truth by id), each in the
    order read, then one such table per view.

    ``videos`` is read once.  Each view builds its record from the video
    (``VideoRecord.vision_view``, the twin of ``synthgen.inject_conflict``);
    a view keeps the video's id and ground truth, against which all the
    tables are scored.  The video and its views then run as one stacked
    forward pass (``forward_video`` on lists), so a read with no view is a
    stack of one.  Of a read only each pass's scores and offsets are kept,
    and the video's gate and ground truth: the ``Forward`` record, the
    views and the video are dropped before the scores are decoded (one
    decode per pass) and before the next video is read, so a stream
    (``synthgen.open_corpus``, ``synthgen.generate_distractors``) holds one
    video at a time.  One ``nms`` pass per table then suppresses the stack
    of its decoded tables.  Records without language (``lang=None``) take
    the vision-only path.
    """
    decoded, gates, gt = [[] for _ in range(1 + len(views))], [], {}
    for video in videos:
        gt[video.id] = video.gt
        records = [video, *(view(video) for view in views)]
        fwd = forward_video(state, [r.vis for r in records], [r.lang for r in records])
        scores, offsets = fwd.cls_scores, fwd.offsets
        gates.append(fwd.lam[0].copy())  # a copy: the gate keeps no other pass's alive
        del video, records, fwd  # the activations, views and video, freed before decode and the next read
        for tables, pass_scores, pass_offsets in zip(decoded, scores, offsets):
            tables.append(decode_proposals(pass_scores, pass_offsets))
    kept = []
    while decoded:  # each stream's decoded tables, freed once stacked
        kept.append(nms(Proposals.stack(decoded.pop(0)), NMS_TIOU))
    return kept[0], gates, gt, *kept[1:]


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
    cfg = read_config_block(ModelConfig, blob.get("model_config") if isinstance(blob, dict) else None,
                            f"checkpoint sidecar {sidecar}, key 'model_config'")
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
