"""Independent reference implementations used to cross-check the package.

Everything here is written the dumb way on purpose: explicit loops, no
shared helpers from talgate, so a bug in the package cannot hide in the
check that is supposed to catch it.  The per-tap convolution and the
per-parameter Adam run the package's NumPy products and elementwise updates
one tap or one parameter at a time, so the package's batched forms must
match them bit for bit.

The ``*_prior`` kernels keep an earlier, plainer form of a package kernel
(masked gathers, separate value and gradient passes, matmuls against
transposed views, an Adam step with temporaries).  The package's faster
forms perform the same floating-point operations in the same order, so
they must match these bit for bit on every input.

The last four helpers are no references: they convert between plain rows
and the package's ``Proposals`` tables, one video's or a corpus's.
"""

import math

import numpy as np

from talgate.model import Proposals

_MASK64 = (1 << 64) - 1


def splitmix64_stream(seed, n):
    """First n output words of SplitMix64, scalar big-int arithmetic."""
    state = seed & _MASK64
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def linear_reference(x, w, b):
    """out[l, j] = sum_i x[l, i] * w[i, j] + b[0, j], triple loop."""
    L, din = len(x), len(x[0])
    dout = len(w[0])
    out = [[0.0] * dout for _ in range(L)]
    for l in range(L):
        for j in range(dout):
            acc = b[0][j]
            for i in range(din):
                acc += x[l][i] * w[i][j]
            out[l][j] = acc
    return out


def conv1d_reference(x, w, b, k):
    """Same-padded temporal cross-correlation, quadruple loop.

    w rows are tap-major: rows [t*din, (t+1)*din) hold tap t.
    """
    L, din = len(x), len(x[0])
    dout = len(w[0])
    pad = (k - 1) // 2
    out = [[0.0] * dout for _ in range(L)]
    for l in range(L):
        for j in range(dout):
            acc = b[0][j]
            for t in range(k):
                src = l + t - pad
                if 0 <= src < L:
                    for i in range(din):
                        acc += x[src][i] * w[t * din + i][j]
            out[l][j] = acc
    return out


def interval_iou(a_start, a_end, b_start, b_end):
    inter = min(a_end, b_end) - max(a_start, b_start)
    if inter <= 0.0:
        return 0.0
    union = (a_end - a_start) + (b_end - b_start) - inter
    return inter / union


def ap_reference(proposals_by_video, gt_by_video, label, threshold):
    """All-points interpolated AP via an explicit precision-recall table.

    proposals_by_video: {vid: [(start, end, label, score), ...]}
    gt_by_video: {vid: [(start, end, label), ...]}
    Returns None when the class has no ground truth.
    """
    gts = {vid: [(s, e) for (s, e, lab) in segs if lab == label]
           for vid, segs in gt_by_video.items()}
    npos = sum(len(v) for v in gts.values())
    if npos == 0:
        return None
    entries = []
    for vid in sorted(proposals_by_video):
        for (s, e, lab, score) in proposals_by_video[vid]:
            if lab == label:
                entries.append((score, vid, s, e))
    entries.sort(key=lambda t: (-t[0], t[1], t[2], t[3]))

    used = {vid: [False] * len(segs) for vid, segs in gts.items()}
    flags = []
    for (score, vid, s, e) in entries:
        best, best_j = 0.0, -1
        for j, (gs, ge) in enumerate(gts.get(vid, [])):
            if used[vid][j]:
                continue
            v = interval_iou(s, e, gs, ge)
            if v > best:
                best, best_j = v, j
        if best_j >= 0 and best >= threshold:
            used[vid][best_j] = True
            flags.append(True)
        else:
            flags.append(False)

    recalls, precisions = [], []
    tp = 0
    for k, hit in enumerate(flags, start=1):
        tp += hit
        recalls.append(tp / npos)
        precisions.append(tp / k)
    # envelope: at each recall step take the best precision at recall >= r
    ap = 0.0
    prev_r = 0.0
    for i, hit in enumerate(flags):
        if not hit:
            continue
        r = recalls[i]
        p_env = max(p for p, rr in zip(precisions, recalls) if rr >= r)
        ap += (r - prev_r) * p_env
        prev_r = r
    return ap


def decode_reference(scores, offsets, threshold, top_k):
    """Frame-wise proposal decoding, one frame and class at a time.

    scores: L rows of C class scores; offsets: L rows of (left, right).
    Every (frame l, class c) with score >= threshold proposes
    (max(0, l - left), min(L, l + right)); empty intervals are dropped.
    Returns [(start, end, label, score), ...] sorted by score desc, then
    start, end, label ascending (frame-major among full ties), cut to top_k.
    """
    L = len(scores)
    found = []
    for l in range(L):
        for c in range(len(scores[l])):
            score = scores[l][c]
            if not score >= threshold:
                continue
            start = l - offsets[l][0]
            if not start > 0.0:
                start = 0.0
            end = l + offsets[l][1]
            if not end < L:
                end = float(L)
            if start >= end:
                continue
            found.append((start, end, c, score))
    found.sort(key=lambda p: (-p[3], p[0], p[1], p[2]))
    return found[:top_k]


def nms_reference(proposals, threshold):
    """Greedy class-wise suppression with the lexicographic tie-break.

    proposals: [(start, end, label, score), ...]; returns kept tuples in
    the order they were accepted.
    """
    ordered = sorted(proposals, key=lambda p: (-p[3], p[0], p[1], p[2]))
    kept = []
    for cand in ordered:
        suppressed = False
        for k in kept:
            if k[2] != cand[2]:
                continue
            if interval_iou(cand[0], cand[1], k[0], k[1]) > threshold:
                suppressed = True
                break
        if not suppressed:
            kept.append(cand)
    return kept


def hallucination_reference(rows_by_video, top_k):
    """(fixed_rate, infinite_rate) of per-video proposal rows, by loops.

    rows_by_video: {vid: [(start, end, label, score), ...]}.  Each video's
    top_k rows by (score desc, start, end, label asc) are its output.
    fixed: the video's rounded boundary multiset is shared by at least
    max(2, ceil(n / 2)) videos, itself included.  infinite: some three
    same-label top-k rows pairwise overlap with tIoU > 0.95.
    """
    tops = [sorted(rows, key=lambda p: (-p[3], p[0], p[1], p[2]))[:top_k]
            for rows in rows_by_video.values()]
    n = len(tops)
    if n == 0:
        return 0.0, 0.0
    keys = [sorted((round(p[0]), round(p[1])) for p in top) for top in tops]
    need = max(2, math.ceil(n / 2))
    fixed = sum(1 for k in keys if sum(1 for other in keys if other == k) >= need)
    infinite = 0
    for top in tops:
        found = False
        for a in range(len(top)):
            for b in range(a + 1, len(top)):
                for c in range(b + 1, len(top)):
                    trio = (top[a], top[b], top[c])
                    if trio[0][2] == trio[1][2] == trio[2][2] and all(
                            interval_iou(x[0], x[1], y[0], y[1]) > 0.95
                            for x, y in ((trio[0], trio[1]), (trio[0], trio[2]), (trio[1], trio[2]))):
                        found = True
        infinite += found
    return fixed / n, infinite / n


def cross_entropy_reference(logits, target):
    exps = [math.exp(z) for z in logits]
    return -math.log(exps[target] / sum(exps))


def diou_reference(pred_start, pred_end, gt_start, gt_end):
    """Distance-IoU loss of two intervals, from its definition:
    1 - IoU + (distance between centers / enclosing length) ** 2."""
    iou = interval_iou(pred_start, pred_end, gt_start, gt_end)
    center_gap = (pred_start + pred_end) / 2.0 - (gt_start + gt_end) / 2.0
    enclosing = max(pred_end, gt_end) - min(pred_start, gt_start)
    return 1.0 - iou + (center_gap / enclosing) ** 2


def conv1d_taps_reference(x, w, b, k, dout):
    """Same-padded Conv1d one tap at a time: returns (output, weight
    gradient, bias gradient, input gradient) for output gradient ``dout``.

    Tap t multiplies rows [t*din, (t+1)*din) of w with the input shifted by
    t - pad; the output starts from the bias and adds the taps in order.
    """
    x, w, dout = np.asarray(x, float), np.asarray(w, float), np.asarray(dout, float)
    L, din = x.shape
    pad = (k - 1) // 2
    xp = np.zeros((L + 2 * pad, din))
    xp[pad:pad + L] = x
    out = np.repeat(np.asarray(b, float), L, axis=0)
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    for t in range(k):
        rows = slice(t * din, (t + 1) * din)
        out += xp[t:t + L] @ w[rows]
        dw[rows] += xp[t:t + L].T @ dout
        dxp[t:t + L] += dout @ w[rows].T
    return out, dw, dout.sum(axis=0, keepdims=True), dxp[pad:pad + L]


def adam_step_prior(value, g, m, v, t, lr, beta1, beta2, eps):
    """One Adam step on ``value``, ``m`` and ``v`` in place, each operation
    making its own temporary."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    value -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def adam_reference(values, grad_steps, lr, beta1, beta2, eps):
    """Adam with bias correction, one parameter at a time.

    values: the initial parameter arrays (not modified); grad_steps: per
    step, one gradient array per parameter.  Returns the final values.
    """
    values = [np.array(v, dtype=float) for v in values]
    ms = [np.zeros_like(v) for v in values]
    vs = [np.zeros_like(v) for v in values]
    for t, grads in enumerate(grad_steps, start=1):
        for value, m, v, g in zip(values, ms, vs, grads):
            adam_step_prior(value, g, m, v, t, lr, beta1, beta2, eps)
    return values


def sigmoid_prior(x):
    """The logistic function by masked gathers and scatters: 1 / (1 + exp(-x))
    where x >= 0, exp(x) / (1 + exp(x)) elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def relu_grad_prior(x):
    """The relu derivative as a float mask."""
    return (np.asarray(x, dtype=np.float64) > 0.0).astype(np.float64)


def focal_loss_prior(p, y, alpha=0.25, gamma=2.0, eps=1e-7):
    """Focal loss value, in its own clip/log/pow pass."""
    p = np.clip(np.asarray(p, dtype=np.float64), eps, 1.0 - eps)
    y = np.asarray(y, dtype=np.float64)
    pos = -alpha * (1.0 - p) ** gamma * np.log(p)
    neg = -(1.0 - alpha) * p**gamma * np.log(1.0 - p)
    return np.where(y > 0.5, pos, neg)


def focal_loss_grad_prior(p, y, alpha=0.25, gamma=2.0, eps=1e-7):
    """d focal / d p in a second clip/log/pow pass; zero where the clamp
    is active."""
    p_raw = np.asarray(p, dtype=np.float64)
    inside = (p_raw > eps) & (p_raw < 1.0 - eps)
    p = np.clip(p_raw, eps, 1.0 - eps)
    y = np.asarray(y, dtype=np.float64)
    dpos = alpha * (gamma * (1.0 - p) ** (gamma - 1.0) * np.log(p) - (1.0 - p) ** gamma / p)
    dneg = -(1.0 - alpha) * (gamma * p ** (gamma - 1.0) * np.log(1.0 - p) - p**gamma / (1.0 - p))
    return np.where(y > 0.5, dpos, dneg) * inside


def normal_block_prior(words, n, sigma):
    """n N(0, sigma^2) draws by Box-Muller from 2 * ceil(n / 2) SplitMix64
    words (the u1 block, then the u2 block), cos and sin evaluated in draw
    order."""
    pairs = (n + 1) // 2
    words = np.asarray(words, dtype=np.uint64)
    assert len(words) == 2 * pairs
    u1 = ((words[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (words[pairs:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * math.pi) * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return sigma * out[:n]


def linear_prior(x, w, b, dout):
    """The former ``Linear`` layer's arithmetic on one matrix: returns
    (x @ w + b, x.T @ dout, dout.sum(0), dout @ w.T), the output and the
    weight, bias and input gradients for output gradient ``dout``."""
    y = x @ w
    y += b
    return y, x.T @ dout, dout.sum(axis=0, keepdims=True), dout @ w.T


def conv1d_forward_prior(x, w, b, k):
    """Same-padded Conv1d forward of a matrix or a stack (..., L, din): the k
    tap windows as one strided view, one stacked matmul for every tap's
    GEMM, then the bias and taps 1..k-1 added in order into tap 0's product."""
    x = np.asarray(x, dtype=np.float64)
    L, din = x.shape[-2:]
    pad = (k - 1) // 2
    xp = np.zeros(x.shape[:-2] + (L + 2 * pad, din))
    xp[..., pad:pad + L, :] = x
    *outer, row, col = xp.strides
    taps = np.ndarray(xp.shape[:-2] + (k, L, din), xp.dtype, xp, 0, (*outer, row, row, col))
    prods = np.matmul(taps, w.reshape(k, din, -1))
    y = prods[..., 0, :, :]
    y += b
    for t in range(1, k):
        y += prods[..., t, :, :]
    return y


def diou_loss_prior(ps, pe, gs, ge):
    """Vectorized DIoU loss and its derivatives w.r.t. the predicted ends,
    each shared product, power and quotient computed again at each use."""
    inter = np.maximum(np.minimum(pe, ge) - np.maximum(ps, gs), 0.0)
    union = (pe - ps) + (ge - gs) - inter
    iou = inter / union
    d = (ps + pe) / 2.0 - (gs + ge) / 2.0
    enc = np.maximum(pe, ge) - np.minimum(ps, gs)
    loss = 1.0 - iou + d * d / (enc * enc)
    open_inter = inter > 0.0
    dinter_dps = np.where(open_inter & (ps > gs), -1.0, 0.0)
    dinter_dpe = np.where(open_inter & (pe < ge), 1.0, 0.0)
    dunion_dps = -1.0 - dinter_dps
    dunion_dpe = 1.0 - dinter_dpe
    diou_dps = (dinter_dps * union - inter * dunion_dps) / (union * union)
    diou_dpe = (dinter_dpe * union - inter * dunion_dpe) / (union * union)
    denc_dps = np.where(ps < gs, -1.0, 0.0)
    denc_dpe = np.where(pe > ge, 1.0, 0.0)
    dpen_dps = d / (enc * enc) - 2.0 * d * d * denc_dps / enc**3
    dpen_dpe = d / (enc * enc) - 2.0 * d * d * denc_dpe / enc**3
    return loss, -diou_dps + dpen_dps, -diou_dpe + dpen_dpe


def log_softmax_prior(z):
    """Row-wise log-softmax of a matrix, the shifted row computed twice:
    z - max - log(sum(exp(z - max)))."""
    zmax = z.max(axis=1, keepdims=True)
    return z - zmax - np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))


def conv1d_input_grad_prior(dout, w, k, din):
    """Same-padded Conv1d input gradient from one stacked matmul against
    each tap's w_t.T copied contiguous (which sums as the transposed view
    does at L = 256, not at every L), the taps' products then added in order
    into a zero-filled padded buffer; at kernel 1 the one product itself."""
    L = dout.shape[0]
    pad = (k - 1) // 2
    dtaps = np.matmul(dout, np.ascontiguousarray(w.reshape(k, din, -1).transpose(0, 2, 1)))
    if not pad:
        return dtaps[0]
    dxp = np.zeros((L + 2 * pad, din))
    for t in range(k):
        dxp[t:t + L] += dtaps[t]
    return dxp[pad:pad + L]


def target_advantage_prior(table_means, per_frame_vl, labels, num_classes):
    """Advantage targets as an L x 1 column, zero off the positive frames,
    and the L x 1 mask of those frames: each positive frame's class mean
    less the frame's loss."""
    mask = labels < num_classes
    li = np.flatnonzero(mask)
    present = sorted(set(labels[li].tolist()))
    means = np.array([table_means[c] for c in present])
    pf = np.asarray(per_frame_vl, dtype=np.float64).reshape(-1, 1)
    out = np.zeros_like(pf)
    out[li, 0] = means[np.searchsorted(present, labels[li])] - pf[li, 0]
    return out, mask.reshape(-1, 1)


def advantage_loss_prior(adv_pred, targets, mask):
    """Mean squared error over the masked frames of full-length columns,
    and its gradient, zero off the mask."""
    mask = np.asarray(mask, dtype=bool)
    diff = np.asarray(adv_pred, float) - np.asarray(targets, float)
    grad = np.zeros_like(diff)
    n = int(mask.sum())
    if n == 0:
        return 0.0, grad
    d = diff[mask]
    grad[mask] = 2.0 * d / n
    return float(np.mean(d * d)), grad


def grad_check(f, x, h=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps an array to (loss, grad) where grad has the shape of x.
    The relative error at a coordinate is |analytic - numeric| divided by
    max(1, |numeric|).  Non-finite values at any probe point are an error.
    """
    x = np.asarray(x, dtype=np.float64)
    loss0, grad = f(x)
    grad = np.asarray(grad, dtype=np.float64)
    if not np.isfinite(loss0) or not np.all(np.isfinite(grad)):
        raise ValueError("grad_check: non-finite loss or gradient at the base point")
    if grad.shape != x.shape:
        raise ValueError(f"grad_check: gradient shape {grad.shape} does not match input shape {x.shape}")
    worst = 0.0
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        lp, _ = f(xp)
        xm = x.copy()
        xm[idx] -= h
        lm, _ = f(xm)
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise ValueError(f"grad_check: non-finite loss at probe {idx}")
        numeric = (lp - lm) / (2.0 * h)
        rel = abs(grad[idx] - numeric) / max(1.0, abs(numeric))
        if rel > worst:
            worst = rel
        it.iternext()
    return worst


def proposals_from_rows(rows) -> Proposals:
    """The table of one video's (start, end, label, score) rows, sorted
    into canonical order (rows with equal keys keep their given order)."""
    rows = list(rows)
    table = Proposals(np.array([r[0] for r in rows], dtype=np.float64),
                      np.array([r[1] for r in rows], dtype=np.float64),
                      np.array([r[2] for r in rows], dtype=np.int64),
                      np.array([r[3] for r in rows], dtype=np.float64),
                      np.zeros(len(rows), dtype=np.int64))
    return table.take(np.lexsort((table.label, table.end, table.start, -table.score)))


def proposal_rows(table: Proposals) -> list[tuple[float, float, int, float]]:
    """A table's (start, end, label, score) tuples of Python numbers, in order."""
    return list(zip(table.start.tolist(), table.end.tolist(), table.label.tolist(),
                    table.score.tolist()))


def corpus_table(rows_by_video: dict) -> Proposals:
    """The corpus table of per-video rows ({vid: [(start, end, label,
    score), ...]}), video i the i-th entry, each video's rows sorted as in
    ``proposals_from_rows``."""
    return Proposals.stack(proposals_from_rows(rows) for rows in rows_by_video.values())


def video_rows(table: Proposals, videos: int) -> list[list[tuple[float, float, int, float]]]:
    """Each video's rows of a corpus table of ``videos`` videos, in order."""
    return [proposal_rows(table.take(np.flatnonzero(table.video == i))) for i in range(videos)]
