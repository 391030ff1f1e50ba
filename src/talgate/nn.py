"""Dense numeric kernels with hand-written reverse-mode gradients.

Every tensor in this module is a 2-D float64 numpy array ("matrix",
row-major), save that a layer's ``forward`` also takes a stack of
matrices along a leading axis: ``np.matmul`` runs each item's GEMMs at the
item's own shapes, so an item's output has the bits of its own 2-D pass.
There is one layer, ``Conv1d``; kernel 1 serves the model's output heads
and advantage head (``Linear``, a kernel-1 ``Conv1d`` under its own name).
A layer holds only its parameters and its shape (``k``, ``din``); the
activations its backward reads live with the caller (``model.Forward``,
the record of a forward pass).  ``forward(x)`` returns ``(y, saved)``: the
output, an array of its own, and that read (the checked input,
zero-padded when the kernel is wider than 1, the input itself at kernel
1), kept while a backward may follow and then dropped.  ``backward(saved,
dout)`` takes one matrix, not a stack; it accumulates the parameter
gradients in place and returns the gradient with respect to the layer
input (``input_grad=False`` skips that one).  Both add their per-tap
products in tap order (``Conv1d``).

A loss returns its derivatives with its value, from one pass over the
shared intermediates (``focal_loss`` and ``diou_loss`` here,
``train.advantage_loss``), so the training loop can assemble exact
gradients without a tape.  ``model.template_loss`` keeps a separate
``_grad`` companion, which the benchmark's tracer times on its own.  The
central-difference check of every gradient, ``grad_check``, lives with the
tests (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

PROB_EPS = 1e-7  # probability clamp for the binary losses

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


@functools.lru_cache(maxsize=8)
def _golden_steps(n: int) -> np.ndarray:
    """i * 0x9E3779B97F4A7C15 mod 2**64 for i = 1..n, read-only: the state
    increments of ``Rng._words``, kept for the few block sizes a run draws."""
    steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    steps.flags.writeable = False
    return steps


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    return np.ascontiguousarray(m)


def as_frames(data, name: str) -> np.ndarray:
    """A matrix, or a stack of matrices along a leading axis, as C-contiguous float64."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim not in (2, 3):
        raise ShapeError(f"{name} must be 2-D or a 3-D stack, got shape {m.shape}")
    return np.ascontiguousarray(m)


class Rng:
    """Seeded, portable pseudo-random generator (SplitMix64).

    The 64-bit integer state advances by the fixed update rule

        state_n = (seed + n * 0x9E3779B97F4A7C15) mod 2**64,   n = 1, 2, ...

    and every draw mixes the state into an output word:

        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB   mod 2**64
        word = z ^ (z >> 31)

    ``uniform`` maps the top 53 bits of one word onto [0, 1).  Normal draws
    use Box-Muller on pairs of words; a block of m normals consumes
    2 * ceil(m / 2) words (u1 block first, then u2 block), so the stream
    position depends only on the sequence of draw sizes.

    Words, ``uniform`` and ``randint`` are integer arithmetic and one exact
    conversion, so identical seeds give identical draws on every platform.
    Normals also go through numpy's ``log``/``sqrt`` and libm's
    ``cos``/``sin``, whose last bits can vary with the numpy build, its CPU
    dispatch and the libm; on one platform they repeat bit for bit.  A block
    evaluates ``cos``/``sin`` on its angles grouped by the top 8 bits of
    their u2 word and scatters each product ``r * cos``, ``r * sin`` to its
    pair's place in draw order.  Each angle still goes through the same
    elementwise call and each product is one rounding, so the bits are
    those of draw-order evaluation; the grouping only keeps libm's range
    branches predictable, which makes a block of fresh draws faster.
    """

    __slots__ = ("_seed", "_counter")

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._counter = 0

    def _words(self, n: int) -> np.ndarray:
        start = self._counter
        self._counter = start + n
        # state_(start + i) = state_start + i * golden (mod 2**64), i = 1..n; the
        # mix in place on the one array, the shifts into one scratch array
        z = _golden_steps(n) + np.uint64((self._seed + start * _GOLDEN) & _MASK64)
        shifted = np.empty_like(z)
        for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
            z ^= np.right_shift(z, np.uint64(shift), out=shifted)
            if mix is not None:
                z *= np.uint64(mix)
        return z

    def next_u64(self) -> int:
        """One word, in Python integers: ``_words``' arithmetic without the
        cost of a one-element array."""
        self._counter += 1
        z = (self._seed + self._counter * _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """One float in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if not 0 < n <= 1 << 64:  # past 2**64 no 64-bit word lies below the rejection limit
            raise ValueError(f"randint needs a bound in [1, 2**64], got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            w = self.next_u64()
            if w < limit:
                return w % n

    def _normal_block(self, n: int, sigma: float) -> np.ndarray:
        pairs = (n + 1) // 2
        top = self._words(2 * pairs)
        top >>= np.uint64(11)  # each word's top 53 bits
        # u1 = (top + 1) * 2**-53 in (0, 1] keeps log() finite; r = sqrt(-2 log u1)
        r = top[:pairs].astype(np.float64)
        r += 1.0
        r *= 2.0**-53
        r = np.log(r, out=r)
        r *= -2.0
        r = np.sqrt(r, out=r)
        # theta = 2 pi u2, u2 = top * 2**-53 in [0, 1)
        theta = top[pairs:].astype(np.float64)
        theta *= 2.0**-53
        theta *= 2.0 * math.pi
        # cos/sin on the angles grouped by range (a radix sort of the word's top 8 bits),
        # each product then scattered through the permutation to its draw position
        perm = np.argsort((top[pairs:] >> np.uint64(45)).astype(np.uint8), kind="stable")
        theta, r = theta.take(perm), r.take(perm)
        out = np.empty(2 * pairs)
        out[0::2][perm] = r * np.cos(theta)
        out[1::2][perm] = r * np.sin(theta)
        out = out[:n]
        if sigma != 1.0:
            out *= sigma
        return out

    def normal_matrix(self, rows: int, cols: int, sigma: float = 1.0) -> np.ndarray:
        if rows < 0 or cols < 0:  # before the stream moves
            raise ValueError(f"normal_matrix needs non-negative sizes, got {rows} x {cols}")
        return self._normal_block(rows * cols, sigma).reshape(rows, cols)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def derangement(self, n: int) -> list[int]:
        """A permutation of range(n) without fixed points, by rejection."""
        if n < 2:
            raise ValueError(f"derangement needs n >= 2, got {n}")
        while True:
            perm = list(range(n))
            self.shuffle(perm)
            if all(p != i for i, p in enumerate(perm)):
                return perm


class Param:
    """A trainable matrix together with its gradient accumulator."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = as_matrix(value, "param")
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape  # type: ignore[return-value]


def _row_sum(m: np.ndarray) -> np.ndarray:
    """``m.sum(axis=0)`` of a matrix, bit for bit.  Wider than one column,
    einsum adds the rows in the same order in about half the time, but of
    two NaNs in a column it may keep the other one, so a NaN result falls
    back to ``sum``.  A single column numpy's ``sum`` adds pairwise, faster."""
    if m.shape[1] > 1:
        s = np.einsum("ij->j", m)
        if not math.isnan(s @ s):  # the squares hold no inf - inf: NaN only from a NaN in s
            return s
    return m.sum(axis=0)


class Conv1d:
    """Temporal cross-correlation with 'same' zero padding.

    The kernel width must be odd.  Weights are stored as one
    (k * din) x dout matrix; the tap-t slice is rows [t*din, (t+1)*din).
    Input and output are both frame-major: (L, din) -> (L, dout), or
    (S, L, din) -> (S, L, dout) for a stack of S inputs in ``forward``.
    Kernel 1 is a per-frame affine map, as in the model's output heads
    (``Linear``): it has no pad, so the input itself is what ``forward``
    saves and ``backward`` reads, and it runs ``x @ w + b``, ``x.T @ dout``
    and ``dout @ w.T`` with no tap axis.

    Forward: y = x_0 @ w_0, y += b, then y += x_t @ w_t for t = 1..k-1,
    x_t the padded input's rows t..t+L-1.  Backward: each row of the input
    gradient adds the products dout @ w_t.T that reach it in tap order, as
    a zero-filled padded buffer would from +0.0; the bias gradient is
    ``dout.sum(axis=0)`` (``_row_sum``).
    """

    def __init__(self, k: int, din: int, dout: int, rng: Rng | None = None, w_scale: float | None = None):
        if k % 2 == 0 or k < 1:
            raise ValueError(f"conv1d kernel width must be odd and positive, got {k}")
        scale = math.sqrt(2.0 / (k * din)) if w_scale is None else w_scale
        w0 = rng.normal_matrix(k * din, dout, scale) if rng is not None else np.zeros((k * din, dout))
        self.k = k
        self.din = din
        self.w = Param(w0)
        self.b = Param(np.zeros((1, dout)))

    def forward(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(y, xp): the output and the padded input (at kernel 1 the input
        itself), which ``backward`` reads.  ``x`` is a matrix or a stack of them."""
        x = as_frames(x, "conv1d input")
        if x.shape[-1] != self.din:
            raise ShapeError(f"conv1d: input shape {x.shape} does not match kernel {self.k} "
                             f"weight shape {self.w.shape} ({self.din} input channels)")
        L, din = x.shape[-2], self.din
        pad = (self.k - 1) // 2
        xp = x
        if pad:
            xp = np.empty(x.shape[:-2] + (L + 2 * pad, din))
            xp[..., :pad, :] = 0.0  # only the pad rows need zeros
            xp[..., pad + L:, :] = 0.0
            xp[..., pad:pad + L, :] = x
        # one GEMM per tap (per item of a stack); taps 1..k-1 share one scratch buffer
        w = self.w.value
        y = np.matmul(xp[..., :L, :], w[:din])
        y += self.b.value
        scratch = None
        for t in range(1, self.k):
            scratch = np.matmul(xp[..., t:t + L, :], w[t * din:(t + 1) * din], out=scratch)
            y += scratch
        return y, xp

    def backward(self, xp: np.ndarray, dout, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate the parameter gradients; return the input gradient,
        or None when ``input_grad`` is false and nothing will read it."""
        dout = as_matrix(dout, "conv1d dout")
        k, din = self.k, self.din
        pad = (k - 1) // 2
        L = xp.shape[0] - 2 * pad
        if dout.shape != (L, self.w.shape[1]):
            raise ShapeError(f"conv1d: dout shape {dout.shape} does not match output shape {(L, self.w.shape[1])}")
        self.b.grad += _row_sum(dout)
        w, dw = self.w.value, self.w.grad
        if k == 1:
            dw += xp.T @ dout
        else:  # the k transposed tap windows as one strided view: one matmul call runs
            # every tap's GEMM, fewer calls than one per tap, the same GEMMs
            row, col = xp.strides
            windows = np.ndarray((k, din, L), xp.dtype, xp, 0, (row, col, row))
            dw += np.matmul(windows, dout).reshape(dw.shape)
        if not input_grad:
            return None
        # per tap w_t.T, copied contiguous: faster than the transposed view,
        # whose GEMM can sum in another order when L is small
        w_t = np.ascontiguousarray(w.reshape(k, din, -1).transpose(0, 2, 1))
        if not pad:
            return dout @ w_t[0]
        # tap t's product adds into rows t..t+L-1 of the padded input's gradient,
        # in tap order; tap 0 writes its rows, and each later tap writes the one
        # row that no earlier tap reached, so the buffer needs no zero fill
        dxp = np.empty_like(xp)
        np.matmul(dout, w_t[0], out=dxp[:L])
        scratch = None
        for t in range(1, k):
            scratch = np.matmul(dout, w_t[t], out=scratch)
            dxp[t:t + L - 1] += scratch[:L - 1]
            dxp[t + L - 1] = scratch[L - 1]
        dx = dxp[pad:pad + L]
        dx += 0.0  # as a sum started from +0.0 would: -0.0 reads +0.0
        return dx

    def params(self) -> list[tuple[str, Param]]:
        return [("w", self.w), ("b", self.b)]


class Linear(Conv1d):
    """y = x @ w + b on every frame: a kernel-1 ``Conv1d`` whose weight is
    the din x dout matrix, with no code of its own."""

    def __init__(self, din: int, dout: int, rng: Rng | None = None, w_scale: float | None = None):
        super().__init__(1, din, dout, rng, w_scale)

    # Conv1d's functions as this class's own entries: the benchmark's tracer
    # (perfbench/tracing.py) patches a class's own entry by name, so these
    # keep the 1x1 layers timed apart from the trunks
    forward = Conv1d.forward
    backward = Conv1d.backward


def relu(x) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_grad(x) -> np.ndarray:
    """The relu derivative as a bool mask (subgradient 0 at the kink);
    multiplying by it is exact."""
    return np.asarray(x, dtype=np.float64) > 0.0


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function, elementwise.

    Both branches read e = exp(-|x|): 1 / (1 + e) where x >= 0 and
    e / (1 + e) elsewhere (NaN included), so neither exponent overflows.
    ``minimum(x, -x)`` is -|x| that keeps a NaN's sign bit.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def focal_loss(p, y, alpha: float = 0.25, gamma: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise focal loss on probabilities clamped to [eps, 1 - eps],
    and its derivative with respect to p: (loss, dloss/dp).  ``y`` holds the
    targets, 0/1 or a boolean mask, of p's shape or a scalar.

    y = 1: -alpha * (1 - p)**gamma * log(p)
    y = 0: -(1 - alpha) * p**gamma * log(1 - p)

    The y = 0 branch runs on every entry, the y = 1 branch on the positive
    entries only, each entry through the same elementwise operations.  The
    derivative is zero where the probability clamp is active.
    """
    p_raw = np.asarray(p, dtype=np.float64)
    p = np.clip(p_raw, PROB_EPS, 1.0 - PROB_EPS)
    q = 1.0 - p
    log_q = np.log(q)
    p_gamma = p**gamma
    loss = np.asarray(-(1.0 - alpha) * p_gamma * log_q)
    grad = np.asarray(-(1.0 - alpha) * (gamma * p ** (gamma - 1.0) * log_q - p_gamma / q))
    pos = np.asarray(y) > 0.5
    if pos.shape != p_raw.shape:
        pos = np.broadcast_to(pos, p_raw.shape)
    # a 0-d p is a numpy scalar here, whose power is not the array one: it keeps its own
    pp, qp = (p[pos], q[pos]) if p_raw.ndim else (p, q)
    log_p, q_gamma = np.log(pp), qp**gamma
    loss[pos] = -alpha * q_gamma * log_p
    grad[pos] = alpha * (gamma * qp ** (gamma - 1.0) * log_p - q_gamma / pp)
    grad *= (p_raw > PROB_EPS) & (p_raw < 1.0 - PROB_EPS)
    return loss, grad


def diou_loss(ps, pe, gs, ge):
    """Vectorized DIoU loss and its derivatives w.r.t. the predicted ends:
    (loss, dloss/dps, dloss/dpe), each shaped like the inputs.

    loss = 1 - IoU + (center distance)**2 / (enclosing length)**2.
    All inputs are same-shape arrays of non-degenerate intervals.
    Min/max switches use strict inequalities, matching the relu convention
    of subgradient 0 at the kink.
    """
    ps, pe = np.asarray(ps, float), np.asarray(pe, float)
    gs, ge = np.asarray(gs, float), np.asarray(ge, float)
    inter = np.maximum(np.minimum(pe, ge) - np.maximum(ps, gs), 0.0)
    union = (pe - ps) + (ge - gs) - inter
    iou = inter / union
    d = (ps + pe) / 2.0 - (gs + ge) / 2.0
    enc = np.maximum(pe, ge) - np.minimum(ps, gs)
    enc2 = enc * enc  # each product, power and quotient below that two terms share, once
    loss = 1.0 - iou + d * d / enc2

    open_inter = inter > 0.0
    dinter_dps = np.where(open_inter & (ps > gs), -1.0, 0.0)
    dinter_dpe = np.where(open_inter & (pe < ge), 1.0, 0.0)
    dunion_dps = -1.0 - dinter_dps
    dunion_dpe = 1.0 - dinter_dpe
    union2 = union * union
    diou_dps = (dinter_dps * union - inter * dunion_dps) / union2
    diou_dpe = (dinter_dpe * union - inter * dunion_dpe) / union2
    denc_dps = np.where(ps < gs, -1.0, 0.0)
    denc_dpe = np.where(pe > ge, 1.0, 0.0)
    # d(d^2/enc^2) with d(d)/dps = d(d)/dpe = 1/2
    d_enc2, dd2, enc3 = d / enc2, 2.0 * d * d, enc**3
    dpen_dps = d_enc2 - dd2 * denc_dps / enc3
    dpen_dpe = d_enc2 - dd2 * denc_dpe / enc3
    return loss, -diou_dps + dpen_dps, -diou_dpe + dpen_dpe


def log_softmax(logits) -> np.ndarray:
    """Row-wise log-softmax via the shifted log-sum-exp identity: with
    s = z - max(z), s - log(sum(exp(s)))."""
    z = np.asarray(logits, dtype=np.float64)
    squeeze = z.ndim == 1
    if squeeze:
        z = z[None, :]
    s = z - z.max(axis=1, keepdims=True)
    s -= np.log(np.exp(s).sum(axis=1, keepdims=True))
    return s[0] if squeeze else s
