"""Dense numeric kernels with hand-written reverse-mode gradients.

Every tensor in this module is a 2-D float64 numpy array ("matrix",
row-major).  A layer holds only its parameters; the activations its
backward reads live with the caller (``model.Forward``, the record of a
forward pass).  ``forward(x)`` returns ``(y, saved)``: the output and that
read (the checked input, zero-padded for ``Conv1d``), kept while a
backward may follow and then dropped.  ``backward(saved, dout)`` accumulates the
parameter gradients in place and returns the gradient with respect to the
layer input (``input_grad=False`` skips that one).

A loss returns its derivatives with its value, from one pass over the
shared intermediates (``focal_loss`` and ``diou_loss`` here,
``train.advantage_loss``), so the training loop can assemble exact
gradients without a tape.  ``model.template_loss`` keeps a separate
``_grad`` companion, which the benchmark's tracer times on its own.  The
central-difference check of every gradient, ``grad_check``, lives with the
tests (``tests/oracles.py``).
"""

from __future__ import annotations

import math

import numpy as np

PROB_EPS = 1e-7  # probability clamp for the binary losses

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
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
    their u2 word, then puts the results back in draw order.  Each angle
    still goes through the same elementwise call, so the bits are those of
    draw-order evaluation; the grouping only keeps libm's range branches
    predictable, which makes a block of fresh draws faster.
    """

    __slots__ = ("_seed", "_counter")

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._counter = 0

    def _words(self, n: int) -> np.ndarray:
        start = self._counter
        self._counter = start + n
        idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        z = np.uint64(self._seed) + idx * np.uint64(_GOLDEN)  # wraps mod 2**64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

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
        words = self._words(2 * pairs)
        # u1 in (0, 1] keeps log() finite; u2 in [0, 1)
        u1 = ((words[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (words[pairs:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        # cos/sin on the angles grouped by range (a radix sort of the top 8 bits),
        # then taken back to draw order through the inverse permutation
        perm = np.argsort((words[pairs:] >> np.uint64(56)).astype(np.uint8), kind="stable")
        back = np.empty_like(perm)
        back[perm] = np.arange(pairs)
        theta = theta.take(perm)
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta).take(back)
        out[1::2] = r * np.sin(theta).take(back)
        return sigma * out[:n]

    def normal_matrix(self, rows: int, cols: int, sigma: float = 1.0) -> np.ndarray:
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


class Linear:
    """y = x @ w + b with gradient accumulation on backward."""

    def __init__(self, din: int, dout: int, rng: Rng | None = None, w_scale: float | None = None):
        scale = math.sqrt(2.0 / din) if w_scale is None else w_scale
        w0 = rng.normal_matrix(din, dout, scale) if rng is not None else np.zeros((din, dout))
        self.w = Param(w0)
        self.b = Param(np.zeros((1, dout)))

    def forward(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(y, x): the output and the checked input, which ``backward`` reads."""
        x = as_matrix(x, "linear input")
        din = self.w.shape[0]
        if x.shape[1] != din:
            raise ShapeError(f"linear: input shape {x.shape} does not match weight shape {self.w.shape}")
        return x @ self.w.value + self.b.value, x

    def backward(self, x: np.ndarray, dout, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate the parameter gradients; return the input gradient,
        or None when ``input_grad`` is false and nothing will read it."""
        dout = as_matrix(dout, "linear dout")
        if dout.shape != (x.shape[0], self.w.shape[1]):
            raise ShapeError(f"linear: dout shape {dout.shape} does not match output shape {(x.shape[0], self.w.shape[1])}")
        self.w.grad += x.T @ dout
        self.b.grad += dout.sum(axis=0, keepdims=True)
        if not input_grad:
            return None
        # a contiguous copy of w.T multiplies faster than the transposed view, same bits
        return dout @ np.ascontiguousarray(self.w.value.T)

    def params(self) -> list[tuple[str, Param]]:
        return [("w", self.w), ("b", self.b)]


class Conv1d:
    """Temporal cross-correlation with 'same' zero padding.

    The kernel width must be odd.  Weights are stored as one
    (k * din) x dout matrix; the tap-t slice is rows [t*din, (t+1)*din).
    Input and output are both frame-major: (L, din) -> (L, dout).
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

    def _taps(self, xp: np.ndarray, L: int) -> np.ndarray:
        """The k tap windows of the padded input as one (k, L, din) view
        without a copy: window t is xp[t:t + L]."""
        row, col = xp.strides
        return np.ndarray((self.k, L, self.din), xp.dtype, xp, 0, (row, row, col))

    def forward(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(y, xp): the output and the padded input, which ``backward`` reads."""
        x = as_matrix(x, "conv1d input")
        if x.shape[1] != self.din:
            raise ShapeError(f"conv1d: input shape {x.shape} does not match channel count {self.din}")
        L = x.shape[0]
        pad = (self.k - 1) // 2
        xp = np.zeros((L + 2 * pad, self.din))
        xp[pad:pad + L] = x
        # one stacked matmul runs the k per-tap GEMMs; the sum then adds the
        # bias and the taps in tap order, so each output bit is the per-tap loop's
        prods = np.matmul(self._taps(xp, L), self.w.value.reshape(self.k, self.din, -1))
        y = prods[0] + self.b.value
        for t in range(1, self.k):
            y += prods[t]
        return y, xp

    def backward(self, xp: np.ndarray, dout, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate the parameter gradients; return the input gradient,
        or None when ``input_grad`` is false and nothing will read it."""
        dout = as_matrix(dout, "conv1d dout")
        pad = (self.k - 1) // 2
        L = xp.shape[0] - 2 * pad
        if dout.shape != (L, self.w.shape[1]):
            raise ShapeError(f"conv1d: dout shape {dout.shape} does not match output shape {(L, self.w.shape[1])}")
        self.b.grad += dout.sum(axis=0, keepdims=True)
        taps = self._taps(xp, L)
        self.w.grad += np.matmul(taps.transpose(0, 2, 1), dout).reshape(self.w.shape)
        if not input_grad:
            return None
        # per tap w_t.T, copied contiguous: faster than the transposed view, same bits
        w_t = np.ascontiguousarray(self.w.value.reshape(self.k, self.din, -1).transpose(0, 2, 1))
        dtaps = np.matmul(dout, w_t)
        dxp = np.zeros_like(xp)
        for t in range(self.k):
            dxp[t:t + L] += dtaps[t]
        return dxp[pad:pad + L]

    def params(self) -> list[tuple[str, Param]]:
        return [("w", self.w), ("b", self.b)]


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
    targets, 0/1 or a boolean mask.

    y = 1: -alpha * (1 - p)**gamma * log(p)
    y = 0: -(1 - alpha) * p**gamma * log(1 - p)

    The derivative is zero where the probability clamp is active.
    """
    p_raw = np.asarray(p, dtype=np.float64)
    p = np.clip(p_raw, PROB_EPS, 1.0 - PROB_EPS)
    q = 1.0 - p
    log_p, log_q = np.log(p), np.log(q)
    q_gamma, p_gamma = q**gamma, p**gamma
    pos = np.asarray(y) > 0.5
    loss = np.where(pos, -alpha * q_gamma * log_p, -(1.0 - alpha) * p_gamma * log_q)
    dpos = alpha * (gamma * q ** (gamma - 1.0) * log_p - q_gamma / p)
    dneg = -(1.0 - alpha) * (gamma * p ** (gamma - 1.0) * log_q - p_gamma / q)
    inside = (p_raw > PROB_EPS) & (p_raw < 1.0 - PROB_EPS)
    return loss, np.where(pos, dpos, dneg) * inside


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
    # d(d^2/enc^2) with d(d)/dps = d(d)/dpe = 1/2
    dpen_dps = d / (enc * enc) - 2.0 * d * d * denc_dps / enc**3
    dpen_dpe = d / (enc * enc) - 2.0 * d * d * denc_dpe / enc**3
    return loss, -diou_dps + dpen_dps, -diou_dpe + dpen_dpe


def log_softmax(logits) -> np.ndarray:
    """Row-wise log-softmax via the shifted log-sum-exp identity."""
    z = np.asarray(logits, dtype=np.float64)
    squeeze = z.ndim == 1
    if squeeze:
        z = z[None, :]
    zmax = z.max(axis=1, keepdims=True)
    out = z - zmax - np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    return out[0] if squeeze else out
