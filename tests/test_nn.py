"""Numeric kernels: PRNG portability, closed-form loss values, gradients."""

import math

import numpy as np
import pytest

from oracles import (conv1d_forward_prior, conv1d_input_grad_prior, conv1d_reference,
                     conv1d_taps_reference, diou_loss_prior, diou_reference, focal_loss_grad_prior,
                     focal_loss_prior, grad_check, linear_prior, linear_reference, log_softmax_prior,
                     normal_block_prior, relu_grad_prior, sigmoid_prior, splitmix64_stream)
from talgate.nn import (PROB_EPS, Conv1d, Linear, Rng, ShapeError, _row_sum, diou_loss,
                        focal_loss, log_softmax, relu, relu_grad, sigmoid)


class TestRng:
    def test_matches_scalar_reference(self):
        for seed in (0, 1, 1234567, 0xDEADBEEF, 2**64 - 1):
            rng = Rng(seed)
            got = [rng.next_u64() for _ in range(64)]
            assert got == splitmix64_stream(seed, 64)

    def test_same_seed_same_sequence(self):
        a, b = Rng(99), Rng(99)
        assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]
        assert not np.array_equal(
            Rng(1).normal_matrix(4, 4), Rng(2).normal_matrix(4, 4))

    def test_uniform_is_top_53_bits(self):
        words = splitmix64_stream(42, 10)
        rng = Rng(42)
        for w in words:
            assert rng.uniform() == (w >> 11) * 2.0**-53

    def test_uniform_range_and_mean(self):
        rng = Rng(3)
        xs = [rng.uniform() for _ in range(20000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert abs(np.mean(xs) - 0.5) < 0.01

    def test_randint_bounds_and_rough_uniformity(self):
        rng = Rng(5)
        counts = np.zeros(7, dtype=int)
        for _ in range(21000):
            v = rng.randint(7)
            assert 0 <= v < 7
            counts[v] += 1
        assert np.all(np.abs(counts - 3000) < 330)  # 6 sigma

    def test_randint_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Rng(0).randint(0)

    def test_randint_rejects_bounds_past_two_to_the_64(self):
        # no 64-bit word lies below the rejection limit, so the draw would never return
        with pytest.raises(ValueError, match=str(2**64 + 1)):
            Rng(0).randint(2**64 + 1)

    def test_randint_of_two_to_the_64_is_the_raw_word(self):
        assert Rng(7).randint(2**64) == splitmix64_stream(7, 1)[0]

    def test_first_normal_matches_box_muller_by_hand(self):
        for seed in (0, 17, 9001):
            w = splitmix64_stream(seed, 2)
            u1 = ((w[0] >> 11) + 1.0) * 2.0**-53
            u2 = (w[1] >> 11) * 2.0**-53
            expected = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            assert Rng(seed).normal_matrix(1, 1)[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_normal_moments(self):
        m = Rng(11).normal_matrix(200, 200, sigma=2.0)
        assert abs(m.mean()) < 0.03
        assert abs(m.var() - 4.0) < 0.1

    def test_normal_stream_position_depends_only_on_count(self):
        a = Rng(7)
        ma = a.normal_matrix(3, 5)
        ua = a.uniform()
        b = Rng(7)
        mb = b.normal_matrix(5, 3)
        ub = b.uniform()
        assert np.array_equal(ma.reshape(-1), mb.reshape(-1))
        assert ua == ub

    def test_negative_size_leaves_the_stream_where_it_was(self):
        rng = Rng(9)
        for rows, cols in ((-1, 4), (4, -1), (-2, -3), (-1, 0)):
            with pytest.raises(ValueError, match="non-negative"):
                rng.normal_matrix(rows, cols)
        assert rng.uniform() == (splitmix64_stream(9, 1)[0] >> 11) * 2.0**-53

    def test_odd_normal_block_consumes_padded_pair(self):
        rng = Rng(13)
        rng.normal_matrix(1, 3)  # 3 values -> 2 pairs -> 4 words
        w = splitmix64_stream(13, 5)
        assert rng.uniform() == (w[4] >> 11) * 2.0**-53

    def test_shuffle_permutes_deterministically(self):
        items = list(range(20))
        Rng(21).shuffle(items)
        assert sorted(items) == list(range(20))
        again = list(range(20))
        Rng(21).shuffle(again)
        assert items == again

    def test_scalar_draws_interleaved_with_blocks_follow_the_stream(self):
        seed = 0x9E3779B97F4A7C15
        words = iter(splitmix64_stream(seed, 2 * (8192 + 4097) + 200))
        rng, rejected = Rng(seed), 0
        # odd and even sizes, a full 8192-value block; sigma 1 and not
        for n, sigma in ((5, 1.0), (1, 0.3), (8, 1.0), (3, 2.5), (8192, 1.0), (4097, 0.0177)):
            assert rng.next_u64() == next(words)
            assert rng.randint(2**64) == next(words)  # the raw word
            bound = 2**63 + 1  # rejects the words at or above 2**63 + 1, about half
            while (w := next(words)) >= bound:
                rejected += 1
            assert rng.randint(bound) == w % bound
            assert rng.randint(6) == next(words) % 6
            assert rng.uniform() == (next(words) >> 11) * 2.0**-53
            block = [next(words) for _ in range(2 * ((n + 1) // 2))]
            assert _bits(rng.normal_matrix(1, n, sigma)) == _bits(normal_block_prior(block, n, sigma))
        assert rejected > 0

    def test_derangement_has_no_fixed_points(self):
        assert Rng(0).derangement(2) == [1, 0]
        rng = Rng(8)
        seen = set()
        for _ in range(300):
            p = rng.derangement(4)
            assert sorted(p) == [0, 1, 2, 3]
            assert all(v != i for i, v in enumerate(p))
            seen.add(tuple(p))
        assert len(seen) == 9  # every derangement of 4 shows up

    def test_derangement_needs_two_elements(self):
        with pytest.raises(ValueError):
            Rng(0).derangement(1)


class TestLinear:
    def test_identity_and_zero(self):
        lin = Linear(3, 3)
        lin.w.value[...] = np.eye(3)
        x = Rng(1).normal_matrix(5, 3)
        y, saved = lin.forward(x)
        assert np.array_equal(y, x) and saved is x  # a checked matrix is kept as given
        lin.w.value[...] = 0.0
        assert np.array_equal(lin.forward(x)[0], np.zeros((5, 3)))
        assert set(vars(lin)) == {"k", "din", "w", "b"}  # the caller keeps what a pass saves

    def test_matches_loop_reference(self):
        rng = Rng(2)
        lin = Linear(2, 2, rng)
        lin.b.value[...] = rng.normal_matrix(1, 2)
        x = rng.normal_matrix(3, 2)
        expected = linear_reference(x.tolist(), lin.w.value.tolist(), lin.b.value.tolist())
        np.testing.assert_allclose(lin.forward(x)[0], expected, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        for layer in (Linear(3, 2), Conv1d(1, 3, 2)):
            with pytest.raises(ShapeError, match=r"input shape \(4, 4\).*kernel 1 weight shape \(3, 2\)"):
                layer.forward(np.zeros((4, 4)))

    @pytest.mark.parametrize("S, L, din, dout", [(1, 7, 3, 5), (3, 256, 32, 8), (3, 256, 32, 1)])
    def test_stack_equals_each_matrix_alone(self, S, L, din, dout):
        rng = Rng(5 + S + dout)
        lin = Linear(din, dout, rng)
        lin.b.value[...] = rng.normal_matrix(1, dout)
        x = np.stack([rng.normal_matrix(L, din) for _ in range(S)])
        y, saved = lin.forward(x)
        assert y.shape == (S, L, dout) and saved is x
        for i in range(S):
            assert y[i].tobytes() == lin.forward(x[i])[0].tobytes()

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2, 3)])
    def test_rejects_other_ranks(self, shape):
        with pytest.raises(ShapeError, match="2-D or a 3-D stack"):
            Linear(3, 2).forward(np.zeros(shape))


class TestConv1d:
    def test_center_tap_identity(self):
        conv = Conv1d(1, 4, 4)
        conv.w.value[...] = np.eye(4)
        x = Rng(3).normal_matrix(6, 4)
        assert np.array_equal(conv.forward(x)[0], x)

    def test_zero_input_broadcasts_bias(self):
        conv = Conv1d(3, 2, 5)
        conv.b.value[...] = np.arange(5.0)
        out, _ = conv.forward(np.zeros((7, 2)))
        np.testing.assert_array_equal(out, np.tile(np.arange(5.0), (7, 1)))

    def test_matches_loop_reference(self):
        rng = Rng(4)
        conv = Conv1d(3, 2, 3, rng)
        conv.b.value[...] = rng.normal_matrix(1, 3)
        x = rng.normal_matrix(5, 2)
        expected = conv1d_reference(x.tolist(), conv.w.value.tolist(),
                                    conv.b.value.tolist(), 3)
        np.testing.assert_allclose(conv.forward(x)[0], expected, atol=1e-12)

    @pytest.mark.parametrize("k, L, din, dout", [
        (1, 7, 3, 5), (3, 7, 3, 5), (5, 7, 5, 3), (5, 2, 3, 5), (3, 1, 4, 2), (3, 256, 32, 32),
    ])
    def test_matches_per_tap_loop_bitwise(self, k, L, din, dout):
        rng = Rng(30 + k + L)
        conv = Conv1d(k, din, dout, rng)
        conv.b.value[...] = rng.normal_matrix(1, dout)
        x = rng.normal_matrix(L, din)
        g = rng.normal_matrix(L, dout)
        out, dw, db, dx = conv1d_taps_reference(x, conv.w.value, conv.b.value, k, g)
        y, xp = conv.forward(x)
        assert y.tobytes() == out.tobytes()
        pad = (k - 1) // 2
        assert xp.shape == (L + 2 * pad, din) and not xp[:pad].any() and not xp[L + pad:].any()
        assert conv.backward(xp, g).tobytes() == dx.tobytes()
        assert conv.w.grad.tobytes() == dw.tobytes()
        assert conv.b.grad.tobytes() == db.tobytes()
        # without the input gradient, the parameter gradients still accumulate
        assert conv.backward(xp, g, input_grad=False) is None
        assert conv.w.grad.tobytes() == (dw + dw).tobytes()
        assert conv.b.grad.tobytes() == (db + db).tobytes()
        assert set(vars(conv)) == {"k", "din", "w", "b"}

    @pytest.mark.parametrize("k, S, L, din, dout", [(3, 3, 256, 32, 32), (5, 2, 7, 3, 5), (3, 1, 2, 4, 3)])
    def test_stack_equals_each_matrix_alone(self, k, S, L, din, dout):
        rng = Rng(60 + k + S)
        conv = Conv1d(k, din, dout, rng)
        conv.b.value[...] = rng.normal_matrix(1, dout)
        x = np.stack([rng.normal_matrix(L, din) for _ in range(S)])
        y, xp = conv.forward(x)
        assert y.shape == (S, L, dout) and xp.shape == (S, L + k - 1, din)
        for i in range(S):
            y_i, xp_i = conv.forward(x[i])
            assert y[i].tobytes() == y_i.tobytes() and xp[i].tobytes() == xp_i.tobytes()

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            Conv1d(2, 3, 3)


def test_relu_and_sigmoid_values():
    assert relu(np.array([[-3.0]]))[0, 0] == 0.0
    assert relu_grad(np.array([[0.0]]))[0, 0] == 0.0  # kink convention
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert sigmoid(np.array([math.log(3.0)]))[0] == pytest.approx(0.75, abs=1e-15)


def test_sigmoid_symmetry():
    x = Rng(6).normal_matrix(100, 100, sigma=20.0)
    np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)


class TestFocal:
    def test_perfect_prediction_is_tiny(self):
        assert float(focal_loss(1.0 - 1e-7, 1.0)[0]) <= 1e-6
        assert float(focal_loss(1e-7, 0.0)[0]) <= 1e-6

    def test_hand_evaluated_value(self):
        # alpha * (1 - p)^gamma * (-log p) at p = 0.5
        v = float(focal_loss(0.5, 1.0, alpha=0.25, gamma=2.0)[0])
        assert v == pytest.approx(0.25 * 0.25 * math.log(2.0), abs=1e-12)
        assert v == pytest.approx(0.043322, abs=1e-6)

    def test_reduces_to_weighted_cross_entropy_at_gamma_zero(self):
        rng = Rng(9)
        for _ in range(1000):
            p = 0.01 + 0.98 * rng.uniform()
            y = float(rng.randint(2))
            got = float(focal_loss(p, y, alpha=1.0, gamma=0.0)[0])
            bce = -math.log(p) if y == 1.0 else -math.log(1.0 - p)
            # the alpha factor weighs the two branches: alpha on positives,
            # (1 - alpha) on negatives, so alpha = 1 zeroes the negative branch
            expected = bce if y == 1.0 else 0.0
            assert got == pytest.approx(expected, abs=1e-12)
            weighted = float(focal_loss(p, y, alpha=0.25, gamma=0.0)[0])
            factor = 0.25 if y == 1.0 else 0.75
            assert weighted == pytest.approx(factor * bce, abs=1e-12)

    def test_grad_wrt_logit(self):
        rng = Rng(10)
        for _ in range(100):
            z0 = rng.normal_matrix(1, 1, 2.0)
            y = float(rng.randint(2))

            def f(z, y=y):
                p = sigmoid(z)
                loss, dp = focal_loss(p, y)
                return float(loss.sum()), dp * (p * (1 - p))

            assert grad_check(f, z0) < 1e-5


def _bits(a) -> bytes:
    """Every bit of a value: NaN payloads and the sign of zero included."""
    return np.asarray(a, dtype=np.float64).tobytes()


# the edge values every kernel must carry through with the same bits as its prior form
_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-300, -1e-300, 5e-324, -5e-324,
                      709.0, -709.0, 709.8, -709.8, 710.0, -710.0, 745.2, -745.2, 1e3, -1e3])
# probabilities at and beside the focal clamp, plus values outside [0, 1]
_PROBS = np.array([PROB_EPS, 1.0 - PROB_EPS, np.nextafter(PROB_EPS, 0.0), np.nextafter(PROB_EPS, 1.0),
                   np.nextafter(1.0 - PROB_EPS, 0.0), np.nextafter(1.0 - PROB_EPS, 1.0),
                   0.0, -0.0, 1.0, 0.5, 1e-300, -0.25, 1.25, np.inf, -np.inf, np.nan])


def _edge_matrices(seed: int):
    """Random matrices at several scales and shapes, the stock 256 x 8 among
    them, with the edge values scattered in."""
    rng = Rng(seed)
    for rows, cols in ((1, 1), (3, 5), (7, 3), (256, 8)):
        for sigma in (1.0, 30.0, 800.0):
            m = rng.normal_matrix(rows, cols, sigma)
            flat = m.reshape(-1)
            for v in _SPECIALS[:len(flat)]:
                flat[rng.randint(len(flat))] = v
            yield m
    yield _SPECIALS.reshape(4, 5)


def _sprinkle(rng: Rng, m: np.ndarray, count: int) -> np.ndarray:
    """``m`` with ``count`` of the edge values written over random entries, in place."""
    flat = m.reshape(-1)
    for v in _SPECIALS[rng.randint(len(_SPECIALS)):][:count]:
        flat[rng.randint(len(flat))] = v
    return m


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestBitwiseOracles:
    """The kernels against their prior forms in ``oracles``, bit for bit."""

    def test_sigmoid(self):
        for x in _edge_matrices(50):
            assert _bits(sigmoid(x)) == _bits(sigmoid_prior(x))
            assert _bits(sigmoid(x.T)) == _bits(sigmoid_prior(x.T))  # a strided view
        for v in _SPECIALS:
            assert _bits(sigmoid(v)) == _bits(sigmoid_prior(v))  # 0-d

    def test_relu_grad(self):
        for x in _edge_matrices(51):
            mask = relu_grad(x)
            assert mask.dtype == bool
            assert _bits(mask.astype(np.float64)) == _bits(relu_grad_prior(x))
            # the bool mask scales a gradient to the float mask's bits, signed zeros included
            g = np.where(np.arange(x.size).reshape(x.shape) % 2 == 0, 1.0, -1.0) * np.abs(x[::-1])
            assert _bits(g * mask) == _bits(g * relu_grad_prior(x))

    # 2**64 - golden ratio word: seed + idx * 0x9E3779B97F4A7C15 wraps past 2**64 to 0 at idx 1
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 0x5DEECE66D2F1B3A7, 0x61C8864680B583EB])
    def test_normal_block(self, seed):
        sizes = (1, 2, 3, 255, 4097, 8191, 8192, 24576)
        sigmas = (1.0, 0.25, 0.0177, 3.5)
        stream = splitmix64_stream(seed, sum(2 * ((n + 1) // 2) + 1 for n in sizes) * len(sigmas))
        rng, pos = Rng(seed), 0
        for sigma in sigmas:
            for n in sizes:
                used = 2 * ((n + 1) // 2)
                want = normal_block_prior(stream[pos:pos + used], n, sigma)
                assert _bits(rng.normal_matrix(1, n, sigma)) == _bits(want[None, :])
                pos += used
                assert rng.uniform() == (stream[pos] >> 11) * 2.0**-53  # the block's stream position
                pos += 1

    @pytest.mark.parametrize("alpha, gamma", [(0.25, 2.0), (1.0, 0.0), (0.5, 3.0)])
    def test_focal_loss(self, alpha, gamma):
        rng = Rng(52)
        probs = [np.abs(np.sin(x)) for x in _edge_matrices(53)]
        probs.append(_PROBS.reshape(4, 4))
        probs.append(np.tile(_PROBS, (3, 1)))
        for p in probs:
            labels = (rng.normal_matrix(*p.shape) > 0.0).astype(np.float64)
            for y in (labels, np.zeros(p.shape)):  # all background, as a video without segments
                loss, grad = focal_loss(p, y, alpha, gamma)
                assert _bits(loss) == _bits(focal_loss_prior(p, y, alpha, gamma))
                assert _bits(grad) == _bits(focal_loss_grad_prior(p, y, alpha, gamma))
        for v in [*_PROBS, *(rng.uniform() for _ in range(200))]:  # 0-d, scalar arithmetic
            for y in (0.0, 1.0):
                loss, grad = focal_loss(v, y, alpha, gamma)
                assert _bits(loss) == _bits(focal_loss_prior(v, y, alpha, gamma))
                assert _bits(grad) == _bits(focal_loss_grad_prior(v, y, alpha, gamma))

    @pytest.mark.parametrize("L, din, dout", [(1, 3, 2), (7, 5, 3), (256, 32, 8), (256, 32, 9), (256, 32, 2)])
    def test_linear_input_grad(self, L, din, dout):
        rng = Rng(54 + L + dout)
        lin = Linear(din, dout, rng)
        x, g = rng.normal_matrix(L, din), rng.normal_matrix(L, dout)
        g[0, :] = 0.0
        assert _bits(lin.backward(x, g)) == _bits(linear_prior(x, lin.w.value, lin.b.value, g)[3])

    # the model's four output heads (adv_fc, cls_out, tmpl_out, loc_out) and a small shape
    @pytest.mark.parametrize("L, din, dout", [(256, 32, 8), (256, 32, 1), (256, 32, 9), (256, 32, 2), (7, 3, 5)])
    def test_linear_is_kernel1_conv_with_the_prior_arithmetic(self, L, din, dout):
        rng = Rng(56 + dout)
        lin = Linear(din, dout, rng)
        lin.b.value[...] = rng.normal_matrix(1, dout)
        xs = np.stack([rng.normal_matrix(L, din) for _ in range(3)])
        ys, saved = lin.forward(xs)
        assert saved is xs
        for x, y in zip(xs, ys):
            g = rng.normal_matrix(L, dout)
            g[L // 2, :] = 0.0  # an all-zero row
            want_y, want_dw, want_db, want_dx = linear_prior(x, lin.w.value, lin.b.value, g)
            assert _bits(y) == _bits(want_y)
            y, saved = lin.forward(x)
            assert _bits(y) == _bits(want_y) and saved is x
            lin.w.grad[...] = lin.b.grad[...] = 0.0
            assert _bits(lin.backward(saved, g)) == _bits(want_dx)
            assert _bits(lin.w.grad) == _bits(want_dw) and _bits(lin.b.grad) == _bits(want_db)
        # one implementation: Linear's entries are Conv1d's functions, under its own names
        for name in ("forward", "backward"):
            assert Linear.__dict__[name] is Conv1d.__dict__[name]
        assert {k for k, v in vars(Linear).items() if callable(v)} == {"__init__", "forward", "backward"}

    @pytest.mark.parametrize("k, L, din, dout", [
        (1, 7, 3, 5), (3, 7, 3, 5), (5, 7, 5, 3), (3, 1, 4, 2), (3, 256, 32, 32), (3, 256, 8, 32),
    ])
    def test_conv1d_input_grad(self, k, L, din, dout):
        rng = Rng(55 + k + L)
        conv = Conv1d(k, din, dout, rng)
        x, g = rng.normal_matrix(L, din), rng.normal_matrix(L, dout)
        g[0, :] = 0.0
        xp = conv.forward(x)[1]
        assert _bits(conv.backward(xp, g)) == _bits(conv1d_input_grad_prior(g, conv.w.value, k, din))

    # the model's layers: the trunks (kernel 3, width 32) and the heads (kernel 1 at
    # widths 1, 2, 8 and 9), plus kernel 5; clean weights, then weights with edge values
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("dout", [1, 2, 8, 9, 32])
    def test_conv1d_per_tap_kernels(self, k, dout):
        rng, din = Rng(57 + 10 * k + dout), 32
        conv = Conv1d(k, din, dout, rng)
        for sprinkle_weights in (False, True):
            conv.b.value[...] = rng.normal_matrix(1, dout)
            if sprinkle_weights:
                _sprinkle(rng, conv.w.value, 4)
                _sprinkle(rng, conv.b.value, 1)
            w, b = conv.w.value, conv.b.value
            for L in (1, 2, 7, 256):
                for S in (1, 3):
                    xs = np.stack([_sprinkle(rng, rng.normal_matrix(L, din, 4.0), i) for i in range(S)])
                    ys, xps = conv.forward(xs)
                    assert _bits(ys) == _bits(conv1d_forward_prior(xs, w, b, k))
                    assert xps is xs if k == 1 else xps.shape == (S, L + k - 1, din)
                for x in xs:
                    y, xp = conv.forward(x)
                    assert _bits(y) == _bits(conv1d_forward_prior(x, w, b, k))
                    g = _sprinkle(rng, rng.normal_matrix(L, dout), 3)
                    g[L // 2] = 0.0  # an all-zero row, and one of negative zeros
                    g[L - 1] = -0.0
                    conv.w.grad[...] = conv.b.grad[...] = 0.0
                    dx = conv.backward(xp, g)
                    _, dw, db, _ = conv1d_taps_reference(x, w, b, k, g)  # its dx sums in another order
                    assert _bits(conv.w.grad) == _bits(0.0 + dw)  # accumulated into a zeroed store
                    assert _bits(conv.b.grad) == _bits(0.0 + db)
                    assert _bits(dx) == _bits(conv1d_input_grad_prior(g, w, k, din))
                    # the pre-activation owns its L x dout floats, as a record keeps it
                    assert y.base is None and y.shape == (L, dout)

    @pytest.mark.filterwarnings("ignore:divide by zero encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_diou_loss(self):
        rng = Rng(60)
        for n in (1, 3, 154, 256):
            for trial in range(4):
                gs = np.floor(rng.normal_matrix(1, n, 50.0)[0])
                ge = gs + 1.0 + np.floor(np.abs(rng.normal_matrix(1, n, 20.0)[0]))
                mid = gs + np.abs(rng.normal_matrix(1, n, 10.0)[0])
                ps = mid - np.abs(rng.normal_matrix(1, n, 8.0)[0])
                pe = mid + np.abs(rng.normal_matrix(1, n, 8.0)[0])
                if trial == 1:  # predictions on the ground-truth ends: every min/max switch tied
                    ps, pe = gs.copy(), ge.copy()
                if trial >= 2:
                    for a in (ps, pe, gs, ge):
                        _sprinkle(rng, a, 3)
                got, want = diou_loss(ps, pe, gs, ge), diou_loss_prior(ps, pe, gs, ge)
                for g, w in zip(got, want):
                    assert _bits(g) == _bits(w)
        for ps, pe, gs, ge in ((0.0, 2.0, 2.0, 4.0), (3.0, 7.0, 3.0, 7.0), (-1e-300, 5e-324, 0.0, 1.0)):
            for g, w in zip(diou_loss(ps, pe, gs, ge), diou_loss_prior(ps, pe, gs, ge)):
                assert _bits(g) == _bits(w)  # 0-d

    def test_log_softmax(self):
        rng = Rng(59)
        rows = [rng.normal_matrix(256, 9, 4.0), _SPECIALS.reshape(4, 5), _SPECIALS.reshape(5, 4),
                np.full((2, 3), -np.inf), rng.normal_matrix(1, 1)]
        rows += [_sprinkle(rng, rng.normal_matrix(7, 9, 30.0), 5) for _ in range(8)]
        for z in rows:
            assert _bits(log_softmax(z)) == _bits(log_softmax_prior(z))
            assert _bits(log_softmax(z[0])) == _bits(log_softmax_prior(z[:1])[0])  # one row, 1-D

    @pytest.mark.parametrize("L", [1, 7, 256])
    def test_bias_grad_adds_rows_as_sum_does(self, L):
        # wider than one column the bias gradient is einsum's row-by-row sum
        rng = Rng(58 + L)
        for dout in range(1, 34):
            conv = Conv1d(1, 1, dout)
            for g in (rng.normal_matrix(L, dout, 1e3), _sprinkle(rng, rng.normal_matrix(L, dout), 4),
                      np.full((L, dout), -0.0)):
                assert _bits(_row_sum(g)) == _bits(g.sum(axis=0))
                conv.b.grad[...] = 0.0
                conv.backward(np.zeros((L, 1)), g, input_grad=False)
                assert _bits(conv.b.grad) == _bits(0.0 + g.sum(axis=0, keepdims=True))


def _normal(rng: Rng, sigma: float) -> float:
    """One N(0, sigma^2) draw: a Box-Muller block of one, two words."""
    return float(rng.normal_matrix(1, 1, sigma)[0, 0])


class TestDiou:
    @staticmethod
    def value(pred, gt) -> float:
        return float(diou_loss(pred[0], pred[1], gt[0], gt[1])[0])

    def test_identical_intervals_zero(self):
        assert self.value((3.0, 7.0), (3.0, 7.0)) == 0.0

    def test_hand_evaluated_disjoint_value(self):
        # IoU 0, centers 1 and 3, enclosure 4: 1 + (2/4)^2 = 1.25
        assert self.value((0.0, 2.0), (2.0, 4.0)) == pytest.approx(1.25, abs=1e-12)

    def test_value_symmetric_in_arguments(self):
        rng = Rng(11)
        for _ in range(200):
            a = sorted([_normal(rng, 5.0), _normal(rng, 5.0)])
            b = sorted([_normal(rng, 5.0), _normal(rng, 5.0)])
            if a[0] == a[1] or b[0] == b[1]:
                continue
            assert self.value(a, b) == pytest.approx(self.value(b, a), abs=1e-12)

    def test_range_and_zero_iff_identical(self):
        rng = Rng(12)
        for _ in range(1000):
            a = sorted([_normal(rng, 5.0), _normal(rng, 5.0)])
            b = sorted([_normal(rng, 5.0), _normal(rng, 5.0)])
            if a[0] == a[1] or b[0] == b[1]:
                continue
            v = self.value(a, b)
            assert 0.0 <= v < 2.0
            if a != b:
                assert v > 0.0

    def test_matches_reference(self):
        rng = Rng(14)
        pairs = []
        while len(pairs) < 500:
            a = sorted([_normal(rng, 5.0), _normal(rng, 5.0)])
            b = sorted([_normal(rng, 5.0), _normal(rng, 5.0)])
            if a[0] != a[1] and b[0] != b[1]:
                pairs.append((*a, *b))
        loss, _, _ = diou_loss(*np.array(pairs).T)
        want = [diou_reference(*pair) for pair in pairs]
        np.testing.assert_allclose(loss, want, rtol=1e-12, atol=1e-14)

    def test_grad_wrt_endpoints(self):
        rng = Rng(13)
        checked = 0
        while checked < 100:
            ps, pe = sorted([_normal(rng, 5.0), _normal(rng, 5.0)])
            gs, ge = sorted([_normal(rng, 5.0), _normal(rng, 5.0)])
            # stay away from min/max switch points and degenerate spans
            gaps = [abs(ps - gs), abs(pe - ge), pe - ps, ge - gs]
            if min(gaps) < 1e-3:
                continue

            def f(x, gs=gs, ge=ge):
                loss, dps, dpe = diou_loss(x[0, 0], x[0, 1], gs, ge)
                return float(loss), np.array([[dps, dpe]])

            assert grad_check(f, np.array([[ps, pe]])) < 1e-5
            checked += 1


class TestCrossEntropy:
    """log_softmax is the cross-entropy kernel of model.template_loss, whose
    values and gradient are checked in test_model.TestTemplateLoss."""

    def test_log_softmax_rows_normalize(self):
        z = Rng(16).normal_matrix(6, 7, 4.0)
        np.testing.assert_allclose(np.exp(log_softmax(z)).sum(axis=1), 1.0, atol=1e-12)


class TestLayerGradients:
    def test_linear_wrt_input_weights_bias(self):
        rng = Rng(20)
        for _ in range(5):
            lin = Linear(4, 3, rng)
            x0 = rng.normal_matrix(6, 4)
            r = rng.normal_matrix(6, 3)

            def wrt_x(x):
                lin.w.grad[...] = lin.b.grad[...] = 0.0
                out, saved = lin.forward(x)
                return float((out * r).sum()), lin.backward(saved, r)

            def wrt_w(w):
                lin.w.value[...] = w
                lin.w.grad[...] = lin.b.grad[...] = 0.0
                out, saved = lin.forward(x0)
                lin.backward(saved, r)
                return float((out * r).sum()), lin.w.grad.copy()

            def wrt_b(b):
                lin.b.value[...] = b
                lin.w.grad[...] = lin.b.grad[...] = 0.0
                out, saved = lin.forward(x0)
                lin.backward(saved, r)
                return float((out * r).sum()), lin.b.grad.copy()

            assert grad_check(wrt_x, x0) < 1e-6
            assert grad_check(wrt_w, lin.w.value.copy()) < 1e-6
            assert grad_check(wrt_b, lin.b.value.copy()) < 1e-6

    def test_conv_wrt_input_weights_bias(self):
        rng = Rng(21)
        for _ in range(5):
            conv = Conv1d(3, 3, 2, rng)
            x0 = rng.normal_matrix(7, 3)
            r = rng.normal_matrix(7, 2)

            def wrt_x(x):
                conv.w.grad[...] = conv.b.grad[...] = 0.0
                out, xp = conv.forward(x)
                return float((out * r).sum()), conv.backward(xp, r)

            def wrt_w(w):
                conv.w.value[...] = w
                conv.w.grad[...] = conv.b.grad[...] = 0.0
                out, xp = conv.forward(x0)
                conv.backward(xp, r)
                return float((out * r).sum()), conv.w.grad.copy()

            assert grad_check(wrt_x, x0) < 1e-6
            assert grad_check(wrt_w, conv.w.value.copy()) < 1e-6
            checked = grad_check(
                lambda b: _conv_bias_loss(conv, x0, r, b), conv.b.value.copy())
            assert checked < 1e-6


def _conv_bias_loss(conv, x0, r, b):
    conv.b.value[...] = b
    conv.w.grad[...] = conv.b.grad[...] = 0.0
    out, xp = conv.forward(x0)
    conv.backward(xp, r)
    return float((out * r).sum()), conv.b.grad.copy()


def test_grad_check_rejects_non_finite():
    def f(x):
        return float("nan"), np.zeros_like(x)

    with pytest.raises(ValueError):
        grad_check(f, np.zeros((1, 1)))
