"""Detector model: gate mapping, aggregation, decode/NMS, checkpoints."""

import math
import weakref
from collections import namedtuple

import numpy as np
import pytest

from conftest import gate_pinned
from oracles import (cross_entropy_reference, decode_reference, grad_check,
                     interval_iou, nms_reference, proposal_rows, proposals_from_rows,
                     video_rows)
from talgate.errors import ConfigError, FormatError
from talgate.model import (NMS_TIOU, SCORE_THRESHOLD, TOP_K_PRE_NMS, ModelConfig,
                           ModelState, Proposals, aggregate, backward_video, decode_proposals,
                           forward_video, frame_targets, head_forward,
                           lambda_from_advantage, load_checkpoint, nms,
                           predict_corpus, save_checkpoint,
                           template_loss, template_loss_grad, tiou)
from talgate.nn import Conv1d, Linear, Rng, ShapeError
from talgate.synthgen import (Corpus, LanguageBundle, Segment, VideoRecord,
                              generate_corpus, GenConfig)


def tiny_model_config(**overrides):
    base = dict(dim=5, num_classes=3)
    base.update(overrides)
    return ModelConfig(**base)


def random_bundle(rng, L, D):
    return LanguageBundle(rng.normal_matrix(L, D), rng.normal_matrix(L, D),
                          rng.normal_matrix(L, D))


class TestModelConfig:
    @pytest.mark.parametrize("overrides, field", [
        (dict(num_classes=1), "num_classes"),
        (dict(dim=0), "dim"),
        (dict(fixed_lambda=-0.5), "fixed_lambda"),
        (dict(fixed_lambda=math.nan), "fixed_lambda"),
        (dict(lambda_mode="language-only"), "lambda_mode"),  # the ablation mode's spelling
        (dict(lambda_mode="magic"), "lambda_mode"),
        (dict(fixed_lambda=1.5), "fixed_lambda"),
    ])
    def test_bad_value_names_field(self, overrides, field):
        with pytest.raises(ConfigError, match=field):
            tiny_model_config(**overrides).validate()


class TestGate:
    def test_exact_values(self):
        assert lambda_from_advantage(np.array([[0.0]]))[0, 0] == 0.0
        assert lambda_from_advantage(np.array([[-5.0]]))[0, 0] == 0.0
        half = lambda_from_advantage(np.array([[math.log(3.0)]]))[0, 0]
        assert half == pytest.approx(0.5, abs=1e-15)

    def test_property_suite(self):
        rng = Rng(1)
        x = rng.normal_matrix(10_000, 1, sigma=8.0)
        lam = lambda_from_advantage(x)
        assert np.all(lam >= 0.0) and np.all(lam < 1.0)
        assert np.all(lam[x <= 0.0] == 0.0)
        order = np.argsort(x[:, 0])
        assert np.all(np.diff(lam[order, 0]) >= 0.0)

    def test_matches_doubled_sigmoid_form(self):
        x = Rng(2).normal_matrix(100, 1, sigma=3.0)
        lam = lambda_from_advantage(x)
        direct = 2.0 / (1.0 + np.exp(-np.maximum(x, 0.0))) - 1.0
        np.testing.assert_allclose(lam, np.minimum(direct, np.nextafter(1.0, 0.0)),
                                   atol=1e-15)

    def test_saturation_stays_below_one(self):
        assert lambda_from_advantage(np.array([[1e6]]))[0, 0] < 1.0


class TestAdvantageHead:
    def test_zero_parameters_zero_output(self):
        state = ModelState(tiny_model_config(), rng=None)
        state.adv_fc.b.value[...] = 0.0
        out, _ = state.adv_fc.forward(np.ones((9, 5)))
        assert out.shape == (9, 1)
        assert np.array_equal(out, np.zeros((9, 1)))

    def test_matches_affine_oracle(self):
        rng = Rng(3)
        state = ModelState(tiny_model_config(), rng)
        x = rng.normal_matrix(6, 5)
        expected = x @ state.adv_fc.w.value + state.adv_fc.b.value
        np.testing.assert_allclose(state.adv_fc.forward(x)[0], expected, atol=1e-12)

    def test_shape_mismatch(self):
        state = ModelState(tiny_model_config(), None)
        with pytest.raises(ShapeError):
            state.adv_fc.forward(np.ones((4, 7)))


class TestAggregate:
    def test_zero_gate_returns_vision_bitwise(self):
        rng = Rng(4)
        vis = rng.normal_matrix(8, 5)
        bundle = random_bundle(rng, 8, 5)
        f_cls, f_loc = aggregate(vis, bundle, np.zeros((8, 1)))
        assert f_cls.tobytes() == vis.tobytes()
        assert f_loc.tobytes() == vis.tobytes()

    def test_zero_streams_return_vision(self):
        rng = Rng(5)
        vis = rng.normal_matrix(8, 5)
        bundle = LanguageBundle(np.zeros((8, 5)), np.zeros((8, 5)), np.zeros((8, 5)))
        lam = rng.normal_matrix(8, 1) ** 2
        f_cls, f_loc = aggregate(vis, bundle, lam)
        assert np.array_equal(f_cls, vis) and np.array_equal(f_loc, vis)

    def test_matches_elementwise_oracle(self):
        rng = Rng(6)
        vis = rng.normal_matrix(4, 3)
        bundle = random_bundle(rng, 4, 3)
        lam = np.abs(rng.normal_matrix(4, 1))
        f_cls, f_loc = aggregate(vis, bundle, lam)
        for l in range(4):
            for d in range(3):
                assert f_cls[l, d] == vis[l, d] + lam[l, 0] * bundle.cls_stream[l, d]
                assert f_loc[l, d] == vis[l, d] + lam[l, 0] * bundle.loc_stream[l, d]

    def test_language_is_bounded_refinement(self):
        rng = Rng(7)
        vis = rng.normal_matrix(30, 5)
        bundle = random_bundle(rng, 30, 5)
        lam = lambda_from_advantage(rng.normal_matrix(30, 1, 2.0))
        f_cls, _ = aggregate(vis, bundle, lam)
        assert np.abs(f_cls - vis).max() <= lam.max() * np.abs(bundle.cls_stream).max() + 1e-12

    def test_shape_errors(self):
        vis = np.zeros((4, 3))
        bundle = LanguageBundle(np.zeros((4, 3)), np.zeros((4, 3)), np.zeros((4, 3)))
        with pytest.raises(ShapeError):
            aggregate(vis, bundle, np.zeros((3, 1)))
        bad = LanguageBundle(np.zeros((4, 4)), np.zeros((4, 3)), np.zeros((4, 3)))
        with pytest.raises(ShapeError):
            aggregate(vis, bad, np.zeros((4, 1)))


class TestHeadForward:
    def test_output_ranges(self):
        rng = Rng(8)
        state = ModelState(tiny_model_config(), rng)
        x = rng.normal_matrix(16, 5, 3.0)
        outputs = head_forward(x, x, state)
        assert np.all(outputs.offsets >= 0.0)
        assert np.all((outputs.cls_scores > 0.0) & (outputs.cls_scores < 1.0))
        assert not outputs.lam.any() and not outputs.adv_pred.any()
        assert state.tmpl_out.forward(outputs.cls_feat)[0].shape == (16, 4)

    def test_no_dead_parameterization(self):
        rng = Rng(9)
        state = ModelState(tiny_model_config(), rng)
        x = rng.normal_matrix(16, 5)
        before = head_forward(x, x, state)
        for conv in state.cls_trunk + state.loc_trunk:
            conv.w.value *= 2.0
        after = head_forward(x, x, state)
        assert np.abs(after.cls_scores - before.cls_scores).max() > 0.0
        assert np.abs(after.offsets - before.offsets).max() > 0.0


class TestForwardModes:
    def test_vision_view_invariant_to_language(self):
        rng = Rng(10)
        state = ModelState(tiny_model_config(lambda_mode="learned"), rng)
        vis = rng.normal_matrix(20, 5)
        aligned = random_bundle(rng, 20, 5)
        conflicted = random_bundle(rng, 20, 5)
        zeroed = LanguageBundle(np.zeros((20, 5)), np.zeros((20, 5)), np.zeros((20, 5)))
        pinned = gate_pinned(state)  # its parameters, the gate fixed at 0
        outs = [forward_video(pinned, vis, b) for b in (aligned, conflicted, zeroed)]
        pure = forward_video(state, vis, None)
        for o in outs:
            assert o.cls_scores.tobytes() == pure.cls_scores.tobytes()
            assert o.offsets.tobytes() == pure.offsets.tobytes()
            # the template head, run on each pass's classification features
            assert pinned.tmpl_out.forward(o.cls_feat)[0].tobytes() == \
                state.tmpl_out.forward(pure.cls_feat)[0].tobytes()

    def test_fixed_zero_mode_equals_vision_path(self):
        rng = Rng(11)
        state = ModelState(tiny_model_config(lambda_mode="fixed", fixed_lambda=0.0), rng)
        vis = rng.normal_matrix(12, 5)
        bundle = random_bundle(rng, 12, 5)
        gated = forward_video(state, vis, bundle)
        pure = forward_video(state, vis, None)
        assert gated.cls_scores.tobytes() == pure.cls_scores.tobytes()

    def test_learned_gate_matches_manual_composition(self):
        rng = Rng(12)
        state = ModelState(tiny_model_config(lambda_mode="learned"), rng)
        vis = rng.normal_matrix(12, 5)
        bundle = random_bundle(rng, 12, 5)
        outputs = forward_video(state, vis, bundle)
        adv, _ = state.adv_fc.forward(bundle.adv_stream)
        lam = lambda_from_advantage(adv)
        np.testing.assert_array_equal(outputs.adv_pred, adv)
        np.testing.assert_array_equal(outputs.lam, lam)
        manual = head_forward(*aggregate(vis, bundle, lam), state)
        assert outputs.cls_scores.tobytes() == manual.cls_scores.tobytes()

    def test_language_only_reads_pure_streams(self):
        rng = Rng(13)
        state = ModelState(tiny_model_config(lambda_mode="language_only"), rng)
        vis = rng.normal_matrix(12, 5)
        bundle = random_bundle(rng, 12, 5)
        outputs = forward_video(state, vis, bundle)
        assert np.all(outputs.lam == 1.0)
        manual = head_forward(bundle.cls_stream, bundle.loc_stream, state)
        assert outputs.cls_scores.tobytes() == manual.cls_scores.tobytes()


class TestDecode:
    def test_below_threshold_empty(self):
        assert proposal_rows(decode_proposals(np.full((5, 2), 0.001), np.ones((5, 2)))) == []

    def test_direct_substitution(self):
        scores = np.zeros((20, 2))
        scores[10, 1] = 0.9
        offsets = np.zeros((20, 2))
        offsets[10] = (2.0, 3.0)
        props = decode_proposals(scores, offsets)
        assert proposal_rows(props) == [(8.0, 13.0, 1, 0.9)]

    def test_clamps_to_video_bounds(self):
        scores = np.zeros((20, 2))
        scores[1, 0] = 0.5
        offsets = np.zeros((20, 2))
        offsets[1] = (5.0, 30.0)
        props = decode_proposals(scores, offsets)
        assert proposal_rows(props) == [(0.0, 20.0, 0, 0.5)]

    def test_drops_empty_intervals(self):
        scores = np.zeros((20, 2))
        scores[4, 0] = 0.5
        props = decode_proposals(scores, np.zeros((20, 2)))
        assert len(props) == 0

    def test_sorted_and_truncated(self):
        rng = Rng(14)
        scores = np.abs(rng.normal_matrix(150, 2, 0.3))
        offsets = np.abs(rng.normal_matrix(150, 2, 4.0)) + 0.5
        props = decode_proposals(scores, offsets)
        assert len(props) == TOP_K_PRE_NMS
        assert np.all(props.score[:-1] >= props.score[1:])
        everything = decode_reference(scores.tolist(), offsets.tolist(), SCORE_THRESHOLD, 300)
        assert len(everything) > TOP_K_PRE_NMS
        assert proposal_rows(props) == everything[:TOP_K_PRE_NMS]

    def test_matches_reference_with_ties(self):
        rng = Rng(16)
        # six score levels, one at the threshold and one below it, and
        # half-frame offsets: tied scores, shared starts and ends, offsets past
        # both video bounds, empty intervals; up to 480 candidate rows, so
        # many tables are cut at TOP_K_PRE_NMS and many are not
        levels = (0.0, SCORE_THRESHOLD, 0.25, 0.5, 0.75, 1.0)
        top_k, cuts_through_ties = TOP_K_PRE_NMS, 0
        for _ in range(80):
            L, C = 1 + rng.randint(120), 2 + rng.randint(3)
            scores = np.array([[levels[rng.randint(6)] for _ in range(C)] for _ in range(L)])
            offsets = np.array([[rng.randint(7) / 2.0 for _ in range(2)] for _ in range(L)])
            got = decode_proposals(scores, offsets)
            want = decode_reference(scores.tolist(), offsets.tolist(), SCORE_THRESHOLD, L * C)
            assert proposal_rows(got) == want[:top_k]
            cuts_through_ties += top_k < len(want) and want[top_k - 1][3] == want[top_k][3]
        assert cuts_through_ties >= 10

    def test_stock_shape_with_ties_at_the_cut(self):
        rng = Rng(17)
        L, C = 256, 8
        offsets = np.array([[rng.randint(9) / 2.0 for _ in range(2)] for _ in range(L)])
        scores = np.abs(rng.normal_matrix(L, C, 0.3)) + SCORE_THRESHOLD
        ranked = decode_reference(scores.tolist(), offsets.tolist(), SCORE_THRESHOLD, L * C)
        assert len(ranked) > 4 * TOP_K_PRE_NMS
        # rows ranked 190-210 take the score of row 190: one tie run across the cut
        scores[np.isin(scores, [row[3] for row in ranked[189:210]])] = ranked[189][3]
        equal = np.full((L, C), 0.5)  # every row tied: start, end, label and frame order decide
        for table in (scores, equal):
            want = decode_reference(table.tolist(), offsets.tolist(), SCORE_THRESHOLD, L * C)
            assert len(want) > TOP_K_PRE_NMS
            assert want[TOP_K_PRE_NMS - 1][3] == want[TOP_K_PRE_NMS][3]
            assert proposal_rows(decode_proposals(table, offsets)) == want[:TOP_K_PRE_NMS]


def random_rows(rng, n, labels=3, levels=4):
    """n rows with whole-frame bounds and ``levels`` score levels: tied
    scores, shared starts and ends, exact duplicates, tIoU at thresholds."""
    rows = []
    for _ in range(n):
        s = float(rng.randint(10))
        rows.append((s, s + 1.0 + rng.randint(6), rng.randint(labels), (1 + rng.randint(levels)) / levels))
    return rows


class TestNms:
    def test_identical_duplicates_collapse(self):
        p = (2.0, 9.0, 0, 0.8)
        assert proposal_rows(nms(proposals_from_rows([p, (2.0, 9.0, 0, 0.8)]), 0.5)) == [p]

    def test_disjoint_survive(self):
        props = [(0.0, 4.0, 0, 0.9), (10.0, 14.0, 0, 0.8), (0.0, 4.0, 1, 0.7)]
        assert proposal_rows(nms(proposals_from_rows(props), 0.5)) == props

    def test_cross_class_never_suppresses(self):
        props = [(0.0, 10.0, 0, 0.9), (0.0, 10.0, 1, 0.5)]
        assert len(nms(proposals_from_rows(props), 0.5)) == 2

    def test_matches_reference_on_random_sets(self):
        rng = Rng(15)
        for _ in range(50):
            props = []
            for _ in range(rng.randint(25) + 1):
                s = rng.uniform() * 40.0
                e = s + 0.5 + rng.uniform() * 20.0
                props.append((s, e, rng.randint(3), round(rng.uniform(), 2)))  # ties likely
            got = nms(proposals_from_rows(props), 0.4)
            assert proposal_rows(got) == nms_reference(props, 0.4)

    def test_matches_reference_with_ties(self):
        rng = Rng(18)
        for _ in range(100):
            props = random_rows(rng, 1 + rng.randint(40))
            for threshold in (0.3, 0.5):
                got = nms(proposals_from_rows(props), threshold)
                assert proposal_rows(got) == nms_reference(props, threshold)

    def test_zero_length_same_label_interval_rejected(self):
        with pytest.raises(ValueError):
            nms(proposals_from_rows([(0.0, 4.0, 0, 0.9), (3.0, 3.0, 0, 0.5)]), 0.5)
        # alone in its class it is never compared, so it stays
        props = [(0.0, 4.0, 0, 0.9), (3.0, 3.0, 1, 0.5)]
        assert proposal_rows(nms(proposals_from_rows(props), 0.5)) == props

    def test_empty(self):
        assert proposal_rows(nms(proposals_from_rows([]), 0.5)) == []

    def test_keeps_table_order(self):
        rng = Rng(24)
        for _ in range(30):
            rows = random_rows(rng, 1 + rng.randint(30))
            table = proposals_from_rows(rows)
            assert proposal_rows(table) == sorted(rows, key=lambda p: (-p[3], p[0], p[1], p[2]))
            kept = nms(table, 0.4)
            # the kept rows are a subsequence of the table, so in canonical order too
            it = iter(proposal_rows(table))
            assert all(row in it for row in proposal_rows(kept))
            kept_rows = proposal_rows(kept)
            assert kept_rows == sorted(kept_rows, key=lambda p: (-p[3], p[0], p[1], p[2]))
            assert [a.dtype for a in (kept.start, kept.end, kept.label, kept.score)] == \
                [np.float64, np.float64, np.int64, np.float64]


Interval = namedtuple("Interval", "start end")


class TestTiou:
    def test_values(self):
        assert tiou(Segment(0, 10, 0), Segment(0, 10, 1)) == 1.0
        assert tiou(Interval(0.0, 1.0), Interval(5.0, 6.0)) == 0.0
        assert tiou(Segment(0, 10, 0), Interval(5.0, 15.0)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_accepts_objects_with_attributes(self):
        assert tiou(Interval(0.0, 10.0), Segment(5, 15, 0)) == pytest.approx(1.0 / 3.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            tiou(Interval(3.0, 3.0), Segment(0, 1, 0))

    def test_equals_loop_oracle(self):
        # half-frame grid: touching, nested, identical and disjoint pairs all occur
        rng = Rng(18)
        for _ in range(500):
            sa, sb = rng.randint(20) / 2.0, rng.randint(20) / 2.0
            a = Interval(sa, sa + (1 + rng.randint(12)) / 2.0)
            b = Interval(sb, sb + (1 + rng.randint(12)) / 2.0)
            want = interval_iou(a.start, a.end, b.start, b.end)
            assert tiou(a, b) == want and type(tiou(a, b)) is float
            a = Interval(10.0 * rng.uniform(), 10.0 * rng.uniform() + 10.0)
            assert tiou(a, b) == interval_iou(a.start, a.end, b.start, b.end)


def tokens(gt, z):
    """The template tokens of ``gt``: ``frame_targets`` labels with the last
    logit column as background."""
    return frame_targets(gt, z.shape[0], z.shape[1] - 1)[0]


class TestTemplateLoss:
    def test_uniform_logits(self):
        z = np.zeros((10, 4))
        assert template_loss(z, tokens([Segment(0, 5, 1)], z)) == pytest.approx(math.log(4), abs=1e-12)

    def test_saturated_correct_tokens(self):
        L, C = 12, 3
        labels = np.full(L, C)
        labels[2:7] = 1
        z = np.full((L, C + 1), -50.0)
        z[np.arange(L), labels] = 50.0
        assert template_loss(z, tokens([Segment(2, 7, 1)], z)) <= 1e-12

    def test_matches_per_frame_oracle(self):
        rng = Rng(16)
        z = rng.normal_matrix(9, 4, 2.0)
        gt = [Segment(1, 4, 2), Segment(6, 8, 0)]
        labels = [3, 2, 2, 2, 3, 3, 0, 0, 3]
        expected = np.mean([cross_entropy_reference(z[l].tolist(), labels[l])
                            for l in range(9)])
        assert tokens(gt, z).tolist() == labels
        assert template_loss(z, tokens(gt, z)) == pytest.approx(expected, rel=1e-12)

    def test_overlapping_segments_rejected(self):
        # the tokens come from frame_targets, which rejects the overlap
        z = np.zeros((10, 4))
        with pytest.raises(ConfigError, match="overlap"):
            template_loss(z, tokens([Segment(0, 5, 1), Segment(4, 8, 2)], z))

    def test_grad(self):
        rng = Rng(17)
        gt = [Segment(2, 6, 1)]

        def f(z):
            return template_loss(z, tokens(gt, z)), template_loss_grad(z, tokens(gt, z))

        assert grad_check(f, rng.normal_matrix(8, 4)) < 1e-6


class TestFrameTargets:
    def test_background_and_bounds(self):
        labels, gs, ge = frame_targets([Segment(3, 6, 1)], 10, 4)
        assert labels.tolist() == [4, 4, 4, 1, 1, 1, 4, 4, 4, 4]
        assert gs[4] == 3.0 and ge[4] == 6.0
        assert gs[0] == 0.0 and ge[0] == 0.0

    def test_errors(self):
        with pytest.raises(ConfigError, match="out of bounds"):
            frame_targets([Segment(3, 60, 1)], 10, 4)
        with pytest.raises(ConfigError, match="label"):
            frame_targets([Segment(3, 6, 9)], 10, 4)
        with pytest.raises(ConfigError, match="overlap"):
            frame_targets([Segment(0, 5, 1), Segment(4, 7, 0)], 10, 4)


class TestForwardBackwardGradients:
    """Finite-difference checks through the whole forward pass, including
    the gate path in learned mode."""

    def composite_loss(self, state, vis, bundle, r1, r2, r3):
        state.zero_grads()
        fwd = forward_video(state, vis, bundle)
        loss = float((fwd.cls_scores * r1).sum()
                     + (fwd.offsets * r2).sum()
                     + (state.tmpl_out.forward(fwd.cls_feat)[0] * r3).sum())
        backward_video(state, fwd, r1.copy(), r2.copy(), r3.copy())
        return loss

    @pytest.mark.parametrize("mode", ["learned", "fixed", "language_only"])
    def test_every_parameter(self, mode):
        rng = Rng(18)
        cfg = tiny_model_config(lambda_mode=mode, fixed_lambda=0.6)
        state = ModelState(cfg, rng)
        L = 10
        vis = rng.normal_matrix(L, 5)
        bundle = random_bundle(rng, L, 5)
        r1 = rng.normal_matrix(L, 3)
        r2 = rng.normal_matrix(L, 2)
        r3 = rng.normal_matrix(L, 4)
        for name, p in state.named_params():
            def f(candidate, p=p):
                saved = p.value.copy()
                p.value[...] = candidate
                loss = self.composite_loss(state, vis, bundle, r1, r2, r3)
                grad = p.grad.copy()
                p.value[...] = saved
                return loss, grad

            err = grad_check(f, p.value.copy())
            assert err < 1e-4, f"{mode} gradient for {name} off by {err}"

    # pin: the learned model's parameters with the gate fixed at that value
    @pytest.mark.parametrize("mode, pin, gate_term", [
        ("learned", None, True),
        ("fixed", None, False),
        ("language_only", None, None),  # the advantage head never runs
        ("learned", 0.0, False),
    ])
    def test_advantage_gradient_routing(self, mode, pin, gate_term):
        rng = Rng(21)
        state = ModelState(tiny_model_config(lambda_mode=mode, fixed_lambda=0.6), rng)
        state = state if pin is None else gate_pinned(state, pin)
        L = 10
        vis = rng.normal_matrix(L, 5)
        bundle = random_bundle(rng, L, 5)
        r1, r2, r3 = rng.normal_matrix(L, 3), rng.normal_matrix(L, 2), rng.normal_matrix(L, 4)
        d_adv = rng.normal_matrix(L, 1)

        def adv_grads(d):
            state.zero_grads()
            fwd = forward_video(state, vis, bundle)
            backward_video(state, fwd, r1.copy(), r2.copy(), r3.copy(), d)
            return state.adv_fc.w.grad.copy(), state.adv_fc.b.grad.copy()

        w0, b0 = adv_grads(None)
        w1, b1 = adv_grads(d_adv)
        if gate_term is None:
            assert not w1.any() and not b1.any()
            return
        assert w0.any() == gate_term and b0.any() == gate_term
        np.testing.assert_allclose(w1 - w0, bundle.adv_stream.T @ d_adv, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(b1 - b0, d_adv.sum(axis=0, keepdims=True), rtol=1e-9, atol=1e-12)

    # skipped: conv layers that skip their input gradient; adv_fc, a Linear
    # whose input is the advantage stream, skips it whenever it runs backward
    @pytest.mark.parametrize("mode, language, pin, skipped, linear_skipped", [
        ("learned", False, None, 2, 0),        # vision-only pass
        ("fixed", True, None, 2, 1),
        ("language_only", True, None, 2, 0),   # adv_fc does not run
        ("learned", True, 0.0, 2, 1),          # the learned model's gate pinned at 0
        ("learned", True, None, 0, 1),         # dlambda/da reads the trunk-input gradients
    ])
    def test_skipped_input_gradients_keep_parameter_gradients(self, monkeypatch, mode, language,
                                                             pin, skipped, linear_skipped):
        rng = Rng(23)
        state = ModelState(tiny_model_config(lambda_mode=mode, fixed_lambda=0.6), rng)
        state = state if pin is None else gate_pinned(state, pin)
        L = 10
        vis = rng.normal_matrix(L, 5)
        bundle = random_bundle(rng, L, 5) if language else None
        r1, r2, r3 = rng.normal_matrix(L, 3), rng.normal_matrix(L, 2), rng.normal_matrix(L, 4)
        d_adv = rng.normal_matrix(L, 1) if language else None
        flags = {Conv1d: [], Linear: []}

        def grads(every_input_grad):
            for layer in flags:
                def spy(obj, saved, dout, input_grad=True, backward=layer.backward,
                        seen=flags[layer]):
                    seen.append(input_grad)
                    return backward(obj, saved, dout, input_grad or every_input_grad)

                monkeypatch.setattr(layer, "backward", spy)
            state.zero_grads()
            fwd = forward_video(state, vis, bundle)
            backward_video(state, fwd, r1.copy(), r2.copy(), r3.copy(), d_adv)
            monkeypatch.undo()
            return state.grads.copy()

        lean = grads(False)
        assert flags[Conv1d].count(False) == skipped  # the first conv layer of each trunk
        assert flags[Linear].count(False) == linear_skipped
        assert grads(True).tobytes() == lean.tobytes()

    def test_backward_of_an_older_pass_is_its_own(self):
        rng = Rng(24)
        state = ModelState(tiny_model_config(), rng)
        L = 8
        first, second = [(rng.normal_matrix(L, 5), random_bundle(rng, L, 5)) for _ in range(2)]
        r1, r2, r3 = rng.normal_matrix(L, 3), rng.normal_matrix(L, 2), rng.normal_matrix(L, 4)
        d_adv = rng.normal_matrix(L, 1)

        def grads(between):
            state.zero_grads()
            fwd = forward_video(state, *first)
            for vis, bundle in between:
                forward_video(state, vis, bundle)
            backward_video(state, fwd, r1.copy(), r2.copy(), r3.copy(), d_adv)
            return state.grads.copy()

        own = grads([])
        assert own.any()
        # the record holds all its pass's reads: other passes in between change no bit
        assert grads([second, (second[0], None)]).tobytes() == own.tobytes()

    def test_vision_mode_skips_language_params(self):
        rng = Rng(19)
        state = ModelState(tiny_model_config(), rng)
        vis = rng.normal_matrix(8, 5)
        state.zero_grads()
        fwd = forward_video(state, vis, None)
        backward_video(state, fwd, np.ones_like(fwd.cls_scores), np.ones_like(fwd.offsets),
                       np.zeros((8, 4)))
        assert np.array_equal(state.adv_fc.w.grad, np.zeros((5, 1)))
        assert np.array_equal(state.adv_fc.b.grad, np.zeros((1, 1)))


class TestStackedNms:
    """``nms`` on a stack of one-video tables equals ``nms_reference`` run
    on each video alone."""

    def check(self, videos_rows, threshold):
        got = nms(Proposals.stack(proposals_from_rows(rows) for rows in videos_rows), threshold)
        assert got.video.tolist() == sorted(got.video.tolist())
        assert video_rows(got, len(videos_rows)) == \
            [nms_reference(rows, threshold) for rows in videos_rows]

    @pytest.mark.parametrize("threshold", [0.3, 0.4, 0.5, 0.6, 0.7])
    def test_matches_reference_per_video(self, threshold):
        rng = Rng(31)
        for _ in range(40):
            videos = [random_rows(rng, rng.randint(30)) for _ in range(1 + rng.randint(8))]
            videos.insert(rng.randint(len(videos) + 1), [])  # an empty video
            videos.insert(rng.randint(len(videos) + 1), random_rows(rng, 1))  # a one-row video
            self.check(videos, threshold)

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.7])
    def test_one_label_and_tied_scores(self, threshold):
        rng = Rng(32)
        for _ in range(30):
            self.check([random_rows(rng, rng.randint(25), labels=1, levels=1)
                        for _ in range(1 + rng.randint(6))], threshold)

    def test_one_video_needs_many_more_rounds(self):
        rng = Rng(33)
        # 60 disjoint rows, all kept: 60 rounds, while the others stop after a few
        long = [(3.0 * i, 3.0 * i + 2.0, 0, 0.5) for i in range(60)]
        others = [random_rows(rng, 20) for _ in range(5)]
        for at in range(len(others) + 1):
            videos = others[:at] + [long] + others[at:]
            self.check(videos, 0.5)
        assert len(nms(Proposals.stack([proposals_from_rows(long)]), 0.5)) == 60

    def test_empty_stacks(self):
        assert len(nms(Proposals.stack([]), 0.5)) == 0
        assert video_rows(nms(Proposals.stack([proposals_from_rows([])] * 3), 0.5), 3) == \
            [[], [], []]

    def test_stack_numbers_videos_in_order(self):
        rng = Rng(34)
        videos = [random_rows(rng, n) for n in (0, 4, 1, 0, 7, 0)]
        tables = [proposals_from_rows(rows) for rows in videos]
        stacked = Proposals.stack(tables)
        assert stacked.video.tolist() == [i for i, rows in enumerate(videos) for _ in rows]
        assert video_rows(stacked, len(videos)) == [proposal_rows(t) for t in tables]

    def test_zero_length_interval_names_its_video(self):
        ok = [(0.0, 4.0, 0, 0.9)]
        bad = [(0.0, 4.0, 0, 0.9), (3.0, 3.0, 0, 0.5)]
        with pytest.raises(ValueError, match="in video 2"):
            nms(Proposals.stack(proposals_from_rows(r) for r in (ok, ok, bad, ok)), 0.5)
        # the same label in another video does not count
        alone = [(3.0, 3.0, 0, 0.5)]
        got = nms(Proposals.stack(proposals_from_rows(r) for r in (ok, alone, ok)), 0.5)
        assert video_rows(got, 3) == [ok, alone, ok]


class TestPrediction:
    def test_predict_video_deterministic(self):
        gen = GenConfig(num_classes=3, num_videos=2, frames=32, dim=8,
                        ambiguity=(0.2,) * 3, helpfulness=(0.5,) * 3, seed=1)
        corpus = generate_corpus(gen)
        state = ModelState(ModelConfig(dim=8, num_classes=3), Rng(2))
        v = corpus.videos[0]
        kept = []
        for _ in range(2):
            fwd = forward_video(state, v.vis, v.lang)
            kept.append(proposal_rows(nms(decode_proposals(fwd.cls_scores, fwd.offsets), NMS_TIOU)))
        assert kept[0] == kept[1]
        table, gates, gt = predict_corpus(state, corpus.videos)
        assert len(gates) == 2 and set(table.video.tolist()) <= {0, 1}
        assert list(gt.items()) == [(v.id, v.gt) for v in corpus.videos]

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("gate", [None, 0.0])
    def test_predict_corpus_equals_per_video_oracles(self, seed, gate):
        # 80 frames of 3 classes: up to 240 decoded rows a video, past the cut
        gen = GenConfig(num_classes=3, num_videos=6, frames=80, dim=8,
                        ambiguity=(0.2, 0.5, 0.8), helpfulness=(0.5,) * 3, seed=seed)
        corpus = generate_corpus(gen)
        # gate 0: the vision view, the records without their language
        videos = corpus.videos if gate is None else [VideoRecord(v.id, v.vis, None, v.gt)
                                                     for v in corpus.videos]
        state = ModelState(ModelConfig(dim=8, num_classes=3), Rng(seed))
        table, gates, gt = predict_corpus(state, videos)
        assert len(gates) == len(videos)
        assert list(gt.items()) == [(v.id, v.gt) for v in videos]  # in the order read
        kept = cut = 0
        for v, got, lam in zip(videos, video_rows(table, len(videos)), gates, strict=True):
            out = forward_video(state, v.vis, v.lang)
            decoded = decode_reference(out.cls_scores.tolist(), out.offsets.tolist(),
                                       SCORE_THRESHOLD, TOP_K_PRE_NMS)
            want = nms_reference(decoded, NMS_TIOU)
            assert got == want
            assert got == proposal_rows(nms(decode_proposals(out.cls_scores, out.offsets), NMS_TIOU))
            assert lam.shape == (v.vis.shape[0], 1) and lam.tobytes() == out.lam.tobytes()
            assert gate is None or not lam.any()
            kept += len(want) < len(decoded)
            cut += len(decoded) == TOP_K_PRE_NMS
        assert kept >= 3  # NMS dropped rows in most videos
        assert cut >= 3  # and decoding cut the table in most

    def test_no_forward_record_outlives_its_video(self, monkeypatch):
        import talgate.model as model
        gen = GenConfig(num_classes=3, num_videos=4, frames=32, dim=8,
                        ambiguity=(0.2,) * 3, helpfulness=(0.5,) * 3, seed=5)
        corpus = generate_corpus(gen)
        state = ModelState(ModelConfig(dim=8, num_classes=3), Rng(5))
        forward_video, decode = model.forward_video, model.decode_proposals
        records, alive = [], []

        def check_dropped():
            alive.extend(i for i, ref in enumerate(records) if ref() is not None)

        def spy_forward(*args):
            check_dropped()
            fwd = forward_video(*args)
            records.append(weakref.ref(fwd))
            return fwd

        def spy_decode(*args):
            check_dropped()
            return decode(*args)

        monkeypatch.setattr(model, "forward_video", spy_forward)
        monkeypatch.setattr(model, "decode_proposals", spy_decode)
        model.predict_corpus(state, corpus.videos)
        # each record is gone before its scores are decoded and before the next pass runs
        assert len(records) == 4 and alive == []


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        state = ModelState(tiny_model_config(lambda_mode="fixed", fixed_lambda=0.4), Rng(20))
        p = tmp_path / "model.ckpt"
        save_checkpoint(state, p)
        back = load_checkpoint(p)
        assert back.cfg == state.cfg
        for (name_a, pa), (name_b, pb) in zip(state.named_params(), back.named_params()):
            assert name_a == name_b
            assert pa.value.tobytes() == pb.value.tobytes()

    def test_save_is_byte_stable(self, tmp_path):
        state = ModelState(tiny_model_config(), Rng(21))
        save_checkpoint(state, tmp_path / "a.ckpt")
        save_checkpoint(state, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        assert (tmp_path / "a.ckpt.json").read_text() == (tmp_path / "b.ckpt.json").read_text()

    def test_missing_sidecar(self, tmp_path):
        state = ModelState(tiny_model_config(), Rng(22))
        save_checkpoint(state, tmp_path / "m.ckpt")
        (tmp_path / "m.ckpt.json").unlink()
        with pytest.raises(FormatError, match="sidecar"):
            load_checkpoint(tmp_path / "m.ckpt")

    def test_bad_sidecar_json(self, tmp_path):
        state = ModelState(tiny_model_config(), Rng(23))
        save_checkpoint(state, tmp_path / "m.ckpt")
        (tmp_path / "m.ckpt.json").write_text("{broken")
        with pytest.raises(FormatError, match="sidecar"):
            load_checkpoint(tmp_path / "m.ckpt")

    def test_missing_parameter_detected(self, tmp_path):
        from talgate import blobio
        state = ModelState(tiny_model_config(), Rng(24))
        p = tmp_path / "m.ckpt"
        save_checkpoint(state, p)
        items = blobio.read_named_matrices(p)
        blobio.write_named_matrices(p, items[:-1])
        with pytest.raises(FormatError, match="lacks parameter"):
            load_checkpoint(p)

    def test_shape_mismatch_detected(self, tmp_path):
        from talgate import blobio
        state = ModelState(tiny_model_config(), Rng(25))
        p = tmp_path / "m.ckpt"
        save_checkpoint(state, p)
        items = blobio.read_named_matrices(p)
        items[0] = (items[0][0], np.zeros((9, 9)))
        blobio.write_named_matrices(p, items)
        with pytest.raises(FormatError, match="shape"):
            load_checkpoint(p)

    def test_unknown_parameter_detected(self, tmp_path):
        from talgate import blobio
        state = ModelState(tiny_model_config(), Rng(26))
        p = tmp_path / "m.ckpt"
        save_checkpoint(state, p)
        items = blobio.read_named_matrices(p)
        items.append(("mystery", np.zeros((1, 1))))
        blobio.write_named_matrices(p, items)
        with pytest.raises(FormatError, match="mystery"):
            load_checkpoint(p)


class TestParameterStore:
    def check_store(self, state):
        """Every Param is a view into the flat stores, laid out in
        named_params order, and together they cover the stores exactly."""
        params = [p for _, p in state.named_params()]
        for p in params:
            assert np.shares_memory(p.value, state.values)
            assert np.shares_memory(p.grad, state.grads)
        n = state.values.size
        state.values[...] = np.arange(n)
        state.grads[...] = -np.arange(n)
        assert np.array_equal(np.concatenate([p.value.ravel() for p in params]), np.arange(n))
        assert np.array_equal(np.concatenate([p.grad.ravel() for p in params]), -np.arange(n))
        state.zero_grads()
        assert not any(p.grad.any() for p in params)

    def test_params_are_views_of_the_store(self):
        self.check_store(ModelState(tiny_model_config(), Rng(27)))

    def test_loaded_params_are_views_of_the_store(self, tmp_path):
        state = ModelState(tiny_model_config(), Rng(28))
        save_checkpoint(state, tmp_path / "m.ckpt")
        back = load_checkpoint(tmp_path / "m.ckpt")
        assert back.values.tobytes() == state.values.tobytes()
        self.check_store(back)
