"""Evaluation metrics: AP/mAP against a brute-force reference, robustness
and degeneracy rates, gate statistics, probe, and the report format."""

import json
import logging
import math

import jsonschema
import numpy as np
import pytest

from conftest import aligned_lap
from oracles import ap_reference, corpus_table, hallucination_reference, proposal_rows
from talgate.errors import ConfigError, FormatError
from talgate.metrics import (HALLUCINATION_TOP_K, PROBE_SPAN_THRESHOLDS, REPORT_SCHEMA,
                             TIOU_THRESHOLDS, DifficultyBuckets, MetricsReport,
                             ProbeStats, ambiguity_probe, ap_by_class,
                             average_precision, canonical_json,
                             difficulty_buckets, hallucination_rates, lap, map_at,
                             _report_validator, mla, validate_report)
from talgate.model import (NMS_TIOU, SCORE_THRESHOLD, ModelConfig, ModelState,
                           decode_proposals, forward_video, nms, predict_corpus)
from talgate.nn import Rng
from talgate.synthgen import (GenConfig, Segment, generate_corpus, generate_distractors,
                              inject_conflict, open_corpus, write_corpus)

S = Segment


def P(start, end, label, score):
    """One proposal row."""
    return (start, end, label, score)


class TestAveragePrecision:
    def test_perfect_detector(self):
        gt = {"v0": [S(0, 10, 0), S(20, 30, 1)], "v1": [S(5, 15, 0)]}
        props = {vid: [P(float(s.start), float(s.end), s.label, 0.9) for s in segs]
                 for vid, segs in gt.items()}
        for label in (0, 1):
            assert average_precision(corpus_table(props), gt, label, 0.7) == 1.0
        per_t, avg = map_at(corpus_table(props), gt)
        assert avg == 1.0 and all(v == 1.0 for v in per_t.values())

    def test_disjoint_proposals_score_zero(self):
        gt = {"v0": [S(0, 10, 0)]}
        props = {"v0": [P(50.0, 60.0, 0, 0.9)]}
        assert average_precision(corpus_table(props), gt, 0, 0.5) == 0.0

    def test_no_ground_truth_returns_none(self):
        assert average_precision(corpus_table({"v0": [P(0.0, 5.0, 2, 0.9)]}), {"v0": []}, 2, 0.5) is None

    def test_half_recall_single_step(self):
        gt = {"v0": [S(0, 10, 0), S(100, 110, 0)]}
        props = {"v0": [P(0.0, 10.0, 0, 0.9)]}
        assert average_precision(corpus_table(props), gt, 0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_matches_brute_force_reference(self):
        rng = Rng(50)
        for _ in range(10):
            gt, props = {}, {}
            for vid in ("v0", "v1", "v2"):
                gt[vid] = []
                cursor = 0.0
                for _ in range(rng.randint(4)):
                    cursor += 2.0 + rng.uniform() * 10.0
                    end = cursor + 3.0 + rng.uniform() * 12.0
                    gt[vid].append(S(cursor, end, rng.randint(3)))
                    cursor = end
                props[vid] = []
                for _ in range(rng.randint(8)):
                    s = rng.uniform() * 50.0
                    e = s + 1.0 + rng.uniform() * 15.0
                    props[vid].append(P(s, e, rng.randint(3), round(rng.uniform(), 3)))
            tuple_gt = {vid: [(g.start, g.end, g.label) for g in gs]
                        for vid, gs in gt.items()}
            for label in range(3):
                for t in TIOU_THRESHOLDS:
                    got = average_precision(corpus_table(props), gt, label, t)
                    want = ap_reference(props, tuple_gt, label, t)
                    if want is None:
                        assert got is None
                    else:
                        assert got == pytest.approx(want, abs=1e-9)

    def test_matches_reference_with_ties(self):
        rng = Rng(53)
        for _ in range(100):
            # whole-frame bounds and three score levels: tied scores across
            # videos, shared starts and ends, proposals equally close to two
            # ground-truth segments, tIoU exactly at a threshold
            gt, props = {}, {}
            for vid in ("v0", "v1", "v2", "v3"):
                gt[vid] = []
                for _ in range(rng.randint(4)):
                    s = rng.randint(12)
                    gt[vid].append(S(s, s + 1 + rng.randint(5), rng.randint(2)))
                props[vid] = []
                for _ in range(rng.randint(10)):
                    s = float(rng.randint(8))
                    props[vid].append(P(s, s + 1.0 + rng.randint(5), rng.randint(2),
                                        (1 + rng.randint(3)) / 4.0))
            tuple_gt = {vid: [(g.start, g.end, g.label) for g in gs] for vid, gs in gt.items()}
            for label in range(2):
                for t in (0.2, 0.25, 0.5, 0.75):
                    got = average_precision(corpus_table(props), gt, label, t)
                    want = ap_reference(props, tuple_gt, label, t)
                    assert (got is None) == (want is None)
                    if want is not None:
                        assert got == pytest.approx(want, abs=1e-12)

    def test_equal_overlap_matches_first_ground_truth(self):
        # (2, 6) overlaps both segments by 1/3; it takes the first, so
        # (0, 4) finds its segment taken and is a false positive
        gt = {"v0": [S(0, 4, 0), S(4, 8, 0)]}
        props = {"v0": [P(2.0, 6.0, 0, 0.9), P(0.0, 4.0, 0, 0.8)]}
        assert average_precision(corpus_table(props), gt, 0, 0.3) == 0.5

    def test_monotone_in_threshold(self):
        rng = Rng(51)
        gt = {"v0": [S(i * 20, i * 20 + 10, 0) for i in range(5)]}
        props = {"v0": [P(i * 20 + rng.uniform() * 6.0, i * 20 + 10 + rng.uniform() * 6.0,
                          0, rng.uniform()) for i in range(5)]}
        aps = [average_precision(corpus_table(props), gt, 0, t) for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a >= b - 1e-12 for a, b in zip(aps, aps[1:]))

    def test_invariant_under_monotone_rescoring(self):
        rng = Rng(52)
        gt = {"v0": [S(0, 10, 0), S(30, 42, 0), S(60, 70, 0)]}
        props = {"v0": []}
        for _ in range(12):
            s = rng.uniform() * 70.0
            props["v0"].append(P(s, s + 5.0 + rng.uniform() * 10.0, 0,
                                 0.1 + 0.8 * rng.uniform()))
        rescored = {"v0": [P(start, end, label, 0.05 + 0.5 * score ** 2)
                           for start, end, label, score in props["v0"]]}
        for t in (0.3, 0.5):
            assert average_precision(corpus_table(props), gt, 0, t) == \
                pytest.approx(average_precision(corpus_table(rescored), gt, 0, t), abs=1e-12)


def random_case(rng):
    """Ground truth and proposal rows of classes 0-2 with whole-frame bounds
    and three score levels: tied scores, shared bounds, tIoU exactly at a
    threshold."""
    gt, props = {}, {}
    for vid in ("v0", "v1", "v2", "v3"):
        gt[vid] = []
        for _ in range(rng.randint(4)):
            s = rng.randint(12)
            gt[vid].append(S(s, s + 1 + rng.randint(5), rng.randint(3)))
        props[vid] = []
        for _ in range(rng.randint(10)):
            s = float(rng.randint(8))
            props[vid].append(P(s, s + 1.0 + rng.randint(5), rng.randint(3),
                                (1 + rng.randint(3)) / 4.0))
    return gt, props


def test_ties_go_by_video_id_not_read_order():
    # the videos are read v2, v0, v3, v1: tied scores across videos rank by
    # id, as in ap_reference, whatever the table's video numbers
    rng = Rng(55)
    thresholds = (0.2, 0.25, 0.5, 0.75)
    order_decided = 0
    for _ in range(60):
        gt, props = random_case(rng)
        read = ("v2", "v0", "v3", "v1")
        gt, props = {v: gt[v] for v in read}, {v: props[v] for v in read}
        tuple_gt = {v: [(g.start, g.end, g.label) for g in gs] for v, gs in gt.items()}
        got = ap_by_class(corpus_table(props), gt, range(3), thresholds)
        for c in range(3):
            want = [ap_reference(props, tuple_gt, c, t) for t in thresholds]
            assert [a is None for a in got[c]] == [a is None for a in want]
            if want[0] is not None:
                assert got[c] == pytest.approx(want, abs=1e-12)
                # the same videos renamed so that id order is read order
                renamed = [ap_reference({f"r{i}": props[v] for i, v in enumerate(read)},
                                        {f"r{i}": tuple_gt[v] for i, v in enumerate(read)}, c, t)
                           for t in thresholds]
                order_decided += renamed != pytest.approx(want, abs=1e-12)
    assert order_decided >= 20


class TestMapAt:
    def test_equals_per_class_threshold_loop(self):
        rng = Rng(54)
        thresholds = (0.2, 0.25, 0.5, 0.75)
        for _ in range(40):
            gt, props = random_case(rng)
            t = corpus_table(props)
            classes = sorted({s.label for segs in gt.values() for s in segs})
            if not classes:
                continue
            per_t, avg = map_at(t, gt, thresholds)
            want = {th: float(np.mean([average_precision(t, gt, c, th) for c in classes]))
                    for th in thresholds}
            assert per_t == want
            assert avg == float(np.mean(list(want.values())))
            # every class, one without ground truth included (class 3)
            assert ap_by_class(t, gt, range(4), thresholds) == \
                {c: [average_precision(t, gt, c, th) for th in thresholds] for c in range(4)}

    def test_requires_ground_truth_and_thresholds(self):
        with pytest.raises(ConfigError, match="ground truth"):
            map_at(corpus_table({"v0": []}), {"v0": []})
        with pytest.raises(ConfigError, match="threshold"):
            map_at(corpus_table({"v0": []}), {"v0": [S(0, 5, 0)]}, thresholds=())

    def test_orphaned_class_logged_and_excluded(self, caplog):
        gt = {"v0": [S(0, 10, 0)]}
        props = {"v0": [P(0.0, 10.0, 0, 0.9), P(0.0, 10.0, 5, 0.9)]}
        with caplog.at_level(logging.INFO, logger="talgate.metrics"):
            per_t, avg = map_at(corpus_table(props), gt, thresholds=(0.5,))
        assert avg == 1.0
        assert any("class 5" in r.message for r in caplog.records)

    def test_average_over_thresholds(self):
        gt = {"v0": [S(0, 10, 0)]}
        props = {"v0": [P(0.0, 8.0, 0, 0.9)]}  # tIoU 0.8
        per_t, avg = map_at(corpus_table(props), gt, thresholds=(0.5, 0.9))
        assert per_t == {0.5: 1.0, 0.9: 0.0}
        assert avg == 0.5


def small_eval_corpus(seed=60):
    cfg = GenConfig(num_classes=3, num_videos=6, frames=64, dim=8,
                    ambiguity=(0.3,) * 3, helpfulness=(0.7,) * 3, seed=seed)
    return generate_corpus(cfg)


class TestLap:
    def test_zero_gate_is_immune_by_construction(self):
        corpus = small_eval_corpus()
        state = ModelState(ModelConfig(dim=8, num_classes=3, lambda_mode="fixed",
                                       fixed_lambda=0.0), Rng(0))
        assert aligned_lap(state, corpus) == 0.0

    def test_matches_direct_map_difference(self):
        corpus = small_eval_corpus(seed=62)
        twin = list(map(inject_conflict(corpus.config), corpus.videos))
        state = ModelState(ModelConfig(dim=8, num_classes=3), Rng(2))
        kept, _, gt = predict_corpus(state, corpus.videos)
        _, ma = map_at(kept, gt)
        kept, _, gt = predict_corpus(state, twin)
        _, mc = map_at(kept, gt)
        assert aligned_lap(state, corpus) == pytest.approx(100.0 * (ma - mc), abs=1e-12)
        # the twin scored on its own and in the corpus's read give the same drop
        assert lap(ma, kept, gt) == aligned_lap(state, corpus)
        # the corpus's vision views, without language, give the same twin and so the same drop
        views = [v.vision_view() for v in corpus.videos]
        assert lap(ma, predict_corpus(state, views, inject_conflict(corpus.config))[3], gt) \
            == lap(ma, kept, gt)

    def test_stored_corpus_reads_each_blob_once(self, tmp_path, monkeypatch):
        import talgate.blobio as blobio
        corpus = small_eval_corpus(seed=63)
        write_corpus(corpus, tmp_path)
        state = ModelState(ModelConfig(dim=8, num_classes=3), Rng(3))
        reads, read_matrix = [], blobio.read_matrix

        def counted(path):
            reads.append(path.name)
            return read_matrix(path)

        monkeypatch.setattr(blobio, "read_matrix", counted)
        # the twin is scored in the corpus's own read
        _, _, gt, twin = predict_corpus(state, open_corpus(tmp_path).videos,
                                        inject_conflict(corpus.config))
        drop = lap(0.5, twin, gt)
        monkeypatch.undo()
        assert reads == [f"{v.id}.bin" for v in corpus.videos]  # one blob per video, read once
        held = predict_corpus(state, map(inject_conflict(corpus.config), corpus.videos))[0]
        assert drop == lap(0.5, held, gt)


def disjoint_props(rng, n, label=0):
    props = []
    for i in range(n):
        s = i * 40.0 + rng.uniform() * 5.0
        props.append(P(s, s + 8.0 + rng.uniform() * 4.0, label, 0.9 - 0.01 * i))
    return props


class TestHallucinationRates:
    def test_empty(self):
        assert hallucination_rates(corpus_table({}), 0) == (0.0, 0.0)

    def test_identical_outputs_everywhere(self):
        shared = [P(0.0, 10.0, 0, 0.9), P(20.0, 30.0, 1, 0.8)]
        fixed, infinite = hallucination_rates(corpus_table({f"v{i}": list(shared) for i in range(5)}), 5)
        assert fixed == 1.0 and infinite == 0.0

    def test_unique_outputs(self):
        rng = Rng(70)
        per_video = {f"v{i}": [P(i * 100.0 + rng.uniform(), i * 100.0 + 10.0, 0, 0.9)]
                     for i in range(6)}
        assert hallucination_rates(corpus_table(per_video), len(per_video)) == (0.0, 0.0)

    def test_half_corpus_shares_one_output(self):
        rng = Rng(71)
        shared = [P(0.0, 10.0, 0, 0.9)]
        per_video = {f"s{i}": list(shared) for i in range(4)}
        for i in range(4):
            per_video[f"u{i}"] = [P(200.0 + 17.0 * i, 215.0 + 17.0 * i, 0, 0.9)]
        fixed, _ = hallucination_rates(corpus_table(per_video), len(per_video))
        assert fixed == 0.5

    def test_triple_near_duplicates_flagged(self):
        trio = [P(0.0, 100.0, 2, 0.9), P(0.0, 99.0, 2, 0.8), P(1.0, 100.0, 2, 0.7)]
        _, infinite = hallucination_rates(corpus_table({"v0": trio, "v1": disjoint_props(Rng(72), 3)}), 2)
        assert infinite == 0.5

    def test_pairs_and_cross_class_do_not_count(self):
        pair = [P(0.0, 100.0, 2, 0.9), P(0.0, 99.0, 2, 0.8)]
        mixed = [P(0.0, 100.0, 0, 0.9), P(0.0, 99.0, 1, 0.8), P(1.0, 100.0, 2, 0.7)]
        assert hallucination_rates(corpus_table({"v0": pair, "v1": mixed}), 2)[1] == 0.0

    def test_borderline_overlap_not_near_duplicate(self):
        trio = [P(0.0, 100.0, 0, 0.9), P(0.0, 95.0, 0, 0.8), P(5.0, 100.0, 0, 0.7)]
        assert hallucination_rates(corpus_table({"v0": trio, "v1": trio}), 2)[1] == 0.0

    def test_top_k_cutoff_hides_low_ranked_triples(self):
        rng = Rng(73)
        filler = disjoint_props(rng, 10, label=1)
        trio = [P(1000.0, 1100.0, 0, 0.01), P(1000.0, 1099.0, 0, 0.01),
                P(1001.0, 1100.0, 0, 0.01)]
        per_video = {"v0": filler + trio, "v1": disjoint_props(rng, 2)}
        _, infinite = hallucination_rates(corpus_table(per_video), 2)
        assert infinite == 0.0

    def test_empty_video_and_one_past_top_k(self):
        # v1 shows a near-duplicate trio only below its top 10 rows, v2 one
        # within them; the empty videos v0 and v3 share their (empty) output
        filler = disjoint_props(Rng(76), 10, label=1)
        low = [P(1000.0, 1100.0, 0, 0.01), P(1000.0, 1099.0, 0, 0.01), P(1001.0, 1100.0, 0, 0.01)]
        high = [P(0.0, 100.0, 2, 0.9), P(0.0, 99.0, 2, 0.8), P(1.0, 100.0, 2, 0.7)]
        props = {"v0": [], "v1": filler + low, "v2": high, "v3": []}
        got = hallucination_rates(corpus_table(props), 4)
        assert got == hallucination_reference(props, HALLUCINATION_TOP_K) == (0.5, 0.25)

    def test_matches_loop_oracle(self):
        rng = Rng(74)
        seen_fixed = seen_infinite = 0
        for _ in range(80):
            # long intervals whose bounds move by half frames: pairs on both
            # sides of tIoU 0.95, tied scores; some videos copy the first
            # one's rows shifted by 0 or 0.5, which rounds half to even
            props = {}
            for i in range(1 + rng.randint(6)):
                if i and rng.randint(2):
                    shift = rng.randint(2) / 2.0
                    props[f"v{i}"] = [P(s + shift, e + shift, c, sc) for s, e, c, sc in props["v0"]]
                    continue
                props[f"v{i}"] = []
                for _ in range(rng.randint(14)):
                    base = 200.0 * rng.randint(2)
                    props[f"v{i}"].append(P(base + rng.randint(12) / 2.0,
                                            base + 100.0 - rng.randint(12) / 2.0,
                                            rng.randint(2), (1 + rng.randint(4)) / 4.0))
            for top_k in (3, 10):
                got = hallucination_rates(corpus_table(props), len(props), top_k)
                assert got == hallucination_reference(props, top_k)
                seen_fixed += 0.0 < got[0] < 1.0
                seen_infinite += 0.0 < got[1] < 1.0
        assert seen_fixed >= 10 and seen_infinite >= 10


class TestMla:
    def test_constant_gate(self):
        tracks = [np.full(20, 0.5), np.full(20, 0.5)]
        gt = [[S(2, 8, 0)], [S(5, 15, 1)]]
        assert mla(tracks, {0, 1}, gt) == 0.5

    def test_matches_loop_oracle(self):
        rng = Rng(80)
        tracks = [rng.normal_matrix(30, 1) ** 2 for _ in range(4)]
        gt = [[S(0, 10, 0), S(15, 25, 2)], [S(5, 20, 1)], [S(2, 12, 2)], []]
        bucket = {0, 2}
        values = []
        for lam, segs in zip(tracks, gt):
            for seg in segs:
                if seg.label in bucket:
                    values.extend(lam[seg.start:seg.end, 0].tolist())
        assert mla(tracks, bucket, gt) == pytest.approx(np.mean(values), rel=1e-12)

    def test_errors(self):
        tracks = [np.zeros(10)]
        gt = [[S(0, 5, 0)]]
        with pytest.raises(ConfigError, match="empty"):
            mla(tracks, set(), gt)
        with pytest.raises(ConfigError, match="1 lambda"):
            mla(tracks, {0}, gt + [[]])

    def test_no_matching_segments(self):
        assert mla([np.ones(10)], {5}, [[S(0, 5, 0)]]) == 0.0


class TestDifficultyBuckets:
    def test_tertiles(self):
        ap = {0: 0.9, 1: 0.1, 2: 0.5, 3: 0.95, 4: 0.2, 5: 0.6}
        assert difficulty_buckets(ap) == DifficultyBuckets((1, 4), (2, 5), (0, 3))

    def test_ties_break_by_class_index(self):
        ap = {c: 0.5 for c in range(6)}
        assert difficulty_buckets(ap) == DifficultyBuckets((0, 1), (2, 3), (4, 5))

    def test_fewer_than_three_classes(self):
        assert difficulty_buckets({0: 0.3, 1: 0.9}) == DifficultyBuckets((), (0, 1), ())

    def test_eight_classes(self):
        ap = {c: c / 10.0 for c in range(8)}
        buckets = difficulty_buckets(ap)
        assert buckets == DifficultyBuckets((0, 1), (2, 3, 4, 5), (6, 7))


def constant_output_state(frames, score, num_classes=2, dim=6):
    """A handcrafted model that proposes [0, frames) at a fixed score on
    class 0 for every frame, regardless of input."""
    cfg = ModelConfig(dim=dim, num_classes=num_classes, lambda_mode="fixed", fixed_lambda=0.0)
    state = ModelState(cfg, Rng(0))
    state.cls_out.w.value[...] = 0.0
    state.cls_out.b.value[...] = -50.0
    state.cls_out.b.value[0, 0] = math.log(score / (1.0 - score))
    state.loc_out.w.value[...] = 0.0
    state.loc_out.b.value[...] = float(frames)
    return state


def probe_config(num=3, dim=6):
    """A corpus config whose no-action probe scores ``num`` clips."""
    return GenConfig(num_classes=2, num_videos=num, frames=48, dim=dim,
                     ambiguity=(0.5, 0.5), helpfulness=(0.5, 0.5), seed=90)


class TestAmbiguityProbe:
    def test_silent_model(self, caplog):
        state = constant_output_state(48, 0.5)
        state.cls_out.b.value[...] = -50.0  # below every decode threshold
        with caplog.at_level(logging.INFO, logger="talgate.metrics"):
            stats = ambiguity_probe(state, probe_config())
        assert stats == ProbeStats(0.0, 0.0, {0.3: 1.0, 0.5: 1.0, 0.7: 1.0})
        assert any("no proposals" in r.message for r in caplog.records)

    def test_full_span_confident_model(self):
        stats = ambiguity_probe(constant_output_state(48, 0.8), probe_config())
        assert stats.mconf == pytest.approx(0.8, abs=1e-12)
        assert stats.mlen == pytest.approx(1.0, abs=1e-12)
        assert stats.acc_at == {0.3: 0.0, 0.5: 0.0, 0.7: 0.0}

    def test_empty_clip_list(self):
        # a config with no videos has no clips, and is rejected before any is scored
        with pytest.raises(ConfigError, match="num_videos must be >= 1"):
            ambiguity_probe(constant_output_state(48, 0.8), probe_config(num=0))

    # scores at least 0.75 clear the decode threshold once the class biases drop by
    # logit(0.75) - logit(SCORE_THRESHOLD): then clips 4 and 7 of the eight decode
    # no rows and the others do
    @pytest.mark.parametrize("seed, cleared", [(5, 0.01), (6, 0.01), (5, 0.75)],
                             ids=["5-200", "6-200", "5-200-mixed"])
    def test_top_row_is_first_row_kept_by_nms(self, seed, cleared, caplog):
        cfg = probe_config(num=8)
        clips = list(generate_distractors(cfg))
        state = ModelState(ModelConfig(dim=6, num_classes=2), Rng(seed))
        state.cls_out.b.value[...] -= (math.log(cleared / (1.0 - cleared))
                                       - math.log(SCORE_THRESHOLD / (1.0 - SCORE_THRESHOLD)))
        confs, spans, suppressed, silent = [], [], 0, []
        for v in clips:
            fwd = forward_video(state, v.vis, v.lang)
            decoded = decode_proposals(fwd.cls_scores, fwd.offsets)
            kept = nms(decoded, NMS_TIOU)
            assert proposal_rows(decoded)[:1] == proposal_rows(kept)[:1]
            suppressed += len(kept) < len(decoded)
            if not len(kept):
                silent.append(v.id)
            top = proposal_rows(kept)[0] if len(kept) else (0.0, 0.0, 0, 0.0)
            confs.append(top[3])
            spans.append((top[1] - top[0]) / v.vis.shape[0])
        assert suppressed > 0
        assert len(silent) == (2 if cleared > 0.5 else 0)  # a mixed probe
        want = ProbeStats(float(np.mean(confs)), float(np.mean(spans)),
                          {t: float(np.mean([s < t for s in spans])) for t in PROBE_SPAN_THRESHOLDS})
        with caplog.at_level(logging.INFO, logger="talgate.metrics"):
            assert ambiguity_probe(state, cfg) == want
        assert [r.args[0] for r in caplog.records if "no proposals" in r.message] == silent


class TestCanonicalJson:
    def test_golden_rendering(self):
        text = canonical_json({"b": 1.0, "a": {"x": [1, 2.5]}, "flag": True, "c": None})
        assert text == (
            '{\n'
            '  "a": {\n'
            '    "x": [\n'
            '      1,\n'
            '      2.500000\n'
            '    ]\n'
            '  },\n'
            '  "b": 1.000000,\n'
            '  "c": null,\n'
            '  "flag": true\n'
            '}\n'
        )

    def test_stable_across_calls(self):
        payload = {"z": [0.1, 0.2], "a": {"k": 3}}
        assert canonical_json(payload) == canonical_json(payload)

    def test_empty_containers(self):
        assert canonical_json({}) == "{}\n"
        assert canonical_json([]) == "[]\n"

    def test_one_spelling_of_zero(self):
        assert canonical_json([-0.0, -1e-9, 0.0, -1e-6]) == \
            "[\n  0.000000,\n  0.000000,\n  0.000000,\n  -0.000001\n]\n"

    def test_rejects_non_finite(self):
        with pytest.raises(FormatError, match="non-finite"):
            canonical_json({"x": float("inf")})

    def test_rejects_non_string_keys(self):
        with pytest.raises(FormatError, match="string keys"):
            canonical_json({1: "a"})

    def test_rejects_unknown_types(self):
        with pytest.raises(FormatError, match="set"):
            canonical_json({"x": {1, 2}})


def full_report(**overrides):
    base = dict(
        map_per_threshold={t: 0.5 for t in TIOU_THRESHOLDS},
        map_avg=0.5, fixed_rate=0.0, infinite_rate=0.0, lap=1.25,
        mla_per_bucket={"hard": 0.4, "medium": 0.3, "easy": 0.2},
        mconf=0.6, mlen=0.3, acc_at={0.3: 0.1, 0.5: 0.4, 0.7: 0.9},
    )
    base.update(overrides)
    return MetricsReport(**base)


class TestMetricsReport:
    def test_threshold_keys_are_two_decimals(self):
        d = full_report().to_dict()
        assert set(d["map_per_threshold"]) == {"0.30", "0.40", "0.50", "0.60", "0.70"}
        assert set(d["acc_at"]) == {"0.30", "0.50", "0.70"}

    def test_json_round_trip_validates(self):
        text = full_report().to_json()
        payload = json.loads(text)
        assert validate_report(payload) is payload
        assert payload["lap"] == 1.25
        assert canonical_json(payload) == text

    def test_optional_fields_may_be_null(self):
        text = full_report(lap=None, mla_per_bucket=None, mconf=None, mlen=None,
                           acc_at=None).to_json()
        payload = json.loads(text)
        assert payload["lap"] is None and payload["acc_at"] is None

    def test_out_of_range_value_rejected(self):
        with pytest.raises(FormatError, match="schema"):
            full_report(map_avg=1.5).to_json()

    def test_unknown_keys_rejected(self):
        payload = json.loads(full_report().to_json())
        payload["extra"] = 1
        with pytest.raises(FormatError, match="schema"):
            validate_report(payload)

    def test_bad_threshold_key_rejected(self):
        payload = json.loads(full_report().to_json())
        payload["map_per_threshold"]["0.333"] = 0.5
        with pytest.raises(FormatError, match="schema"):
            validate_report(payload)

    def test_schema_is_a_valid_schema(self):
        jsonschema.validators.validator_for(REPORT_SCHEMA).check_schema(REPORT_SCHEMA)

    def test_validator_is_built_once(self):
        assert _report_validator() is _report_validator()
        assert _report_validator().schema is REPORT_SCHEMA

    def test_message_names_the_violation(self):
        with pytest.raises(FormatError) as exc:
            full_report(map_avg=1.5).to_json()
        assert str(exc.value) == "metrics report violates schema: 1.5 is greater than the maximum of 1"

    @pytest.mark.parametrize("changes", [
        {"map_avg": -0.5}, {"lap": "high", "extra": 1}, {"fixed_rate": None},
        {"acc_at": {"0.3": 0.5}}, {"mla_per_bucket": {"hard": 2.0, "tough": 0.1}},
        {"fixed_rate": 2.0, "mconf": 3.0},  # the best match is not the first error found
    ])
    def test_message_matches_jsonschema_validate(self, changes):
        payload = json.loads(full_report().to_json())
        for key, value in changes.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = value
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(payload, REPORT_SCHEMA)
        with pytest.raises(FormatError) as got:
            validate_report(payload)
        assert str(got.value) == f"metrics report violates schema: {want.value.message}"
