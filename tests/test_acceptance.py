"""End-to-end acceptance checks.

Each test verifies one headline guarantee of the package at a pinned
tolerance and prints a single summary line.  The heavyweight benchmark
fixture (three fully trained seeds) is shared with the unit suite.
"""

import json
import time

import numpy as np
import pytest

from conftest import aligned_lap, gate_pinned
from oracles import (ap_reference, corpus_table, grad_check, nms_reference, proposal_rows,
                     proposals_from_rows)
from talgate.cli import main
from talgate.metrics import (TIOU_THRESHOLDS, ambiguity_probe, average_precision,
                             difficulty_buckets, mla)
from talgate.model import (ModelConfig, ModelState, backward_video, forward_video,
                           frame_targets, lambda_from_advantage, nms, predict_corpus,
                           template_loss, template_loss_grad)
from talgate.nn import (Conv1d, Linear, Rng, diou_loss, focal_loss, relu,
                        relu_grad, sigmoid)
from talgate.synthgen import LanguageBundle, Segment
from talgate.train import (FrameTargets, TrainConfig, advantage_loss, detection_loss,
                           target_advantage)

pytestmark = pytest.mark.slow  # the three-seed fixture trains nine stock models

PASS_BAR = 2  # of the three benchmark seeds


def announce(slug: str, ok: bool, details: str) -> bool:
    print(f"acceptance[{slug}]: {'PASS' if ok else 'FAIL'} ({details})")
    return ok


def module_grad_errors(mod, x0, R):
    """Worst finite-difference error for a layer: input, weights, bias."""
    def f_x(x):
        mod.w.grad[...] = 0.0
        mod.b.grad[...] = 0.0
        y, reads = mod.forward(x)
        return float((y * R).sum()), mod.backward(reads, R)

    errs = [grad_check(f_x, x0)]
    for p in (mod.w, mod.b):
        def f_p(candidate, p=p):
            saved = p.value.copy()
            p.value[...] = candidate
            mod.w.grad[...] = 0.0
            mod.b.grad[...] = 0.0
            y, reads = mod.forward(x0)
            mod.backward(reads, R)
            grad = p.grad.copy()
            p.value[...] = saved
            return float((y * R).sum()), grad

        errs.append(grad_check(f_p, p.value.copy()))
    return max(errs)


def full_model_loss_error():
    """Finite differences of the complete training objective against the
    hand-written backward pass, for every parameter.  Advantage targets are
    frozen at their base-state values, which is exactly the regression's
    stop-gradient semantics."""
    rng = Rng(1013)
    L, D, C = 12, 5, 3
    state = ModelState(ModelConfig(dim=D, num_classes=C), rng)
    vis = rng.normal_matrix(L, D)
    bundle = LanguageBundle(rng.normal_matrix(L, D), rng.normal_matrix(L, D),
                            rng.normal_matrix(L, D))
    gt = [Segment(2, 6, 1), Segment(8, 11, 0)]
    table = {c: 0.7 + 0.1 * c for c in range(C)}
    tc = TrainConfig()
    truth = FrameTargets.of(gt, L, C)
    fwd0 = forward_video(state, vis, bundle)
    det0 = detection_loss(fwd0.cls_scores, fwd0.offsets, truth)
    targets, mask = target_advantage(table, det0.per_frame, truth)

    def total_loss():
        state.zero_grads()
        fwd = forward_video(state, vis, bundle)
        det = detection_loss(fwd.cls_scores, fwd.offsets, truth)
        tmpl_logits = state.tmpl_out.forward(fwd.cls_feat)[0]
        tg = template_loss(tmpl_logits, truth.labels)
        d_tmpl = tc.lambda_tg * template_loss_grad(tmpl_logits, truth.labels)
        adv, d_adv = advantage_loss(fwd.adv_pred, targets, mask)
        backward_video(state, fwd, det.d_cls_scores, det.d_offsets, d_tmpl, tc.lambda_adv * d_adv)
        return det.loss + tc.lambda_tg * tg + tc.lambda_adv * adv

    worst, points = 0.0, 0
    for name, p in state.named_params():
        def f(candidate, p=p):
            saved = p.value.copy()
            p.value[...] = candidate
            loss = total_loss()
            grad = p.grad.copy()
            p.value[...] = saved
            return loss, grad

        worst = max(worst, grad_check(f, p.value.copy()))
        points += p.value.size
    return worst, points


def test_gradient_suite():
    t0 = time.perf_counter()
    rng = Rng(1001)
    errs = {}

    x0 = rng.normal_matrix(10, 10)
    x0 += np.sign(x0) * 1e-2  # keep clear of the relu kink
    R = rng.normal_matrix(10, 10)
    errs["relu"] = grad_check(
        lambda x: (float((relu(x) * R).sum()), relu_grad(x) * R), x0)

    def sigmoid_check(x):
        s = sigmoid(x)
        return float((s * R).sum()), s * (1.0 - s) * R
    errs["sigmoid"] = grad_check(sigmoid_check, x0)

    y = (rng.normal_matrix(10, 10) > 0).astype(float)
    p0 = 0.15 + 0.7 * np.abs(np.sin(rng.normal_matrix(10, 10)))
    def focal_check(p):
        loss, grad = focal_loss(p, y)
        return float(loss.sum()), grad
    errs["focal"] = grad_check(focal_check, p0)

    worst_diou = 0.0
    pairs = 0
    while pairs < 100:
        ps, gs = rng.uniform() * 10.0, rng.uniform() * 10.0
        pe, ge = ps + 0.5 + rng.uniform() * 10.0, gs + 0.5 + rng.uniform() * 10.0
        if min(abs(ps - gs), abs(pe - ge), abs(pe - gs), abs(ps - ge)) < 1e-3:
            continue  # grad is only piecewise smooth at box-corner ties
        def f(x, gs=gs, ge=ge):
            loss, dps, dpe = diou_loss(x[0, 0], x[0, 1], gs, ge)
            return float(loss), np.array([[dps, dpe]])
        worst_diou = max(worst_diou, grad_check(f, np.array([[ps, pe]])))
        pairs += 1
    errs["diou"] = worst_diou

    lin = Linear(10, 10, rng)
    errs["linear"] = module_grad_errors(lin, rng.normal_matrix(10, 10),
                                        rng.normal_matrix(10, 10))
    conv = Conv1d(5, 5, 4, rng)
    errs["conv1d"] = module_grad_errors(conv, rng.normal_matrix(20, 5),
                                        rng.normal_matrix(20, 4))

    tokens = frame_targets([Segment(3, 17, 2)], 25, 3)[0]
    errs["template"] = grad_check(
        lambda z: (template_loss(z, tokens), template_loss_grad(z, tokens)),
        rng.normal_matrix(25, 4))

    targets = rng.normal_matrix(100, 1)
    mask = rng.normal_matrix(100, 1) > -0.3
    errs["advantage"] = grad_check(lambda a: advantage_loss(a, targets, mask),
                                   rng.normal_matrix(100, 1))

    det_targets = FrameTargets.of([Segment(5, 45, 0)], 50, 2)
    det_off = 0.5 + 2.5 * np.abs(np.sin(rng.normal_matrix(50, 2)))
    det_scores = 0.15 + 0.7 * np.abs(np.sin(rng.normal_matrix(50, 2)))

    def f_scores(scores):
        det = detection_loss(scores, det_off, det_targets)
        return det.loss, det.d_cls_scores

    def f_offsets(offsets):
        det = detection_loss(det_scores, offsets, det_targets)
        return det.loss, det.d_offsets

    errs["detection_scores"] = grad_check(f_scores, det_scores.copy())
    errs["detection_offsets"] = grad_check(f_offsets, det_off.copy())

    errs["full_model"], model_points = full_model_loss_error()

    elapsed = time.perf_counter() - t0
    worst_op = max(errs, key=errs.get)
    ok = all(e < 1e-4 for e in errs.values()) and elapsed < 30.0
    assert announce(
        "gradient-suite", ok,
        f"{len(errs)} ops, worst {errs[worst_op]:.2e} ({worst_op}), "
        f"{model_points} full-model points, {elapsed:.1f}s")
    for name, e in errs.items():
        assert e < 1e-4, f"{name} gradient error {e}"
    assert elapsed < 30.0


def test_ap_and_nms_match_oracles():
    t0 = time.perf_counter()
    rng = Rng(1002)
    worst = 0.0
    compared = 0
    for _ in range(25):
        gt, props = {}, {}
        for vid in ("v0", "v1", "v2"):
            gt[vid], props[vid] = [], []
            cursor = 0.0
            for _ in range(rng.randint(3)):
                cursor += 2.0 + rng.uniform() * 10.0
                end = cursor + 3.0 + rng.uniform() * 12.0
                gt[vid].append(Segment(cursor, end, rng.randint(4)))
                cursor = end
            for _ in range(rng.randint(7)):
                s = rng.uniform() * 50.0
                props[vid].append((s, s + 1.0 + rng.uniform() * 15.0,
                                   rng.randint(4), round(rng.uniform(), 3)))
        tables = corpus_table(props)
        tuple_gt = {v: [(g.start, g.end, g.label) for g in gs] for v, gs in gt.items()}
        for label in range(4):
            for t in TIOU_THRESHOLDS:
                got = average_precision(tables, gt, label, t)
                want = ap_reference(props, tuple_gt, label, t)
                assert (got is None) == (want is None)
                if want is not None:
                    worst = max(worst, abs(got - want))
                    compared += 1

    nms_exact = True
    for _ in range(25):
        cand = []
        for _ in range(rng.randint(20) + 1):
            s = rng.uniform() * 40.0
            cand.append((s, s + 0.5 + rng.uniform() * 20.0,
                         rng.randint(3), round(rng.uniform(), 2)))
        got = proposal_rows(nms(proposals_from_rows(cand), 0.4))
        nms_exact = nms_exact and got == nms_reference(cand, 0.4)

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and nms_exact and elapsed < 10.0
    assert announce(
        "ap-nms-oracle", ok,
        f"{compared} AP values, max dev {worst:.1e}; NMS "
        f"{'exact' if nms_exact else 'mismatch'}; {elapsed:.1f}s")
    assert worst <= 1e-9 and nms_exact and elapsed < 10.0


def test_gate_mapping_properties():
    t0 = time.perf_counter()
    x = Rng(1003).normal_matrix(10_000, 1, sigma=8.0)
    lam = lambda_from_advantage(x)
    in_range = bool(np.all((lam >= 0.0) & (lam < 1.0)))
    off_closed = bool(np.all(lam[x <= 0.0] == 0.0))
    order = np.argsort(x[:, 0])
    monotone = bool(np.all(np.diff(lam[order, 0]) >= 0.0))
    at_zero = lambda_from_advantage(np.array([[0.0]]))[0, 0] == 0.0
    at_half = abs(lambda_from_advantage(np.array([[np.log(3.0)]]))[0, 0] - 0.5) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = in_range and off_closed and monotone and at_zero and at_half and elapsed < 1.0
    assert announce(
        "gate-mapping", ok,
        f"10000 inputs; range {in_range}, closed-below-zero {off_closed}, "
        f"monotone {monotone}, anchors {at_zero and at_half}; {elapsed:.2f}s")


def test_vision_only_invariance(bias_runs):
    runs, _ = bias_runs
    run = runs[0]
    pinned = gate_pinned(run.full)  # its parameters, the gate fixed at 0
    videos_checked = 0
    identical = True
    for va, vc in zip(run.eval_corpus.videos, run.conflicted_eval):
        zeroed = LanguageBundle(np.zeros_like(va.lang.cls_stream),
                                np.zeros_like(va.lang.loc_stream),
                                np.zeros_like(va.lang.adv_stream))
        pure = forward_video(run.full, va.vis, None)
        pure_tmpl = run.full.tmpl_out.forward(pure.cls_feat)[0]
        for bundle in (va.lang, vc.lang, zeroed):
            out = forward_video(pinned, va.vis, bundle)
            identical = identical and (
                out.cls_scores.tobytes() == pure.cls_scores.tobytes()
                and out.offsets.tobytes() == pure.offsets.tobytes()
                # the template head, run on each pass's classification features
                and pinned.tmpl_out.forward(out.cls_feat)[0].tobytes() == pure_tmpl.tobytes())
        videos_checked += 1
    zero_lap = aligned_lap(run.vision, run.eval_corpus)
    ok = identical and zero_lap == 0.0
    assert announce(
        "vision-only-invariance", ok,
        f"{videos_checked} videos x 3 language variants byte-identical: "
        f"{identical}; pinned-gate LAP {zero_lap!r}")


def eval_class_ap(props, gt, num_classes):
    """Each class's mean AP over the thresholds, for the classes with ground
    truth (those ``cli.build_report`` buckets)."""
    out = {}
    for c in range(num_classes):
        vals = [average_precision(props, gt, c, t) for t in TIOU_THRESHOLDS]
        if vals[0] is not None:
            out[c] = float(np.mean(vals))
    return out


def test_hard_bucket_gains_and_gate_ordering(bias_runs):
    t0 = time.perf_counter()
    runs, build_seconds = bias_runs
    gains, orderings = [], []
    for run in runs.values():
        C = run.eval_corpus.config.num_classes
        vis_kept, _, gt = predict_corpus(run.vision, run.eval_corpus.videos)
        vis_ap = eval_class_ap(vis_kept, gt, C)
        full_ap = eval_class_ap(predict_corpus(run.full, run.eval_corpus.videos)[0], gt, C)
        buckets = difficulty_buckets(vis_ap)
        gain = 100.0 * (np.mean([full_ap[c] for c in buckets.hard])
                        - np.mean([vis_ap[c] for c in buckets.hard]))
        lams = [forward_video(run.full, v.vis, v.lang).lam
                for v in run.eval_corpus.videos]
        gts = [v.gt for v in run.eval_corpus.videos]
        mla_hard = mla(lams, buckets.hard, gts)
        mla_easy = mla(lams, buckets.easy, gts)
        gains.append(gain)
        orderings.append(mla_hard > mla_easy)
    passed = sum(g >= 2.0 and o for g, o in zip(gains, orderings))
    total_seconds = build_seconds + (time.perf_counter() - t0)
    ok = passed >= PASS_BAR and total_seconds < 300.0
    assert announce(
        "hard-bucket-gain", ok,
        f"{passed}/3 seeds (gains {'/'.join(f'{g:+.1f}pp' for g in gains)}, "
        f"gate-ordering {sum(orderings)}/3); {total_seconds:.0f}s of 300s")


def test_conflict_robustness_ordering(bias_runs):
    runs, _ = bias_runs
    learned, fixed1, zero_exact = [], [], []
    for run in runs.values():
        learned.append(aligned_lap(run.full, run.eval_corpus))
        fixed1.append(aligned_lap(run.fixed_one, run.eval_corpus))
        zero_exact.append(aligned_lap(run.vision, run.eval_corpus) == 0.0)
    ordered = sum(l < f for l, f in zip(learned, fixed1))
    ok = ordered >= PASS_BAR and all(zero_exact)
    assert announce(
        "conflict-robustness", ok,
        f"learned<fixed-1 on {ordered}/3 seeds "
        f"({'/'.join(f'{l:+.1f}vs{f:+.1f}' for l, f in zip(learned, fixed1))}pp); "
        f"pinned-zero LAP exact on {sum(zero_exact)}/3")


def test_loss_table_and_decomposition_replay(bias_runs):
    runs, _ = bias_runs
    log = runs[0].full_log
    tc = TrainConfig()
    worst_table = 0.0
    worst_step = 0.0
    steps_checked = 0
    for epoch in log.epochs:
        if epoch.phase == "vision":
            classes = sorted({c for s in epoch.steps for c in s.classes})
            assert list(epoch.table_means) == classes
            for c in classes:  # each class's losses, summed in video order
                losses = [s.dh for s in epoch.steps if c in s.classes]
                worst_table = max(worst_table, abs(sum(losses) / len(losses) - epoch.table_means[c]))
        for s in epoch.steps:
            if epoch.phase == "vision":
                worst_step = max(worst_step, abs(s.total - s.dh))
            else:
                recomposed = s.dh + tc.lambda_tg * s.tg + tc.lambda_adv * s.adv
                worst_step = max(worst_step, abs(s.total - recomposed))
            steps_checked += 1
    ok = worst_table <= 1e-12 and worst_step <= 1e-12
    assert announce(
        "loss-replay", ok,
        f"table replay dev {worst_table:.1e}, decomposition dev {worst_step:.1e} "
        f"over {steps_checked} steps")


def test_pipeline_determinism(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "num_classes": 4, "num_videos": 12, "frames": 64, "dim": 8,
        "ambiguity": [0.1, 0.1, 0.7, 0.7], "helpfulness": [0.3, 0.3, 0.9, 0.9],
        "epochs": 6,
    }))
    outputs = []
    for tag in ("a", "b"):
        corpus = tmp_path / tag / "corpus"
        run = tmp_path / tag / "run"
        assert main(["gen", "--config", str(cfg_path), "--out", str(corpus)]) == 0
        assert main(["train", "--corpus", str(corpus), "--config", str(cfg_path),
                     "--out", str(run)]) == 0
        assert main(["eval", "--ckpt", str(run / "model.ckpt"), "--corpus",
                     str(corpus), "--conflict", "--probe",
                     "--out", str(run / "report.json")]) == 0
        capsys.readouterr()
        corpus_bytes = {p.name: p.read_bytes() for p in sorted(corpus.iterdir())}
        outputs.append({
            "corpus": corpus_bytes,
            "ckpt": (run / "model.ckpt").read_bytes(),
            "sidecar": (run / "model.ckpt.json").read_bytes(),
            "report": (run / "report.json").read_bytes(),
        })
    same = {k: outputs[0][k] == outputs[1][k] for k in outputs[0]}
    ok = all(same.values())
    assert announce(
        "pipeline-determinism", ok,
        "corpus/checkpoint/report byte-identical across reruns" if ok
        else f"mismatch in {[k for k, v in same.items() if not v]}")


def test_ambiguity_probe_direction(bias_runs):
    runs, _ = bias_runs
    details = []
    passed = 0
    for run in runs.values():
        full = ambiguity_probe(run.full, run.probe_config)
        vision = ambiguity_probe(run.vision, run.probe_config)
        good = full.mconf < vision.mconf and full.mlen < vision.mlen
        passed += good
        details.append(f"mconf {full.mconf:.3f}{'<' if full.mconf < vision.mconf else '>='}"
                       f"{vision.mconf:.3f}")
    ok = passed >= PASS_BAR
    assert announce(
        "ambiguity-probe", ok,
        f"{passed}/3 seeds quieter on no-action clips ({'; '.join(details)})")
