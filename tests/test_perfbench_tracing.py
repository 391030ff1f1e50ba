"""The benchmark's traced run (``perfbench/run.py --trace 1``) patches talgate
functions and methods by name from outside the package.  This loads
``perfbench/tracing.py`` unchanged and traces a tiny gen/train/eval, so a
rename or deletion of a traced name fails here and not only in the
benchmark."""

import importlib.util
import json
from pathlib import Path

import talgate.cli as cli

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _targets() -> dict:
    """Current object behind every traced name, per module namespace or class."""
    out = {}
    for mod_name, attr in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS:
        mod = importlib.import_module(f"talgate.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            out[(mod_name, attr)] = getattr(mod, cls_name).__dict__[meth]
        else:
            out[(mod_name, attr)] = getattr(mod, attr)
    return out


def test_tracer_patches_every_target_and_restores_it(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"num_classes": 2, "num_videos": 3, "frames": 24, "dim": 4,
                               "ambiguity": [0.1, 0.7], "helpfulness": [0.3, 0.9],
                               "epochs": 2}))
    before = _targets()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _targets()
        assert [k for k in before if during[k] is before[k]] == []
        assert cli.main(["gen", "--config", str(cfg), "--out", str(tmp_path / "corpus")]) == 0
        assert cli.main(["train", "--corpus", str(tmp_path / "corpus"), "--config", str(cfg),
                         "--out", str(tmp_path / "run")]) == 0
        trained = tracer.layer_stats()
        assert cli.main(["eval", "--ckpt", str(tmp_path / "run" / "model.ckpt"),
                         "--corpus", str(tmp_path / "corpus"), "--conflict", "--probe",
                         "--out", str(tmp_path / "report.json")]) == 0
        stats = tracer.layer_stats()
    finally:
        tracer.uninstall()
    after = _targets()
    assert [k for k in before if after[k] is not before[k]] == []
    assert set(stats) <= tracing.metric_names()
    assert stats["train.fit.calls"] == 1 and stats["cli.build_report.calls"] == 1
    assert stats["model.forward_video.calls"] > 0
    # one blob per video: gen writes each once, train and eval each read each once
    assert stats["blobio.write_matrix.calls"] == 3
    assert trained["blobio.read_matrix.calls"] == 3 and stats["blobio.read_matrix.calls"] == 3 + 3
    # one NMS pass per table of the eval (aligned, vision view, conflicted, distractors), from
    # two corpus reads (the corpus, scored three ways, and the distractors), one stacked forward
    # per video read (3 videos, 3 distractors), every pass of the eval decoded in that one loop
    # (3 per video, 1 per distractor), and kept_ratio reads len() of nms's argument and result
    assert stats["model.nms.calls"] == 4 and stats["model.predict_corpus.calls"] == 2
    eval_reads = stats["model.forward_video.calls"] - trained["model.forward_video.calls"]
    assert eval_reads == 3 + 3
    assert stats["model.decode_proposals.calls"] == 3 * 3 + 3
    assert 0 < stats["model.nms.kept_ratio"] <= 1
    assert stats["metrics.ambiguity_probe.calls"] == 1
    # lap and the probe generate the streams they score, once per eval, under the traced names
    assert stats["synthgen.inject_conflict.calls"] == 1
    assert stats["synthgen.generate_distractors.calls"] == 1
    # the trunks and the four 1x1 layers are timed apart, each call once: Linear's forward
    # and backward are Conv1d's functions under its own class entries
    def layer_calls(s):
        return [s[f"nn.{layer}.{m}.calls"] for layer in ("Conv1d", "Linear") for m in ("forward", "backward")]
    assert layer_calls(trained) == [24, 24, 18, 18]
    assert layer_calls(stats) == [48, 24, 39, 18]  # eval adds forward passes only
    # the training losses keep their traced names and are called by fit
    for name in ("train.detection_loss", "model.template_loss", "model.template_loss_grad"):
        assert stats[f"{name}.calls"] > 0, name
