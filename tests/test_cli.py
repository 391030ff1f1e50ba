"""Command-line behavior: config loading, the five subcommands, exit codes,
byte-level reproducibility, and a handcrafted perfect-detector run."""

import json
import logging
import math
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import talgate.cli as cli
import talgate.metrics as metrics
from conftest import aligned_lap
from talgate import blobio
from talgate.cli import (ABLATION_MODES, ABLATION_ROWS, SWEEP_LAMBDAS, _align, build_config,
                         default_run_config, load_run_config, main, render_metrics,
                         render_train_log)
from talgate.errors import ConfigError, FormatError, read_json
from talgate.metrics import validate_report
from talgate.model import (TOP_K_PRE_NMS, ModelConfig, ModelState, load_checkpoint,
                           save_checkpoint)
from talgate.nn import Rng
from talgate.synthgen import (Corpus, GenConfig, LanguageBundle, Segment,
                              VideoRecord, generate_corpus, open_corpus, read_corpus,
                              write_corpus)
from talgate.train import TrainConfig

TINY = {
    "num_classes": 3, "num_videos": 6, "frames": 48, "dim": 8,
    "ambiguity": [0.3, 0.3, 0.3], "helpfulness": [0.7, 0.7, 0.7],
    "epochs": 4,
}


def write_config(path, **overrides):
    payload = dict(TINY)
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return str(path)


def dir_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny gen + train pass shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "tiny.json")
    assert main(["gen", "--config", cfg, "--out", str(root / "corpus")]) == 0
    assert main(["train", "--corpus", str(root / "corpus"), "--config", cfg,
                 "--out", str(root / "run")]) == 0
    return root


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "talgate" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [[], ["frobnicate"], ["gen"],
                                      ["train", "--resume", "x", "--corpus", "c", "--out", "o"]])
    def test_usage_errors_exit_one(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1

    def test_bad_ablation_mode_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--corpus", str(tmp_path), "--mode", "bogus",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 1

    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_every_ablation_row_builds_valid_configs(self, mode):
        for _, overrides in ABLATION_ROWS[mode]:
            run = {**default_run_config(), **overrides}
            build_config(ModelConfig, run)
            build_config(TrainConfig, run)


# The stock run config, written out: the benchmark's workloads run on these
# defaults, so a changed dataclass default must show here.
STOCK_RUN_CONFIG = {
    "num_classes": 8, "num_videos": 64, "frames": 256, "dim": 32,
    "ambiguity": [0.1, 0.1, 0.1, 0.1, 0.8, 0.8, 0.8, 0.8],
    "helpfulness": [0.2, 0.2, 0.2, 0.2, 0.9, 0.9, 0.9, 0.9],
    "lambda_mode": "learned", "fixed_lambda": 0.0,
    "epochs": 60, "lambda_tg": 0.1, "lambda_adv": 0.1,
    "seed": 0,
}


class TestRunConfig:
    def test_defaults_cover_every_builder(self):
        run = default_run_config()
        assert set(run) == {f.name for cls in (GenConfig, ModelConfig, TrainConfig) for f in fields(cls)}
        assert build_config(GenConfig, run).num_videos == 64
        assert build_config(ModelConfig, run).dim == 32
        assert build_config(TrainConfig, run).epochs == 60
        assert build_config(GenConfig, run) == GenConfig()

    def test_defaults_are_the_stock_config(self):
        assert (json.dumps(default_run_config(), sort_keys=True)
                == json.dumps(STOCK_RUN_CONFIG, sort_keys=True))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="does not exist"):
            load_run_config("/no/such/config.json")

    def test_bad_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{nope")
        with pytest.raises(FormatError, match="valid JSON"):
            load_run_config(str(p))

    def test_non_object(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[1, 2]")
        with pytest.raises(FormatError, match="JSON object"):
            load_run_config(str(p))

    def test_unknown_key_lists_valid_ones(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"learning_rate": 0.1}')
        with pytest.raises(ConfigError, match="learning_rate") as exc:
            load_run_config(str(p))
        assert "valid keys" in str(exc.value) and "lambda_tg" in str(exc.value)

    def test_values_of_each_json_type_accepted(self, tmp_path):
        p = tmp_path / "c.json"
        good = {"num_videos": 8, "lambda_tg": 1, "fixed_lambda": 0.5, "epochs": 4,
                "ambiguity": [0.1] * 7 + [1], "lambda_mode": "fixed"}
        p.write_text(json.dumps(good))
        run = load_run_config(str(p))
        assert {k: run[k] for k in good} == good


MISTYPED_CONFIGS = [
    ("train", "epochs", "x"),
    ("gen", "dim", "8"),
    ("train", "frames", "8"),
    ("train", "epochs", 8.0),
    ("gen", "ambiguity", 3),
    ("gen", "ambiguity", ["0.1", "0.1", "0.1"]),
    ("gen", "seed", 1.5),
    ("gen", "num_videos", True),
    ("train", "lambda_tg", "0.1"),
    ("train", "lambda_tg", False),
    ("train", "lambda_mode", 1),
    # JSON's NaN and Infinity are not finite numbers
    ("gen", "lambda_tg", math.nan),
    ("train", "fixed_lambda", math.nan),
    ("train", "lambda_adv", math.inf),
    ("train", "lambda_tg", math.inf),
    ("train", "lambda_adv", -math.inf),
    ("ablate", "fixed_lambda", math.nan),
]


def config_argv(command, cfg, workspace, tmp_path):
    """The command line of ``command`` (one of the three that read a config)
    run on the config file ``cfg``, writing to ``tmp_path / "out"``."""
    out = str(tmp_path / "out")
    corpus = str(workspace / "corpus")
    return {"gen": ["gen", "--config", cfg, "--out", out],
            "train": ["train", "--corpus", corpus, "--config", cfg, "--out", out],
            "ablate": ["ablate", "--corpus", corpus, "--config", cfg, "--mode", "vision-only",
                       "--out", out]}[command]


def run_bad_config(command, key, value, workspace, tmp_path, capsys):
    """Run ``command`` on a config with ``key`` set to ``value``; it must exit
    2 without an output directory.  Returns stderr and the config path."""
    cfg = write_config(tmp_path / "c.json", **{key: value})
    assert main(config_argv(command, cfg, workspace, tmp_path)) == 2
    assert not (tmp_path / "out").exists()
    return capsys.readouterr().err, cfg


@pytest.mark.parametrize("command,key,value", MISTYPED_CONFIGS,
                         ids=[f"{c}-{k}-{json.dumps(v)}" for c, k, v in MISTYPED_CONFIGS])
def test_mistyped_config_value_is_data_error(command, key, value, workspace, tmp_path, capsys):
    err, cfg = run_bad_config(command, key, value, workspace, tmp_path, capsys)
    assert cfg in err and repr(key) in err


# Well-typed values out of range; every command rejects the whole config at
# load, whichever part of it the command uses.
BAD_VALUE_CONFIGS = [
    ("gen", "epochs", 3),
    # former keys are unknown at any value, their old defaults included: tIoU is fixed at
    # metrics.TIOU_THRESHOLDS, Adam's settings and the localization weight at train's,
    # the trunks' shape and the decoding settings at model's, the noise level and the
    # background share at synthgen's
    ("train", "noise_sigma", -0.5),
    ("ablate", "nms_tiou", 1.0),
    ("ablate", "tiou_thresholds", [0.3, 0.4, 0.5, 0.6, 0.7]),
    ("train", "lr", 2e-3),
    ("train", "lambda_loc", 1.0),
    ("train", "beta1", 1.0),
    ("gen", "beta2", 0.999),
    ("gen", "adam_eps", 0.0),
    ("train", "adam_eps", 0.0),
    ("train", "adam_eps", -1.0),
    ("ablate", "adam_eps", -1.0),
    ("gen", "head_layers", 2),
    ("train", "kernel", 3),
    ("train", "hidden", None),
    ("ablate", "nms_tiou", 0.5),
    ("train", "top_k_pre_nms", 200),
    ("ablate", "score_threshold", 0.01),
    ("gen", "noise_sigma", 1.0),
    ("train", "background_fraction", 0.4),
]


@pytest.mark.parametrize("command,key,value", BAD_VALUE_CONFIGS,
                         ids=[f"{c}-{k}-{json.dumps(v)}" for c, k, v in BAD_VALUE_CONFIGS])
def test_bad_config_value_is_data_error(command, key, value, workspace, tmp_path, capsys):
    err, cfg = run_bad_config(command, key, value, workspace, tmp_path, capsys)
    assert cfg in err and key in err


def test_repeated_config_key_is_data_error(workspace, tmp_path, capsys):
    # json.loads would let the last copy win
    cfg = tmp_path / "c.json"
    cfg.write_text('{"num_videos": 2, "epochs": 3, "epochs": 2}')
    assert main(config_argv("gen", str(cfg), workspace, tmp_path)) == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert str(cfg) in err and "repeated key 'epochs'" in err


@pytest.mark.parametrize("command", ["gen", "train", "ablate"])
def test_config_read_once(command, workspace, tmp_path, monkeypatch):
    # a config given as a pipe (`--config <(...)`) can be read only once
    cfg = write_config(tmp_path / "c.json", epochs=0)
    reads = []

    def counted(path, what="JSON file"):
        reads.append(str(path))
        return read_json(path, what)

    monkeypatch.setattr(cli, "read_json", counted)
    assert main(config_argv(command, cfg, workspace, tmp_path)) == 0
    assert reads.count(cfg) == 1


class TestGen:
    def test_writes_corpus_and_stamp(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "corpus"
        assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
        assert "wrote 6 videos" in capsys.readouterr().out
        names = {p.name for p in out.iterdir()}
        assert {"manifest.json", "config.json", "run.json"} <= names
        assert {"v0000.bin", "v0005.bin"} <= names and len(names) == 3 + 6
        stamp = json.loads((out / "run.json").read_text())
        assert stamp["command"] == "gen" and stamp["tool"] == "talgate"
        assert json.loads((out / "config.json").read_text())["num_videos"] == 6

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--config", cfg, "--out", str(a)]) == 0
        assert main(["gen", "--config", cfg, "--out", str(b)]) == 0
        assert dir_bytes(a) == dir_bytes(b)

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--config", write_config(tmp_path / "c1.json", seed=1),
                     "--out", str(a)]) == 0
        assert main(["gen", "--config", write_config(tmp_path / "c2.json", seed=2),
                     "--out", str(b)]) == 0
        assert dir_bytes(a) != dir_bytes(b)

    def test_invalid_corpus_shape_is_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", num_classes=1, ambiguity=[0.1],
                           helpfulness=[0.5])
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "num_classes" in err

    def test_unknown_config_key_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text('{"zzz": 1}')
        assert main(["gen", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "zzz" in capsys.readouterr().err

    def test_hallucination_top_k_is_not_a_config_key(self, tmp_path, capsys):
        # eval reads no config; the report's top-k is metrics.HALLUCINATION_TOP_K
        cfg = write_config(tmp_path / "c.json", hallucination_top_k=10)
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "unknown config key(s) hallucination_top_k" in capsys.readouterr().err

    def test_unexpected_exception_is_internal(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path / "c.json")

        def boom(_):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "generate_corpus", boom)
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "internal error: RuntimeError: boom" in capsys.readouterr().err


class TestTrain:
    def test_outputs(self, workspace):
        run = workspace / "run"
        names = {p.name for p in run.iterdir()}
        assert {"model.ckpt", "model.ckpt.json", "train_log.jsonl",
                "config.json", "run.json"} <= names
        records = [json.loads(l) for l in (run / "train_log.jsonl").read_text().splitlines()]
        assert [r["phase"] for r in records] == ["vision", "vision_language"] * 2
        assert json.loads((run / "run.json").read_text())["command"] == "train"

    def test_echoes_corpus_model_shape(self, tmp_path):
        # a dim 8, 3-class corpus trained with a config that sets neither key
        assert main(["gen", "--config", write_config(tmp_path / "gen.json"),
                     "--out", str(tmp_path / "corpus")]) == 0
        (tmp_path / "c.json").write_text(json.dumps({"epochs": 2}))
        out = tmp_path / "run"
        assert main(["train", "--corpus", str(tmp_path / "corpus"), "--config",
                     str(tmp_path / "c.json"), "--out", str(out)]) == 0
        echo = json.loads((out / "config.json").read_text())
        used = json.loads((out / "model.ckpt.json").read_text())["model_config"]
        assert (used["dim"], used["num_classes"]) == (8, 3)
        assert all(echo[k] == v for k, v in used.items())

    def test_ablate_echoes_corpus_model_shape(self, tmp_path):
        # the same corpus ablated with a config that sets neither key
        assert main(["gen", "--config", write_config(tmp_path / "gen.json"),
                     "--out", str(tmp_path / "corpus")]) == 0
        (tmp_path / "c.json").write_text(json.dumps({"epochs": 2}))
        out = tmp_path / "abl"
        assert main(["ablate", "--corpus", str(tmp_path / "corpus"), "--config",
                     str(tmp_path / "c.json"), "--mode", "vision-only", "--out", str(out)]) == 0
        echo = json.loads((out / "config.json").read_text())
        assert (echo["dim"], echo["num_classes"]) == (8, 3)
        assert echo["epochs"] == 2 and echo["lambda_mode"] == "learned"

    @pytest.mark.parametrize("command, name", [
        ("train", "model.ckpt"), ("train", "model.ckpt.json"), ("train", "train_log.jsonl"),
        ("train", "config.json"), ("train", "run.json"), ("gen", "config.json"), ("gen", "run.json"),
    ])
    def test_artifact_written_whole(self, workspace, tmp_path, monkeypatch, command, name):
        cfg = write_config(tmp_path / "c.json", epochs=2)
        out = tmp_path / "out"
        argv = {"train": ["train", "--corpus", str(workspace / "corpus")],
                "gen": ["gen"]}[command] + ["--config", cfg, "--out", str(out)]
        assert main(argv) == 0
        assert not [p.name for p in out.iterdir() if p.name.startswith(".")]
        replace = os.replace

        def fail_on_target(src, dst):
            if Path(dst).name == name:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_target)
        (out / name).write_bytes(b"old")
        assert main(argv) == 3
        assert (out / name).read_bytes() == b"old"
        assert not [p.name for p in out.iterdir() if p.name.startswith(".")]

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        assert main(["train", "--corpus", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_full_report(self, workspace, capsys):
        out = workspace / "run" / "report.json"
        assert main(["eval", "--ckpt", str(workspace / "run" / "model.ckpt"),
                     "--corpus", str(workspace / "corpus"),
                     "--conflict", "--probe", "--out", str(out)]) == 0
        text = out.read_text()
        assert capsys.readouterr().out == text
        payload = validate_report(json.loads(text))
        assert set(payload["map_per_threshold"]) == {"0.30", "0.40", "0.50", "0.60", "0.70"}
        assert isinstance(payload["lap"], float)
        assert payload["mconf"] is not None and payload["acc_at"] is not None
        assert set(payload["mla_per_bucket"]) == {"hard", "medium", "easy"}

    def test_deterministic(self, workspace, tmp_path, capsys):
        for name in ("first.json", "again.json"):
            assert main(["eval", "--ckpt", str(workspace / "run" / "model.ckpt"),
                         "--corpus", str(workspace / "corpus"),
                         "--conflict", "--probe", "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        assert (tmp_path / "again.json").read_text() == (tmp_path / "first.json").read_text()

    def test_report_written_whole(self, workspace, tmp_path, capsys, monkeypatch):
        argv = ["eval", "--ckpt", str(workspace / "run" / "model.ckpt"),
                "--corpus", str(workspace / "corpus"), "--out", str(tmp_path / "report.json")]
        assert main(argv) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert (tmp_path / "report.json").read_text() == capsys.readouterr().out

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        (tmp_path / "report.json").write_text("old")
        assert main(argv) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert (tmp_path / "report.json").read_text() == "old"

    def test_one_forward_pass_per_aligned_video(self, workspace, monkeypatch):
        import talgate.model as model
        from talgate.model import load_checkpoint
        from talgate.synthgen import generate_distractors, read_corpus
        state = load_checkpoint(workspace / "run" / "model.ckpt")
        corpus = read_corpus(workspace / "corpus")
        stacks, forward_video = [], model.forward_video

        def counted(state, vis, bundles):  # one stacked forward per video read
            stacks.append(len(bundles))
            fwd = forward_video(state, vis, bundles)
            assert len(vis) == len(fwd.cls_scores) == len(bundles)
            return fwd

        monkeypatch.setattr(model, "forward_video", counted)  # every read's, the probe's included
        report = cli.build_report(state, corpus, conflict=True, probe=True)
        monkeypatch.undo()
        n, d = len(corpus.videos), len(list(generate_distractors(corpus.config)))
        # each video as stored, as its vision view and as its twin, then each distractor
        assert stacks == [3] * n + [1] * d
        assert sum(stacks) == n + n + n + d  # every pass counted once
        assert report.lap == aligned_lap(state, corpus)

    def test_template_head_does_not_run(self, workspace, monkeypatch):
        state = load_checkpoint(workspace / "run" / "model.ckpt")
        corpus = read_corpus(workspace / "corpus")
        calls, forward = [], state.tmpl_out.forward

        def counted(x):
            calls.append(len(x))
            return forward(x)

        monkeypatch.setattr(state.tmpl_out, "forward", counted)
        cli.build_report(state, corpus, conflict=True, probe=True)
        assert calls == []

    def test_no_forward_record_alive_at_decode_or_next_pass(self, workspace, monkeypatch):
        import talgate.model as model
        state = load_checkpoint(workspace / "run" / "model.ckpt")
        corpus = read_corpus(workspace / "corpus")
        records, passes, decodes, alive = [], [], [], []

        def check_dropped():
            alive.extend(i for i, ref in enumerate(records) if ref() is not None)

        def spied(fn, keep):
            def wrapper(*args):
                check_dropped()
                out = fn(*args)
                if keep:
                    records.append(weakref.ref(out))
                    passes.append(len(out.cls_scores))
                else:
                    decodes.append(len(records))
                return out
            return wrapper

        # every read's, the probe's included
        monkeypatch.setattr(model, "forward_video", spied(model.forward_video, True))
        monkeypatch.setattr(model, "decode_proposals", spied(model.decode_proposals, False))
        cli.build_report(state, corpus, conflict=True, probe=True)
        n, d = len(corpus.videos), corpus.config.num_videos  # the probe has num_videos clips
        # a read's record is dead at its decodes and at the next read
        assert passes == [3] * n + [1] * d and alive == []
        # one decode per pass, each after its own read's forward
        assert decodes == [i + 1 for i, size in enumerate(passes) for _ in range(size)]

    def test_buckets_hold_only_classes_with_ground_truth(self, monkeypatch):
        corpus = generate_corpus(GenConfig(num_classes=8, num_videos=3, frames=64, dim=8,
                                           ambiguity=(0.3,) * 8, helpfulness=(0.7,) * 8, seed=4))
        present = sorted({s.label for v in corpus.videos for s in v.gt})
        assert 3 <= len(present) <= 6  # some classes have no ground truth
        state = ModelState(ModelConfig(dim=8, num_classes=8), Rng(4))
        seen, buckets = [], cli.difficulty_buckets

        def noted(vision_ap):
            seen.append(vision_ap)
            return buckets(vision_ap)

        monkeypatch.setattr(cli, "difficulty_buckets", noted)
        report = cli.build_report(state, corpus)
        # the classes map_at scores; before, a class without ground truth ranked
        # hardest at AP 0, and its bucket's mean gate read 0 over no frames
        assert [sorted(a) for a in seen] == [present]
        assert set(report.mla_per_bucket) == {"hard", "medium", "easy"}
        assert all(v > 0.0 for v in report.mla_per_bucket.values())

    def test_vision_view_reads_no_language(self, workspace, monkeypatch):
        import talgate.model as model
        from talgate.model import load_checkpoint
        from talgate.synthgen import generate_distractors, read_corpus
        state = load_checkpoint(workspace / "run" / "model.ckpt")
        assert state.cfg.lambda_mode == "learned"
        corpus = read_corpus(workspace / "corpus")
        advantage_passes, bundles = [], []
        forward, forward_video = state.adv_fc.forward, model.forward_video

        def counted(x):
            advantage_passes.append(len(x))
            return forward(x)

        def noted(state, vis, read_bundles):  # one stacked forward per video read
            bundles.append([b is None for b in read_bundles])
            fwd = forward_video(state, vis, read_bundles)
            adv_preds.append([bool(item.any()) for item in fwd.adv_pred])
            return fwd

        adv_preds = []
        monkeypatch.setattr(state.adv_fc, "forward", counted)
        monkeypatch.setattr(model, "forward_video", noted)  # predict_corpus's reads
        cli.build_report(state, corpus, conflict=True, probe=True)
        monkeypatch.undo()
        n, d = len(corpus.videos), len(list(generate_distractors(corpus.config)))
        # aligned, conflicted, distractors; the vision view runs no advantage head
        assert len(advantage_passes) == n + n + d
        # each video's three passes in one read: aligned, vision view, conflicted
        assert bundles == [[False, True, False]] * n + [[False]] * d
        # and the vision view's item reads no advantage prediction
        assert [a[1] for a in adv_preds[:n]] == [False] * n and all(a[0] and a[2] for a in adv_preds[:n])

    def test_one_nms_pass_per_corpus_pass(self, workspace, monkeypatch):
        import talgate.model as model
        from talgate.model import load_checkpoint
        from talgate.synthgen import read_corpus
        state = load_checkpoint(workspace / "run" / "model.ckpt")
        corpus = read_corpus(workspace / "corpus")
        tables, nms = [], model.nms

        def counted(table, tiou_threshold):
            tables.append(table)
            return nms(table, tiou_threshold)

        monkeypatch.setattr(model, "nms", counted)
        cli.build_report(state, corpus, conflict=True, probe=True)
        monkeypatch.undo()
        # aligned, vision view, conflicted, distractors
        assert len(tables) == 4
        assert all(set(t.video.tolist()) == set(range(len(corpus.videos))) for t in tables)

    def test_generated_videos_are_freed_one_at_a_time(self, workspace, monkeypatch):
        state = load_checkpoint(workspace / "run" / "model.ckpt")
        corpus = open_corpus(workspace / "corpus")
        want = cli.build_report(state, corpus, conflict=True, probe=True).to_json()
        inject_conflict, generate_distractors = cli.inject_conflict, metrics.generate_distractors
        built, every, last = [], [], []  # ids; refs to all that was built; to the last one's

        def check():
            # what was built for the last video, and the frames it was built from, are gone
            alive = [x for x in (r() for r in last) if x is not None]
            assert not alive, f"{built[-1]} still alive"

        def note(video):
            built.append(video.id)
            last[:] = [weakref.ref(x) for x in (video, video.lang, video.vis, video.lang.cls_stream,
                                                video.lang.loc_stream, video.lang.adv_stream)]
            every.extend(last)
            return video

        def twins(cfg):  # build_report's view: each stored video's twin, built as it is read
            twin = inject_conflict(cfg)

            def one_at_a_time(video):
                check()
                return note(twin(video))
            return one_at_a_time

        def clips(cfg):  # the probe's stream
            stream = generate_distractors(cfg)

            def one_at_a_time():
                while True:
                    check()
                    video = next(stream, None)
                    if video is None:
                        return
                    yield note(video)
                    del video
            return one_at_a_time()

        monkeypatch.setattr(cli, "inject_conflict", twins)
        monkeypatch.setattr(metrics, "generate_distractors", clips)
        got = cli.build_report(state, corpus, conflict=True, probe=True).to_json()
        # and once the report is built, nothing of any generated video is left
        assert [r for r in every if r() is not None] == []
        ids = [v.id for v in corpus.videos]
        assert built == ids + [f"d{i:04d}" for i in range(len(ids))]
        assert got == want

    def test_eval_memory_does_not_grow_with_generated_videos(self):
        # the twin and the clips are scored as they are built: from 4 to 16
        # videos, build_report's peak above the loaded corpus grows by less
        # than one clip (holding them whole grows it by about 12 clips)
        frames, dim = 512, 32

        def peak(num_videos):
            gen = GenConfig(num_classes=4, num_videos=num_videos, frames=frames, dim=dim,
                            ambiguity=(0.1, 0.1, 0.8, 0.8), helpfulness=(0.2, 0.2, 0.9, 0.9),
                            seed=3)
            corpus = generate_corpus(gen)
            state = ModelState(ModelConfig(dim=dim, num_classes=4), Rng(1))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                cli.build_report(state, corpus, conflict=True, probe=True)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        clip = 4 * frames * dim * 8  # a distractor clip's four float64 streams
        assert peak(16) - peak(4) < clip

    def test_conflict_on_a_stored_conflicted_video_is_data_error(self, workspace, tmp_path, capsys):
        # format 1 marked a conflicted video with "aligned": false; format 2 has no such key,
        # so the entry is refused as the manifest is opened, with or without --conflict
        shutil.copytree(workspace / "corpus", tmp_path / "corpus")
        _set("videos", 2, "aligned", value=False)(tmp_path / "corpus" / "manifest.json")
        argv = ["eval", "--ckpt", str(workspace / "run" / "model.ckpt"),
                "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "r.json")]
        for flags in (["--conflict"], []):
            assert main(argv + flags) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: manifest ") and "videos[2]: key 'aligned'" in err
            assert not (tmp_path / "r.json").exists()

    def test_eval_computes_no_gate_gradient(self, workspace, monkeypatch):
        import talgate.model as model
        from talgate.model import load_checkpoint
        from talgate.synthgen import read_corpus
        from talgate.train import fit
        state = load_checkpoint(workspace / "run" / "model.ckpt")
        assert state.cfg.lambda_mode == "learned"
        corpus = read_corpus(workspace / "corpus")
        calls = []
        real = model._lambda_grad

        def counted(adv_pred, lam):
            calls.append(len(lam))
            return real(adv_pred, lam)

        monkeypatch.setattr(model, "_lambda_grad", counted)
        cli.build_report(state, corpus, conflict=True, probe=True)
        assert calls == []
        # two epochs of one video: a vision step, then one vision-language step
        fit(Corpus(corpus.config, corpus.videos[:1]), state.cfg, TrainConfig(epochs=2))
        assert calls == [corpus.config.frames]

    def test_checkpoint_corpus_mismatch(self, workspace, tmp_path, capsys):
        other = ModelState(ModelConfig(dim=16, num_classes=2), Rng(0))
        ckpt = tmp_path / "other.ckpt"
        save_checkpoint(other, ckpt)
        assert main(["eval", "--ckpt", str(ckpt), "--corpus", str(workspace / "corpus"),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "num_classes" in capsys.readouterr().err


class TestStoredCorpus:
    """eval reads the stored corpus through ``open_corpus``, one video at a time."""

    def test_same_report_as_the_corpus_in_memory(self, workspace):
        state = load_checkpoint(workspace / "run" / "model.ckpt")
        for flags in ({}, {"conflict": True, "probe": True}):
            stored = cli.build_report(state, open_corpus(workspace / "corpus"), **flags)
            held = cli.build_report(state, read_corpus(workspace / "corpus"), **flags)
            assert stored.to_json() == held.to_json()

    def test_each_blob_is_read_once(self, workspace, monkeypatch):
        state = load_checkpoint(workspace / "run" / "model.ckpt")
        reads, read_matrix = [], blobio.read_matrix

        def counted(path):
            reads.append(Path(path).name)
            return read_matrix(path)

        monkeypatch.setattr(blobio, "read_matrix", counted)
        corpus = open_corpus(workspace / "corpus")
        assert reads == []  # opening the manifest reads no blob
        cli.build_report(state, corpus, conflict=True, probe=True)
        entries = json.loads((workspace / "corpus" / "manifest.json").read_text())["videos"]
        # one read per video, of its one blob, in manifest order
        assert reads == [f"{entry['id']}.bin" for entry in entries]

    def test_language_is_freed_before_the_next_video_is_read(self, workspace, monkeypatch):
        state = load_checkpoint(workspace / "run" / "model.ckpt")
        language = []  # (video id, weakref to its language bundle or one of its streams)
        read_matrix, inject_conflict = blobio.read_matrix, cli.inject_conflict

        def watched(path):
            alive = sorted({vid for vid, ref in language if ref() is not None})
            assert alive == [], f"language of {alive} still alive when {Path(path).name} is read"
            return read_matrix(path)

        def twins(cfg):  # sees each stored video, with its language, as its twin is drawn
            twin = inject_conflict(cfg)

            def noted(video):
                lang = video.lang
                language.extend((video.id, weakref.ref(x)) for x in
                                (lang, lang.cls_stream, lang.loc_stream, lang.adv_stream))
                return twin(video)
            return noted

        monkeypatch.setattr(blobio, "read_matrix", watched)
        monkeypatch.setattr(cli, "inject_conflict", twins)
        corpus = open_corpus(workspace / "corpus")
        cli.build_report(state, corpus, conflict=True, probe=True)
        assert len(language) == 4 * len(corpus.videos)
        assert [vid for vid, ref in language if ref() is not None] == []

    def test_frames_are_freed_before_the_next_video_is_read(self, workspace, monkeypatch):
        # each video is scored three ways while it is read, so no frames are held for later
        state = load_checkpoint(workspace / "run" / "model.ckpt")
        blobs, read_matrix = [], blobio.read_matrix  # (blob name, weakref to its buffer's owner)

        def owner(a):  # the array every view of a's buffer keeps alive
            while isinstance(a.base, np.ndarray):
                a = a.base
            return a

        def watched(path):
            alive = [name for name, ref in blobs if ref() is not None]
            assert alive == [], f"{alive} still alive when {Path(path).name} is read"
            m = read_matrix(path)
            blobs.append((Path(path).name, weakref.ref(owner(m))))
            return m

        monkeypatch.setattr(blobio, "read_matrix", watched)
        corpus = open_corpus(workspace / "corpus")
        cli.build_report(state, corpus, conflict=True, probe=True)
        assert len(blobs) == len(corpus.videos)
        assert [name for name, ref in blobs if ref() is not None] == []

    def test_eval_memory_grows_by_the_tables_and_gates_alone(self, tmp_path):
        # each video is scored as it is read and only its decoded tables and
        # gate are held: from 4 to 16 stored videos, build_report's peak grows
        # by less than the 12 videos' three decoded tables and gate plus one
        # video's four streams (holding the 12 videos' frames grows it by more)
        frames, dim = 512, 32
        model_cfg = ModelConfig(dim=dim, num_classes=4)

        def peak(num_videos):
            gen = GenConfig(num_classes=4, num_videos=num_videos, frames=frames, dim=dim,
                            ambiguity=(0.1, 0.1, 0.8, 0.8), helpfulness=(0.2, 0.2, 0.9, 0.9),
                            seed=3)
            write_corpus(generate_corpus(gen), tmp_path / f"c{num_videos}")
            state = ModelState(model_cfg, Rng(1))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                cli.build_report(state, open_corpus(tmp_path / f"c{num_videos}"),
                                 conflict=True, probe=True)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        stream = frames * dim * 8  # one float64 stream of one video
        table = TOP_K_PRE_NMS * 5 * 8  # a full decoded table: five 8-byte columns
        gate = frames * 8
        assert 12 * (3 * table + gate) + 4 * stream < 12 * stream
        assert peak(16) - peak(4) < 12 * (3 * table + gate) + 4 * stream


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("ablate")
    cfg = write_config(root / "c.json", epochs=2)
    assert main(["gen", "--config", cfg, "--out", str(root / "corpus")]) == 0
    assert main(["ablate", "--corpus", str(root / "corpus"), "--config", cfg,
                 "--mode", "sweep", "--out", str(root / "sweep")]) == 0
    return root, cfg


class TestAblate:
    def test_sweep_rows(self, sweep):
        root, _ = sweep
        table = json.loads((root / "sweep" / "ablation.json").read_text())
        labels = [r["label"] for r in table["rows"]]
        assert labels == [f"fixed-{v:.1f}" for v in SWEEP_LAMBDAS] + ["learned"]
        assert table["mode"] == "sweep"
        for row in table["rows"]:
            assert 0.0 <= row["map_avg"] <= 1.0

    def test_fixed_zero_gate_shows_no_conflict_drop(self, sweep):
        root, _ = sweep
        table = json.loads((root / "sweep" / "ablation.json").read_text())
        fixed0 = next(r for r in table["rows"] if r["label"] == "fixed-0.0")
        assert fixed0["lap"] == 0.0

    def test_vision_only_equals_fixed_zero(self, sweep):
        root, cfg = sweep
        assert main(["ablate", "--corpus", str(root / "corpus"), "--config", cfg,
                     "--mode", "vision-only", "--out", str(root / "vo")]) == 0
        table = json.loads((root / "vo" / "ablation.json").read_text())
        sweep_table = json.loads((root / "sweep" / "ablation.json").read_text())
        fixed0 = next(r for r in sweep_table["rows"] if r["label"] == "fixed-0.0")
        assert abs(table["rows"][0]["map_avg"] - fixed0["map_avg"]) < 1e-9
        assert abs(table["rows"][0]["lap"] - fixed0["lap"]) < 1e-9

    def test_a_row_is_the_eval_report_of_its_model(self, sweep, capsys):
        root, cfg = sweep
        corpus = str(root / "corpus")
        assert main(["ablate", "--corpus", corpus, "--config", cfg, "--mode", "no-tg-loss",
                     "--out", str(root / "no-tg")]) == 0
        # the row's model, trained by hand: the sweep's config with the row's override
        row_cfg = write_config(root / "no-tg.json", epochs=2, lambda_tg=0.0)
        assert main(["train", "--corpus", corpus, "--config", row_cfg,
                     "--out", str(root / "no-tg-run")]) == 0
        assert main(["eval", "--ckpt", str(root / "no-tg-run" / "model.ckpt"), "--corpus", corpus,
                     "--conflict", "--out", str(root / "no-tg-run" / "report.json")]) == 0
        capsys.readouterr()
        row, = json.loads((root / "no-tg" / "ablation.json").read_text())["rows"]
        report = json.loads((root / "no-tg-run" / "report.json").read_text())
        assert (row["map_avg"], row["lap"]) == (report["map_avg"], report["lap"])

    def test_no_temp_files_left(self, sweep):
        root, _ = sweep
        assert sorted(p.name for p in (root / "sweep").iterdir()) == \
            ["ablation.json", "ablation.txt", "config.json", "run.json"]

    def test_text_rendering(self, sweep):
        root, _ = sweep
        text = (root / "sweep" / "ablation.txt").read_text()
        lines = text.splitlines()
        assert lines[0] == "mode: sweep"
        assert lines[1].split() == ["row", "map_avg", "lap_pp"]
        assert len(lines) == 2 + len(SWEEP_LAMBDAS) + 1


class TestReportCommand:
    def test_renders_run_artifacts(self, evaluated, capsys):
        assert main(["report", "--run", str(evaluated / "run")]) == 0
        out = capsys.readouterr().out
        for section in ("== run.json ==", "== config.json ==",
                        "== train_log.jsonl ==", "== report.json =="):
            assert section in out
        assert "== model.ckpt.json ==" not in out
        assert "mAP avg" in out

    def test_empty_directory(self, tmp_path, capsys):
        assert main(["report", "--run", str(tmp_path)]) == 0
        assert "nothing to report" in capsys.readouterr().out

    def test_non_directory_is_data_error(self, tmp_path, capsys):
        f = tmp_path / "file.txt"
        f.write_text("x")
        assert main(["report", "--run", str(f)]) == 2
        assert "not a directory" in capsys.readouterr().err


def _truncate(p):
    p.write_bytes(p.read_bytes()[:p.stat().st_size // 2])


def _append(p):
    p.write_bytes(p.read_bytes() + b"\x00\x01")


def _flip(offset):
    def corrupt(p):
        raw = bytearray(p.read_bytes())
        raw[offset] ^= 0xFF
        p.write_bytes(bytes(raw))
    return corrupt


def _unlink(p):
    p.unlink()


def _edit_json(edit):
    """A corruption that rewrites a JSON file as ``edit`` returns it, given
    the parsed document; a .jsonl file is edited on its first line."""
    def corrupt(p):
        lines = p.read_text().splitlines() if p.suffix == ".jsonl" else [p.read_text()]
        p.write_text("\n".join([edit(json.loads(lines[0]))] + lines[1:]))
    return corrupt


def _parent(doc, path):
    """The object of ``doc`` that holds the key at ``path``."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


_DROP = object()


def _set(*path, value=_DROP):
    """Replace (or, with no value, drop) the key at ``path`` of a JSON file."""
    def edit(doc):
        if value is _DROP:
            del _parent(doc, path)[path[-1]]
        else:
            _parent(doc, path)[path[-1]] = value
        return json.dumps(doc)
    return _edit_json(edit)


def _repeat(*path):
    """A second copy of the key at ``path`` of a JSON file, holding its value."""
    def edit(doc):
        obj = _parent(doc, path)
        obj["\0copy"] = obj[path[-1]]
        return json.dumps(doc).replace(json.dumps("\0copy"), json.dumps(path[-1]))
    return _edit_json(edit)


def _overlapping_segment(p):
    doc = json.loads(p.read_text())
    gt = doc["videos"][0]["gt"]
    gt.append(gt[0])
    p.write_text(json.dumps(doc))


def _nan_last(p):
    p.write_bytes(p.read_bytes()[:-8] + np.float64(np.nan).tobytes())


def _first_id(id_of):
    """Give the first video the id ``id_of`` gives for the manifest's path."""
    def corrupt(p):
        doc = json.loads(p.read_text())
        doc["videos"][0]["id"] = id_of(p)
        p.write_text(json.dumps(doc))
    return corrupt


def _frames_only(p):
    """Rewrite a video's blob as its first stream alone, a format-1 blob's shape."""
    blobio.write_matrix(p, blobio.read_matrix(p)[:TINY["frames"]])


def _drop_last_video(p):
    doc = json.loads(p.read_text())
    doc["videos"].pop()
    p.write_text(json.dumps(doc))


def _repeat_first_entry(p):
    """A second, counted copy of a checkpoint's first entry (adv_fc.w), every value 123.0."""
    (name, m), *_ = blobio.read_named_matrices(p)
    raw = bytearray(p.read_bytes())
    struct.pack_into("<I", raw, 8, struct.unpack_from("<I", raw, 8)[0] + 1)
    raw += struct.pack("<I", len(name)) + name.encode() + struct.pack("<II", *m.shape)
    p.write_bytes(bytes(raw) + np.full(m.shape, 123.0).astype("<f8").tobytes())


_EVAL = ["eval", "--ckpt", "{run}/model.ckpt", "--corpus", "{corpus}", "--out", "{tmp}/r.json"]
_TRAIN = ["train", "--corpus", "{corpus}", "--config", "{run}/config.json", "--out", "{tmp}/out"]
_REPORT = ["report", "--run", "{run}"]

# (file to corrupt, corruption, command reading it, text the error must name)
CORRUPTIONS = [
    ("corpus/v0000.bin", _truncate, _EVAL, "truncated"),
    ("corpus/v0000.bin", _append, _EVAL, "trailing"),
    ("corpus/v0000.bin", _flip(0), _EVAL, "magic"),
    ("run/model.ckpt", _truncate, _EVAL, "truncated"),
    ("run/model.ckpt", _append, _EVAL, "trailing"),
    ("run/model.ckpt", _flip(16), _EVAL, "name of entry 0"),
    ("corpus/manifest.json", _truncate, _EVAL, "JSON"),
    ("corpus/manifest.json", _append, _EVAL, "JSON"),
    ("corpus/manifest.json", _flip(0), _EVAL, "JSON"),
    # format-1 entry keys, and an entry without the id its blob's name is made of
    ("corpus/manifest.json", _set("videos", 0, "blobs", value={"vis": "v0000_vis.bin"}), _EVAL,
     "videos[0]: key 'blobs'"),
    ("corpus/manifest.json", _set("videos", 0, "id"), _EVAL, "videos[0]: key 'id'"),
    ("corpus/manifest.json", _set("videos", 0, "frames", value=TINY["frames"]), _EVAL,
     "videos[0]: key 'frames'"),
    ("corpus/manifest.json", _set("videos", 0, "aligned", value=True), _EVAL,
     "videos[0]: key 'aligned'"),
    ("corpus/manifest.json", _set("videos", 0, "gt", 0, "label"), _EVAL, "label"),
    ("corpus/manifest.json", _set("config"), _EVAL, "config"),
    ("corpus/manifest.json", _set("config", value=[1]), _EVAL, "config"),
    ("corpus/manifest.json", _set("config", "dim"), _EVAL, "dim"),
    ("run/model.ckpt.json", _truncate, _EVAL, "JSON"),
    ("run/model.ckpt.json", _append, _EVAL, "JSON"),
    ("run/model.ckpt.json", _flip(0), _EVAL, "JSON"),
    ("run/model.ckpt.json", _set("model_config"), _EVAL, "model_config"),
    ("run/model.ckpt.json", _set("model_config", "dim"), _EVAL, "dim"),
    ("run/run.json", _truncate, _REPORT, "JSON"),
    ("run/run.json", _flip(0), _REPORT, "JSON"),
    ("run/config.json", _append, _REPORT, "JSON"),
    ("run/config.json", lambda p: p.write_text("[3]"), _REPORT, "config.json"),
    ("run/train_log.jsonl", _flip(0), _REPORT, "line 1"),
    ("run/train_log.jsonl", _set("loss_dh"), _REPORT, "loss_dh"),
    ("sweep/ablation.json", _truncate, ["report", "--run", "{sweep}"], "JSON"),
    ("sweep/ablation.json", _set("rows"), ["report", "--run", "{sweep}"], "rows"),
    ("sweep/ablation.json", _set("rows", 0, "lap"), ["report", "--run", "{sweep}"], "lap"),
    # a gen stopped before its manifest, and a blob removed that the manifest still names
    ("corpus/manifest.json", _unlink, _EVAL, "no manifest.json"),
    ("corpus/v0000.bin", _unlink, _EVAL, "missing blob"),
    # manifests write_corpus never writes: a repeated id, no videos, a video that
    # states its shape, overlapping segments
    *[("corpus/manifest.json", corrupt, argv, needle) for argv in (_EVAL, _TRAIN)
      for corrupt, needle in [(_set("videos", 1, "id", value="v0000"), "videos[1].id"),
                              (_set("videos", value=[]), "'videos'"),
                              (_set("videos", 0, "frames", value=20), "videos[0]: key 'frames'"),
                              (_set("videos", 0, "dim", value=3), "videos[0]: key 'dim'"),
                              (_overlapping_segment, "videos[0].gt[")]],
    # sidecar values of the wrong JSON type
    *[("run/model.ckpt.json", _set("model_config", key, value=value), _EVAL, repr(key))
      for key, value in [("dim", 4.5), ("num_classes", 1.5), ("lambda_mode", 2.5),
                         ("fixed_lambda", True)]],
    # a manifest listing one video fewer than its config block's num_videos
    *[("corpus/manifest.json", _drop_last_video, argv, "'videos' has length 5")
      for argv in (_EVAL, _TRAIN)],
    # a payload eval finds bad only once it reaches a later video: a NaN in its
    # last stream, a truncated blob
    ("corpus/v0004.bin", _nan_last, _EVAL + ["--conflict", "--probe"],
     "non-finite entries in the matrix at offset 16"),
    ("corpus/v0004.bin", _truncate, _EVAL + ["--conflict", "--probe"],
     "payload of the matrix at offset 16"),
    # config block values of the wrong JSON type: an integer written as a float
    *[("corpus/manifest.json", _set("config", key, value=float(value)), argv, repr(key))
      for argv in (_EVAL + ["--conflict", "--probe"], _TRAIN)
      for key, value in [("seed", 0), ("frames", 48), ("num_videos", 6), ("dim", 8)]],
    # a repeated checkpoint entry, and stored config blocks that lack a defaulted field
    ("run/model.ckpt", _repeat_first_entry, _EVAL, "repeated name 'adv_fc.w' of entry"),
    ("run/model.ckpt.json", _set("model_config", "lambda_mode"), _EVAL, "lacks key(s) 'lambda_mode'"),
    ("corpus/manifest.json", _set("config", "helpfulness"), _EVAL, "lacks key(s) 'helpfulness'"),
    # a key repeated in a JSON object, which json.loads would let the last copy win
    ("corpus/manifest.json", _repeat("config", "seed"), _TRAIN, "repeated key 'seed'"),
    ("run/model.ckpt.json", _repeat("model_config", "dim"), _EVAL, "repeated key 'dim'"),
    ("run/train_log.jsonl", _repeat("loss_dh"), _REPORT, "repeated key 'loss_dh'"),
    # ids whose blob names leave the corpus directory, though each names a readable blob
    ("corpus/manifest.json", _first_id(lambda p: str(p.parent.resolve() / "v0001")),
     _TRAIN, "videos[0].id"),
    ("corpus/manifest.json", _first_id(lambda p: f"../{p.parent.name}/v0001"),
     _EVAL, "videos[0].id"),
    # stored config blocks that still hold a former key
    ("run/model.ckpt.json", _set("model_config", "hidden", value=None), _EVAL,
     "unknown key(s) 'hidden'"),
    ("corpus/manifest.json", _set("config", "noise_sigma", value=1.0), _TRAIN,
     "unknown key(s) 'noise_sigma'"),
    # a format-1 manifest, whose videos are four blobs each; a video's blob of a
    # format-1 blob's shape; ids that are not a bare file name
    *[("corpus/manifest.json", _set("version", value=1), argv, "unsupported corpus version 1")
      for argv in (_EVAL, _TRAIN)],
    *[("corpus/v0002.bin", _frames_only, argv, "has shape (48, 8), not (192, 8)")
      for argv in (_EVAL + ["--conflict", "--probe"], _TRAIN)],
    ("corpus/manifest.json", _first_id(lambda p: "../x"), _EVAL,
     "videos[0].id: '../x' does not make a bare .bin file name"),
    ("corpus/manifest.json", _first_id(lambda p: "/abs"), _TRAIN,
     "videos[0].id: '/abs' does not make a bare .bin file name"),
]


# a case keeps its number in its id; the numbers of removed cases are not reused
_RETIRED = {47, 48, 49, 50}
_NUMBERS = [i for i in range(len(CORRUPTIONS) + len(_RETIRED)) if i not in _RETIRED]


@pytest.mark.parametrize("target, corrupt, argv, needle", CORRUPTIONS,
                         ids=[f"{i:02d}-{t.split('/')[-1]}" for i, (t, *_) in zip(_NUMBERS, CORRUPTIONS)])
def test_corrupted_input_is_data_error(workspace, sweep, tmp_path, capsys,
                                       target, corrupt, argv, needle):
    shutil.copytree(workspace / "corpus", tmp_path / "corpus")
    shutil.copytree(workspace / "run", tmp_path / "run")
    shutil.copytree(sweep[0] / "sweep", tmp_path / "sweep")
    corrupt(tmp_path / target)
    dirs = {k: str(tmp_path / k) for k in ("corpus", "run", "sweep")}
    assert main([a.format(tmp=tmp_path, **dirs) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and (tmp_path / target).name in err and needle in err, err
    assert out == "" and not (tmp_path / "r.json").exists()


@pytest.fixture
def evaluated(workspace, tmp_path, capsys):
    """Copies of the workspace corpus and run, the run holding eval's report.json."""
    shutil.copytree(workspace / "corpus", tmp_path / "corpus")
    shutil.copytree(workspace / "run", tmp_path / "run")
    assert main(["eval", "--ckpt", str(tmp_path / "run" / "model.ckpt"), "--corpus",
                 str(tmp_path / "corpus"), "--out", str(tmp_path / "run" / "report.json")]) == 0
    capsys.readouterr()
    return tmp_path


@pytest.mark.parametrize("corrupt, offset", [(_truncate, "(char "), (_flip(0), "position 0")],
                         ids=["truncated", "bit-flipped"])
def test_report_on_an_unparsable_json_is_data_error(evaluated, capsys, corrupt, offset):
    report = evaluated / "run" / "report.json"
    corrupt(report)
    assert main(["report", "--run", str(evaluated / "run")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and str(report) in err and offset in err, err


def test_report_skips_json_that_is_not_a_report(evaluated, capsys, caplog):
    (evaluated / "run" / "notes.json").write_text('{"map_avg": "high"}\n')
    with caplog.at_level(logging.INFO, logger="talgate.cli"):
        assert main(["report", "--run", str(evaluated / "run")]) == 0
    out = capsys.readouterr().out
    assert "== report.json ==" in out and "notes.json" not in out
    assert "skipping notes.json: not a metrics report" in caplog.text


def _sweep_targets(root):
    """(files, command reading them) for each kind of corpus and run file."""
    blobs = sorted(f"corpus/{p.name}" for p in (root / "corpus").glob("*.bin"))
    return [(["corpus/manifest.json"], _EVAL), (["corpus/manifest.json"], _TRAIN),
            (blobs, _EVAL), (blobs, _TRAIN),
            (["run/model.ckpt", "run/model.ckpt.json"], _EVAL),
            (["run/config.json"], _TRAIN),
            (["run/run.json", "run/config.json", "run/train_log.jsonl", "run/report.json"], _REPORT)]


def test_corruption_sweep_exits_zero_or_two(evaluated, capsys):
    """200 seeded bit flips and truncations of corpus and run files, each fed
    to a command that reads the file: none exits 3 (a bug), and an exit 2
    prints nothing and writes nothing at --out."""
    rng = Rng(20261019)
    targets = _sweep_targets(evaluated)
    dirs = {k: str(evaluated / k) for k in ("corpus", "run")}
    outs = (evaluated / "r.json", evaluated / "out")  # eval's and train's --out
    codes = []
    for case in range(200):
        names, argv = targets[rng.randint(len(targets))]
        path = evaluated / names[rng.randint(len(names))]
        raw = path.read_bytes()
        offset = rng.randint(len(raw))
        if rng.uniform() < 0.25:
            how, bad = f"truncated to {offset} bytes", raw[:offset]
        else:
            bit = rng.randint(8)
            how, bad = f"bit {bit} of byte {offset} flipped", bytearray(raw)
            bad[offset] ^= 1 << bit
        path.write_bytes(bytes(bad))
        try:
            rc = main([a.format(tmp=evaluated, **dirs) for a in argv])
        finally:
            path.write_bytes(raw)
        out, err = capsys.readouterr()
        where = f"case {case}: {path.name} {how}, fed to {argv[0]}"
        assert rc in (0, 2), f"{where}: exit {rc}: {err}"
        written = [o.name for o in outs if o.exists()]
        if rc == 2:
            assert out == "" and err.startswith("error:") and not written, f"{where}: {written} {err}"
        for o in outs:
            if o.is_dir():
                shutil.rmtree(o)
            elif o.exists():
                o.unlink()
        codes.append(rc)
    assert 0 in codes and 2 in codes


# IsADirectoryError, FileExistsError, FileExistsError, IsADirectoryError
@pytest.mark.parametrize("argv", [
    _EVAL[:-1] + ["{dir}"],
    ["gen", "--config", "{cfg}", "--out", "{file}"],
    ["train", "--corpus", "{corpus}", "--config", "{cfg}", "--out", "{file}"],
    ["gen", "--config", "{dir}", "--out", "{tmp}/out"],
], ids=["eval-out-dir", "gen-out-file", "train-out-file", "gen-config-dir"])
def test_os_error_on_a_named_path_is_data_error(workspace, tmp_path, capsys, argv):
    paths = {"dir": tmp_path / "dir", "file": tmp_path / "file"}
    paths["dir"].mkdir()
    paths["file"].write_text("x")
    names = dict(run=workspace / "run", corpus=workspace / "corpus", tmp=tmp_path,
                 cfg=write_config(tmp_path / "c.json", epochs=0), **paths)
    assert main([a.format(**names) for a in argv]) == 2
    err = capsys.readouterr().err
    named = next(str(p) for k, p in paths.items() if "{%s}" % k in argv)
    assert err.startswith("error:") and named in err, err


class TestRendering:
    def test_align(self):
        text = _align([["a", "bbb"], ["cccc", "d"]])
        assert text == "a     bbb\ncccc    d\n"

    def test_metrics_lines(self):
        payload = {
            "map_per_threshold": {"0.30": 0.5}, "map_avg": 0.5, "lap": 1.25,
            "fixed_rate": 0.0, "infinite_rate": 1.0,
            "mla_per_bucket": {"hard": 0.4}, "mconf": 0.25, "mlen": None,
            "acc_at": {"0.70": 0.5},
        }
        lines = render_metrics(payload).splitlines()

        def row(label):
            match = [l for l in lines if l.startswith(label)]
            assert len(match) == 1, label
            return match[0]

        assert row("mAP@0.30").endswith("50.00%")
        assert row("LAP").endswith("+1.25pp")
        assert row("infinite rate").endswith("100.00%")
        assert row("mLA hard").endswith("0.4000")
        assert row("probe acc@0.70").endswith("50.00%")
        assert not any("mlen" in l for l in lines)

    def test_train_log_header(self):
        records = [{"epoch": 0, "phase": "vision", "loss_total": 1.0, "loss_dh": 1.0,
                    "loss_tg": 0.0, "loss_adv": 0.0, "mean_lambda": 0.0}]
        lines = render_train_log(records).splitlines()
        assert lines[0].split() == ["epoch", "phase", "total", "dh", "tg", "adv",
                                    "mean_lambda"]
        assert lines[1].split()[0:2] == ["0", "vision"]


class TestConflictedTwin:
    def test_deterministic(self, workspace):
        from talgate.synthgen import inject_conflict, read_corpus
        corpus = read_corpus(workspace / "corpus")
        a = list(map(inject_conflict(corpus.config), corpus.videos))
        b = list(map(inject_conflict(corpus.config), read_corpus(workspace / "corpus").videos))
        assert len(a) == len(b) == len(corpus.videos)
        for va, vb in zip(a, b):
            assert va.lang.cls_stream.tobytes() == vb.lang.cls_stream.tobytes()


def perfect_corpus_and_state(root):
    """A corpus whose labels and boundaries are spelled out in dedicated
    visual channels, and a handcrafted detector that reads them back
    exactly: channel c is 5 inside class-c segments, channels 2 and 3 hold
    the true left and right offsets."""
    L = 48
    gt = {
        "p0000": [Segment(8, 20, 0), Segment(30, 44, 1)],
        "p0001": [Segment(5, 15, 1)],
        "p0002": [Segment(0, 10, 0), Segment(40, 48, 0)],
        "p0003": [],
    }
    videos = []
    for vid, segs in gt.items():
        vis = np.zeros((L, 4))
        for seg in segs:
            frames = np.arange(seg.start, seg.end)
            vis[frames, seg.label] = 5.0
            vis[frames, 2] = frames - seg.start
            vis[frames, 3] = seg.end - frames
        lang = LanguageBundle(np.zeros((L, 4)), np.zeros((L, 4)), np.zeros((L, 4)))
        videos.append(VideoRecord(vid, vis, lang, list(segs)))
    cfg = GenConfig(num_classes=2, num_videos=4, frames=L, dim=4,
                    ambiguity=(0.0, 0.0), helpfulness=(0.5, 0.5), seed=0)
    corpus_dir = root / "oracle_corpus"
    write_corpus(Corpus(cfg, videos), corpus_dir)

    state = ModelState(ModelConfig(dim=4, num_classes=2, lambda_mode="fixed", fixed_lambda=0.0),
                       Rng(0))
    for conv in state.cls_trunk + state.loc_trunk:  # each conv passes its non-negative input on
        conv.w.value[...] = 0.0
        conv.w.value[4:8] = np.eye(4)  # the centre tap of three
        conv.b.value[...] = 0.0
    state.cls_out.w.value[...] = 0.0
    state.cls_out.w.value[0, 0] = 10.0
    state.cls_out.w.value[1, 1] = 10.0
    state.cls_out.b.value[...] = -25.0
    state.loc_out.w.value[...] = 0.0
    state.loc_out.w.value[2, 0] = 1.0
    state.loc_out.w.value[3, 1] = 1.0
    state.loc_out.b.value[...] = 0.0
    ckpt = root / "oracle.ckpt"
    save_checkpoint(state, ckpt)
    return corpus_dir, ckpt


class TestPerfectOracleRun:
    def test_exact_readout_scores_full_marks(self, tmp_path, capsys):
        corpus_dir, ckpt = perfect_corpus_and_state(tmp_path)
        out = tmp_path / "report.json"
        assert main(["eval", "--ckpt", str(ckpt), "--corpus", str(corpus_dir),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        payload = validate_report(json.loads(out.read_text()))
        assert payload["map_avg"] == 1.0
        assert all(v == 1.0 for v in payload["map_per_threshold"].values())
        assert payload["infinite_rate"] == 0.0


SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each command line given as a JSON argument through cli.main in this one
# process and prints, per command, whether jsonschema was loaded after it.
_SCHEMA_PROBE = """
import json, sys
from talgate.cli import main
loaded = []
for argv in map(json.loads, sys.argv[1:]):
    assert main(argv) == 0, argv
    loaded.append("jsonschema" in sys.modules)
print(json.dumps(loaded))
"""


def _fresh_python(*args, env=()):
    """Run ``python *args`` in a new interpreter that imports talgate from src/,
    with the variables ``env`` adds to this process's environment."""
    env = dict(os.environ, **dict(env),
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)


class TestFreshInterpreter:
    """This test process has long imported jsonschema, so only a new
    interpreter shows which commands load it."""

    def _probe(self, *argvs):
        proc = _fresh_python("-c", _SCHEMA_PROBE, *map(json.dumps, argvs))
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_only_report_validation_loads_jsonschema(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", epochs=2)
        corpus, run = str(tmp_path / "corpus"), str(tmp_path / "run")
        loaded = self._probe(
            ["gen", "--config", cfg, "--out", corpus],
            ["train", "--corpus", corpus, "--config", cfg, "--out", run],
            ["ablate", "--corpus", corpus, "--config", cfg, "--mode", "sweep",
             "--out", str(tmp_path / "sweep")],
            ["eval", "--ckpt", f"{run}/model.ckpt", "--corpus", corpus, "--out", f"{run}/report.json"])
        assert loaded == [False, False, False, True]
        assert self._probe(["report", "--run", run]) == [True]
        # the report the fresh eval wrote is the one this process writes
        assert main(["eval", "--ckpt", f"{run}/model.ckpt", "--corpus", corpus,
                     "--out", str(tmp_path / "again.json")]) == 0
        capsys.readouterr()
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "run" / "report.json").read_bytes()

    def test_verbose_train_logs_each_epoch_to_stderr(self, workspace, tmp_path):
        out = tmp_path / "run"
        proc = _fresh_python("-m", "talgate", "-v", "train", "--corpus", str(workspace / "corpus"),
                             "--config", str(workspace / "tiny.json"), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = [l.split() for l in proc.stderr.splitlines() if l.startswith("INFO talgate.train:")]
        records = [json.loads(l) for l in (out / "train_log.jsonl").read_text().splitlines()]
        assert [l[2:6] for l in lines] == [["epoch", str(r["epoch"]), r["phase"], "loss_total"]
                                          for r in records]
        assert [float(l[6]) for l in lines] == [round(r["loss_total"], 6) for r in records]
        # the log is telemetry: every artifact has the bytes of a quiet run's
        quiet = workspace / "run"
        for name in ("model.ckpt", "model.ckpt.json", "config.json"):
            assert (out / name).read_bytes() == (quiet / name).read_bytes(), name
        wall = [json.loads(l) for l in (quiet / "train_log.jsonl").read_text().splitlines()]
        assert [r | {"wall_time": 0} for r in records] == [r | {"wall_time": 0} for r in wall]

    def test_a_seed_in_the_environment_changes_nothing(self, workspace, tmp_path):
        # the config's seed is the only seed: ACTIONVLM_SEED in the environment changes nothing
        cfg, corpus, run = str(workspace / "tiny.json"), tmp_path / "corpus", tmp_path / "run"
        for argv in (["gen", "--config", cfg, "--out", str(corpus)],
                     ["train", "--corpus", str(corpus), "--config", cfg, "--out", str(run)]):
            proc = _fresh_python("-m", "talgate", *argv, env={"ACTIONVLM_SEED": "5"})
            assert proc.returncode == 0, proc.stderr
        assert dir_bytes(corpus) == dir_bytes(workspace / "corpus")
        clean = workspace / "run"
        for name in ("model.ckpt", "model.ckpt.json", "config.json", "run.json"):
            assert (run / name).read_bytes() == (clean / name).read_bytes(), name
        logs = [[json.loads(l) | {"wall_time": 0} for l in (d / "train_log.jsonl").read_text().splitlines()]
                for d in (run, clean)]
        assert logs[0] == logs[1]

    def test_python_dash_m_runs_the_cli(self):
        proc = _fresh_python("-m", "talgate", "--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: talgate")
