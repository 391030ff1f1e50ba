"""Shared fixtures.

The expensive piece is ``bias_runs``: fully trained models on the default
bias benchmark for three seeds.  It is session-scoped and lazy, so unit
test files that never request it pay nothing.  The suite fits with the
CLI's heap settings (``cli.pad_heap``, set once numpy is imported).
"""

import time
from dataclasses import dataclass, replace

import pytest

from talgate.cli import pad_heap
from talgate.metrics import lap, map_at
from talgate.model import ModelConfig, ModelState, predict_corpus
from talgate.synthgen import Corpus, GenConfig, VideoRecord, generate_corpus, inject_conflict
from talgate.train import TrainConfig, TrainLog, fit

pad_heap()

BIAS_SEEDS = (0, 1, 2)


def gate_pinned(state: ModelState, value: float = 0.0) -> ModelState:
    """A model with ``state``'s parameters and its gate fixed at ``value``."""
    pinned = ModelState(replace(state.cfg, lambda_mode="fixed", fixed_lambda=value), None)
    pinned.values[...] = state.values
    return pinned


def aligned_lap(state: ModelState, corpus: Corpus) -> float:
    """``metrics.lap`` of the corpus and its conflicted twin, both scored in
    one read: a chain of calls apart from ``cli.build_report``, which tests
    compare against it."""
    kept, _, gt, twin = predict_corpus(state, corpus.videos, inject_conflict(corpus.config))
    _, map_aligned = map_at(kept, gt)
    return lap(map_aligned, twin, gt)


@dataclass(eq=False)
class BiasRun:
    seed: int
    train_corpus: Corpus
    eval_corpus: Corpus
    conflicted_eval: list[VideoRecord]
    probe_config: GenConfig  # the no-action probe's: 32 clips
    full: ModelState
    full_log: TrainLog
    vision: ModelState
    fixed_one: ModelState


def _build_run(seed: int) -> BiasRun:
    gen = GenConfig(num_videos=96, seed=seed)  # the stock bias benchmark, 64 + 32 videos
    whole = generate_corpus(gen)
    # one corpus, split by prefix: train and eval share the latent
    # prototypes, which is what makes cross-split evaluation meaningful
    train_corpus = Corpus(gen, whole.videos[:64])
    eval_corpus = Corpus(gen, whole.videos[64:])
    # the twin that metrics.lap scores, held for the tests that read its videos
    conflicted = list(map(inject_conflict(gen), eval_corpus.videos))

    base = ModelConfig(dim=gen.dim, num_classes=gen.num_classes)
    tc = TrainConfig(seed=seed)
    full, full_log = fit(train_corpus, replace(base, lambda_mode="learned"), tc)
    vision, _ = fit(train_corpus, replace(base, lambda_mode="fixed", fixed_lambda=0.0), tc)
    fixed_one, _ = fit(train_corpus, replace(base, lambda_mode="fixed", fixed_lambda=1.0), tc)
    return BiasRun(seed, train_corpus, eval_corpus, conflicted, replace(gen, num_videos=32),
                   full, full_log, vision, fixed_one)


@pytest.fixture(scope="session")
def bias_runs():
    """(runs by seed, wall seconds spent building them)."""
    t0 = time.perf_counter()
    runs = {seed: _build_run(seed) for seed in BIAS_SEEDS}
    return runs, time.perf_counter() - t0
