"""Same bytes as a check: today's artifacts and trained parameters against
the digests in ``golden/artifact_digests.txt``.

The golden file holds the lines of ``scripts/artifact_digests.py`` (every
artifact of the stock ``gen``, ``train``, ``eval`` and ``ablate`` runs,
and the streams and scoring tables behind the reports), then one
``fits/...`` line per fit of the ``bias_runs`` fixture: the SHA-256 of the
model's flat parameter store.  A change that keeps every byte passes as
is; a change that alters bytes on purpose edits the lines it changes in
the same commit and says which, and regenerating the file to pass a change
that should keep them is not done.

Normals repeat bit for bit on one platform only (``nn.Rng``), so the
header records a fingerprint of the platform the digests were made on:
the numpy version and the SHA-256 of one normal block.  Where today's
fingerprint differs, the tests skip and name both.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from talgate.nn import Rng

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden") / "artifact_digests.txt"
FINGERPRINT_PREFIX = "# fingerprint: "


def _load_script():
    spec = importlib.util.spec_from_file_location("artifact_digests", ROOT / "scripts" / "artifact_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fingerprint() -> str:
    """The numpy version and the SHA-256 of an 8192-normal block from Rng(0)."""
    block = Rng(0).normal_matrix(64, 128)
    return f"numpy {np.__version__}, normals {hashlib.sha256(block.tobytes()).hexdigest()}"


def golden_lines() -> list[str]:
    """The golden file's digest lines; skips the caller on another platform."""
    text = GOLDEN.read_text().splitlines()
    recorded = next(line[len(FINGERPRINT_PREFIX):] for line in text if line.startswith(FINGERPRINT_PREFIX))
    here = fingerprint()
    if here != recorded:
        pytest.skip(f"the golden digests hold on {recorded}; this platform is {here}")
    return [line for line in text if line and not line.startswith("#")]


def fit_lines(runs) -> list[str]:
    return [f"{hashlib.sha256(state.values.tobytes()).hexdigest()}  fits/seed{seed}-{name}"
            for seed, run in sorted(runs.items())
            for name, state in (("learned", run.full), ("vision", run.vision), ("fixed-one", run.fixed_one))]


def assert_same_lines(got: list[str], want: list[str]) -> None:
    """Line by line, each difference named by its path."""
    got_by_path = {line.split("  ", 1)[1]: line for line in got}
    want_by_path = {line.split("  ", 1)[1]: line for line in want}
    diffs = [f"{path}: golden {want_by_path.get(path, '(none)')!r}, got {got_by_path.get(path, '(none)')!r}"
             for path in sorted(got_by_path.keys() | want_by_path.keys())
             if got_by_path.get(path) != want_by_path.get(path)]
    assert not diffs, "digests differ from the golden file:\n" + "\n".join(diffs)
    assert got == want  # the same lines in the same order


@pytest.mark.slow  # a stock train, three evals and an ablation in every mode
def test_artifact_digests_match_the_golden_file(tmp_path, monkeypatch):
    want = [line for line in golden_lines() if "  fits/" not in line]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # the script sets them; undone after the test
    assert_same_lines(_load_script().digest_lines(tmp_path / "out"), want)


@pytest.mark.slow  # the three-seed fixture trains nine stock models
def test_fixture_fit_parameters_match_the_golden_file(bias_runs):
    runs, _ = bias_runs
    want = [line for line in golden_lines() if "  fits/" in line]
    assert len(want) == 9
    assert_same_lines(fit_lines(runs), want)


def test_another_platform_skips_naming_both_fingerprints(monkeypatch):
    monkeypatch.setattr(np, "__version__", "0.0.0")
    with pytest.raises(pytest.skip.Exception) as skipped:
        golden_lines()
    recorded = next(line for line in GOLDEN.read_text().splitlines() if line.startswith(FINGERPRINT_PREFIX))
    assert recorded[len(FINGERPRINT_PREFIX):] in str(skipped.value)
    assert "numpy 0.0.0, normals " in str(skipped.value)
