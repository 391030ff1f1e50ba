"""Corpus generator: determinism, signal structure, conflict injection, IO.

The statistical checks use nearest-centroid classifiers whose centroids are
estimated from generated data itself, so they do not peek at the
generator's internal latent draws.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from talgate import blobio
from talgate.errors import ConfigError, FormatError
from talgate.nn import as_frames, as_matrix
from talgate.synthgen import (NOISE_SIGMA, Corpus, GenConfig, generate_corpus,
                              generate_distractors, inject_conflict, open_corpus,
                              partner_class, read_corpus, write_corpus)


def small_config(**overrides):
    base = dict(num_classes=4, num_videos=12, frames=64, dim=32,
                ambiguity=(0.0,) * 4, helpfulness=(0.5,) * 4, seed=7)
    base.update(overrides)
    return GenConfig(**base)


def corpus_bytes(corpus):
    chunks = []
    for v in corpus.videos:
        chunks.append(v.id.encode())
        for m in (v.vis, v.lang.cls_stream, v.lang.loc_stream, v.lang.adv_stream):
            chunks.append(m.tobytes())
        chunks.append(repr([(s.start, s.end, s.label) for s in v.gt]).encode())
    return b"".join(chunks)


def in_segment_frames(corpus, stream="vis"):
    """(frames, labels) for every frame covered by a ground-truth segment."""
    rows, labels = [], []
    for v in corpus.videos:
        m = v.vis if stream == "vis" else getattr(v.lang, stream)
        for s in v.gt:
            rows.append(m[s.start:s.end])
            labels.extend([s.label] * (s.end - s.start))
    return np.concatenate(rows), np.array(labels)


def class_centroids(frames, labels, num_classes):
    return np.stack([frames[labels == c].mean(axis=0) for c in range(num_classes)])


def nearest(frames, centroids):
    d = ((frames[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d.argmin(axis=1)


class TestConfigValidation:
    @pytest.mark.parametrize("overrides, field", [
        (dict(num_classes=1, ambiguity=(0.0,), helpfulness=(0.5,)), "num_classes"),
        (dict(num_videos=0), "num_videos"),
        (dict(frames=8), "frames"),
        (dict(dim=2), "dim"),
        (dict(ambiguity=(0.0, 0.0)), "ambiguity"),
        (dict(helpfulness=(0.5, 0.5, 0.5, 1.5)), "helpfulness"),
        (dict(ambiguity=(0.0, 0.0, -0.1, 0.0)), "ambiguity"),
        (dict(helpfulness=(0.5, 0.5)), "helpfulness"),
        (dict(seed=-3), "seed"),
    ])
    def test_bad_value_names_field(self, overrides, field):
        with pytest.raises(ConfigError, match=field):
            small_config(**overrides).validate()

    def test_valid_config_passes(self):
        assert small_config().validate() is not None


def test_partner_pairing():
    assert partner_class(0, 8) == 1
    assert partner_class(1, 8) == 0
    assert partner_class(6, 8) == 7
    # odd class count: the last class wraps onto class 0
    assert partner_class(4, 5) == 0
    assert partner_class(2, 5) == 3


def test_generation_is_deterministic():
    cfg = small_config()
    assert corpus_bytes(generate_corpus(cfg)) == corpus_bytes(generate_corpus(cfg))


def test_prefix_stability_across_corpus_sizes():
    """A longer corpus begins with the shorter one, byte for byte.

    This is what makes train/eval splits of one corpus principled: both
    halves share the same latent prototypes.
    """
    big = generate_corpus(small_config(num_videos=12))
    small = generate_corpus(small_config(num_videos=5))
    from talgate.synthgen import Corpus
    prefix = Corpus(small.config, big.videos[:5])
    assert corpus_bytes(prefix) == corpus_bytes(small)


def test_record_structure():
    cfg = small_config(num_classes=5, ambiguity=(0.2,) * 5, helpfulness=(0.5,) * 5)
    corpus = generate_corpus(cfg)
    assert len(corpus.videos) == cfg.num_videos
    for v in corpus.videos:
        assert v.vis.shape == (cfg.frames, cfg.dim)
        for stream in (v.lang.cls_stream, v.lang.loc_stream, v.lang.adv_stream):
            assert stream.shape == (cfg.frames, cfg.dim)
        assert len(v.gt) >= 1
        last_end = 0
        for s in v.gt:
            assert 0 <= s.start < s.end <= cfg.frames
            assert s.start >= last_end  # no overlap, sorted layout
            assert 0 <= s.label < cfg.num_classes
            last_end = s.end


def test_zero_ambiguity_frames_classify_cleanly():
    corpus = generate_corpus(small_config(num_videos=32))
    frames, labels = in_segment_frames(corpus)
    centroids = class_centroids(frames, labels, 4)
    acc = (nearest(frames, centroids) == labels).mean()
    assert acc >= 0.99


def test_zero_helpfulness_language_is_pure_noise():
    cfg = small_config(helpfulness=(0.0,) * 4)
    corpus = generate_corpus(cfg)
    bound = 3.0 / np.sqrt(cfg.frames * cfg.num_videos)  # 3 sigma of the mean
    for stream in ("cls_stream", "loc_stream", "adv_stream"):
        stacked = np.concatenate([getattr(v.lang, stream) for v in corpus.videos])
        assert np.abs(stacked.mean(axis=0)).max() < bound * NOISE_SIGMA * 1.5


def test_helpfulness_scales_language_accuracy():
    accs = []
    for h in (0.1, 0.5, 1.0):
        cfg = small_config(num_videos=24, helpfulness=(h,) * 4, seed=11)
        corpus = generate_corpus(cfg)
        frames, labels = in_segment_frames(corpus, "cls_stream")
        centroids = class_centroids(frames, labels, 4)
        accs.append((nearest(frames, centroids) == labels).mean())
    assert accs[0] < accs[1] < accs[2]


def test_ambiguity_blends_vision_toward_partner():
    sep = []
    for a in (0.0, 0.9):
        cfg = small_config(num_videos=24, ambiguity=(a,) * 4, seed=13)
        frames, labels = in_segment_frames(generate_corpus(cfg))
        centroids = class_centroids(frames, labels, 4)
        sep.append((nearest(frames, centroids) == labels).mean())
    assert sep[1] < sep[0] - 0.1  # high ambiguity costs real accuracy


class TestInjectConflict:
    def setup_method(self):
        self.cfg = small_config(num_videos=16, helpfulness=(1.0,) * 4)
        self.corpus = generate_corpus(self.cfg)
        self.twin = Corpus(self.cfg, list(map(inject_conflict(self.cfg), self.corpus.videos)))

    def test_vision_and_gt_untouched(self):
        for a, b in zip(self.corpus.videos, self.twin.videos):
            assert a.vis.tobytes() == b.vis.tobytes()
            assert [(s.start, s.end, s.label) for s in a.gt] == \
                   [(s.start, s.end, s.label) for s in b.gt]

    def test_language_describes_a_deranged_class(self):
        frames, labels = in_segment_frames(self.corpus, "cls_stream")
        centroids = class_centroids(frames, labels, 4)
        donor_of = {}
        for v in self.twin.videos:
            for s in v.gt:
                seg_mean = v.lang.cls_stream[s.start:s.end].mean(axis=0)
                donor = int(nearest(seg_mean[None, :], centroids)[0])
                donor_of.setdefault(s.label, set()).add(donor)
        # one consistent donor per class, never the class itself
        assert all(len(d) == 1 for d in donor_of.values())
        mapping = {c: d.pop() for c, d in donor_of.items()}
        assert all(donor != c for c, donor in mapping.items())
        assert sorted(mapping.values()) == sorted(mapping)  # a permutation

    def test_conflicted_language_no_longer_names_the_true_class(self):
        frames, labels = in_segment_frames(self.corpus, "cls_stream")
        centroids = class_centroids(frames, labels, 4)
        conf_frames, conf_labels = in_segment_frames(self.twin, "cls_stream")
        acc = (nearest(conf_frames, centroids) == conf_labels).mean()
        assert acc <= 1.0 / 4 + 0.05

    def test_vision_views_give_the_same_twin(self):
        views = [v.vision_view() for v in self.corpus.videos]
        assert all(v.lang is None and v.vis is w.vis and v.gt is w.gt
                   for v, w in zip(views, self.corpus.videos))
        twin = Corpus(self.cfg, list(map(inject_conflict(self.cfg), views)))
        assert corpus_bytes(twin) == corpus_bytes(self.twin)

    def test_same_rng_seed_same_twin(self):
        # the twin's draws are seeded from the corpus seed: a regenerated corpus has the same twin
        again = Corpus(self.cfg, list(map(inject_conflict(self.cfg), generate_corpus(self.cfg).videos)))
        assert corpus_bytes(again) == corpus_bytes(self.twin)

    def test_different_rng_seed_different_noise(self):
        # the same videos under another corpus seed: another derangement and other noise
        reseeded = inject_conflict(replace(self.cfg, seed=self.cfg.seed + 1))
        other = Corpus(self.cfg, list(map(reseeded, self.corpus.videos)))
        assert all(a.vis is b.vis for a, b in zip(other.videos, self.twin.videos))
        assert corpus_bytes(other) != corpus_bytes(self.twin)


class TestDistractors:
    def setup_method(self):
        self.cfg = small_config(num_videos=16, ambiguity=(0.1, 0.1, 0.8, 0.8),
                                helpfulness=(0.3, 0.3, 0.9, 0.9), seed=5)
        self.clips = Corpus(self.cfg, list(generate_distractors(self.cfg)))

    def test_no_ground_truth_and_ids(self):
        assert len(self.clips.videos) == 16
        for i, v in enumerate(self.clips.videos):
            assert v.gt == []
            assert v.id == f"d{i:04d}"

    def test_deterministic_and_distinct_from_corpus(self):
        again = Corpus(self.cfg, list(generate_distractors(self.cfg)))
        assert corpus_bytes(again) == corpus_bytes(self.clips)
        corpus = generate_corpus(self.cfg)
        assert corpus_bytes(corpus) != corpus_bytes(self.clips)

    def test_one_clip_per_num_videos(self):
        # the clip set is prefix-stable, like the corpus
        few = Corpus(self.cfg, list(generate_distractors(replace(self.cfg, num_videos=3))))
        assert corpus_bytes(few) == corpus_bytes(Corpus(self.cfg, self.clips.videos[:3]))
        with pytest.raises(ConfigError, match="num_videos"):
            generate_distractors(replace(self.cfg, num_videos=0))

    def test_vision_sits_between_the_most_ambiguous_pair(self):
        # companion corpus with ambiguity 0 shares the same latents, so its
        # class centroids estimate the pure prototypes
        companion = generate_corpus(replace(self.cfg, ambiguity=(0.0,) * 4, num_videos=32))
        frames, labels = in_segment_frames(companion)
        protos = class_centroids(frames, labels, 4)
        bg_rows = []
        for v in companion.videos:
            covered = np.zeros(self.cfg.frames, dtype=bool)
            for s in v.gt:
                covered[s.start:s.end] = True
            bg_rows.append(v.vis[~covered])
        bg = np.concatenate(bg_rows).mean(axis=0)
        midpoint = (protos[2] + protos[3]) / 2.0  # classes 2, 3 are the ambiguous pair
        candidates = np.vstack([protos, bg[None, :], midpoint[None, :]])
        all_frames = np.concatenate([v.vis for v in self.clips.videos])
        assigned = nearest(all_frames, candidates)
        frac = np.bincount(assigned, minlength=6) / len(assigned)
        assert frac[5] > 0.3        # the midpoint look dominates the action frames
        assert frac[2] + frac[3] < 0.05  # pure ambiguous prototypes barely appear
        assert frac[0] + frac[1] < 0.05  # easy classes never appear

    def test_language_reports_no_action(self):
        corpus = generate_corpus(replace(self.cfg, num_videos=32))
        frames, labels = in_segment_frames(corpus, "cls_stream")
        protos = class_centroids(frames, labels, 4)
        bg_rows = []
        for v in corpus.videos:
            covered = np.zeros(self.cfg.frames, dtype=bool)
            for s in v.gt:
                covered[s.start:s.end] = True
            bg_rows.append(v.lang.cls_stream[~covered])
        bg = np.concatenate(bg_rows).mean(axis=0)

        def unit(m):
            return m / np.linalg.norm(m, axis=-1, keepdims=True)

        dirs = unit(np.vstack([protos, bg[None, :]]))
        clip_frames = np.concatenate([v.lang.cls_stream for v in self.clips.videos])
        sims = unit(clip_frames) @ dirs.T
        bg_share = (sims.argmax(axis=1) == 4).mean()
        assert bg_share >= 0.95


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        corpus = generate_corpus(small_config(num_videos=2))
        write_corpus(corpus, tmp_path / "c")
        back = read_corpus(tmp_path / "c")
        assert back.config == corpus.config
        assert corpus_bytes(back) == corpus_bytes(corpus)

    def test_write_is_byte_stable(self, tmp_path):
        corpus = generate_corpus(small_config(num_videos=2))
        write_corpus(corpus, tmp_path / "a")
        write_corpus(corpus, tmp_path / "b")
        for p in sorted((tmp_path / "a").iterdir()):
            assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes()

    def test_one_blob_per_video(self, tmp_path):
        corpus = generate_corpus(small_config(num_videos=3))
        write_corpus(corpus, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["manifest.json", "v0000.bin", "v0001.bin", "v0002.bin"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["version"] == 2
        assert [sorted(e) for e in manifest["videos"]] == [["gt", "id"]] * 3
        for v in corpus.videos:  # the four streams stacked by rows
            blob = blobio.read_matrix(tmp_path / f"{v.id}.bin")
            assert blob.tobytes() == np.concatenate(
                (v.vis, v.lang.cls_stream, v.lang.loc_stream, v.lang.adv_stream)).tobytes()

    def test_open_reads_the_blobs_on_each_iteration(self, tmp_path, monkeypatch):
        corpus = generate_corpus(small_config(num_videos=3))
        write_corpus(corpus, tmp_path)
        reads, read_matrix = [], blobio.read_matrix
        monkeypatch.setattr(blobio, "read_matrix", lambda p: reads.append(p.name) or read_matrix(p))
        stored = open_corpus(tmp_path)
        assert reads == [] and len(stored.videos) == 3 and stored.config == corpus.config
        for _ in range(2):  # re-iterable, each pass reading each video's one blob once
            assert corpus_bytes(stored) == corpus_bytes(corpus)
        assert reads == 2 * [f"v{i:04d}.bin" for i in range(3)]

    def test_a_stored_videos_streams_are_views_of_its_blob(self, tmp_path, monkeypatch):
        write_corpus(generate_corpus(small_config(num_videos=2)), tmp_path)
        blobs, read_matrix = [], blobio.read_matrix
        monkeypatch.setattr(blobio, "read_matrix", lambda p: blobs.append(read_matrix(p)) or blobs[-1])
        for video, blob in zip(open_corpus(tmp_path).videos, blobs, strict=True):
            streams = (video.vis, video.lang.cls_stream, video.lang.loc_stream, video.lang.adv_stream)
            step = video.vis.nbytes  # the four row blocks, in order, tile the one buffer
            for k, stream in enumerate(streams):
                assert np.shares_memory(stream, blob) and stream.flags.c_contiguous
                assert stream.ctypes.data == blob.ctypes.data + k * step
                # the model's input checks take each stream as it is, without a copy
                assert as_matrix(stream) is stream and as_frames(stream, "stream") is stream
            assert sum(s.nbytes for s in streams) == blob.nbytes

    @pytest.mark.parametrize("corrupt, needle", [
        (lambda m: m["videos"][2]["gt"].append(m["videos"][2]["gt"][0]), r"videos\[2\]\.gt\[\d\]: .* overlaps"),
        (lambda m: m["videos"][2].update(aligned=None), r"videos\[2\]: key 'aligned'"),
        (lambda m: m["videos"][2].update(id="gone"), "video gone: missing blob"),
    ], ids=["overlapping-segments", "aligned-not-bool", "missing-blob"])
    def test_open_checks_the_whole_manifest_before_any_blob(self, tmp_path, monkeypatch,
                                                          corrupt, needle):
        write_corpus(generate_corpus(small_config(num_videos=3)), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        corrupt(manifest)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        reads, read_matrix = [], blobio.read_matrix
        monkeypatch.setattr(blobio, "read_matrix", lambda p: reads.append(p.name) or read_matrix(p))
        with pytest.raises(FormatError, match=needle):
            open_corpus(tmp_path)
        assert reads == []

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError, match="manifest"):
            read_corpus(tmp_path)

    @pytest.mark.parametrize("blobs", [0, 1, 5, 7])  # of 8
    def test_interrupted_rewrite_leaves_no_manifest(self, tmp_path, monkeypatch, blobs):
        # a write over an existing corpus that stops after some blobs must
        # not leave the old manifest beside a mix of old and new blobs
        write_corpus(generate_corpus(small_config(num_videos=8, seed=1)), tmp_path)
        real, written = blobio.write_matrix, []

        def write_some(path, m):
            if len(written) == blobs:
                raise OSError("disk full")
            written.append(path)
            real(path, m)

        monkeypatch.setattr(blobio, "write_matrix", write_some)
        with pytest.raises(OSError):
            write_corpus(generate_corpus(small_config(num_videos=8, seed=2)), tmp_path)
        assert len(written) == blobs
        with pytest.raises(FormatError, match="manifest.json"):
            read_corpus(tmp_path)
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []

    def test_rewrite_removes_blobs_the_new_manifest_drops(self, tmp_path):
        write_corpus(generate_corpus(small_config(num_videos=12)), tmp_path)
        small = generate_corpus(small_config(num_videos=3))
        write_corpus(small, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["manifest.json", "v0000.bin", "v0001.bin", "v0002.bin"]
        assert corpus_bytes(read_corpus(tmp_path)) == corpus_bytes(small)

    @pytest.mark.parametrize("manifest", [
        lambda tmp: "{nope",                                            # not JSON
        lambda tmp: json.dumps({"videos": [{"blobs": ["v0000_vis.bin"]}]}),  # a format-1 entry
        lambda tmp: json.dumps({"videos": [{"id": i} for i in ("../outside", str(tmp / "abs"),
                                                               "sub/x", ["keep"], 7)]}),
    ], ids=["not-json", "blobs-not-a-mapping", "names-outside-or-not-bin"])
    def test_rewrite_removes_only_bare_blob_names_of_a_readable_manifest(self, tmp_path, manifest):
        out = tmp_path / "c"
        (out / "sub").mkdir(parents=True)
        # blobs of ids that leave the directory or are no string, a format-1 blob, and
        # a blob of the new corpus, which it overwrites
        bystanders = [tmp_path / "outside.bin", tmp_path / "abs.bin", out / "sub" / "x.bin",
                      out / "['keep'].bin", out / "7.bin", out / "v0000_vis.bin", out / "v0000.bin"]
        for p in bystanders:
            p.write_text("x")
        (out / "manifest.json").write_text(manifest(tmp_path))
        write_corpus(generate_corpus(small_config(num_videos=1)), out)
        assert [p.exists() for p in bystanders] == [True] * 7
        assert (out / "v0000.bin").read_bytes() != b"x"

    def test_rewrite_removes_only_the_dropped_videos_blobs(self, tmp_path):
        out = tmp_path / "c"
        write_corpus(generate_corpus(small_config(num_videos=4)), out)
        manifest = json.loads((out / "manifest.json").read_text())
        ids = ["../outside", str(tmp_path / "abs"), "sub/x"]
        manifest["videos"] += [{"id": i, "gt": []} for i in ids]
        (out / "manifest.json").write_text(json.dumps(manifest))
        (out / "sub").mkdir()
        bystanders = [tmp_path / "outside.bin", tmp_path / "abs.bin", out / "sub" / "x.bin",
                      out / "v0001_vis.bin", out / "keep.bin"]
        for p in bystanders:
            p.write_text("x")
        small = generate_corpus(small_config(num_videos=2))
        write_corpus(small, out)
        assert [p.exists() for p in bystanders] == [True] * 5
        assert sorted(p.name for p in out.glob("v*.bin")) == ["v0000.bin", "v0001.bin", "v0001_vis.bin"]
        assert corpus_bytes(read_corpus(out)) == corpus_bytes(small)

    def test_unreadable_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{nope")
        with pytest.raises(FormatError, match="manifest"):
            read_corpus(tmp_path)

    def test_version_mismatch(self, tmp_path):
        corpus = generate_corpus(small_config(num_videos=1))
        write_corpus(corpus, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["version"] = 42
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="version"):
            read_corpus(tmp_path)

    def test_missing_blob_names_video(self, tmp_path):
        corpus = generate_corpus(small_config(num_videos=2))
        write_corpus(corpus, tmp_path)
        (tmp_path / "v0001.bin").unlink()
        with pytest.raises(FormatError, match="v0001"):
            read_corpus(tmp_path)

    def test_corrupt_blob_magic(self, tmp_path):
        corpus = generate_corpus(small_config(num_videos=1))
        write_corpus(corpus, tmp_path)
        blob = tmp_path / "v0000.bin"
        raw = bytearray(blob.read_bytes())
        raw[:4] = b"XXXX"
        blob.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="bad magic"):
            read_corpus(tmp_path)

    @pytest.mark.parametrize("corrupt, needle", [
        (lambda m: m["videos"][0]["gt"][0].update(end=10_000), "invalid segment"),
        (lambda m: m["videos"][0]["gt"].append(m["videos"][0]["gt"][0]), r"videos\[0\]\.gt\[\d\]: .* overlaps"),
        (lambda m: m["videos"][1].update(id=m["videos"][0]["id"]), r"videos\[1\]\.id"),
        (lambda m: m.update(videos=[]), "'videos' is an empty list"),
        (lambda m: m["videos"][1].update(frames=20), r"videos\[1\]: key 'frames'"),
        (lambda m: m["videos"][1].update(dim=3), r"videos\[1\]: key 'dim'"),
        (lambda m: m["videos"].pop(), "'videos' has length 1, but the config block's num_videos is 2"),
        # format 1: four blobs per video, named by each entry's blobs dict
        (lambda m: m.update(version=1), r"unsupported corpus version 1 in manifest .*manifest\.json"),
        (lambda m: m["videos"][1].update(aligned=False), r"videos\[1\]: key 'aligned' is not a key of a format-2 entry"),
        (lambda m: m["videos"][1].update(blobs={"vis": "v0001_vis.bin"}), r"videos\[1\]: key 'blobs'"),
        *[(lambda m, vid=vid: m["videos"][1].update(id=vid),
           rf"videos\[1\]\.id: '{vid}' does not make a bare \.bin file name")
          for vid in ("../x", "/abs", "sub/x")],
    ], ids=["segment-out-of-bounds", "overlapping-segments", "duplicate-id", "no-videos",
            "frames-off-config", "dim-off-config", "count-off-config", "format-1",
            "holds-aligned", "holds-blobs", "id-up-a-directory", "id-absolute", "id-in-a-subdirectory"])
    def test_invalid_segment_in_manifest(self, tmp_path, corrupt, needle):
        corpus = generate_corpus(small_config(num_videos=2))
        write_corpus(corpus, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        corrupt(manifest)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=needle):
            read_corpus(tmp_path)
