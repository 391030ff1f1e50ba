"""Synthetic corpus generator with controllable modality reliability.

Each video is a frame-major float64 matrix of visual features plus three
language streams (classification, localization, advantage carrier).  Two
per-class knobs shape the bias structure:

* ambiguity[c] blends class c's visual prototype with a designated partner
  class, so high-ambiguity classes are hard to separate from vision alone;
* helpfulness[c] scales how much true signal the language streams carry.

All randomness flows through one seeded Rng in a fixed draw order, so a
config generates byte-identical corpora on every run.

A corpus on disk (format ``CORPUS_VERSION``) is a manifest plus one blob
per video, ``{id}.bin``: a ``4 * frames`` x ``dim`` matrix that stacks the
video's ``vis``, ``cls``, ``loc`` and ``adv`` streams by rows.  A manifest
entry holds a video's id and ground truth; the shape comes from the config
block.  ``open_corpus`` checks the manifest and reads one blob per video,
as a reader iterates the videos, whose four streams are views of that one
buffer; ``read_corpus`` holds them all in memory.  The
conflicted twin and the distractor clips are functions of the corpus:
each seeds its own Rng from the corpus seed and a salt, and is
generated one video at a time, the twin from each video as it is read.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import blobio
from .errors import ConfigError, FormatError, read_config_block, read_json, write_atomic
from .nn import Rng

MIN_SEGMENT = 8      # frames; shortest generated action
MAX_SEGMENTS = 3     # per video
RAMP_SCALE = 32.0    # frames; normalizer for the boundary-distance ramps
NOISE_SIGMA = 1.0    # std of the white noise on every vision and language stream
BACKGROUND_FRACTION = 0.4  # share of a video's frames that no segment covers
CORPUS_VERSION = 2   # the manifest's format: one blob per video, entries of an id and ground truth
# decorrelate the conflicted twin's and the distractor clips' draws from the corpus stream
_CONFLICT_SALT = 0xC04F11C7ED
_DISTRACTOR_SALT = 0xD15C1A1B0A7E11ED


@dataclass(frozen=True)
class GenConfig:
    """A corpus's settings.  The defaults are the stock corpus, the bias
    benchmark: classes 0-3 visually easy with unhelpful language, classes
    4-7 visually ambiguous with highly informative language.  The noise
    level and the background share are the module constants
    ``NOISE_SIGMA`` and ``BACKGROUND_FRACTION``."""
    num_classes: int = 8
    num_videos: int = 64
    frames: int = 256
    dim: int = 32
    ambiguity: tuple[float, ...] = (0.1, 0.1, 0.1, 0.1, 0.8, 0.8, 0.8, 0.8)
    helpfulness: tuple[float, ...] = (0.2, 0.2, 0.2, 0.2, 0.9, 0.9, 0.9, 0.9)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "ambiguity", tuple(float(a) for a in self.ambiguity))
        object.__setattr__(self, "helpfulness", tuple(float(h) for h in self.helpfulness))

    def validate(self) -> "GenConfig":
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.num_videos < 1:
            raise ConfigError(f"num_videos must be >= 1, got {self.num_videos}")
        if self.frames < 16:
            raise ConfigError(f"frames must be >= 16, got {self.frames}")
        if self.dim < 4:
            raise ConfigError(f"dim must be >= 4, got {self.dim}")
        for name, values in (("ambiguity", self.ambiguity), ("helpfulness", self.helpfulness)):
            if len(values) != self.num_classes:
                raise ConfigError(f"{name} needs {self.num_classes} entries, got {len(values)}")
            if any(not (0.0 <= v <= 1.0) for v in values):
                raise ConfigError(f"{name} entries must lie in [0, 1], got {values}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        return self


@dataclass(eq=False)
class Segment:
    start: int
    end: int
    label: int


@dataclass(eq=False)
class LanguageBundle:
    cls_stream: np.ndarray
    loc_stream: np.ndarray
    adv_stream: np.ndarray


@dataclass(eq=False)
class VideoRecord:
    id: str
    vis: np.ndarray
    lang: LanguageBundle | None  # None: the vision-only view of a video
    gt: list[Segment] = field(default_factory=list)

    def vision_view(self) -> "VideoRecord":
        """The video without its language: its frames and ground truth."""
        return VideoRecord(self.id, self.vis, None, self.gt)


@dataclass(eq=False)
class Corpus:
    config: GenConfig
    videos: list[VideoRecord] | StoredVideos  # a stored corpus's videos are read on demand


def partner_class(c: int, num_classes: int) -> int:
    """The designated confusable partner: adjacent pairing (0,1), (2,3), ...

    With an odd class count the last class pairs with class 0.
    """
    if c % 2 == 0:
        p = c + 1
    else:
        p = c - 1
    return p if p < num_classes else 0


@dataclass(eq=False)
class _Latents:
    vis_protos: np.ndarray    # C x D
    vis_bg: np.ndarray        # 1 x D
    lang_protos: np.ndarray   # C x D
    lang_bg: np.ndarray       # 1 x D
    adv_dir: np.ndarray       # 1 x D


def _draw_latents(cfg: GenConfig, rng: Rng) -> _Latents:
    return _Latents(
        vis_protos=rng.normal_matrix(cfg.num_classes, cfg.dim),
        vis_bg=rng.normal_matrix(1, cfg.dim),
        lang_protos=rng.normal_matrix(cfg.num_classes, cfg.dim),
        lang_bg=rng.normal_matrix(1, cfg.dim),
        adv_dir=rng.normal_matrix(1, cfg.dim),
    )


def _split(total: int, parts: int, minimum: int, rng: Rng) -> list[int]:
    """Randomly split ``total`` into ``parts`` integers, each >= minimum."""
    extra = total - parts * minimum
    weights = [rng.uniform() + 0.25 for _ in range(parts)]
    wsum = sum(weights)
    sizes = [minimum + int(extra * w / wsum) for w in weights]
    sizes[-1] += total - sum(sizes)
    return sizes


def _sample_segments(cfg: GenConfig, rng: Rng) -> list[Segment]:
    L = cfg.frames
    budget = int(round((1.0 - BACKGROUND_FRACTION) * L))
    budget = max(MIN_SEGMENT, min(budget, L))
    max_segs = max(1, min(MAX_SEGMENTS, budget // MIN_SEGMENT))
    n = 1 + rng.randint(max_segs)
    lengths = _split(budget, n, MIN_SEGMENT, rng)
    gaps = _split(L - budget, n + 1, 0, rng)
    segments = []
    cursor = gaps[0]
    for j in range(n):
        start = cursor
        end = start + lengths[j]
        segments.append(Segment(start, end, rng.randint(cfg.num_classes)))
        cursor = end + gaps[j + 1]
    return segments


def _vision_frames(cfg: GenConfig, lat: _Latents, segments: list[Segment], rng: Rng,
                   force_beta: float | None = None) -> np.ndarray:
    """Per-frame vision features: background prototype outside segments,
    a class/partner mixture inside, plus white noise.

    The mixing weight is drawn per segment, beta ~ U[1-a, 1], so at
    ambiguity a the class and its partner produce overlapping appearance
    distributions: a=0 is always the pure prototype, a=1 makes the pair
    visually indistinguishable.  Appearance varies per segment while the
    language side still names the true class, which is exactly the gap a
    language prior can exploit.  ``force_beta`` pins the weight instead
    (distractor clips use the pair midpoint, the most ambiguous look).
    """
    noise = rng.normal_matrix(cfg.frames, cfg.dim, NOISE_SIGMA)
    base = np.repeat(lat.vis_bg, cfg.frames, axis=0)
    for seg in segments:
        if force_beta is None:
            beta = 1.0 - cfg.ambiguity[seg.label] * rng.uniform()
        else:
            beta = force_beta
        proto = beta * lat.vis_protos[seg.label] \
            + (1.0 - beta) * lat.vis_protos[partner_class(seg.label, cfg.num_classes)]
        base[seg.start:seg.end] = proto
    noise += base  # into the fresh noise: the bits of base + noise
    return noise


def _language_bundle(cfg: GenConfig, lat: _Latents, segments: list[Segment],
                     stream_labels: list[int], rng: Rng) -> LanguageBundle:
    """Language streams for a fixed segment layout.

    ``stream_labels`` names the class each segment's streams describe; it
    equals the ground-truth labels for an aligned bundle and a deranged
    relabeling for a conflicted one.
    """
    L, D = cfg.frames, cfg.dim
    cls_noise = rng.normal_matrix(L, D, NOISE_SIGMA)
    loc_noise = rng.normal_matrix(L, D, NOISE_SIGMA)
    adv_noise = rng.normal_matrix(L, D, NOISE_SIGMA)

    mean_h = float(np.mean(cfg.helpfulness))
    cls = np.repeat(mean_h * lat.lang_bg, L, axis=0)
    loc = np.zeros((L, D))
    # Background frames still carry an advantage signal at the corpus-average
    # helpfulness: confirming the absence of an action is useful too, and it
    # keeps the gate from treating every quiet stretch as vision-only.
    adv = np.repeat(mean_h * lat.adv_dir, L, axis=0)
    for seg, lab in zip(segments, stream_labels):
        h = cfg.helpfulness[lab]
        cls[seg.start:seg.end] = h * lat.lang_protos[lab]
        idx = np.arange(seg.start, seg.end, dtype=np.float64)
        loc[seg.start:seg.end, 0] = h * (idx - seg.start) / RAMP_SCALE
        loc[seg.start:seg.end, 1] = h * (seg.end - idx) / RAMP_SCALE
        adv[seg.start:seg.end] = h * lat.adv_dir
    cls_noise += cls  # each base into its fresh noise: the bits of base + noise
    loc_noise += loc
    adv_noise += adv
    return LanguageBundle(cls_noise, loc_noise, adv_noise)


def generate_corpus(cfg: GenConfig) -> Corpus:
    """Deterministically generate a corpus: same config, same bytes."""
    cfg.validate()
    rng = Rng(cfg.seed)
    lat = _draw_latents(cfg, rng)
    videos = []
    for i in range(cfg.num_videos):
        segments = _sample_segments(cfg, rng)
        vis = _vision_frames(cfg, lat, segments, rng)
        lang = _language_bundle(cfg, lat, segments, [s.label for s in segments], rng)
        videos.append(VideoRecord(f"v{i:04d}", vis, lang, segments))
    return Corpus(cfg, videos)


def inject_conflict(cfg: GenConfig) -> Callable[[VideoRecord], VideoRecord]:
    """The twin of the corpus of config ``cfg``, drawn one video at a time:
    a function that gives a video's conflicted twin, its language
    regenerated under a seeded derangement of class identities.

    Vision frames and ground truth are reused untouched (the same arrays);
    every segment's language streams describe a different class than the
    one actually present, so language evidence actively contradicts vision.
    The derangement is drawn at the call, from the corpus seed salted with
    ``_CONFLICT_SALT``; each twin's noise is drawn from the same Rng as its
    video is given, so applied to the corpus's videos in corpus order it
    builds the corpus's one twin.  Only a video's frames and ground truth
    are read, so a vision view (``lang=None``) has the same twin as the
    video it was taken from.
    """
    if cfg.num_classes < 2:
        raise ConfigError("conflict injection needs at least 2 classes")
    rng = Rng(cfg.seed ^ _CONFLICT_SALT)
    pi = rng.derangement(cfg.num_classes)
    lat = _draw_latents(cfg, Rng(cfg.seed))

    def twin(video: VideoRecord) -> VideoRecord:
        lang = _language_bundle(cfg, lat, video.gt, [pi[seg.label] for seg in video.gt], rng)
        return VideoRecord(video.id, video.vis, lang, video.gt)
    return twin


def generate_distractors(cfg: GenConfig) -> Iterator[VideoRecord]:
    """Maximum-ambiguity clips that contain no annotated action.

    Each clip shows pseudo-segments blended 50/50 between a class and its
    partner (the most confusable possible look), drawing only from the
    classes with the highest configured ambiguity.  The language streams
    carry background semantics at the class's helpfulness scale: language
    that faithfully reports "no completed action here".  Ground truth is
    empty.  The advantage carrier keeps its usual in-segment pattern so a
    trained gate responds as it would on real footage.

    There are ``cfg.num_videos`` clips, drawn from the corpus seed salted
    with ``_DISTRACTOR_SALT``.  The config is checked at the call; the
    returned iterator then builds the clips one at a time, ids ``d0000``,
    ``d0001``, ...  ``list(...)`` it to read them twice.
    """
    cfg.validate()
    peak = max(cfg.ambiguity)
    eligible = [c for c in range(cfg.num_classes) if cfg.ambiguity[c] == peak]
    lat = _draw_latents(cfg, Rng(cfg.seed))
    rng = Rng(cfg.seed ^ _DISTRACTOR_SALT)
    return (_distractor(cfg, lat, eligible, rng, f"d{i:04d}") for i in range(cfg.num_videos))


def _distractor(cfg: GenConfig, lat: _Latents, eligible: list[int], rng: Rng,
                vid: str) -> VideoRecord:
    """One ``generate_distractors`` clip, its draws taken from ``rng``."""
    pseudo = [Segment(s.start, s.end, eligible[rng.randint(len(eligible))])
              for s in _sample_segments(cfg, rng)]
    vis = _vision_frames(cfg, lat, pseudo, rng, force_beta=0.5)
    cls_noise = rng.normal_matrix(cfg.frames, cfg.dim, NOISE_SIGMA)
    loc_noise = rng.normal_matrix(cfg.frames, cfg.dim, NOISE_SIGMA)
    adv_noise = rng.normal_matrix(cfg.frames, cfg.dim, NOISE_SIGMA)
    mean_h = float(np.mean(cfg.helpfulness))
    cls = np.repeat(mean_h * lat.lang_bg, cfg.frames, axis=0)
    adv = np.zeros((cfg.frames, cfg.dim))
    for seg in pseudo:
        h = cfg.helpfulness[seg.label]
        cls[seg.start:seg.end] = h * lat.lang_bg
        adv[seg.start:seg.end] = h * lat.adv_dir
    cls_noise += cls  # each base into its fresh noise: the bits of base + noise
    adv_noise += adv
    lang = LanguageBundle(cls_noise, loc_noise, adv_noise)
    return VideoRecord(vid, vis, lang, [])


def _blob_name(vid) -> str | None:
    """The name of video ``vid``'s blob, ``{vid}.bin``, if ``vid`` is a string
    that makes it a bare file name, one in the manifest's directory; else None."""
    name = f"{vid}.bin"
    return name if isinstance(vid, str) and Path(name).name == name else None


def _manifest_blobs(path: Path) -> set[str]:
    """The blob names (``_blob_name``) of a corpus manifest's entry ids; none
    for a missing or unreadable manifest, or for an id that does not make a
    bare file name."""
    try:
        ids = [entry["id"] for entry in read_json(path, "manifest")["videos"]]
    except (OSError, FormatError, LookupError, TypeError):
        return set()
    return set(filter(None, map(_blob_name, ids)))


def write_corpus(corpus: Corpus, out_dir) -> Path:
    """Write one blob per video plus a manifest; returns the manifest path.

    An old manifest is removed before the first blob is written, and the
    new one is written last and atomically: a write that stops part-way
    leaves a directory without a manifest, which ``open_corpus`` rejects,
    never a manifest beside another corpus's blobs.  Once the new manifest
    is written, the blobs of the old one's ids that the new one lacks are
    removed.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "manifest.json"
    old_blobs = _manifest_blobs(path)
    path.unlink(missing_ok=True)
    entries = []
    for video in corpus.videos:
        lang = video.lang
        blobio.write_matrix(out_dir / f"{video.id}.bin",
                            np.concatenate((video.vis, lang.cls_stream, lang.loc_stream, lang.adv_stream)))
        entries.append({
            "id": video.id,
            "gt": [{"start": int(s.start), "end": int(s.end), "label": int(s.label)} for s in video.gt],
        })
    manifest = {"version": CORPUS_VERSION, "config": asdict(corpus.config), "videos": entries}
    write_atomic(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    for name in old_blobs - {f"{entry['id']}.bin" for entry in entries}:
        (out_dir / name).unlink(missing_ok=True)
    return path


def _get(obj, key: str, kind: type, where: str):
    """``obj[key]``, which must exist and have JSON type ``kind``."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if type(value) is not kind:
        raise FormatError(f"{where}: key {key!r} is missing or not of type {kind.__name__}")
    return value


@dataclass(eq=False)
class _StoredVideo:
    """What the manifest says of one stored video; its blob is read on demand."""
    id: str
    path: Path
    gt: list[Segment]


def _read_video(entry: _StoredVideo, frames: int, dim: int) -> VideoRecord:
    """One stored video: its blob, read and checked against the config block's
    shape, whose four row blocks are its streams, views of the one buffer."""
    m = blobio.read_matrix(entry.path)
    if m.shape != (4 * frames, dim):
        raise FormatError(f"video {entry.id}: blob {entry.path} has shape {m.shape}, not "
                          f"{(4 * frames, dim)}: four streams of the config block's frames x dim")
    vis, cls, loc, adv = m.reshape(4, frames, dim)
    return VideoRecord(entry.id, vis, LanguageBundle(cls, loc, adv), entry.gt)


class StoredVideos:
    """The videos of a stored corpus, read from their blobs on every iteration.

    ``len`` comes from the manifest.  An iteration reads and checks one
    video's blob at a time, in manifest order, yields the video and keeps
    nothing of it, so a reader that drops each video before asking for the
    next holds one at a time.
    """

    def __init__(self, entries: list[_StoredVideo], cfg: GenConfig):
        self._entries = entries
        self._shape = (cfg.frames, cfg.dim)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[VideoRecord]:
        return (_read_video(entry, *self._shape) for entry in self._entries)


def open_corpus(in_dir) -> Corpus:
    """A stored corpus whose ``videos`` are read one at a time (``StoredVideos``).

    Every manifest check runs here, before any blob is read: a missing
    manifest or blob, and a manifest ``write_corpus`` cannot have written
    (a version other than ``CORPUS_VERSION``, a config block with a key
    missing, unknown or of the wrong JSON type, no videos, a video count off
    the config block, an entry with a key other than ``id`` and ``gt``, a
    repeated id, an id that does not make a bare ``.bin`` file name, a
    segment out of bounds or overlapping another), is a FormatError naming
    the key.  Each blob is checked as its video is read: its header, size
    and finite payload (``blobio.read_matrix``) and its shape against the
    config block's.
    """
    in_dir = Path(in_dir)
    manifest_path = in_dir / "manifest.json"
    if not manifest_path.exists():
        raise FormatError(f"no manifest.json in {in_dir}")
    manifest = read_json(manifest_path, "manifest")
    where = f"manifest {manifest_path}"
    version = _get(manifest, "version", int, where)
    if version != CORPUS_VERSION:
        raise FormatError(f"unsupported corpus version {version} in {where}; "
                          f"gen writes version {CORPUS_VERSION}")
    cfg = read_config_block(GenConfig, _get(manifest, "config", dict, where), where)
    entries = _get(manifest, "videos", list, where)
    if not entries:
        raise FormatError(f"{where}: key 'videos' is an empty list")
    if len(entries) != cfg.num_videos:
        raise FormatError(f"{where}: key 'videos' has length {len(entries)}, "
                          f"but the config block's num_videos is {cfg.num_videos}")
    videos = []
    for i, entry in enumerate(entries):
        at = f"{where}, videos[{i}]"
        vid = _get(entry, "id", str, at)
        extra = [key for key in entry if key not in ("id", "gt")]
        if extra:  # a former key (blobs, frames, dim, aligned) or one no version wrote
            raise FormatError(f"{at}: key {extra[0]!r} is not a key of a format-{CORPUS_VERSION} "
                              "entry, which holds only 'id' and 'gt'")
        if any(v.id == vid for v in videos):
            raise FormatError(f"{at}.id: duplicate video id {vid!r}")
        name = _blob_name(vid)
        if name is None:
            raise FormatError(f"{at}.id: {vid!r} does not make a bare .bin file name "
                              "in the corpus directory")
        blob_path = in_dir / name
        if not blob_path.is_file():
            raise FormatError(f"video {vid}: missing blob {blob_path}")
        gt = []
        for j, seg in enumerate(_get(entry, "gt", list, at)):
            s, e, lab = (_get(seg, k, int, f"{at}.gt[{j}]") for k in ("start", "end", "label"))
            if not (0 <= s < e <= cfg.frames) or not (0 <= lab < cfg.num_classes):
                raise FormatError(f"video {vid}: invalid segment {seg} in {where}")
            if any(s < g.end and g.start < e for g in gt):
                raise FormatError(f"{at}.gt[{j}]: segment ({s}, {e}) overlaps an earlier one")
            gt.append(Segment(s, e, lab))
        videos.append(_StoredVideo(vid, blob_path, gt))
    return Corpus(cfg, StoredVideos(videos, cfg))


def read_corpus(in_dir) -> Corpus:
    """Byte-exact inverse of write_corpus: ``open_corpus`` with every video
    read into memory, for readers that pass over the videos more than once
    (training reads all of them every epoch)."""
    corpus = open_corpus(in_dir)
    return Corpus(corpus.config, list(corpus.videos))
