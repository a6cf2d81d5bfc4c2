"""On-disk formats, the synthetic benchmark generator, splits, checkpoints.

Formats (all integers little-endian u32, all floats little-endian f32):

* features  ``C2FT`` | version=1 | T | F | T*F floats, row-major frames
* labels    plain text, one action name per line, plus a dataset-level
            ``mapping.txt`` with ``<id> <name>`` lines
* manifest  ``manifest.json``: list of {id, features, labels, activity, split}
* weights   ``C2FC`` | version=1 | count | per tensor: name_len | name utf-8
            | ndim | dims | f32 payload

Everything loads back bit-exactly at 32-bit precision and every reader
fails loudly (``DataFormatError``) on bad magic, truncation, trailing
garbage, or length mismatches.
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .model import Model, ModelConfig, ProjectionHeads, build_model
from .seeding import substream

FEATURE_MAGIC = b"C2FT"
CHECKPOINT_MAGIC = b"C2FC"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Feature and label files
# ---------------------------------------------------------------------------

def _read(path, text: bool = False):
    """Contents of ``path``; a missing file is a data error that names it."""
    try:
        return Path(path).read_text(encoding="utf-8") if text else Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise DataFormatError(f"{path}: no such file") from exc


def save_features(path, features: np.ndarray) -> None:
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 2:
        raise ValueError("features must be [T, F]")
    t, f = features.shape
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FORMAT_VERSION, t, f))
        fh.write(features.astype("<f4").tobytes())


def load_features(path) -> np.ndarray:
    raw = _read(path)
    if len(raw) < 16:
        raise DataFormatError(f"{path}: truncated header")
    if raw[:4] != FEATURE_MAGIC:
        raise DataFormatError(f"{path}: bad magic {raw[:4]!r}")
    version, t, f = struct.unpack("<III", raw[4:16])
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    expected = 16 + 4 * t * f
    if len(raw) != expected:
        raise DataFormatError(f"{path}: payload is {len(raw)} bytes, expected {expected}")
    return np.frombuffer(raw[16:], dtype="<f4").reshape(t, f).astype(np.float64)


def save_labels(path, names: list[str]) -> None:
    Path(path).write_text("".join(f"{n}\n" for n in names), encoding="utf-8")


def load_label_names(path) -> list[str]:
    text = _read(path, text=True)
    return [line for line in text.splitlines() if line.strip()]


def save_mapping(path, class_names: list[str]) -> None:
    Path(path).write_text("".join(f"{i} {n}\n" for i, n in enumerate(class_names)),
                          encoding="utf-8")


def load_mapping(path) -> list[str]:
    names: dict[int, str] = {}
    for line in _read(path, text=True).splitlines():
        if not line.strip():
            continue
        try:
            idx, name = line.split(maxsplit=1)
            names[int(idx)] = name.strip()
        except ValueError as exc:
            raise DataFormatError(f"{path}: bad mapping line {line!r}") from exc
    if sorted(names) != list(range(len(names))):
        raise DataFormatError(f"{path}: class ids are not contiguous from 0")
    return [names[i] for i in range(len(names))]


def load_labels(path, class_names: list[str]) -> np.ndarray:
    lookup = {n: i for i, n in enumerate(class_names)}
    out = []
    for name in load_label_names(path):
        if name not in lookup:
            raise DataFormatError(f"{path}: unknown action name {name!r}")
        out.append(lookup[name])
    return np.asarray(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# Manifest and dataset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifestEntry:
    id: str
    features: str
    labels: str
    activity: int
    split: str


@dataclass
class Manifest:
    entries: list[ManifestEntry]

    def save(self, path) -> None:
        payload = [vars(e) for e in self.entries]
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Manifest":
        try:
            payload = json.loads(_read(path, text=True))
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
        entries = []
        for item in payload:
            try:
                entries.append(ManifestEntry(id=item["id"], features=item["features"],
                                             labels=item["labels"],
                                             activity=int(item["activity"]),
                                             split=item["split"]))
            except (KeyError, TypeError) as exc:
                raise DataFormatError(f"{path}: malformed entry {item!r}") from exc
        return cls(entries)


@dataclass
class VideoSample:
    vid: str
    features: np.ndarray   # [T, F] float64 in memory
    labels: np.ndarray     # [T] int64
    activity: int
    split: str


class Dataset:
    """All clips of one directory, loaded into memory."""

    def __init__(self, samples: list[VideoSample], class_names: list[str],
                 num_activities: int):
        self.samples = {s.vid: s for s in samples}
        self.class_names = class_names
        self.num_activities = num_activities

    @classmethod
    def load(cls, data_dir) -> "Dataset":
        root = Path(data_dir)
        manifest = Manifest.load(root / "manifest.json")
        class_names = load_mapping(root / "mapping.txt")
        samples = []
        for entry in manifest.entries:
            feats = load_features(root / entry.features)
            labels = load_labels(root / entry.labels, class_names)
            if feats.shape[0] != labels.shape[0]:
                raise DataFormatError(
                    f"{entry.id}: {feats.shape[0]} feature rows vs {labels.shape[0]} labels")
            samples.append(VideoSample(vid=entry.id, features=feats, labels=labels,
                                       activity=entry.activity, split=entry.split))
        num_act = max((s.activity for s in samples), default=-1) + 1
        return cls(samples, class_names, num_act)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def feat_dim(self) -> int:
        return next(iter(self.samples.values())).features.shape[1]

    def split(self, name: str) -> list[VideoSample]:
        return [self.samples[vid] for vid in sorted(self.samples)
                if self.samples[vid].split == name]

    def train(self) -> list[VideoSample]:
        return self.split("train")

    def test(self) -> list[VideoSample]:
        return self.split("test")

    def get(self, vid: str) -> VideoSample:
        return self.samples[vid]


class AuditedDataset:
    """Dataset facade that counts every ground-truth label read per clip.

    The semi-supervised loop runs entirely through this wrapper, which is
    how the tests can prove that no step peeked at labels it was not
    entitled to.
    """

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        self.label_reads: dict[str, int] = {}

    def ids(self, split: str | None = None) -> list[str]:
        return [s.vid for s in (self._dataset.split(split) if split
                                else sorted(self._dataset.samples.values(),
                                            key=lambda s: s.vid))]

    def features(self, vid: str) -> np.ndarray:
        return self._dataset.get(vid).features

    def labels(self, vid: str) -> np.ndarray:
        self.label_reads[vid] = self.label_reads.get(vid, 0) + 1
        return self._dataset.get(vid).labels

    def activity(self, vid: str) -> int:
        return self._dataset.get(vid).activity

    def length(self, vid: str) -> int:
        return self._dataset.get(vid).features.shape[0]

    def reads_for(self, vids) -> int:
        return sum(self.label_reads.get(v, 0) for v in vids)

    @property
    def num_classes(self) -> int:
        return self._dataset.num_classes


# ---------------------------------------------------------------------------
# Synthetic benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticConfig:
    num_videos: int = 60
    num_actions: int = 6
    num_activities: int = 3
    feat_dim: int = 32
    len_range: tuple = (256, 512)
    segments_range: tuple = (4, 7)
    sigma_between: float = 2.4
    sigma_within: float = 1.0
    smooth_radius: int = 2
    frame_noise: float = 1.2
    label_noise: float = 0.0
    test_fraction: float = 0.2
    min_segment_len: int = 32
    seed: int = 7

    def validate(self) -> None:
        if self.sigma_between <= self.sigma_within:
            raise ValueError("sigma_between must exceed sigma_within")
        if self.num_activities < 1 or self.num_actions < 2:
            raise ValueError("need >= 1 activity and >= 2 actions")
        if not (0.0 <= self.label_noise < 1.0):
            raise ValueError("label_noise must lie in [0, 1)")
        if self.frame_noise < 0.0:
            raise ValueError("frame_noise must be non-negative")
        if not (0.0 < self.test_fraction < 1.0):
            raise ValueError("test_fraction must lie in (0, 1)")


def _activity_orders(cfg: SyntheticConfig, rng: np.random.Generator) -> list[np.ndarray]:
    """A characteristic action ordering per activity."""
    return [rng.permutation(cfg.num_actions) for _ in range(cfg.num_activities)]


def _segment_labels(order: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Walk the activity's ordering with occasional skips and detours."""
    c = len(order)
    pos = int(rng.integers(2))
    labels = [int(order[pos])]
    for _ in range(count - 1):
        roll = rng.random()
        if roll < 0.7:
            pos = (pos + 1) % c
        elif roll < 0.9:
            pos = (pos + 2) % c
        else:
            hop = int(rng.integers(1, c))
            pos = (pos + hop) % c
        if int(order[pos]) == labels[-1]:
            pos = (pos + 1) % c
        labels.append(int(order[pos]))
    return np.asarray(labels, dtype=np.int64)


def _segment_durations(total: int, count: int, min_len: int,
                       rng: np.random.Generator) -> np.ndarray:
    for _ in range(200):
        cuts = rng.dirichlet(np.full(count, 5.0))
        durations = np.maximum((cuts * total).astype(np.int64), 1)
        durations[-1] += total - durations.sum()
        if durations.min() >= min_len:
            return durations
    # fall back to an even split when rejection sampling keeps failing
    base = np.full(count, total // count, dtype=np.int64)
    base[-1] += total - base.sum()
    return base


def _smooth(features: np.ndarray, radius: int) -> np.ndarray:
    if radius < 1:
        return features
    width = 2 * radius + 1
    padded = np.pad(features, ((radius, radius), (0, 0)), mode="edge")
    kernel = np.ones(width) / width
    out = np.empty_like(features)
    for col in range(features.shape[1]):
        out[:, col] = np.convolve(padded[:, col], kernel, mode="valid")
    return out


def gen_synthetic(cfg: SyntheticConfig, out_dir) -> Manifest:
    """Write a complete synthetic dataset directory and return its manifest.

    Per-action feature centers sit on a sphere of radius ``sigma_between``;
    frames add isotropic noise ``sigma_within`` and are smoothed with a
    boxcar of the configured radius; ``frame_noise`` is added after the
    smoothing, so per-frame classification is genuinely ambiguous while
    temporal context resolves it.
    """
    cfg.validate()
    root = Path(out_dir)
    (root / "features").mkdir(parents=True, exist_ok=True)
    (root / "labels").mkdir(parents=True, exist_ok=True)

    centers_rng = substream(cfg.seed, "synth-centers")
    structure_rng = substream(cfg.seed, "synth-structure")
    frames_rng = substream(cfg.seed, "synth-frames")
    split_rng = substream(cfg.seed, "synth-split")

    directions = centers_rng.normal(size=(cfg.num_actions, cfg.feat_dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    centers = cfg.sigma_between * directions
    orders = _activity_orders(cfg, structure_rng)

    class_names = [f"act{i:02d}" for i in range(cfg.num_actions)]
    save_mapping(root / "mapping.txt", class_names)

    activities = np.array([i % cfg.num_activities for i in range(cfg.num_videos)])
    test_ids: set[int] = set()
    for a in range(cfg.num_activities):
        members = np.flatnonzero(activities == a)
        k = max(1, round(cfg.test_fraction * len(members)))
        test_ids.update(split_rng.choice(members, size=k, replace=False).tolist())

    entries = []
    for i in range(cfg.num_videos):
        vid = f"vid{i:03d}"
        activity = int(activities[i])
        total = int(structure_rng.integers(cfg.len_range[0], cfg.len_range[1] + 1))
        count = int(structure_rng.integers(cfg.segments_range[0], cfg.segments_range[1] + 1))
        seg_labels = _segment_labels(orders[activity], count, structure_rng)
        durations = _segment_durations(total, count, cfg.min_segment_len, structure_rng)
        frame_labels = np.repeat(seg_labels, durations)
        if cfg.label_noise > 0.0:
            flips = frames_rng.random(total) < cfg.label_noise
            noise = frames_rng.integers(cfg.num_actions, size=total)
            frame_labels = np.where(flips, noise, frame_labels)
        feats = centers[frame_labels] + cfg.sigma_within * frames_rng.normal(
            size=(total, cfg.feat_dim))
        feats = _smooth(feats, cfg.smooth_radius)
        if cfg.frame_noise > 0.0:
            # high-frequency noise on top of the smoothed signal: frame-wise
            # classifiers eat it in full, temporal models can average it away
            feats = feats + cfg.frame_noise * frames_rng.normal(
                size=(total, cfg.feat_dim))
        feat_rel = f"features/{vid}.feat"
        label_rel = f"labels/{vid}.txt"
        save_features(root / feat_rel, feats)
        save_labels(root / label_rel, [class_names[l] for l in frame_labels])
        entries.append(ManifestEntry(id=vid, features=feat_rel, labels=label_rel,
                                     activity=activity,
                                     split="test" if i in test_ids else "train"))
    manifest = Manifest(entries)
    manifest.save(root / "manifest.json")
    return manifest


# ---------------------------------------------------------------------------
# Labeled/unlabeled splits for semi-supervision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    labeled: tuple
    unlabeled: tuple
    seed: int


def make_split(dataset: Dataset, labeled_fraction: float, seed: int,
               max_retries: int = 50) -> SplitSpec:
    """Choose which training clips keep their labels.

    The labeled pool has max(3, floor(fraction * n)) clips (capped at n)
    and is redrawn up to ``max_retries`` times until every action class
    appears in it; if full coverage is impossible the best draw is kept
    with a warning.
    """
    if not (0.0 < labeled_fraction <= 1.0):
        raise ValueError("labeled_fraction must lie in (0, 1]")
    train = dataset.train()
    ids = [s.vid for s in train]
    n = len(ids)
    if n == 0:
        raise ValueError("dataset has no training clips")
    k = min(n, max(3, int(labeled_fraction * n)))
    all_classes = set()
    for s in train:
        all_classes.update(np.unique(s.labels).tolist())
    best: tuple | None = None
    best_cover = -1
    for attempt in range(max_retries):
        rng = substream(seed, f"split-{attempt}")
        chosen = tuple(sorted(rng.choice(ids, size=k, replace=False).tolist()))
        covered = set()
        for vid in chosen:
            covered.update(np.unique(dataset.get(vid).labels).tolist())
        if covered >= all_classes:
            best = chosen
            break
        if len(covered) > best_cover:
            best, best_cover = chosen, len(covered)
    else:
        warnings.warn("labeled split does not cover every action class")
    labeled = set(best)
    unlabeled = tuple(v for v in ids if v not in labeled)
    return SplitSpec(labeled=tuple(sorted(labeled)), unlabeled=unlabeled, seed=seed)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(tensors)))
        for name, value in tensors.items():
            encoded = name.encode("utf-8")
            value = np.asarray(value, dtype="<f4")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", value.ndim))
            fh.write(struct.pack(f"<{value.ndim}I", *value.shape))
            fh.write(value.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    raw = _read(path)
    if len(raw) < 12:
        raise DataFormatError(f"{path}: truncated header")
    if raw[:4] != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: bad magic {raw[:4]!r}")
    version, count = struct.unpack("<II", raw[4:12])
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    offset = 12
    tensors: dict[str, np.ndarray] = {}

    def take(nbytes: int) -> bytes:
        nonlocal offset
        if offset + nbytes > len(raw):
            raise DataFormatError(f"{path}: truncated at byte {offset}")
        chunk = raw[offset:offset + nbytes]
        offset += nbytes
        return chunk

    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode("utf-8")
        (ndim,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim)) if ndim else ()
        size = int(np.prod(dims)) if dims else 1
        if ndim and 0 in dims:
            size = 0
        payload = np.frombuffer(take(4 * size), dtype="<f4")
        if name in tensors:
            raise DataFormatError(f"{path}: duplicate tensor {name!r}")
        tensors[name] = payload.reshape(dims).astype(np.float64)
    if offset != len(raw):
        raise DataFormatError(f"{path}: {len(raw) - offset} trailing bytes")
    return tensors


_META_UPSAMPLE = {"linear": 0.0, "nearest": 1.0}


def model_state(model: Model) -> dict[str, np.ndarray]:
    """Named tensors for a checkpoint: parameters, norm buffers, and enough
    metadata to rebuild the exact topology.  Parameters and buffers are the
    model's own arrays, not copies; ``load_into`` writes through them."""
    cfg = model.cfg
    state: dict[str, np.ndarray] = {
        "meta.model": np.array([cfg.input_dim, cfg.num_classes, cfg.num_activities,
                                cfg.kernel, cfg.depth, _META_UPSAMPLE[cfg.upsample_mode],
                                1.0 if cfg.skip_connections else 0.0,
                                cfg.activity_hidden]),
        "meta.encoder_channels": np.asarray(cfg.encoder_channels, dtype=np.float64),
        "meta.decoder_channels": np.asarray(cfg.decoder_channels, dtype=np.float64),
        "meta.tpp_windows": np.asarray(cfg.tpp_windows, dtype=np.float64),
    }
    heads = dict(model.heads.named_parameters())
    for name, tensor in model.named_parameters():
        if name not in heads:
            state[name] = tensor.data
    for name, tensor in heads.items():  # heads last: the checkpoint order
        state[name] = tensor.data
    for name, buf in model.named_buffers():
        state[name] = buf
    return state


def config_from_state(state: dict[str, np.ndarray]) -> ModelConfig:
    try:
        meta = state["meta.model"]
        enc = state["meta.encoder_channels"]
        dec = state["meta.decoder_channels"]
        tpp = state["meta.tpp_windows"]
    except KeyError as exc:
        raise DataFormatError(f"checkpoint lacks metadata tensor {exc}") from exc
    mode = "nearest" if meta[5] > 0.5 else "linear"
    return ModelConfig(input_dim=int(meta[0]), num_classes=int(meta[1]),
                       num_activities=int(meta[2]), kernel=int(meta[3]),
                       depth=int(meta[4]), encoder_channels=tuple(int(c) for c in enc),
                       decoder_channels=tuple(int(c) for c in dec),
                       tpp_windows=tuple(int(w) for w in tpp), upsample_mode=mode,
                       skip_connections=bool(meta[6] > 0.5),
                       activity_hidden=int(meta[7]))


def load_into(model: Model, state: dict[str, np.ndarray],
              source: str = "checkpoint") -> None:
    """Copy every parameter and norm buffer of ``state`` into the model's own
    arrays, which ``model_state`` hands out live; shapes must match."""
    targets = model_state(model)
    missing = sorted(set(targets) - set(state))
    if missing:
        raise DataFormatError(f"{source}: missing tensor {missing[0]!r}")
    extra = sorted(set(state) - set(targets))
    if extra:
        raise DataFormatError(f"{source}: unexpected tensor {extra[0]!r}")
    for name, value in state.items():
        if name.startswith("meta."):
            continue
        target = targets[name]
        if target.shape != value.shape:
            raise DataFormatError(f"{source}: tensor {name!r} has shape {value.shape}, "
                                  f"expected {target.shape}")
        target[...] = value


def save_model(path, model: Model) -> None:
    save_checkpoint(path, model_state(model))


def restore_model(path) -> tuple[Model, ProjectionHeads]:
    """Rebuild a model (and its operative heads) from a weights file alone."""
    state = load_checkpoint(path)
    cfg = config_from_state(state)
    model = build_model(cfg, seed=0)
    load_into(model, state, source=str(path))
    return model, model.heads
