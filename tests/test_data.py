"""On-disk formats, the synthetic generator, splits, and checkpoints."""

import struct
import time
import warnings

import numpy as np
import pytest

from c2fseg.data import (
    AuditedDataset,
    Dataset,
    Manifest,
    ManifestEntry,
    SyntheticConfig,
    VideoSample,
    config_from_state,
    gen_synthetic,
    load_checkpoint,
    load_features,
    load_into,
    load_labels,
    load_mapping,
    make_split,
    model_state,
    restore_model,
    save_checkpoint,
    save_features,
    save_labels,
    save_mapping,
    save_model,
)
from c2fseg.errors import DataFormatError
from c2fseg.model import ModelConfig, build_model


# ---------------------------------------------------------------------------
# feature files


def test_features_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(17, 5)).astype(np.float32).astype(np.float64)
    path = tmp_path / "x.feat"
    save_features(path, feats)
    back = load_features(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, feats)
    # a second save produces identical bytes
    save_features(tmp_path / "y.feat", feats)
    assert path.read_bytes() == (tmp_path / "y.feat").read_bytes()


def test_feature_header_arithmetic(tmp_path):
    path = tmp_path / "small.feat"
    save_features(path, np.arange(6, dtype=np.float64).reshape(3, 2))
    raw = path.read_bytes()
    assert len(raw) == 16 + 24
    assert raw[:4] == b"C2FT"
    version, t, f = struct.unpack("<III", raw[4:16])
    assert (version, t, f) == (1, 3, 2)
    np.testing.assert_array_equal(
        np.frombuffer(raw[16:], dtype="<f4"), np.arange(6, dtype=np.float32)
    )


def test_feature_bad_magic(tmp_path):
    path = tmp_path / "bad.feat"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(DataFormatError, match="magic"):
        load_features(path)


def test_feature_truncation(tmp_path):
    path = tmp_path / "short.feat"
    save_features(path, np.zeros((4, 3)))
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(DataFormatError):
        load_features(path)
    (tmp_path / "header.feat").write_bytes(b"C2FT\x01\x00")
    with pytest.raises(DataFormatError, match="truncated"):
        load_features(tmp_path / "header.feat")


def test_feature_trailing_garbage(tmp_path):
    path = tmp_path / "long.feat"
    save_features(path, np.zeros((2, 2)))
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(DataFormatError):
        load_features(path)


def test_feature_unsupported_version(tmp_path):
    path = tmp_path / "v9.feat"
    save_features(path, np.zeros((1, 1)))
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="version"):
        load_features(path)


def test_feature_shape_validation(tmp_path):
    with pytest.raises(ValueError):
        save_features(tmp_path / "flat.feat", np.zeros(7))


# ---------------------------------------------------------------------------
# labels and mapping


def test_labels_round_trip(tmp_path):
    classes = ["pour", "stir", "wait"]
    save_mapping(tmp_path / "mapping.txt", classes)
    names = ["stir", "stir", "pour", "wait"]
    save_labels(tmp_path / "l.txt", names)
    assert load_mapping(tmp_path / "mapping.txt") == classes
    got = load_labels(tmp_path / "l.txt", classes)
    np.testing.assert_array_equal(got, [1, 1, 0, 2])


def test_labels_unknown_name(tmp_path):
    save_labels(tmp_path / "l.txt", ["chop"])
    with pytest.raises(DataFormatError, match="chop"):
        load_labels(tmp_path / "l.txt", ["pour", "stir"])


def test_mapping_bad_line(tmp_path):
    (tmp_path / "mapping.txt").write_text("zero pour\n")
    with pytest.raises(DataFormatError, match="bad mapping line"):
        load_mapping(tmp_path / "mapping.txt")


def test_mapping_non_contiguous_ids(tmp_path):
    (tmp_path / "mapping.txt").write_text("0 pour\n2 stir\n")
    with pytest.raises(DataFormatError, match="contiguous"):
        load_mapping(tmp_path / "mapping.txt")


# ---------------------------------------------------------------------------
# manifest and dataset loading


def write_tiny_dataset(root, lengths=(12, 10), mismatch=False):
    (root / "features").mkdir()
    (root / "labels").mkdir()
    classes = ["a", "b"]
    save_mapping(root / "mapping.txt", classes)
    entries = []
    rng = np.random.default_rng(1)
    for i, t in enumerate(lengths):
        vid = f"v{i}"
        save_features(root / f"features/{vid}.feat", rng.normal(size=(t, 3)))
        label_len = t - 1 if (mismatch and i == 0) else t
        save_labels(root / f"labels/{vid}.txt",
                    [classes[j % 2] for j in range(label_len)])
        entries.append(ManifestEntry(id=vid, features=f"features/{vid}.feat",
                                     labels=f"labels/{vid}.txt", activity=i % 2,
                                     split="train" if i == 0 else "test"))
    Manifest(entries).save(root / "manifest.json")


def test_manifest_round_trip(tmp_path):
    entries = [ManifestEntry("v0", "f.feat", "l.txt", 1, "train")]
    Manifest(entries).save(tmp_path / "m.json")
    back = Manifest.load(tmp_path / "m.json")
    assert back.entries == entries


def test_manifest_bad_json(tmp_path):
    (tmp_path / "m.json").write_text("{not json")
    with pytest.raises(DataFormatError, match="JSON"):
        Manifest.load(tmp_path / "m.json")


@pytest.mark.parametrize("payload", ["[]", "5", '"clips"'])
def test_manifest_must_be_a_non_empty_list(tmp_path, payload):
    (tmp_path / "m.json").write_text(payload)
    with pytest.raises(DataFormatError, match="non-empty JSON list"):
        Manifest.load(tmp_path / "m.json")


def test_manifest_malformed_entry(tmp_path):
    (tmp_path / "m.json").write_text('[{"id": "v0"}]')
    with pytest.raises(DataFormatError, match="malformed"):
        Manifest.load(tmp_path / "m.json")


def test_dataset_load_and_accessors(tmp_path):
    write_tiny_dataset(tmp_path)
    ds = Dataset.load(tmp_path)
    assert ds.num_classes == 2
    assert ds.feat_dim == 3
    assert ds.num_activities == 2
    assert [s.vid for s in ds.train()] == ["v0"]
    assert [s.vid for s in ds.test()] == ["v1"]
    assert ds.get("v1").features.shape == (10, 3)


def test_dataset_length_mismatch(tmp_path):
    write_tiny_dataset(tmp_path, mismatch=True)
    with pytest.raises(DataFormatError, match="feature rows"):
        Dataset.load(tmp_path)


def test_dataset_refuses_a_clip_without_frames(tmp_path):
    write_tiny_dataset(tmp_path, lengths=(12, 0))
    with pytest.raises(DataFormatError, match="^v1: clip has no frames$"):
        Dataset.load(tmp_path)


def test_dataset_refuses_a_clip_of_another_feature_width(tmp_path):
    write_tiny_dataset(tmp_path)
    save_features(tmp_path / "features/v1.feat", np.zeros((10, 5)))
    with pytest.raises(DataFormatError,
                       match="^v1: 5 features per frame, but v0 has 3$"):
        Dataset.load(tmp_path)


def test_audited_dataset_counts_label_reads(tmp_path):
    write_tiny_dataset(tmp_path)
    audited = AuditedDataset(Dataset.load(tmp_path))
    audited.features("v0")
    assert audited.reads_for(["v0", "v1"]) == 0
    audited.labels("v0")
    audited.labels("v0")
    audited.labels("v1")
    assert audited.label_reads == {"v0": 2, "v1": 1}
    assert audited.reads_for(["v0"]) == 2
    assert len(audited.features("v1")) == 10
    assert audited.activity("v1") == 1


# ---------------------------------------------------------------------------
# synthetic generator


def small_cfg(**kw):
    base = dict(num_videos=8, num_actions=4, num_activities=2, feat_dim=6,
                len_range=(48, 64), segments_range=(3, 4), min_segment_len=8,
                sigma_between=2.0, frame_noise=0.3, seed=3)
    base.update(kw)
    return SyntheticConfig(**base)


def dir_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_generator_deterministic_bytes(tmp_path):
    gen_synthetic(small_cfg(), tmp_path / "a")
    gen_synthetic(small_cfg(), tmp_path / "b")
    a, b = dir_bytes(tmp_path / "a"), dir_bytes(tmp_path / "b")
    assert a.keys() == b.keys()
    assert all(a[k] == b[k] for k in a)


def test_generator_seed_changes_data(tmp_path):
    gen_synthetic(small_cfg(), tmp_path / "a")
    gen_synthetic(small_cfg(seed=4), tmp_path / "b")
    a, b = dir_bytes(tmp_path / "a"), dir_bytes(tmp_path / "b")
    assert any(a[k] != b[k] for k in a if k.endswith(".feat"))


def test_generator_respects_structure_bounds(tmp_path):
    cfg = small_cfg()
    gen_synthetic(cfg, tmp_path)
    ds = Dataset.load(tmp_path)
    assert len(ds.samples) == 8
    for s in ds.samples.values():
        t = len(s.labels)
        assert cfg.len_range[0] <= t <= cfg.len_range[1]
        assert s.features.shape == (t, 6)
        assert 0 <= s.labels.min() and s.labels.max() < 4
        assert 0 <= s.activity < 2
        # no segment shorter than the floor, neighbors always differ
        bounds = np.flatnonzero(np.diff(s.labels)) + 1
        seg_lens = np.diff(np.concatenate([[0], bounds, [t]]))
        assert seg_lens.min() >= cfg.min_segment_len
        assert cfg.segments_range[0] <= len(seg_lens) <= cfg.segments_range[1]


def test_reference_config_generates_fast_with_full_coverage(tmp_path):
    start = time.time()
    gen_synthetic(SyntheticConfig(), tmp_path)
    elapsed = time.time() - start
    assert elapsed < 5.0
    ds = Dataset.load(tmp_path)
    assert len(ds.samples) == 60
    assert len(ds.train()) == 48 and len(ds.test()) == 12
    seen = set()
    for s in ds.train():
        assert 256 <= len(s.labels) <= 512
        seen.update(np.unique(s.labels).tolist())
    assert seen == set(range(6))


def test_invalid_synthetic_configs(tmp_path):
    with pytest.raises(ValueError):
        gen_synthetic(small_cfg(sigma_between=0.5), tmp_path)
    with pytest.raises(ValueError):
        gen_synthetic(small_cfg(frame_noise=-0.1), tmp_path)
    with pytest.raises(ValueError):
        gen_synthetic(small_cfg(label_noise=1.5), tmp_path)
    with pytest.raises(ValueError):
        gen_synthetic(small_cfg(test_fraction=0.0), tmp_path)
    with pytest.raises(ValueError):
        gen_synthetic(small_cfg(num_actions=1), tmp_path)


# ---------------------------------------------------------------------------
# labeled/unlabeled splits


def fake_dataset(n=60, classes=4, per_clip=None):
    samples = []
    for i in range(n):
        labels = (per_clip[i] if per_clip is not None
                  else np.arange(classes).repeat(5))
        samples.append(VideoSample(vid=f"v{i:03d}", features=np.zeros((len(labels), 2)),
                                   labels=np.asarray(labels), activity=0, split="train"))
    return Dataset(samples, [f"c{i}" for i in range(classes)], 1)


def test_split_five_percent_of_sixty_is_three():
    spec = make_split(fake_dataset(60), 0.05, seed=1)
    assert len(spec.labeled) == 3
    assert len(spec.unlabeled) == 57
    assert not set(spec.labeled) & set(spec.unlabeled)


def test_split_fraction_one_leaves_nothing_unlabeled():
    spec = make_split(fake_dataset(10), 1.0, seed=2)
    assert len(spec.labeled) == 10
    assert spec.unlabeled == ()


def test_split_minimum_floor_applies():
    spec = make_split(fake_dataset(40), 0.01, seed=3)
    assert len(spec.labeled) == 3


def test_split_deterministic():
    a = make_split(fake_dataset(30), 0.2, seed=9)
    b = make_split(fake_dataset(30), 0.2, seed=9)
    assert a == b
    c = make_split(fake_dataset(30), 0.2, seed=10)
    assert a.labeled != c.labeled or a.seed != c.seed


def test_split_redraws_until_classes_covered():
    # class 3 lives in exactly one clip; any covering draw must include it
    per_clip = [np.array([0, 1, 2] * 4) for _ in range(29)] + [np.array([3] * 12)]
    ds = fake_dataset(30, classes=4, per_clip=per_clip)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = make_split(ds, 0.1, seed=4)
    assert "v029" in spec.labeled


def test_split_warns_when_coverage_impossible():
    per_clip = [np.array([i] * 6) for i in range(6)]
    ds = fake_dataset(6, classes=6, per_clip=per_clip)
    with pytest.warns(UserWarning, match="cover"):
        spec = make_split(ds, 0.5, seed=5)
    assert len(spec.labeled) == 3


def test_split_validation():
    with pytest.raises(ValueError):
        make_split(fake_dataset(5), 0.0, seed=0)
    with pytest.raises(ValueError):
        make_split(fake_dataset(5), 1.2, seed=0)
    empty = Dataset([], ["c0"], 1)
    with pytest.raises(ValueError):
        make_split(empty, 0.5, seed=0)


# ---------------------------------------------------------------------------
# checkpoints


def tiny_model(seed=5):
    cfg = ModelConfig(input_dim=4, num_classes=3, num_activities=2, depth=2,
                      encoder_channels=(6, 6, 6), decoder_channels=(6, 6),
                      tpp_windows=(2,), activity_hidden=4,
                      upsample_mode="nearest", )
    return build_model(cfg, seed=seed)


def test_checkpoint_round_trip_tensors(tmp_path):
    rng = np.random.default_rng(6)
    tensors = {
        "w": rng.normal(size=(3, 4)).astype(np.float32).astype(np.float64),
        "b": rng.normal(size=5).astype(np.float32).astype(np.float64),
        "s": np.array(2.5),
    }
    save_checkpoint(tmp_path / "c.bin", tensors)
    back = load_checkpoint(tmp_path / "c.bin")
    assert set(back) == set(tensors)
    for k in tensors:
        np.testing.assert_array_equal(back[k], tensors[k])
        assert back[k].shape == tensors[k].shape


def test_checkpoint_bad_magic(tmp_path):
    (tmp_path / "c.bin").write_bytes(b"WRNG" + b"\x00" * 8)
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(tmp_path / "c.bin")


def test_checkpoint_truncation_and_trailing(tmp_path):
    save_checkpoint(tmp_path / "c.bin", {"w": np.zeros((2, 2))})
    raw = (tmp_path / "c.bin").read_bytes()
    (tmp_path / "t.bin").write_bytes(raw[:-3])
    with pytest.raises(DataFormatError, match="truncated"):
        load_checkpoint(tmp_path / "t.bin")
    (tmp_path / "g.bin").write_bytes(raw + b"\x00")
    with pytest.raises(DataFormatError, match="trailing"):
        load_checkpoint(tmp_path / "g.bin")


def test_checkpoint_duplicate_tensor_name(tmp_path):
    raw = b"C2FC" + struct.pack("<II", 1, 2)
    entry = struct.pack("<I", 1) + b"w" + struct.pack("<II", 1, 1)
    entry += np.zeros(1, dtype="<f4").tobytes()
    (tmp_path / "d.bin").write_bytes(raw + entry + entry)
    with pytest.raises(DataFormatError, match="duplicate"):
        load_checkpoint(tmp_path / "d.bin")


def test_model_state_missing_tensor_names_it(tmp_path):
    model = tiny_model()
    state = model_state(model)
    del state["dec1.conv1.b"]
    with pytest.raises(DataFormatError, match="dec1.conv1.b"):
        load_into(tiny_model(seed=6), state)


def test_model_state_rejects_unknown_tensor():
    state = model_state(tiny_model())
    state["mystery"] = np.zeros(3)
    with pytest.raises(DataFormatError, match="mystery"):
        load_into(tiny_model(seed=6), state)


def test_model_state_rejects_shape_mismatch():
    state = model_state(tiny_model())
    state["enc0.conv1.w"] = np.zeros((2, 2, 2))
    with pytest.raises(DataFormatError, match="shape"):
        load_into(tiny_model(seed=6), state)


@pytest.mark.parametrize("name", ["enc0.bn1.running_mean", "dec2.bn2.running_var"])
@pytest.mark.parametrize("shape", [(1,), (3,)])
def test_model_state_rejects_buffer_shape_mismatch(tmp_path, name, shape):
    # a (1,) buffer would broadcast silently, a (3,) one fail later in numpy
    state = model_state(tiny_model())
    state[name] = np.ones(shape)
    save_checkpoint(tmp_path / "m.bin", state)
    with pytest.raises(DataFormatError, match=f"{name}.*shape"):
        restore_model(tmp_path / "m.bin")


def test_restore_model_reproduces_forward(tmp_path):
    model = tiny_model(seed=7)
    # dirty the norm buffers so restoration must carry them too
    v = np.random.default_rng(8).normal(size=(20, 4))
    model.forward(v, train=True)
    save_model(tmp_path / "m.bin", model)
    restored, heads = restore_model(tmp_path / "m.bin")
    assert restored.cfg == model.cfg
    a = model.forward(v, train=False)
    b = restored.forward(v, train=False, heads=heads)
    for p_a, p_b in zip(a.p, b.p):
        np.testing.assert_allclose(p_a.data, p_b.data, atol=1e-6)
    assert a.p_activity is not None
    np.testing.assert_allclose(a.p_activity.data, b.p_activity.data, atol=1e-6)


def test_restore_model_round_trips_config_variants(tmp_path):
    model = tiny_model(seed=9)
    save_model(tmp_path / "m.bin", model)
    restored, _ = restore_model(tmp_path / "m.bin")
    assert restored.cfg.upsample_mode == "nearest"
    assert restored.cfg.tpp_windows == (2,)
    assert config_from_state(model_state(model)) == model.cfg


@pytest.mark.parametrize("index,value", [(3, 4.0), (4, 0.0), (0, np.inf), (7, np.nan)])
def test_config_from_state_refuses_invalid_metadata(index, value):
    state = model_state(tiny_model())
    state["meta.model"] = state["meta.model"].copy()
    state["meta.model"][index] = value
    with pytest.raises(DataFormatError, match="metadata is invalid"):
        config_from_state(state)


def test_config_from_state_refuses_malformed_metadata():
    state = model_state(tiny_model())
    state["meta.model"] = state["meta.model"][:7]
    with pytest.raises(DataFormatError, match="metadata is invalid"):
        config_from_state(state)


def test_config_from_state_requires_metadata():
    state = model_state(tiny_model())
    del state["meta.model"]
    with pytest.raises(DataFormatError, match="metadata"):
        config_from_state(state)
