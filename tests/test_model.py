"""Architecture contract: shapes, determinism, parameter budget, gradients.

The expected parameter count is recomputed here from first principles
(layer-by-layer arithmetic) so the assertion does not just echo whatever
``param_count`` returns.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from c2fseg import autodiff as ad
from c2fseg.autodiff import Tape, Tensor
from c2fseg.errors import NumericsError
from c2fseg.model import (
    ModelConfig,
    ProjectionHeads,
    PyramidBottleneck,
    build_model,
    multires_feature,
)
from c2fseg.seeding import substream
from c2fseg.supervised import EnsembleWeights, c2f_ensemble, cross_entropy


def tiny_cfg(**kw):
    base = dict(
        input_dim=8,
        num_classes=5,
        num_activities=0,
        encoder_channels=(16, 16, 16, 8, 8, 8, 8),
        decoder_channels=(8,) * 6,
    )
    base.update(kw)
    return ModelConfig(**base)


def toy2_cfg(**kw):
    base = dict(
        input_dim=4,
        num_classes=3,
        num_activities=0,
        depth=2,
        encoder_channels=(6, 6, 6),
        decoder_channels=(6, 6),
        tpp_windows=(2,),
    )
    base.update(kw)
    return ModelConfig(**base)


def ceil_chain(t, depth):
    out = [t]
    for _ in range(depth):
        out.append(math.ceil(out[-1] / 2))
    return out


# ---------------------------------------------------------------------------
# parameter budget


def double_conv_params(cin, cout, k):
    conv = cout * cin * k + cout
    bn = 2 * cout
    return conv + bn + (cout * cout * k + cout) + bn


def test_default_param_count_matches_layer_arithmetic():
    cfg = ModelConfig()
    m = build_model(cfg, seed=0)
    expected = (
        double_conv_params(2048, 256, 5)
        + 2 * double_conv_params(256, 256, 5)
        + double_conv_params(256, 128, 5)
        + 3 * double_conv_params(128, 128, 5)
        # bottleneck: shared 1-channel collapse conv + kernel-3 mixing conv
        + (128 * 1 + 1)
        + (132 * 132 * 3 + 132)
        # decoder inputs: 132+128, then 128+128 twice, then 128+256 thrice
        + double_conv_params(260, 128, 5)
        + 2 * double_conv_params(256, 128, 5)
        + 3 * double_conv_params(384, 128, 5)
        # six per-stage linear heads
        + 6 * (128 * 48 + 48)
    )
    assert expected == 6_821_973
    assert m.param_count() == expected


def test_param_count_scales_with_heads_and_activity():
    base = build_model(ModelConfig(), seed=0).param_count()
    with_act = build_model(ModelConfig(num_activities=10), seed=0).param_count()
    mlp = (128 * 128 + 128) + (10 * 128 + 10)
    assert with_act - base == mlp


# ---------------------------------------------------------------------------
# build determinism


def test_two_builds_same_seed_identical_bytes():
    cfg = tiny_cfg()
    a = build_model(cfg, seed=11)
    b = build_model(cfg, seed=11)
    names_a = dict(a.named_parameters())
    names_b = dict(b.named_parameters())
    assert names_a.keys() == names_b.keys()
    for name in names_a:
        assert names_a[name].data.tobytes() == names_b[name].data.tobytes(), name


def test_different_seed_different_weights():
    cfg = tiny_cfg()
    a = build_model(cfg, seed=11)
    b = build_model(cfg, seed=12)
    diffs = [
        not np.array_equal(pa.data, pb.data)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
        if pa.data.std() > 0  # biases start at zero either way
    ]
    assert any(diffs)


def test_forward_deterministic_and_idempotent_in_eval():
    m = build_model(tiny_cfg(), seed=3)
    v = np.random.default_rng(0).normal(size=(70, 8))
    buffers_before = {k: b.copy() for k, b in m.named_buffers()}
    out1 = m.forward(v, train=False)
    out2 = m.forward(v, train=False)
    for p1, p2 in zip(out1.p, out2.p):
        assert p1.data.tobytes() == p2.data.tobytes()
    for k, b in m.named_buffers():
        assert np.array_equal(buffers_before[k], b), k


def test_train_forward_updates_norm_buffers():
    m = build_model(tiny_cfg(), seed=3)
    v = np.random.default_rng(0).normal(size=(70, 8))
    before = {k: b.copy() for k, b in m.named_buffers()}
    m.forward(v, train=True)
    changed = [k for k, b in m.named_buffers() if not np.array_equal(before[k], b)]
    assert changed


# ---------------------------------------------------------------------------
# shape contract


@pytest.mark.parametrize("t_in", [64, 100, 128, 257])
def test_shape_contract_ceil_arithmetic(t_in):
    cfg = tiny_cfg()
    m = build_model(cfg, seed=1)
    v = np.random.default_rng(t_in).normal(size=(t_in, cfg.input_dim))
    out = m.forward(v)
    chain = ceil_chain(t_in, cfg.depth)
    assert out.t_pad == t_in
    assert out.f_en.shape == (cfg.encoder_channels[-1], chain[cfg.depth])
    assert len(out.z) == len(out.p) == cfg.depth
    for i, z_u in enumerate(out.z):
        assert z_u.shape == (cfg.decoder_channels[i], chain[cfg.depth - 1 - i])
    for p_u in out.p:
        assert p_u.data.shape == (t_in, cfg.num_classes)
        assert np.all(np.isfinite(p_u.data))
        np.testing.assert_allclose(p_u.data.sum(axis=1), 1.0, atol=1e-9)


def test_decoder_lengths_at_128_are_dyadic():
    m = build_model(tiny_cfg(), seed=1)
    out = m.forward(np.zeros((128, 8)) + 0.5)
    assert [z.shape[1] for z in out.z] == [4, 8, 16, 32, 64, 128]


def test_short_input_is_padded_then_cropped():
    cfg = tiny_cfg()
    m = build_model(cfg, seed=2)
    out = m.forward(np.random.default_rng(5).normal(size=(10, 8)))
    assert out.t_in == 10 and out.t_pad == 64
    for p_u in out.p:
        assert p_u.data.shape == (10, cfg.num_classes)


def test_constant_zero_input_stays_finite():
    m = build_model(tiny_cfg(), seed=4)
    v = np.zeros((70, 8))
    for train in (False, True):
        out = m.forward(v, train=train)
        for p_u in out.p:
            assert np.all(np.isfinite(p_u.data))
            np.testing.assert_allclose(p_u.data.sum(axis=1), 1.0, atol=1e-9)


def test_nan_input_raises():
    m = build_model(tiny_cfg(), seed=4)
    v = np.zeros((70, 8))
    v[3, 2] = np.nan
    with pytest.raises(NumericsError):
        m.forward(v)


def test_input_shape_validation():
    m = build_model(tiny_cfg(), seed=4)
    with pytest.raises(ValueError):
        m.forward(np.zeros((70, 9)))
    with pytest.raises(ValueError):
        m.forward(np.zeros((0, 8)))


@settings(max_examples=20, deadline=None)
@given(
    t_in=st.integers(min_value=1, max_value=90),
    depth=st.integers(min_value=1, max_value=3),
)
def test_shape_contract_property(t_in, depth):
    cfg = ModelConfig(
        input_dim=3,
        num_classes=4,
        num_activities=0,
        depth=depth,
        encoder_channels=(5,) * (depth + 1),
        decoder_channels=(5,) * depth,
        tpp_windows=(2,),
    )
    m = build_model(cfg, seed=7)
    out = m.forward(np.random.default_rng(t_in).normal(size=(t_in, 3)))
    t_pad = max(t_in, 2**depth)
    chain = ceil_chain(t_pad, depth)
    for i, z_u in enumerate(out.z):
        assert z_u.shape[1] == chain[depth - 1 - i]
    for p_u in out.p:
        assert p_u.data.shape == (t_in, 4)


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "bad",
    [
        dict(depth=0),
        dict(encoder_channels=(16, 16)),
        dict(decoder_channels=(8,) * 5),
        dict(kernel=4),
        dict(kernel=-1),
        dict(upsample_mode="cubic"),
        dict(tpp_windows=(2, 0)),
        dict(input_dim=0),
        dict(num_classes=0),
    ],
)
def test_invalid_configs_rejected(bad):
    with pytest.raises(ValueError):
        build_model(tiny_cfg(**bad), seed=0)


# ---------------------------------------------------------------------------
# pyramid bottleneck


def test_bottleneck_no_windows_is_identity():
    m = build_model(tiny_cfg(tpp_windows=()), seed=9)
    x = Tensor(np.random.default_rng(1).normal(size=(8, 13)))
    out = m.bottleneck(x)
    assert out is x or np.array_equal(out.data, x.data)
    assert m.bottleneck.out_channels == 8


def test_bottleneck_two_frame_output_is_2x132():
    pb = PyramidBottleneck(128, (2, 3, 5, 6), 3, "linear", substream(0, "tpp"))
    f_en = Tensor(np.random.default_rng(2).normal(size=(128, 2)))
    cat = pb.pooled_concat(f_en)
    assert cat.shape == (132, 2)
    np.testing.assert_array_equal(cat.data[:128], f_en.data)
    assert pb(f_en).shape == (132, 2)


def test_bottleneck_constant_input_constant_branches():
    pb = PyramidBottleneck(16, (2, 3, 5, 6), 3, "linear", substream(1, "tpp"))
    base = np.random.default_rng(3).normal(size=(16, 1))
    f_en = Tensor(np.repeat(base, 12, axis=1))
    cat = pb.pooled_concat(f_en).data
    for row in cat[16:]:
        np.testing.assert_allclose(row, row[0], atol=1e-12)


def test_bottleneck_pool_lengths_use_floor_min_one():
    # window larger than the sequence still yields one pooled step
    pb = PyramidBottleneck(4, (5,), 3, "nearest", substream(2, "tpp"))
    f_en = Tensor(np.random.default_rng(4).normal(size=(4, 3)))
    cat = pb.pooled_concat(f_en)
    assert cat.shape == (5, 3)
    # the appended branch is the collapsed global max, broadcast back
    pooled = f_en.data.max(axis=1, keepdims=True)
    w, b = pb.collapse.w.data, pb.collapse.b.data
    expect = (w[0, :, 0] @ pooled).item() + b[0]
    np.testing.assert_allclose(cat.data[4], expect, atol=1e-12)


# ---------------------------------------------------------------------------
# skip connections and heads


def test_disabling_skips_changes_outputs():
    v = np.random.default_rng(8).normal(size=(80, 8))
    with_skips = build_model(tiny_cfg(), seed=5).forward(v)
    without = build_model(tiny_cfg(skip_connections=False), seed=5).forward(v)
    assert not np.allclose(with_skips.p[-1].data, without.p[-1].data)


def test_separate_heads_share_backbone():
    cfg = tiny_cfg()
    m = build_model(cfg, seed=6)
    fresh = ProjectionHeads(cfg, substream(99, "heads"))
    v = np.random.default_rng(9).normal(size=(70, 8))
    out_default = m.forward(v)
    out_fresh = m.forward(v, heads=fresh)
    for z_a, z_b in zip(out_default.z, out_fresh.z):
        assert z_a.data.tobytes() == z_b.data.tobytes()
    assert not np.allclose(out_default.p[0].data, out_fresh.p[0].data)


def test_backbone_parameters_exclude_heads():
    m = build_model(tiny_cfg(), seed=6)
    backbone = {id(t) for t in m.backbone_parameters()}
    for t in m.heads.parameters():
        assert id(t) not in backbone
    assert len(backbone) + len(m.heads.parameters()) == len(m.parameters())


# ---------------------------------------------------------------------------
# activity head


def test_activity_probs_sum_to_one():
    m = build_model(tiny_cfg(num_activities=4), seed=7)
    out = m.forward(np.random.default_rng(10).normal(size=(70, 8)))
    assert out.p_activity is not None
    assert out.p_activity.shape == (4,)
    np.testing.assert_allclose(out.p_activity.data.sum(), 1.0, atol=1e-9)


def test_activity_probs_invariant_to_time_permutation():
    m = build_model(tiny_cfg(num_activities=4), seed=7)
    f_en = Tensor(np.random.default_rng(11).normal(size=(8, 9)))
    perm = np.random.default_rng(12).permutation(9)
    p1 = m.activity_probs(f_en).data
    p2 = m.activity_probs(Tensor(f_en.data[:, perm])).data
    np.testing.assert_array_equal(p1, p2)


def test_activity_head_disabled_raises():
    m = build_model(tiny_cfg(), seed=7)
    with pytest.raises(ValueError):
        m.activity_probs(Tensor(np.zeros((8, 4))))


# ---------------------------------------------------------------------------
# gradients through the whole stack


def _ce_loss(m, v, y, alpha, train=True):
    out = m.forward(v, train=train)
    return cross_entropy(c2f_ensemble(out, alpha), y)


def _fd_entry(loss_value, arr, idx, step=1e-5):
    keep = arr[idx]
    arr[idx] = keep + step
    hi = loss_value()
    arr[idx] = keep - step
    lo = loss_value()
    arr[idx] = keep
    return (hi - lo) / (2.0 * step)


def test_gradient_check_depth2_toy():
    m = build_model(toy2_cfg(), seed=13)
    rng = np.random.default_rng(14)
    v = rng.normal(size=(16, 4))
    y = rng.integers(0, 3, size=16)
    alpha = EnsembleWeights.uniform(2)

    with Tape() as tape:
        loss = _ce_loss(m, v, y, alpha, train=True)
        tape.backward(loss)

    params = dict(m.named_parameters())
    picks = {
        "enc0.conv1.w": [(0, 1, 2), (3, 0, 4)],
        "enc2.bn2.gamma": [(1,), (4,)],
        "dec1.conv2.w": [(2, 3, 1)],
        "dec2.bn1.beta": [(0,)],
        "head2.w": [(1, 3)],
        "head1.b": [(2,)],
        "tpp.mix.w": [(0, 1, 0)],
    }
    for name, idxs in picks.items():
        t = params[name]
        assert t.grad is not None, name
        for idx in idxs:
            num = _fd_entry(lambda: float(_ce_loss(m, v, y, alpha, train=True).data),
                            t.data, idx)
            ana = t.grad[idx]
            rel = abs(num - ana) / max(abs(num), abs(ana), 1e-8)
            assert rel < 1e-3, (name, idx, num, ana)


def test_gradient_check_activity_head():
    m = build_model(toy2_cfg(num_activities=3, activity_hidden=5), seed=15)
    rng = np.random.default_rng(16)
    v = rng.normal(size=(12, 4))

    def loss_fn():
        out = m.forward(v, train=False)
        return ad.neg(ad.log(ad.slice_axis(ad.reshape(out.p_activity, (1, -1)), 1, 1, 2)))

    with Tape() as tape:
        loss = ad.reduce_sum(loss_fn())
        tape.backward(loss)

    head = m.activity_head
    for t, idx in [(head.w1, (2, 1)), (head.w2, (0, 3)), (head.b1, (1,))]:
        num = _fd_entry(lambda: float(loss_fn().data.sum()), t.data, idx)
        rel = abs(num - t.grad[idx]) / max(abs(num), abs(t.grad[idx]), 1e-8)
        assert rel < 1e-3


# ---------------------------------------------------------------------------
# time-shift locality (loose, interior-only)


@pytest.mark.parametrize("seed", [0, 4])
def test_shift_locality_interior(seed):
    cfg = tiny_cfg()
    m = build_model(cfg, seed=seed)
    rng = np.random.default_rng(100 + seed)
    t, shift, margin = 256, 64, 48
    v = rng.normal(size=(t, cfg.input_dim))
    shifted = np.concatenate([np.tile(v[:1], (shift, 1)), v[:-shift]], axis=0)
    pred = np.argmax(m.forward(v).p[-1].data, axis=1)
    pred_shifted = np.argmax(m.forward(shifted).p[-1].data, axis=1)
    a = pred[margin : t - shift - margin]
    b = pred_shifted[shift + margin : t - margin]
    assert (a == b).mean() >= 0.9


# ---------------------------------------------------------------------------
# multi-resolution feature: cosine identity and continuity bound


def make_outputs(rng, t, depth, channels=6):
    from c2fseg.model import DecoderOutputs

    chain = ceil_chain(t, depth)
    z = [
        Tensor(rng.normal(size=(channels, chain[depth - 1 - i])))
        for i in range(depth)
    ]
    return DecoderOutputs(
        z=z, p=[], f_en=Tensor(np.zeros((channels, chain[depth]))), t_in=t, t_pad=t
    )


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


@pytest.mark.parametrize("mode", ["linear", "nearest"])
def test_multires_cosine_is_mean_of_stage_cosines(mode):
    rng = np.random.default_rng(17)
    checks = 0
    while checks < 100:
        t = int(rng.integers(8, 60))
        depth = int(rng.integers(2, 6))
        outs = make_outputs(rng, t, depth)
        f = multires_feature(outs, t, mode).data
        ups = [ad.upsample1d(z_u, t, mode).data for z_u in outs.z]
        s, u = rng.integers(0, t, size=2)
        per_stage = [cosine(up[:, s], up[:, u]) for up in ups]
        assert abs(cosine(f[s], f[u]) - np.mean(per_stage)) < 1e-9
        checks += 1


def test_multires_rows_have_norm_sqrt_depth():
    rng = np.random.default_rng(18)
    outs = make_outputs(rng, 24, 4)
    f = multires_feature(outs, 24, "linear").data
    np.testing.assert_allclose(np.linalg.norm(f, axis=1), 2.0, atol=1e-9)


def test_multires_zero_norm_row_maps_to_zero():
    rng = np.random.default_rng(19)
    outs = make_outputs(rng, 16, 3)
    for z_u in outs.z:
        z_u.requires_grad = True
    outs.z[1].data[:, 2] = 0.0  # a dead post-ReLU frame
    dead = ~ad.upsample1d(outs.z[1], 16, "nearest").data.any(axis=0)
    assert dead.any()
    with Tape() as tape:
        f = multires_feature(outs, 16, "nearest")
        loss = ad.reduce_sum(ad.mul(f, Tensor(rng.normal(size=f.shape))))
        tape.backward(loss)
    block = f.data[:, 6:12]
    np.testing.assert_array_equal(block[dead], 0.0)
    np.testing.assert_allclose(np.linalg.norm(block[~dead], axis=1), 1.0, atol=1e-12)
    assert np.isfinite(float(loss.data))
    assert all(np.all(np.isfinite(z_u.grad)) for z_u in outs.z)


def test_multires_padded_outputs_crop_to_true_length():
    cfg = tiny_cfg()
    m = build_model(cfg, seed=20)
    out = m.forward(np.random.default_rng(21).normal(size=(10, 8)))
    f = multires_feature(out, 10, "linear")
    assert f.shape == (10, 6 * 8)
    with pytest.raises(ValueError):
        multires_feature(out, 64, "linear")


def _assert_continuity_bound(f):
    t = f.shape[0]
    norms = np.linalg.norm(f, axis=1)
    gram = (f @ f.T) / np.outer(norms, norms)
    for u in range(1, 6):
        group = np.arange(t) // 2**u
        same = group[:, None] == group[None, :]
        assert gram[same].min() >= 1.0 - u / 3.0 - 1e-12, u


def test_continuity_bound_nearest_model_forward():
    cfg = tiny_cfg(upsample_mode="nearest")
    m = build_model(cfg, seed=23)
    v = np.random.default_rng(24).normal(size=(64, 8))
    f = multires_feature(m.forward(v), 64, "nearest").data
    _assert_continuity_bound(f)


def test_continuity_bound_nearest_random_features():
    rng = np.random.default_rng(25)
    for _ in range(5):
        outs = make_outputs(rng, 64, 6, channels=4)
        f = multires_feature(outs, 64, "nearest").data
        _assert_continuity_bound(f)


def test_continuity_bound_is_tight_for_coarse_groups():
    # a pair inside one u=1 group but with opposing fine-stage features
    # should sit near the bound, not far above it: the slack is real
    rng = np.random.default_rng(26)
    outs = make_outputs(rng, 64, 6, channels=4)
    outs.z[-1].data[:, 1] = -outs.z[-1].data[:, 0]
    f = multires_feature(outs, 64, "nearest").data
    cos01 = cosine(f[0], f[1])
    assert cos01 >= 1.0 - 1.0 / 3.0 - 1e-12
    assert cos01 <= 1.0 - 1.0 / 3.0 + 1e-9
