"""The layer trace fires everywhere it should and leaves the run unchanged."""

import json
from pathlib import Path

import pytest

import c2fseg
from c2fseg import augment, contrastive, icc, inference, model, supervised
from c2fseg.data import SyntheticConfig
from layertrace import SPECS, Tracer
from run import END_TO_END_UNITS, PER_LAYER_UNITS
from workloads import WORKLOADS, setup

SEED = 5
# A quarter-size corpus keeps the test quick; it exercises the same code paths.
SMALL = SyntheticConfig(num_videos=15)
COUNTS = ("autodiff.op_calls_per_step", "autodiff.backward_calls",
          "model.forward_calls", "augment.windows_drawn", "augment.pooled_frames",
          "contrastive.kmeans_calls", "contrastive.positive_pairs",
          "contrastive.rows_kept_ratio", "optim.steps", "inference.windows",
          "metrics.pred_segments", "trace.spans")


def test_names_are_patched_where_they_are_looked_up():
    originals = {
        (supervised, "pool_features"): augment.pool_features,
        (contrastive, "multires_feature"): model.multires_feature,
        (icc, "predict_probs"): inference.predict_probs,
        (icc, "evaluate_clips"): inference.evaluate_clips,
        (c2fseg, "train_supervised"): supervised.train_supervised,
    }
    tracer = Tracer()
    tracer.install()
    try:
        for (mod, name), original in originals.items():
            patched = getattr(mod, name)
            assert patched is not original, f"{mod.__name__}.{name} not patched"
            assert patched.__wrapped__ is original
    finally:
        tracer.uninstall()
    for (mod, name), original in originals.items():
        assert getattr(mod, name) is original, f"{mod.__name__}.{name} not restored"


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request, tmp_path_factory):
    """One untraced and two traced repetitions of a workload."""
    workload = request.param
    tracer = Tracer()
    tracer.install()
    try:
        s = setup(workload, SEED, str(tmp_path_factory.mktemp(workload)), corpus=SMALL)
    finally:
        tracer.uninstall()
    setup_trace = tracer.take()
    rep = WORKLOADS[workload]
    plain = rep(s, SEED, first=False)
    traced = []
    for _ in range(2):
        tracer.install()
        try:
            out = rep(s, SEED, first=False)
        finally:
            tracer.uninstall()
        traced.append((out, tracer.take()))
    return workload, setup_trace, plain, traced


def test_every_wrapper_fires_on_its_workload(runs):
    workload, setup_trace, _, traced = runs
    fired = setup_trace.fired() | traced[0][1].fired()
    expected = {spec.target for spec in SPECS if workload in spec.on.split()}
    assert not expected - fired, f"silent on {workload}: {sorted(expected - fired)}"
    assert "unnamed" not in fired


def test_traced_outputs_equal_untraced(runs):
    _, _, plain, traced = runs
    for out, _ in traced:
        assert out.outputs == plain.outputs


def test_counts_repeat_exactly(runs):
    _, _, _, traced = runs
    (rep_a, trace_a), (rep_b, trace_b) = traced
    a, b = trace_a.metrics(), trace_b.metrics()
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}
    assert rep_a.report.get("unlabeled_label_reads") == rep_b.report.get(
        "unlabeled_label_reads")


def test_every_spec_names_a_workload():
    assert all(set(spec.on.split()) <= set(WORKLOADS) and spec.on for spec in SPECS)


def test_benchmark_json_lists_what_a_run_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
