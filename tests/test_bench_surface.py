"""The names the benchmark in ``perfbench/`` calls or traces still exist.

The benchmark runs from its own directory and is not collected here, so a
rename in the package would otherwise only show when the benchmark runs.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

from c2fseg import data, inference
from c2fseg.model import ModelConfig, build_model

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


layertrace = _load("layertrace")


def test_every_traced_target_resolves():
    missing = []
    for spec in layertrace.SPECS:
        try:
            layertrace._resolve(spec.target)
        except (AttributeError, ImportError, KeyError):
            missing.append(spec.target)
    assert not missing


def test_workloads_import():
    workloads = _load("workloads")
    assert set(workloads.WORKLOADS) == {"sup", "pretrain", "infer", "icc"}


def test_call_signatures_the_workloads_use(tmp_path):
    cfg = ModelConfig(input_dim=4, num_classes=3, depth=2, encoder_channels=(4, 4, 4),
                      decoder_channels=(4, 4), tpp_windows=(2,))
    data.save_model(tmp_path / "m.bin", build_model(cfg, seed=0))
    restored, heads = data.restore_model(tmp_path / "m.bin")
    assert heads is restored.heads
    assert {"alpha", "heads"} <= set(inspect.signature(inference.evaluate_clips).parameters)
    assert "heads" in inspect.signature(inference.predict_probs).parameters
