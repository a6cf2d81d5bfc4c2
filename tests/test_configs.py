"""Every config dataclass checks its values once, when it is built."""

import dataclasses
import importlib
import inspect
import pkgutil

import c2fseg


def _config_classes():
    found = {}
    for info in pkgutil.iter_modules(c2fseg.__path__):
        module = importlib.import_module(f"c2fseg.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if name.endswith("Config") and cls.__module__ == module.__name__:
                found[name] = cls
    return found


def test_every_config_is_frozen_self_checking_and_buildable_from_defaults():
    classes = _config_classes()
    assert set(classes) == {
        "AugmentConfig", "ContrastConfig", "ContrastTrainConfig", "ICCConfig",
        "LinearEvalConfig", "LossConfig", "ModelConfig", "SyntheticConfig", "TrainConfig"}
    for name, cls in classes.items():
        assert dataclasses.is_dataclass(cls), name
        assert cls.__dataclass_params__.frozen, name
        assert not hasattr(cls, "validate"), name
        cls()
