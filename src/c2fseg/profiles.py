"""Named hyperparameter profiles.

``synthetic`` is the desk-scale reference profile every CLI command
defaults to.  The published per-dataset settings need the original I3D
features, so they are listed in the README rather than kept here.
"""

from __future__ import annotations

PROFILES: dict[str, dict] = {
    "synthetic": {
        "input_dim": 32,
        "num_classes": 6,
        "num_activities": 3,
        "encoder_channels": (64, 64, 64, 32, 32, 32, 32),
        "decoder_channels": (32, 32, 32, 32, 32, 32),
        "activity_hidden": 32,
        # w0=2 keeps the window support small ({1..4}); draws that would
        # still starve the deepest stage get clamped by stable_window
        "w0": 2,
        "pi0": 0.5,
        "lr": 1e-3,
        "weight_decay": 3e-4,
        "epochs": 80,
        "batch_size": 8,
        "loss_per_layer": False,
        "seed": 11,
        "contrast_lr": 1e-3,
        "contrast_epochs": 30,
        # pretraining pins the base window almost always: stable pooling keeps
        # cluster targets consistent across epochs, which the probe rewards
        "contrast_pi0": 0.9,
        "K": 12,
        "delta": 0.05,
        "num_clusters": 12,
    },
}
