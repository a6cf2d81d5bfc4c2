"""Command-line interface.

Subcommands: gen-synth, train, pretrain, icc, eval, linear-eval,
calibrate, activity train, activity eval.  ``_SETTINGS`` declares each
command's settings once, as key -> (type, default).  Each is a key of
``--config cfg.json`` and, except the tuple-valued ``encoder_channels``,
``decoder_channels`` and ``tpp_windows``, the flag ``--key`` (dashes for
underscores); a given flag wins over the file.  A key or flag the
command does not take, or a config value of the wrong JSON type, is a
usage error raised before any data is loaded; a value that a config
refuses when it is built is a usage error too.  Only gen-synth, train,
pretrain, icc, eval and activity train take ``--seed`` (one seed, fanned
into named sub-streams).

Exit codes: 0 success, 2 usage, 3 data/format, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .augment import AugmentConfig
from .contrastive import (ContrastConfig, ContrastTrainConfig, LinearEvalConfig,
                          linear_eval, pretrain_unsupervised)
from .data import (Dataset, AuditedDataset, SyntheticConfig, gen_synthetic,
                   make_split, restore_model, save_model)
from .errors import DataFormatError, NumericsError, UsageError
from .icc import ICCConfig, run_icc
from .inference import calibration_for, evaluate_clips
from .metrics import entropy_histogram_csv
from .model import ModelConfig, build_model
from .profiles import PROFILES
from .seeding import substream
from .supervised import (LossConfig, TrainConfig, activity_loss, check_schedule, fit,
                         train_supervised)
from . import autodiff as ad
from .optim import Adam

_SYNTH = PROFILES["synthetic"]

# Each command's settings, key -> (type, default): the one declaration that
# both build_parser and _settings read.  Shared groups first.
_SEED = {"seed": (int, 7)}
_MODEL = {
    "depth": (int, ModelConfig.depth),
    "kernel": (int, ModelConfig.kernel),
    "encoder_channels": (tuple, _SYNTH["encoder_channels"]),
    "decoder_channels": (tuple, _SYNTH["decoder_channels"]),
    "tpp_windows": (tuple, ModelConfig.tpp_windows),
    "upsample_mode": (str, ModelConfig.upsample_mode),
    "no_skip": (bool, False),
    "activity_hidden": (int, _SYNTH["activity_hidden"]),
}
_AUGMENT = {"no_augment": (bool, False), "w0": (int, _SYNTH["w0"]),
            "pi0": (float, _SYNTH["pi0"])}
_CONTRAST = {
    "K": (int, _SYNTH["K"]),
    "epsilon": (float, ContrastConfig.epsilon),
    "delta": (float, _SYNTH["delta"]),
    "tau": (float, ContrastConfig.tau),
    "clusters": (int, None),  # None: twice the number of classes
    "no_video_level": (bool, False),
}


def _schedule(**defaults) -> dict:
    kinds = {"lr": float, "wd": float, "epochs": int, "batch_size": int}
    return {key: (kinds[key], value) for key, value in defaults.items()}


_GEN = SyntheticConfig
_SETTINGS: dict[str, dict[str, tuple]] = {
    "gen-synth": {
        "videos": (int, _GEN.num_videos), "actions": (int, _GEN.num_actions),
        "activities": (int, _GEN.num_activities), "feat_dim": (int, _GEN.feat_dim),
        "len_min": (int, _GEN.len_range[0]), "len_max": (int, _GEN.len_range[1]),
        "segments_min": (int, _GEN.segments_range[0]),
        "segments_max": (int, _GEN.segments_range[1]),
        "min_segment": (int, _GEN.min_segment_len),
        "sigma_between": (float, _GEN.sigma_between),
        "sigma_within": (float, _GEN.sigma_within), "frame_noise": (float, _GEN.frame_noise),
        "smooth_radius": (int, _GEN.smooth_radius), "label_noise": (float, _GEN.label_noise),
        "test_fraction": (float, _GEN.test_fraction), "seed": (int, _GEN.seed),
    },
    "train": {
        **_SEED, **_MODEL, **_AUGMENT,
        **_schedule(lr=_SYNTH["lr"], wd=_SYNTH["weight_decay"], epochs=_SYNTH["epochs"],
                    batch_size=_SYNTH["batch_size"]),
        "lambda_tr": (float, LossConfig.lambda_tr), "eps_max": (float, LossConfig.eps_max),
        "no_transition": (bool, False),
        "loss_per_layer": (bool, TrainConfig.loss_per_layer),
    },
    "pretrain": {
        **_SEED, **_MODEL, **_AUGMENT, "pi0": (float, _SYNTH["contrast_pi0"]), **_CONTRAST,
        **_schedule(lr=_SYNTH["contrast_lr"], wd=ContrastTrainConfig.weight_decay,
                    epochs=_SYNTH["contrast_epochs"], batch_size=_SYNTH["batch_size"]),
    },
    "icc": {
        **_SEED, **_MODEL, **_AUGMENT, **_CONTRAST,
        **_schedule(wd=ICCConfig.weight_decay, batch_size=_SYNTH["batch_size"]),
        "iterations": (int, ICCConfig.iterations),
        "labeled_frac": (float, ICCConfig.labeled_fraction),
        "lr_g": (float, ICCConfig.lr_g), "lr_m_classify": (float, ICCConfig.lr_m_classify),
        "lr_m_contrast": (float, ICCConfig.lr_m_contrast),
        "pretrain_epochs": (int, ICCConfig.pretrain_epochs),
        "contrast_epochs": (int, ICCConfig.contrast_epochs),
        "classify_epochs": (int, ICCConfig.classify_epochs),
        "classify_transition": (bool, ICCConfig.classify_transition),
        "skip_unsupervised": (bool, ICCConfig.skip_unsupervised),
    },
    "eval": {**_SEED, **_AUGMENT, "tta_samples": (int, AugmentConfig.tta_samples),
             "per_video_f1": (bool, False)},
    "linear-eval": _schedule(lr=LinearEvalConfig.lr, epochs=LinearEvalConfig.epochs),
    "calibrate": dict(_AUGMENT),
    "activity-train": {**_SEED, **_MODEL,
                       **_schedule(lr=1e-3, epochs=30, batch_size=_SYNTH["batch_size"])},
    "activity-eval": {},
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise UsageError("config file must hold a JSON object")
    return payload


def _settings(args) -> argparse.Namespace:
    """Every setting of the command ``args.settings`` names: the flag if
    given, else the --config key, else the default.  Refuses the config
    keys the command does not take.  ``main`` calls it before the command
    runs."""
    table = _SETTINGS[args.settings]
    config = _load_config(args.config)
    flags = {key: value for key, value in vars(args).items()
             if key in table and value is not None}
    unknown = sorted(set(config) - set(table))
    if unknown:
        raise UsageError(f"unknown config key(s) for {args.settings}: {', '.join(unknown)}")
    config = {key: _typed(key, *table[key], value) for key, value in config.items()}
    return argparse.Namespace(**{key: flags.get(key, config.get(key, default))
                                 for key, (_, default) in table.items()})


def _typed(key: str, kind: type, default, value):
    """A --config value of its setting's JSON type: an integer passes for
    a float, a list of integers for a tuple, null only if the default is."""
    if kind is tuple and isinstance(value, list) and all(type(v) is int for v in value):
        return tuple(value)
    if type(value) is kind or (kind is float and type(value) is int):
        return kind(value)
    if value is None and default is None:
        return None
    expected = "list of int" if kind is tuple else kind.__name__
    null = " or null" if default is None else ""
    raise UsageError(f"config key {key} must be {expected}{null}, got {json.dumps(value)}")


@contextmanager
def _usage_errors():
    """Turns a config's refusal of its values into a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _check_outputs(*paths) -> None:
    """Refuse, before any data is loaded, an output file whose directory
    does not exist, so a long run cannot die at its final write."""
    for path in paths:
        if path is not None and not Path(path).parent.is_dir():
            raise UsageError(f"cannot write {path}: no directory {Path(path).parent}")


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def _channels(s, key: str, length: int) -> tuple:
    """Channel plan ``key``: the default plan cut or padded to ``length``,
    for --depth.  A plan from --config is a new tuple (``_typed``), so it
    goes to ModelConfig as given, which refuses a wrong length."""
    plan = getattr(s, key)
    return (plan + plan[-1:] * length)[:length] if plan is _MODEL[key][1] else plan


def _model_config_for(dataset: Dataset, s) -> ModelConfig:
    return ModelConfig(
        input_dim=dataset.feat_dim, num_classes=dataset.num_classes,
        num_activities=dataset.num_activities, kernel=s.kernel, depth=s.depth,
        encoder_channels=_channels(s, "encoder_channels", s.depth + 1),
        decoder_channels=_channels(s, "decoder_channels", s.depth),
        tpp_windows=s.tpp_windows, upsample_mode=s.upsample_mode,
        skip_connections=not s.no_skip, activity_hidden=s.activity_hidden,
    )


def _training_data(path) -> Dataset:
    """The dataset at ``path``; one without a training clip is a data error."""
    dataset = Dataset.load(path)
    if not dataset.train():
        raise DataFormatError(f"{path}: no clip is in the train split")
    return dataset


def _restore_for(path, dataset: Dataset, classes: bool = True):
    """The model and heads at ``path``, refused unless the model reads the
    dataset's features and, with ``classes``, predicts its classes."""
    model, heads = restore_model(path)
    fits = [("features per frame", model.cfg.input_dim, dataset.feat_dim)]
    if classes:
        fits.append(("classes", model.cfg.num_classes, dataset.num_classes))
    for what, ours, theirs in fits:
        if ours != theirs:
            raise DataFormatError(f"{path}: the checkpoint has {ours} {what}, "
                                  f"the dataset {theirs}")
    return model, heads


def _augment_config_for(s) -> AugmentConfig:
    return AugmentConfig(enabled=not s.no_augment, w0=s.w0, pi0=s.pi0)


def _contrast_config_for(s, num_classes: int) -> ContrastConfig:
    return ContrastConfig(
        K=s.K, epsilon=s.epsilon, delta=s.delta, tau=s.tau,
        num_clusters=2 * num_classes if s.clusters is None else s.clusters,
        use_video_level=not s.no_video_level)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_synth(args, s) -> int:
    with _usage_errors():
        cfg = SyntheticConfig(
            num_videos=s.videos, num_actions=s.actions, num_activities=s.activities,
            feat_dim=s.feat_dim, len_range=(s.len_min, s.len_max),
            segments_range=(s.segments_min, s.segments_max), min_segment_len=s.min_segment,
            sigma_between=s.sigma_between, sigma_within=s.sigma_within,
            frame_noise=s.frame_noise, smooth_radius=s.smooth_radius,
            label_noise=s.label_noise, test_fraction=s.test_fraction, seed=s.seed)
    manifest = gen_synthetic(cfg, args.out)
    print(f"wrote {len(manifest.entries)} clips to {args.out}")
    return 0


def cmd_train(args, s) -> int:
    _check_outputs(args.out, args.trace_out)
    dataset = _training_data(args.data)
    with _usage_errors():
        model_cfg = _model_config_for(dataset, s)
        augment_cfg = _augment_config_for(s)
        loss_cfg = LossConfig(lambda_tr=s.lambda_tr, eps_max=s.eps_max,
                              transition=not s.no_transition)
        train_cfg = TrainConfig(lr=s.lr, weight_decay=s.wd, epochs=s.epochs,
                                batch_size=s.batch_size, loss_per_layer=s.loss_per_layer)
    model = build_model(model_cfg, s.seed)
    trace = train_supervised(model, dataset.train(), augment_cfg, loss_cfg,
                             train_cfg, s.seed)
    save_model(args.out, model)
    if args.trace_out:
        rows = "".join(f"{r.epoch},{r.ce:.6f},{r.tr:.6f},{r.total:.6f}\n" for r in trace)
        Path(args.trace_out).write_text("epoch,ce,tr,total\n" + rows, encoding="utf-8")
    print(f"trained {train_cfg.epochs} epochs; checkpoint at {args.out}")
    return 0


def cmd_pretrain(args, s) -> int:
    _check_outputs(args.out)
    dataset = _training_data(args.data)
    with _usage_errors():
        model_cfg = _model_config_for(dataset, s)
        augment_cfg = _augment_config_for(s)
        contrast_cfg = _contrast_config_for(s, dataset.num_classes)
        train_cfg = ContrastTrainConfig(lr=s.lr, weight_decay=s.wd, epochs=s.epochs,
                                        batch_size=s.batch_size)
    model = build_model(model_cfg, s.seed)
    losses = pretrain_unsupervised(model, dataset.train(), contrast_cfg, augment_cfg,
                                   train_cfg, s.seed)
    save_model(args.out, model)
    final = f" (final loss {losses[-1]:.4f})" if losses else ""
    print(f"pretrained {train_cfg.epochs} epochs{final}; checkpoint at {args.out}")
    return 0


def cmd_icc(args, s) -> int:
    dataset = _training_data(args.data)
    with _usage_errors():
        model_cfg = _model_config_for(dataset, s)
        augment_cfg = _augment_config_for(s)
        contrast_cfg = _contrast_config_for(s, dataset.num_classes)
        icc_cfg = ICCConfig(
            iterations=s.iterations, labeled_fraction=s.labeled_frac, lr_g=s.lr_g,
            lr_m_classify=s.lr_m_classify, lr_m_contrast=s.lr_m_contrast,
            weight_decay=s.wd, pretrain_epochs=s.pretrain_epochs,
            contrast_epochs=s.contrast_epochs, classify_epochs=s.classify_epochs,
            batch_size=s.batch_size, classify_transition=s.classify_transition,
            skip_unsupervised=s.skip_unsupervised)
    model = build_model(model_cfg, s.seed)
    split = make_split(dataset, icc_cfg.labeled_fraction, s.seed)
    results = run_icc(model, AuditedDataset(dataset), split, dataset.test(), icc_cfg,
                      augment_cfg, contrast_cfg, LossConfig(), s.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for res in results:
        payload = res.report.to_dict()
        payload["iteration"] = res.iteration
        payload["labeled_clips"] = len(split.labeled)
        _write_json(out / f"icc_{res.iteration}.json", payload)
        print(f"iteration {res.iteration}: MoF {res.report.mof:.2f} "
              f"edit {res.report.edit:.2f}")
    return 0


def cmd_eval(args, s) -> int:
    _check_outputs(args.report)
    with _usage_errors():
        augment_cfg = replace(_augment_config_for(s), tta_samples=s.tta_samples)
    if args.tta and s.no_augment:
        raise UsageError("tta averages augmented windows; it cannot run with no_augment")
    dataset = Dataset.load(args.data)
    model, heads = _restore_for(args.ckpt, dataset)
    clips = dataset.split(args.split)
    if not clips:
        raise UsageError(f"split {args.split!r} has no clips")
    report = evaluate_clips(model, clips, augment_cfg, tta=bool(args.tta),
                            rng=substream(s.seed, "tta"), heads=heads,
                            per_video_f1=s.per_video_f1)
    _write_json(args.report, report.to_dict())
    print(f"{args.split}: MoF {report.mof:.2f} edit {report.edit:.2f} "
          f"F1@25 {report.f1_25:.2f}")
    return 0


def cmd_linear_eval(args, s) -> int:
    _check_outputs(args.report)
    with _usage_errors():
        cfg = LinearEvalConfig(lr=s.lr, epochs=s.epochs)
    dataset = Dataset.load(args.data)
    raw = bool(args.raw_baseline)
    model = None if raw else _restore_for(args.ckpt, dataset, classes=False)[0]
    report = linear_eval(model, dataset.train(), dataset.test(),
                         dataset.num_classes, raw=raw, cfg=cfg)
    _write_json(args.report, report.to_dict())
    kind = "raw features" if raw else "learned representation"
    print(f"linear probe on {kind}: MoF {report.mof:.2f}")
    return 0


def cmd_calibrate(args, s) -> int:
    _check_outputs(args.out, args.entropy_out)
    if args.bins < 1:
        raise UsageError(f"bins must be >= 1, got {args.bins}")
    with _usage_errors():
        augment_cfg = _augment_config_for(s)
    dataset = Dataset.load(args.data)
    model, _ = _restore_for(args.ckpt, dataset)
    report, entropies = calibration_for(model, dataset.test(), augment_cfg,
                                        num_bins=args.bins)
    Path(args.out).write_text(report.to_csv(), encoding="utf-8")
    Path(args.entropy_out).write_text(
        entropy_histogram_csv(entropies, dataset.num_classes), encoding="utf-8")
    print(f"ECE {report.expected_calibration_error():.4f} over {report.frames} frames")
    return 0


def _activity_accuracy(model, clips: list) -> float:
    correct = sum(int(np.argmax(model.activity_probs(
        model.encode(c.features)).data) == c.activity) for c in clips)
    return 100.0 * correct / len(clips)


def cmd_activity_train(args, s) -> int:
    _check_outputs(args.out)
    with _usage_errors():
        check_schedule(s.lr, s.epochs, s.batch_size)
    dataset = _training_data(args.data)
    if dataset.num_activities < 2:
        raise UsageError("activity recognition needs at least two activities")
    with _usage_errors():
        model_cfg = _model_config_for(dataset, s)
    model = build_model(model_cfg, s.seed)
    clips = dataset.train()

    def batch_loss(chunk):
        loss = None
        for clip in chunk:
            p_v = model.activity_probs(model.encode(clip.features, train=True))
            term = activity_loss(p_v, clip.activity)
            loss = term if loss is None else ad.add(loss, term)
        return ad.mul(loss, 1.0 / len(chunk)), None

    fit(clips, [Adam(model.backbone_parameters(), lr=s.lr)], s.epochs, s.batch_size,
        substream(s.seed, "sampler"), batch_loss)
    save_model(args.out, model)
    print(f"activity head trained; train accuracy {_activity_accuracy(model, clips):.2f}; "
          f"checkpoint at {args.out}")
    return 0


def cmd_activity_eval(args, s) -> int:
    _check_outputs(args.report)
    dataset = Dataset.load(args.data)
    if dataset.num_activities < 2:
        raise UsageError("activity recognition needs at least two activities")
    model, _ = _restore_for(args.ckpt, dataset, classes=False)
    clips = dataset.test()
    accuracy = _activity_accuracy(model, clips)
    if args.report:
        _write_json(args.report, {"accuracy": accuracy, "videos": len(clips)})
    print(f"activity accuracy {accuracy:.2f} over {len(clips)} clips")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_settings(parser, command: str) -> None:
    """One flag per non-tuple setting of ``command``, then --config.  An
    unset flag stays None, so ``_settings`` can tell it from a given one."""
    for key, (kind, _) in _SETTINGS[command].items():
        if kind is bool:
            parser.add_argument(_flag(key), action="store_true", default=None)
        elif kind is not tuple:
            parser.add_argument(_flag(key), type=kind, default=None)
    parser.add_argument("--config", default=None,
                        help="JSON object of settings by key; a given flag wins")
    parser.set_defaults(settings=command)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="c2fseg",
                                     description="Temporal action segmentation toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-synth", help="generate the synthetic benchmark")
    p.add_argument("--out", required=True)
    _add_settings(p, "gen-synth")
    p.set_defaults(func=cmd_gen_synth)

    p = subs.add_parser("train", help="fully supervised training")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-out", default=None, help="per-epoch loss CSV")
    _add_settings(p, "train")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("pretrain", help="unsupervised contrastive pretraining")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_settings(p, "pretrain")
    p.set_defaults(func=cmd_pretrain)

    p = subs.add_parser("icc", help="iterate contrast and classify steps")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="directory for per-iteration reports")
    _add_settings(p, "icc")
    p.set_defaults(func=cmd_icc)

    p = subs.add_parser("eval", help="score a checkpoint on a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--report", required=True)
    p.add_argument("--tta", action="store_true", default=None)
    _add_settings(p, "eval")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("linear-eval", help="linear probe of frame representations")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--raw-baseline", action="store_true", default=None,
                   help="probe the raw input features (checkpoint is ignored)")
    _add_settings(p, "linear-eval")
    p.set_defaults(func=cmd_linear_eval)

    p = subs.add_parser("calibrate", help="confidence calibration of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--out", required=True, help="calibration CSV")
    p.add_argument("--entropy-out", required=True, help="wrong-prediction entropy CSV")
    _add_settings(p, "calibrate")
    p.set_defaults(func=cmd_calibrate)

    p = subs.add_parser("activity", help="video-level activity recognition")
    modes = p.add_subparsers(dest="mode", required=True)
    p = modes.add_parser("train", help="train the activity head")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint to write after training")
    _add_settings(p, "activity-train")
    p.set_defaults(func=cmd_activity_train)

    p = modes.add_parser("eval", help="activity accuracy of a checkpoint on the test split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", default=None)
    _add_settings(p, "activity-eval")
    p.set_defaults(func=cmd_activity_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _settings(args))
    except UsageError as exc:
        sys.stderr.write(f"error[2] {exc}\n")
        return 2
    except DataFormatError as exc:
        sys.stderr.write(f"error[3] {exc}\n")
        return 3
    except NumericsError as exc:
        sys.stderr.write(f"error[4] {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
