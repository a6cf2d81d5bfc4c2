"""Command-line interface.

Subcommands: gen-synth, train, pretrain, icc, eval, linear-eval,
calibrate, activity.  Every command takes ``--seed`` (one seed, fanned
into named sub-streams internally) and ``--config cfg.json`` whose keys
mirror the flag names (underscored); explicit flags override the file.
A key the command never reads from the file (a typo, a path flag such
as ``data``, a setting of another command) is a usage error.

Exit codes: 0 success, 2 usage, 3 data/format, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
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
from .supervised import LossConfig, TrainConfig, activity_loss, fit, train_supervised
from . import autodiff as ad
from .optim import Adam

_SYNTH = PROFILES["synthetic"]

class _Config(dict):
    """The --config object.  It records every key a command asks for, so
    ``check`` can refuse the keys that command never reads."""

    def __init__(self, payload=()):
        super().__init__(payload)
        self.asked: set[str] = set()

    def get(self, name, default=None):
        self.asked.add(name)
        return super().get(name, default)

    def check(self, command: str) -> None:
        """Call once the command has read all its settings."""
        unknown = sorted(set(self) - self.asked)
        if unknown:
            raise UsageError(f"unknown config key(s) for {command}: {', '.join(unknown)}")


def _load_config(path: str | None) -> _Config:
    if not path:
        return _Config()
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise UsageError("config file must hold a JSON object")
    return _Config(payload)


def _opt(args, config: _Config, name: str, default):
    """Flag if given, else config-file key, else the built-in default."""
    value = getattr(args, name, None)
    fallback = config.get(name, default)
    return fallback if value is None else value


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def _model_config_for(dataset: Dataset, args, config: _Config) -> ModelConfig:
    depth = int(_opt(args, config, "depth", 6))
    enc = list(config.get("encoder_channels", _SYNTH["encoder_channels"]))
    dec = list(config.get("decoder_channels", _SYNTH["decoder_channels"]))
    # resize channel plans when a non-default depth is requested
    enc = (enc + [enc[-1]] * depth)[:depth + 1]
    dec = (dec + [dec[-1]] * depth)[:depth]
    return ModelConfig(
        input_dim=dataset.feat_dim,
        num_classes=dataset.num_classes,
        num_activities=dataset.num_activities,
        kernel=int(_opt(args, config, "kernel", 5)),
        depth=depth,
        encoder_channels=tuple(enc),
        decoder_channels=tuple(dec),
        tpp_windows=tuple(config.get("tpp_windows", (2, 3, 5, 6))),
        upsample_mode=config.get("upsample_mode", "linear"),
        skip_connections=not bool(_opt(args, config, "no_skip", False)),
        activity_hidden=int(config.get("activity_hidden", _SYNTH["activity_hidden"])),
    )


def _augment_config_for(args, config: _Config,
                        default_pi0: float | None = None) -> AugmentConfig:
    return AugmentConfig(
        enabled=not bool(_opt(args, config, "no_augment", False)),
        w0=int(_opt(args, config, "w0", _SYNTH["w0"])),
        pi0=float(_opt(args, config, "pi0",
                       _SYNTH["pi0"] if default_pi0 is None else default_pi0)),
    )


def _contrast_config_for(args, config: _Config, num_classes: int) -> ContrastConfig:
    return ContrastConfig(
        K=int(_opt(args, config, "K", _SYNTH["K"])),
        epsilon=config.get("epsilon"),
        delta=float(_opt(args, config, "delta", _SYNTH["delta"])),
        tau=float(_opt(args, config, "tau", 0.1)),
        num_clusters=int(_opt(args, config, "clusters", 2 * num_classes)),
        use_video_level=not bool(_opt(args, config, "no_video_level", False)),
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_synth(args) -> int:
    config = _load_config(args.config)
    base = SyntheticConfig()
    cfg = SyntheticConfig(
        num_videos=int(_opt(args, config, "videos", base.num_videos)),
        num_actions=int(_opt(args, config, "actions", base.num_actions)),
        num_activities=int(_opt(args, config, "activities", base.num_activities)),
        feat_dim=int(_opt(args, config, "feat_dim", base.feat_dim)),
        len_range=(int(_opt(args, config, "len_min", base.len_range[0])),
                   int(_opt(args, config, "len_max", base.len_range[1]))),
        segments_range=(int(_opt(args, config, "segments_min", base.segments_range[0])),
                        int(_opt(args, config, "segments_max", base.segments_range[1]))),
        min_segment_len=int(_opt(args, config, "min_segment", base.min_segment_len)),
        sigma_between=float(_opt(args, config, "sigma_between", base.sigma_between)),
        sigma_within=float(_opt(args, config, "sigma_within", base.sigma_within)),
        frame_noise=float(_opt(args, config, "frame_noise", base.frame_noise)),
        smooth_radius=int(_opt(args, config, "smooth_radius", base.smooth_radius)),
        label_noise=float(_opt(args, config, "label_noise", base.label_noise)),
        test_fraction=float(_opt(args, config, "test_fraction", base.test_fraction)),
        seed=int(_opt(args, config, "seed", base.seed)),
    )
    config.check(args.command)
    manifest = gen_synthetic(cfg, args.out)
    print(f"wrote {len(manifest.entries)} clips to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args.config)
    dataset = Dataset.load(args.data)
    seed = int(_opt(args, config, "seed", 7))
    model_cfg = _model_config_for(dataset, args, config)
    augment_cfg = _augment_config_for(args, config)
    loss_cfg = LossConfig(
        lambda_tr=float(_opt(args, config, "lambda_tr", 0.15)),
        eps_max=float(_opt(args, config, "eps_max", 4.0)),
        transition=not bool(_opt(args, config, "no_transition", False)),
    )
    train_cfg = TrainConfig(
        lr=float(_opt(args, config, "lr", _SYNTH["lr"])),
        weight_decay=float(_opt(args, config, "wd", _SYNTH["weight_decay"])),
        epochs=int(_opt(args, config, "epochs", _SYNTH["epochs"])),
        batch_size=int(_opt(args, config, "batch_size", _SYNTH["batch_size"])),
        loss_per_layer=bool(_opt(args, config, "loss_per_layer", False)),
    )
    config.check(args.command)
    model = build_model(model_cfg, seed)
    trace = train_supervised(model, dataset.train(), augment_cfg, loss_cfg,
                             train_cfg, seed)
    save_model(args.out, model)
    if args.trace_out:
        rows = "".join(f"{r.epoch},{r.ce:.6f},{r.tr:.6f},{r.total:.6f}\n" for r in trace)
        Path(args.trace_out).write_text("epoch,ce,tr,total\n" + rows, encoding="utf-8")
    print(f"trained {train_cfg.epochs} epochs; checkpoint at {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    config = _load_config(args.config)
    dataset = Dataset.load(args.data)
    seed = int(_opt(args, config, "seed", 7))
    model_cfg = _model_config_for(dataset, args, config)
    augment_cfg = _augment_config_for(args, config,
                                      default_pi0=_SYNTH["contrast_pi0"])
    contrast_cfg = _contrast_config_for(args, config, dataset.num_classes)
    train_cfg = ContrastTrainConfig(
        lr=float(_opt(args, config, "lr", _SYNTH["contrast_lr"])),
        weight_decay=float(_opt(args, config, "wd", 0.0)),
        epochs=int(_opt(args, config, "epochs", _SYNTH["contrast_epochs"])),
        batch_size=int(_opt(args, config, "batch_size", _SYNTH["batch_size"])),
    )
    config.check(args.command)
    model = build_model(model_cfg, seed)
    losses = pretrain_unsupervised(model, dataset.train(), contrast_cfg, augment_cfg,
                                   train_cfg, seed)
    save_model(args.out, model)
    print(f"pretrained {train_cfg.epochs} epochs "
          f"(final loss {losses[-1]:.4f}); checkpoint at {args.out}")
    return 0


def cmd_icc(args) -> int:
    config = _load_config(args.config)
    dataset = Dataset.load(args.data)
    seed = int(_opt(args, config, "seed", 7))
    model_cfg = _model_config_for(dataset, args, config)
    augment_cfg = _augment_config_for(args, config)
    contrast_cfg = _contrast_config_for(args, config, dataset.num_classes)
    loss_cfg = LossConfig()
    icc_cfg = ICCConfig(
        iterations=int(_opt(args, config, "iterations", 4)),
        labeled_fraction=float(_opt(args, config, "labeled_frac", 0.1)),
        lr_g=float(_opt(args, config, "lr_g", 1e-2)),
        lr_m_classify=float(_opt(args, config, "lr_m_classify", 1e-5)),
        lr_m_contrast=float(_opt(args, config, "lr_m_contrast", 1e-3)),
        weight_decay=float(_opt(args, config, "wd", 0.0)),
        pretrain_epochs=int(_opt(args, config, "pretrain_epochs", 30)),
        contrast_epochs=int(_opt(args, config, "contrast_epochs", 10)),
        classify_epochs=int(_opt(args, config, "classify_epochs", 40)),
        batch_size=int(_opt(args, config, "batch_size", _SYNTH["batch_size"])),
        classify_transition=bool(_opt(args, config, "classify_transition", False)),
        skip_unsupervised=bool(_opt(args, config, "skip_unsupervised", False)),
    )
    config.check(args.command)
    model = build_model(model_cfg, seed)
    audited = AuditedDataset(dataset)
    split = make_split(dataset, icc_cfg.labeled_fraction, seed)
    results = run_icc(model, audited, split, dataset.test(), icc_cfg, augment_cfg,
                      contrast_cfg, loss_cfg, seed)
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


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    dataset = Dataset.load(args.data)
    augment_cfg = replace(_augment_config_for(args, config),
                          tta_samples=int(_opt(args, config, "tta_samples", 5)))
    seed = int(_opt(args, config, "seed", 7))
    per_video_f1 = bool(_opt(args, config, "per_video_f1", False))
    config.check(args.command)
    model, heads = restore_model(args.ckpt)
    clips = dataset.split(args.split)
    if not clips:
        raise UsageError(f"split {args.split!r} has no clips")
    report = evaluate_clips(model, clips, augment_cfg, tta=bool(args.tta),
                            rng=substream(seed, "tta"), heads=heads,
                            per_video_f1=per_video_f1)
    _write_json(args.report, report.to_dict())
    print(f"{args.split}: MoF {report.mof:.2f} edit {report.edit:.2f} "
          f"F1@25 {report.f1_25:.2f}")
    return 0


def cmd_linear_eval(args) -> int:
    config = _load_config(args.config)
    dataset = Dataset.load(args.data)
    cfg = LinearEvalConfig(lr=float(_opt(args, config, "lr", 1e-2)),
                           epochs=int(_opt(args, config, "epochs", 300)))
    config.check(args.command)
    raw = bool(args.raw_baseline)
    model = None
    if not raw:
        model, _ = restore_model(args.ckpt)
    report = linear_eval(model, dataset.train(), dataset.test(),
                         dataset.num_classes, raw=raw, cfg=cfg)
    _write_json(args.report, report.to_dict())
    kind = "raw features" if raw else "learned representation"
    print(f"linear probe on {kind}: MoF {report.mof:.2f}")
    return 0


def cmd_calibrate(args) -> int:
    config = _load_config(args.config)
    dataset = Dataset.load(args.data)
    augment_cfg = _augment_config_for(args, config)
    config.check(args.command)
    model, heads = restore_model(args.ckpt)
    clips = dataset.test()
    report, entropies = calibration_for(model, clips, augment_cfg,
                                        num_bins=int(args.bins), heads=heads)
    Path(args.out).write_text(report.to_csv(), encoding="utf-8")
    Path(args.entropy_out).write_text(
        entropy_histogram_csv(entropies, dataset.num_classes), encoding="utf-8")
    print(f"ECE {report.expected_calibration_error():.4f} over {report.frames} frames")
    return 0


def cmd_activity(args) -> int:
    config = _load_config(args.config)
    dataset = Dataset.load(args.data)
    seed = int(_opt(args, config, "seed", 7))
    if dataset.num_activities < 2:
        raise UsageError("activity recognition needs at least two activities")
    if args.mode == "train":
        model_cfg = _model_config_for(dataset, args, config)
        lr = float(_opt(args, config, "lr", 1e-3))
        epochs = int(_opt(args, config, "epochs", 30))
        batch = int(_opt(args, config, "batch_size", _SYNTH["batch_size"]))
        config.check(args.command)
        model = build_model(model_cfg, seed)
        clips = dataset.train()

        def batch_loss(chunk):
            loss = None
            for clip in chunk:
                p_v = model.activity_probs(model.encode(clip.features, train=True))
                term = activity_loss(p_v, clip.activity)
                loss = term if loss is None else ad.add(loss, term)
            return ad.mul(loss, 1.0 / len(chunk)), None

        fit(clips, [Adam(model.backbone_parameters(), lr=lr)], epochs, batch,
            substream(seed, "sampler"), batch_loss)
        save_model(args.out, model)
        correct = sum(int(np.argmax(model.activity_probs(
            model.encode(c.features)).data) == c.activity) for c in clips)
        print(f"activity head trained; train accuracy {100.0 * correct / len(clips):.2f}; "
              f"checkpoint at {args.out}")
        return 0
    config.check(args.command)
    model, _ = restore_model(args.ckpt)
    clips = dataset.test()
    correct = sum(int(np.argmax(model.activity_probs(
        model.encode(c.features)).data) == c.activity) for c in clips)
    report = {"accuracy": 100.0 * correct / len(clips), "videos": len(clips)}
    if args.report:
        _write_json(args.report, report)
    print(f"activity accuracy {report['accuracy']:.2f} over {report['videos']} clips")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _common(sub) -> None:
    sub.add_argument("--seed", type=int, default=None, help="master seed")
    sub.add_argument("--config", default=None, help="JSON config mirroring the flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="c2fseg",
                                     description="Temporal action segmentation toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-synth", help="generate the synthetic benchmark")
    p.add_argument("--out", required=True)
    for flag in ("videos", "actions", "activities", "feat-dim", "len-min", "len-max",
                 "segments-min", "segments-max", "min-segment", "smooth-radius"):
        p.add_argument(f"--{flag}", type=int, default=None)
    for flag in ("sigma-between", "sigma-within", "frame-noise", "label-noise",
                 "test-fraction"):
        p.add_argument(f"--{flag}", type=float, default=None)
    _common(p)
    p.set_defaults(func=cmd_gen_synth)

    p = subs.add_parser("train", help="fully supervised training")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-out", default=None, help="per-epoch loss CSV")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--wd", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--w0", type=int, default=None)
    p.add_argument("--pi0", type=float, default=None)
    p.add_argument("--kernel", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--lambda-tr", type=float, default=None)
    p.add_argument("--eps-max", type=float, default=None)
    p.add_argument("--no-augment", action="store_true", default=None)
    p.add_argument("--no-transition", action="store_true", default=None)
    p.add_argument("--loss-per-layer", action="store_true", default=None)
    p.add_argument("--no-skip", action="store_true", default=None)
    _common(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("pretrain", help="unsupervised contrastive pretraining")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--wd", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--w0", type=int, default=None)
    p.add_argument("--pi0", type=float, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--clusters", type=int, default=None)
    p.add_argument("--no-video-level", action="store_true", default=None)
    p.add_argument("--no-augment", action="store_true", default=None)
    _common(p)
    p.set_defaults(func=cmd_pretrain)

    p = subs.add_parser("icc", help="iterate contrast and classify steps")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="directory for per-iteration reports")
    p.add_argument("--labeled-frac", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--pretrain-epochs", type=int, default=None)
    p.add_argument("--contrast-epochs", type=int, default=None)
    p.add_argument("--classify-epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr-g", type=float, default=None)
    p.add_argument("--lr-m-classify", type=float, default=None)
    p.add_argument("--lr-m-contrast", type=float, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--clusters", type=int, default=None)
    p.add_argument("--w0", type=int, default=None)
    p.add_argument("--pi0", type=float, default=None)
    p.add_argument("--skip-unsupervised", action="store_true", default=None)
    p.add_argument("--classify-transition", action="store_true", default=None)
    p.add_argument("--no-video-level", action="store_true", default=None)
    p.add_argument("--no-augment", action="store_true", default=None)
    _common(p)
    p.set_defaults(func=cmd_icc)

    p = subs.add_parser("eval", help="score a checkpoint on a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--report", required=True)
    p.add_argument("--tta", action="store_true", default=None)
    p.add_argument("--w0", type=int, default=None)
    p.add_argument("--pi0", type=float, default=None)
    p.add_argument("--tta-samples", type=int, default=None)
    p.add_argument("--no-augment", action="store_true", default=None)
    _common(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("linear-eval", help="linear probe of frame representations")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--raw-baseline", action="store_true", default=None,
                   help="probe the raw input features (checkpoint is ignored)")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    _common(p)
    p.set_defaults(func=cmd_linear_eval)

    p = subs.add_parser("calibrate", help="confidence calibration of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--out", required=True, help="calibration CSV")
    p.add_argument("--entropy-out", required=True, help="wrong-prediction entropy CSV")
    p.add_argument("--w0", type=int, default=None)
    p.add_argument("--pi0", type=float, default=None)
    p.add_argument("--no-augment", action="store_true", default=None)
    _common(p)
    p.set_defaults(func=cmd_calibrate)

    p = subs.add_parser("activity", help="video-level activity recognition")
    p.add_argument("mode", choices=("train", "eval"))
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", default=None, help="checkpoint to evaluate")
    p.add_argument("--out", default=None, help="checkpoint to write after training")
    p.add_argument("--report", default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    _common(p)
    p.set_defaults(func=cmd_activity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "activity":
        if args.mode == "train" and not args.out:
            parser.error("activity train requires --out")
        if args.mode == "eval" and not args.ckpt:
            parser.error("activity eval requires --ckpt")
    try:
        return args.func(args)
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
