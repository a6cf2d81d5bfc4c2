"""End-to-end command-line flows on a small generated dataset."""

import argparse
import json
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from c2fseg import cli
from c2fseg.cli import main
from c2fseg.data import (load_checkpoint, load_features, restore_model, save_checkpoint,
                         save_features)
from c2fseg.model import build_model


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    assert main(["gen-synth", "--out", str(root), "--videos", "10",
                 "--seed", "5"]) == 0
    return root


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory, data_dir):
    path = tmp_path_factory.mktemp("cli-ckpt") / "model.bin"
    rc = main(["train", "--data", str(data_dir), "--out", str(path),
               "--epochs", "1", "--seed", "5"])
    assert rc == 0
    return path


def test_gen_synth_writes_manifest(data_dir):
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert len(manifest) == 10
    assert (data_dir / "mapping.txt").exists()


def test_gen_synth_deterministic(tmp_path, data_dir):
    other = tmp_path / "again"
    assert main(["gen-synth", "--out", str(other), "--videos", "10",
                 "--seed", "5"]) == 0
    for p in sorted(data_dir.rglob("*")):
        if p.is_file():
            twin = other / p.relative_to(data_dir)
            assert twin.read_bytes() == p.read_bytes(), p.name


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["gen-synth", "--help"],
    ["train", "--help"],
    ["pretrain", "--help"],
    ["icc", "--help"],
    ["eval", "--help"],
    ["linear-eval", "--help"],
    ["calibrate", "--help"],
    ["activity", "--help"],
])
def test_help_exits_cleanly(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["train"])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["segment-everything"])
    assert exc.value.code == 2


def test_missing_config_file_exits_2(data_dir, tmp_path):
    rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "m.bin"),
               "--config", str(tmp_path / "absent.json")])
    assert rc == 2


def test_invalid_config_json_exits_2(data_dir, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "m.bin"),
               "--config", str(cfg)])
    assert rc == 2
    cfg.write_text("[1, 2]")
    rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "m.bin"),
               "--config", str(cfg)])
    assert rc == 2


def test_eval_on_missing_split_exits_2(data_dir, ckpt, tmp_path):
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
               "--split", "val", "--report", str(tmp_path / "r.json")])
    assert rc == 2


def test_corrupt_checkpoint_exits_3(data_dir, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"WRNG" + b"\x00" * 16)
    rc = main(["eval", "--ckpt", str(bad), "--data", str(data_dir),
               "--report", str(tmp_path / "r.json")])
    assert rc == 3


def test_corrupt_features_exit_3(data_dir, tmp_path):
    broken = tmp_path / "broken-data"
    shutil.copytree(data_dir, broken)
    victim = next(broken.glob("features/*.feat"))
    victim.write_bytes(b"XXXX" + victim.read_bytes()[4:])
    rc = main(["train", "--data", str(broken), "--out", str(tmp_path / "m.bin"),
               "--epochs", "1"])
    assert rc == 3


def test_invalid_config_value_is_one_usage_line(tmp_path, capsys):
    rc = main(["gen-synth", "--out", str(tmp_path / "d"), "--test-fraction", "1.0"])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error[2] test_fraction must lie in (0, 1)"]
    assert not (tmp_path / "d").exists()


def test_missing_data_dir_names_the_file(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    rc = main(["train", "--data", str(missing), "--out", str(tmp_path / "m.bin")])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error[3] {missing / 'manifest.json'}: no such file"]


def test_nan_features_exit_4(data_dir, tmp_path):
    poisoned = tmp_path / "nan-data"
    shutil.copytree(data_dir, poisoned)
    victim = next(poisoned.glob("features/*.feat"))
    shape = load_features(victim).shape
    save_features(victim, np.full(shape, np.nan))
    rc = main(["train", "--data", str(poisoned), "--out", str(tmp_path / "m.bin"),
               "--epochs", "1"])
    assert rc == 4


def test_train_writes_checkpoint_and_trace(data_dir, tmp_path):
    out = tmp_path / "m.bin"
    trace = tmp_path / "trace.csv"
    rc = main(["train", "--data", str(data_dir), "--out", str(out),
               "--trace-out", str(trace), "--epochs", "1", "--seed", "5"])
    assert rc == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "epoch,ce,tr,total"
    assert len(lines) == 2
    model, _ = restore_model(out)
    assert model.cfg.num_classes == 6
    assert model.cfg.input_dim == 32


def test_pretrain_zero_epochs_writes_untrained_checkpoint(data_dir, tmp_path):
    out = tmp_path / "pre.bin"
    rc = main(["pretrain", "--data", str(data_dir), "--out", str(out),
               "--epochs", "0", "--seed", "5"])
    assert rc == 0
    model, _ = restore_model(out)
    untrained = build_model(model.cfg, 5)
    for (name, a), (_, b) in zip(model.named_parameters(), untrained.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data.astype(np.float32), err_msg=name)
    report = tmp_path / "probe.json"
    rc = main(["linear-eval", "--ckpt", str(out), "--data", str(data_dir),
               "--report", str(report), "--epochs", "3"])
    assert rc == 0


def test_flag_overrides_config_file(data_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 3, "seed": 5}))
    trace = tmp_path / "trace.csv"
    rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "a.bin"),
               "--trace-out", str(trace), "--config", str(cfg), "--epochs", "1"])
    assert rc == 0
    assert len(trace.read_text().strip().splitlines()) == 1 + 1
    rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "b.bin"),
               "--trace-out", str(trace), "--config", str(cfg)])
    assert rc == 0
    assert len(trace.read_text().strip().splitlines()) == 1 + 3


_MODEL = {"depth": 6, "kernel": 5, "encoder_channels": [8] * 7,
          "decoder_channels": [8] * 6, "tpp_windows": [2, 3], "upsample_mode": "nearest",
          "no_skip": False, "activity_hidden": 8}
_AUGMENT = {"no_augment": False, "w0": 10, "pi0": 0.5}
_CONTRAST = {"K": 4, "epsilon": None, "delta": 0.5, "tau": 0.1, "clusters": 12,
             "no_video_level": False}
_SGD = {"lr": 1e-3, "wd": 0.0, "epochs": 1, "batch_size": 4}
# Every key each command reads from --config, with a valid value for it.
_READS = {
    "gen-synth": {"videos": 10, "actions": 6, "activities": 3, "feat_dim": 32,
                  "len_min": 64, "len_max": 96, "segments_min": 2, "segments_max": 3,
                  "min_segment": 8, "sigma_between": 2.4, "sigma_within": 1.0,
                  "frame_noise": 1.2, "smooth_radius": 2, "label_noise": 0.0,
                  "test_fraction": 0.2, "seed": 5},
    "train": {"seed": 5, **_MODEL, **_AUGMENT, **_SGD, "lambda_tr": 0.15,
              "eps_max": 4.0, "no_transition": False, "loss_per_layer": False},
    "pretrain": {"seed": 5, **_MODEL, **_AUGMENT, **_CONTRAST, **_SGD},
    "icc": {"seed": 5, **_MODEL, **_AUGMENT, **_CONTRAST, "wd": 1e-4, "batch_size": 4,
            "iterations": 1, "labeled_frac": 0.5, "lr_g": 1e-2, "lr_m_classify": 1e-5,
            "lr_m_contrast": 1e-3, "pretrain_epochs": 1, "contrast_epochs": 1,
            "classify_epochs": 1, "classify_transition": False,
            "skip_unsupervised": False},
    "eval": {"seed": 5, **_AUGMENT, "tta_samples": 3, "per_video_f1": True},
    "linear-eval": {"lr": 1e-2, "epochs": 3},
    "calibrate": dict(_AUGMENT),
    "activity-train": {"seed": 5, **_MODEL, "lr": 1e-3, "epochs": 1, "batch_size": 4},
    "activity-eval": {},
}
# Keys no command reads from --config: path and action flags, a deleted
# option and a typo.
_NEVER_READ = {"data": "x", "out": "x", "ckpt": "x", "report": "x", "split": "test",
               "tta": True, "bins": 5, "raw_baseline": True, "trace_out": "x",
               "entropy_out": "x", "mode": "train", "learned_alpha": True, "epochz": 3}


class _Reached(Exception):
    """Raised by the stubbed first step after a command's config check."""


def _argv(command, data_dir, tmp_path):
    data, out = str(data_dir), str(tmp_path / "out")
    return {
        "gen-synth": ["gen-synth", "--out", out],
        "train": ["train", "--data", data, "--out", out],
        "pretrain": ["pretrain", "--data", data, "--out", out],
        "icc": ["icc", "--data", data, "--out", out],
        "eval": ["eval", "--ckpt", out, "--data", data, "--report", out],
        "linear-eval": ["linear-eval", "--ckpt", out, "--data", data, "--report", out],
        "calibrate": ["calibrate", "--ckpt", out, "--data", data, "--out", out,
                      "--entropy-out", out],
        "activity-train": ["activity", "train", "--data", data, "--out", out],
        "activity-eval": ["activity", "eval", "--data", data, "--ckpt", out],
    }[command]


@pytest.fixture
def stop_after_check(monkeypatch):
    def reached(*args, **kwargs):
        raise _Reached
    for name in ("gen_synthetic", "build_model", "restore_model", "linear_eval"):
        monkeypatch.setattr(cli, name, reached)


@pytest.mark.parametrize("command", sorted(_READS))
def test_config_accepts_every_key_the_command_reads(data_dir, tmp_path, command,
                                                    stop_after_check):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_READS[command]))
    with pytest.raises(_Reached):
        main(_argv(command, data_dir, tmp_path) + ["--config", str(cfg)])


@pytest.mark.parametrize("command", sorted(_READS))
def test_config_refuses_keys_the_command_does_not_read(data_dir, tmp_path, capsys,
                                                       command, stop_after_check):
    payload = dict(_NEVER_READ)
    for reads in _READS.values():
        payload.update(reads)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    assert main(_argv(command, data_dir, tmp_path) + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert set(err.split(": ", 1)[1].strip().split(", ")) == set(payload) - set(
        _READS[command])


# Flags that name a path, an action or the config file rather than a setting.
_PATH_FLAGS = {"-h", "--help", "--config"} | {"--" + key.replace("_", "-")
                                              for key in _NEVER_READ}


def _subparser(parser, name):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices[name]


@pytest.mark.parametrize("command", sorted(_READS))
def test_setting_flags_are_the_non_tuple_config_keys(command):
    parser = cli.build_parser()
    for name in command.split("-", 1) if command.startswith("activity") else [command]:
        parser = _subparser(parser, name)
    flags = {flag for action in parser._actions
             for flag in action.option_strings} - _PATH_FLAGS
    keys = {key for key, value in _READS[command].items() if not isinstance(value, list)}
    assert flags == {"--" + key.replace("_", "-") for key in keys}


def test_pretrain_depth_flag_reaches_the_checkpoint(data_dir, tmp_path):
    out = tmp_path / "d3.bin"
    assert main(["pretrain", "--data", str(data_dir), "--out", str(out),
                 "--depth", "3", "--epochs", "0"]) == 0
    model, _ = restore_model(out)
    assert model.cfg.depth == 3
    assert len(model.cfg.encoder_channels) == 4


@pytest.mark.parametrize("argv", [["linear-eval", "--seed", "5"],
                                  ["calibrate", "--seed", "5"],
                                  ["activity-eval", "--lr", "1e-3"],
                                  ["activity-eval", "--seed", "5"],
                                  ["activity-eval", "--out", "x"],
                                  ["activity-train", "--ckpt", "x"],
                                  ["activity-train", "--report", "x"]],
                         ids=" ".join)
def test_flag_the_command_does_not_take_exits_2(data_dir, tmp_path, stop_after_check,
                                                argv):
    with pytest.raises(SystemExit) as exc:  # argparse: the subparser has no such flag
        main(_argv(argv[0], data_dir, tmp_path) + argv[1:])
    assert exc.value.code == 2


def test_eval_tta_without_augmentation_exits_2(data_dir, tmp_path, capsys,
                                               stop_after_check):
    assert main(_argv("eval", data_dir, tmp_path) + ["--tta", "--no-augment"]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error[2] tta averages augmented windows; it cannot run with no_augment"]


@pytest.mark.parametrize("key,given,message", [
    ("encoder_channels", [8] * 10, "encoder_channels needs depth+1=7 entries, got 10"),
    ("decoder_channels", [8] * 2, "decoder_channels needs depth=6 entries, got 2"),
])
def test_channel_list_from_config_is_not_resized(data_dir, tmp_path, capsys,
                                                 stop_after_check, key, given, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: given}))
    assert main(_argv("train", data_dir, tmp_path) + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error[2] {message}"]


def test_readme_quickstart_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quickstart", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("c2fseg ")]
    assert len(commands) >= 8
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: c2fseg {' '.join(argv)}")


_BAD_SCHEDULES = [
    (["icc", "--labeled-frac", "0"], "labeled_fraction must lie in (0, 1], got 0.0"),
    (["icc", "--iterations", "0"], "iterations must be >= 1, got 0"),
    (["icc", "--lr-g", "0"], "lr_g must be positive, got 0.0"),
    (["icc", "--classify-epochs", "-1"], "classify_epochs must be >= 0, got -1"),
    (["train", "--batch-size", "0"], "batch_size must be >= 1, got 0"),
    (["train", "--lr", "0"], "lr must be positive, got 0.0"),
    (["train", "--epochs", "-1"], "epochs must be >= 0, got -1"),
    (["pretrain", "--batch-size", "0"], "batch_size must be >= 1, got 0"),
    (["linear-eval", "--lr", "-1"], "lr must be positive, got -1.0"),
    (["activity-train", "--batch-size", "0"], "batch_size must be >= 1, got 0"),
    (["activity-train", "--lr", "0"], "lr must be positive, got 0.0"),
    (["calibrate", "--bins", "0"], "bins must be >= 1, got 0"),
]


@pytest.mark.parametrize("argv,message", _BAD_SCHEDULES,
                         ids=[" ".join(argv) for argv, _ in _BAD_SCHEDULES])
def test_invalid_schedule_is_one_usage_line(data_dir, tmp_path, capsys, stop_after_check,
                                            argv, message):
    assert main(_argv(argv[0], data_dir, tmp_path) + argv[1:]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error[2] {message}"]


_WRONG_TYPES = [
    ("train", {"epochs": 1.9}, "epochs must be int, got 1.9"),
    ("train", {"epochs": True}, "epochs must be int, got true"),
    ("train", {"no_augment": "false"}, 'no_augment must be bool, got "false"'),
    ("train", {"encoder_channels": 64}, "encoder_channels must be list of int, got 64"),
    ("train", {"tpp_windows": [2, 3.5]}, "tpp_windows must be list of int, got [2, 3.5]"),
    ("train", {"lr": None}, "lr must be float, got null"),
    ("train", {"upsample_mode": 1}, "upsample_mode must be str, got 1"),
    ("pretrain", {"tau": "0.1"}, 'tau must be float, got "0.1"'),
    ("pretrain", {"epsilon": "small"}, 'epsilon must be float or null, got "small"'),
    ("icc", {"clusters": 2.0}, "clusters must be int or null, got 2.0"),
    ("linear-eval", {"epochs": "3"}, 'epochs must be int, got "3"'),
]


@pytest.mark.parametrize("command,payload,message", _WRONG_TYPES,
                         ids=[f"{c} {json.dumps(p)}" for c, p, _ in _WRONG_TYPES])
def test_wrong_typed_config_value_is_one_usage_line(data_dir, tmp_path, capsys,
                                                    stop_after_check, command, payload,
                                                    message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    assert main(_argv(command, data_dir, tmp_path) + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error[2] config key {message}"]


@pytest.mark.parametrize("meta,reason", [
    (lambda m: np.concatenate([m[:3], [4.0], m[4:]]), "kernel must be odd, got 4"),
    (lambda m: m[:7], "not enough values to unpack"),
], ids=["even kernel", "seven entries"])
def test_bad_checkpoint_metadata_exits_3_naming_the_file(data_dir, ckpt, tmp_path, capsys,
                                                         meta, reason):
    state = load_checkpoint(ckpt)
    state["meta.model"] = meta(state["meta.model"])
    bad = tmp_path / "bad-meta.bin"
    save_checkpoint(bad, state)
    rc = main(["eval", "--ckpt", str(bad), "--data", str(data_dir),
               "--report", str(tmp_path / "r.json")])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error[3] {bad}: ") and reason in err[0]


@pytest.mark.parametrize("payload", ["[]", "5", '{"id": "vid000"}'])
def test_manifest_that_is_not_a_list_of_clips_exits_3(data_dir, tmp_path, capsys, payload):
    broken = tmp_path / "broken-data"
    shutil.copytree(data_dir, broken)
    (broken / "manifest.json").write_text(payload)
    rc = main(["train", "--data", str(broken), "--out", str(tmp_path / "m.bin")])
    assert rc == 3
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error[3] {broken / 'manifest.json'}: manifest must be a non-empty JSON list"]


@pytest.mark.parametrize("command,flag", [
    ("train", "--out"), ("train", "--trace-out"), ("pretrain", "--out"),
    ("eval", "--report"), ("linear-eval", "--report"), ("calibrate", "--out"),
    ("calibrate", "--entropy-out"), ("activity-train", "--out"),
    ("activity-eval", "--report"),
])
def test_missing_output_directory_exits_before_loading_data(
        data_dir, tmp_path, capsys, monkeypatch, stop_after_check, command, flag):
    class NoData:
        @staticmethod
        def load(path):
            raise _Reached
    monkeypatch.setattr(cli, "Dataset", NoData)
    missing = tmp_path / "absent" / "file"
    assert main(_argv(command, data_dir, tmp_path) + [flag, str(missing)]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error[2] cannot write {missing}: no directory {missing.parent}"]


@pytest.fixture(scope="module")
def no_train_dir(tmp_path_factory, data_dir):
    root = tmp_path_factory.mktemp("test-only-data")
    shutil.copytree(data_dir, root, dirs_exist_ok=True)
    manifest = json.loads((root / "manifest.json").read_text())
    (root / "manifest.json").write_text(json.dumps([dict(e, split="test")
                                                    for e in manifest]))
    return root


@pytest.mark.parametrize("command", ["train", "pretrain", "icc", "activity-train"])
def test_empty_training_split_exits_3_before_any_model(no_train_dir, tmp_path, capsys,
                                                       stop_after_check, command):
    assert main(_argv(command, no_train_dir, tmp_path)) == 3
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error[3] {no_train_dir}: no clip is in the train split"]


@pytest.fixture(scope="module")
def other_data(tmp_path_factory):
    """Two corpora the ``ckpt`` model does not fit: 16 features per frame
    where it reads 32, and 8 classes where it predicts 6."""
    dirs = {}
    for name, flags in (("width", ["--feat-dim", "16"]), ("classes", ["--actions", "8"])):
        dirs[name] = tmp_path_factory.mktemp(f"other-{name}")
        assert main(["gen-synth", "--out", str(dirs[name]), "--videos", "6",
                     "--len-min", "64", "--len-max", "96", "--segments-min", "2",
                     "--segments-max", "3", "--min-segment", "8", *flags]) == 0
    return dirs


_MISFITS = [
    ("eval", "width", "32 features per frame, the dataset 16"),
    ("calibrate", "width", "32 features per frame, the dataset 16"),
    ("linear-eval", "width", "32 features per frame, the dataset 16"),
    ("activity-eval", "width", "32 features per frame, the dataset 16"),
    ("eval", "classes", "6 classes, the dataset 8"),
    ("calibrate", "classes", "6 classes, the dataset 8"),
]


@pytest.mark.parametrize("command,corpus,message", _MISFITS,
                         ids=[f"{c} {k}" for c, k, _ in _MISFITS])
def test_checkpoint_that_does_not_fit_the_dataset_exits_3(ckpt, other_data, tmp_path,
                                                          capsys, command, corpus,
                                                          message):
    argv = _argv(command, other_data[corpus], tmp_path)
    argv[argv.index("--ckpt") + 1] = str(ckpt)
    assert main(argv) == 3
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error[3] {ckpt}: the checkpoint has {message}"]


def test_clip_the_model_cannot_run_exits_3(data_dir, tmp_path, capsys):
    broken = tmp_path / "broken-data"
    shutil.copytree(data_dir, broken)
    victim = broken / "features" / "vid003.feat"
    save_features(victim, np.zeros((len(load_features(victim)), 16)))
    rc = main(["train", "--data", str(broken), "--out", str(tmp_path / "m.bin")])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error[3] vid003: 16 features per frame")


def test_train_checkpoint_bytes_deterministic(data_dir, tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    for out in (a, b):
        rc = main(["train", "--data", str(data_dir), "--out", str(out),
                   "--epochs", "1", "--seed", "9"])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_eval_report_round_trip(data_dir, ckpt, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for report in (a, b):
        rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
                   "--report", str(report), "--seed", "5"])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert set(payload) == {"mof", "edit", "f1_10", "f1_25", "f1_50",
                            "frames", "videos"}
    assert payload["videos"] == 3  # one held-out clip per activity


def test_linear_eval_raw_baseline(data_dir, tmp_path):
    report = tmp_path / "probe.json"
    rc = main(["linear-eval", "--ckpt", "unused.bin", "--data", str(data_dir),
               "--report", str(report), "--raw-baseline", "--epochs", "20"])
    assert rc == 0
    assert 0.0 <= json.loads(report.read_text())["mof"] <= 100.0


def test_calibrate_writes_both_csvs(data_dir, ckpt, tmp_path):
    out, ent = tmp_path / "cal.csv", tmp_path / "ent.csv"
    rc = main(["calibrate", "--ckpt", str(ckpt), "--data", str(data_dir),
               "--bins", "10", "--out", str(out), "--entropy-out", str(ent)])
    assert rc == 0
    cal_lines = out.read_text().strip().splitlines()
    assert cal_lines[0] == "bin_lo,bin_hi,count,acc,conf,gap"
    assert len(cal_lines) == 1 + 10
    ent_lines = ent.read_text().strip().splitlines()
    assert ent_lines[0] == "bin_lo,bin_hi,count"
    assert float(ent_lines[-1].split(",")[1]) == pytest.approx(np.log(6))


def test_activity_train_then_eval(data_dir, tmp_path):
    out = tmp_path / "act.bin"
    rc = main(["activity", "train", "--data", str(data_dir), "--out", str(out),
               "--epochs", "1", "--seed", "5"])
    assert rc == 0
    report = tmp_path / "act.json"
    rc = main(["activity", "eval", "--data", str(data_dir), "--ckpt", str(out),
               "--report", str(report)])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert set(payload) == {"accuracy", "videos"}


def test_activity_train_requires_out(data_dir):
    with pytest.raises(SystemExit) as exc:
        main(["activity", "train", "--data", str(data_dir)])
    assert exc.value.code == 2
