"""The benchmark's four workloads: set-up, one repetition each, output checks.

Every workload runs the reference synthetic corpus (``SyntheticConfig()``)
with the ``synthetic`` profile through the package's public entry points.
The benchmark seed drives the model initialisation and every training and
sampling stream; the corpus itself is the fixed reference corpus.  The
``infer`` workload evaluates a reference checkpoint, trained in set-up with
the profile's own seed, so every seed scores the same model and only the
TTA draws follow the benchmark seed.

A repetition is one complete, fixed-size job (a training run from the same
initial weights, an evaluation pass, an ICC alternation).  Repetitions of
one seed do identical work, so their timings can be pooled by median.
"""

from __future__ import annotations

import copy
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

# Entry points are called through their modules, never bound by ``from``
# imports, so that the layer trace sees every call the benchmark makes.
from c2fseg import contrastive, data, icc, inference, model, supervised
from c2fseg.augment import AugmentConfig
from c2fseg.contrastive import ContrastConfig, ContrastTrainConfig, LinearEvalConfig
from c2fseg.data import AuditedDataset, Dataset, SyntheticConfig
from c2fseg.icc import ICCConfig
from c2fseg.model import ModelConfig
from c2fseg.profiles import PROFILES
from c2fseg.seeding import substream
from c2fseg.supervised import LossConfig, TrainConfig

PROFILE = PROFILES["synthetic"]

# Fixed job sizes.  They are small enough that one repetition fits a few
# times into a run of the benchmark's length on a 2-core laptop-class CPU.
SUP_EPOCHS = 4
PRETRAIN_EPOCHS = 4
PROBE_EPOCHS = 50
CKPT_EPOCHS = 2            # training of the checkpoint that ``infer`` loads
ICC_PRETRAIN_EPOCHS = 1
ICC_CONTRAST_EPOCHS = 1
ICC_CLASSIFY_EPOCHS = 2
ICC_ITERATIONS = 4
ICC_LABELED_FRACTION = 0.1


def chance_mof(ds: Dataset) -> float:
    """MoF of a uniform random labeller: the quality floor of every MoF check.

    At these short training sizes a seed's MoF ranges from about 24 to 72,
    so the floor catches a model that learned nothing, not a weak seed."""
    return 100.0 / ds.num_classes


@dataclass
class Setup:
    dataset: Dataset
    model: object                     # initial weights every repetition starts from
    heads: object = None              # restored heads (``infer`` only)


@dataclass
class Rep:
    """Result of one repetition."""

    wall_s: float                     # whole job, checks excluded
    fps: float                        # headline throughput, original frames per s
    report: dict                      # workload metrics under their own names
    outputs: tuple                    # program outputs, compared bit for bit
    failures: list = field(default_factory=list)
    clip_ms: list = field(default_factory=list)   # per-clip eval latency (``infer``)


def frames(clips) -> int:
    return int(sum(c.features.shape[0] for c in clips))


def model_config(ds: Dataset) -> ModelConfig:
    return ModelConfig(input_dim=ds.feat_dim, num_classes=ds.num_classes,
                       num_activities=ds.num_activities,
                       encoder_channels=PROFILE["encoder_channels"],
                       decoder_channels=PROFILE["decoder_channels"],
                       activity_hidden=PROFILE["activity_hidden"])


def supervised_aug() -> AugmentConfig:
    return AugmentConfig(w0=PROFILE["w0"], pi0=PROFILE["pi0"])


def contrast_cfg() -> ContrastConfig:
    return ContrastConfig(K=PROFILE["K"], delta=PROFILE["delta"],
                          num_clusters=PROFILE["num_clusters"])


def train_cfg(epochs: int) -> TrainConfig:
    return TrainConfig(lr=PROFILE["lr"], weight_decay=PROFILE["weight_decay"],
                       epochs=epochs, batch_size=PROFILE["batch_size"],
                       loss_per_layer=PROFILE["loss_per_layer"])


def setup(workload: str, seed: int, root: str,
          corpus: SyntheticConfig = SyntheticConfig()) -> Setup:
    """Generate the corpus into ``root``, load it and build the model; for
    ``infer`` also train and save the checkpoint it evaluates and restore
    it.  The benchmark always uses the reference corpus; tests pass a
    smaller one."""
    data.gen_synthetic(corpus, root)
    ds = Dataset.load(root)
    if workload != "infer":
        return Setup(dataset=ds, model=model.build_model(model_config(ds), seed))
    path = f"{root}/model.bin"
    train_checkpoint(ds, path)
    restored, heads = data.restore_model(path)
    return Setup(dataset=ds, model=restored, heads=heads)


def train_checkpoint(ds: Dataset, path: str) -> None:
    """Train ``infer``'s checkpoint with the profile seed in a forked child
    and save it to ``path``.

    The training's memory peak and trace spans stay in the child, so the
    benchmark process's peak RSS and trace cover the evaluation it times."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            net = model.build_model(model_config(ds), PROFILE["seed"])
            supervised.train_supervised(net, ds.train(), supervised_aug(), LossConfig(),
                                        train_cfg(CKPT_EPOCHS), PROFILE["seed"])
            data.save_model(path, net)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"checkpoint training failed: wait status {status}")


# ---------------------------------------------------------------------------
# Output checks; each returns a list of failure messages
# ---------------------------------------------------------------------------

def check_falls(name: str, losses) -> list:
    values = np.asarray(losses, dtype=np.float64)
    if values.size < 2 or not np.all(np.isfinite(values)):
        return [f"{name}: loss trace not finite or too short: {list(values)}"]
    if not values[-1] < values[0]:
        return [f"{name}: loss did not fall: first {values[0]!r}, last {values[-1]!r}"]
    return []


def check_floor(name: str, value: float, floor: float) -> list:
    if not (math.isfinite(value) and value > floor):
        return [f"{name} {value!r} not above floor {floor:.4g}"]
    return []


def check_probs(name: str, probs: np.ndarray) -> list:
    probs = np.asarray(probs)
    if not np.all(np.isfinite(probs)):
        return [f"{name}: non-finite probability"]
    worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if worst > 1e-9:
        return [f"{name}: probability row sums off by {worst:.3g}"]
    return []


def frame_mof(preds, clips) -> float:
    correct = sum(int((p == c.labels).sum()) for p, c in zip(preds, clips))
    return 100.0 * correct / frames(clips)


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

def run_sup(s: Setup, seed: int, first: bool = True) -> Rep:
    """Supervised training with window pooling, then the test-split MoF.

    The MoF is computed here from ``predict_probs``, so this workload never
    enters the contrastive or metrics modules."""
    net = copy.deepcopy(s.model)
    train, test = s.dataset.train(), s.dataset.test()
    aug = supervised_aug()
    t0 = time.perf_counter()
    trace = supervised.train_supervised(net, train, aug, LossConfig(),
                                        train_cfg(SUP_EPOCHS), seed)
    t1 = time.perf_counter()
    preds = [inference.predict_probs(net, c.features, aug).argmax(axis=1) for c in test]
    t2 = time.perf_counter()
    losses = [row.total for row in trace]
    test_mof = frame_mof(preds, test)
    train_fps = SUP_EPOCHS * frames(train) / (t1 - t0)
    return Rep(wall_s=t2 - t0, fps=train_fps,
               report={"train_fps": train_fps, "test_mof": test_mof},
               outputs=(tuple(losses), test_mof),
               failures=check_falls("supervised", losses)
               + check_floor("supervised test MoF", test_mof, chance_mof(s.dataset)))


def run_pretrain(s: Setup, seed: int, first: bool = True) -> Rep:
    """Label-free contrastive pretraining, then a linear probe."""
    net = copy.deepcopy(s.model)
    ds = s.dataset
    train, test = ds.train(), ds.test()
    t0 = time.perf_counter()
    losses = contrastive.pretrain_unsupervised(
        net, train, contrast_cfg(),
        AugmentConfig(w0=PROFILE["w0"], pi0=PROFILE["contrast_pi0"]),
        ContrastTrainConfig(lr=PROFILE["contrast_lr"], epochs=PRETRAIN_EPOCHS,
                            batch_size=PROFILE["batch_size"]),
        seed)
    t1 = time.perf_counter()
    probe = contrastive.linear_eval(net, train, test, ds.num_classes,
                                    cfg=LinearEvalConfig(epochs=PROBE_EPOCHS))
    t2 = time.perf_counter()
    train_fps = PRETRAIN_EPOCHS * frames(train) / (t1 - t0)
    return Rep(wall_s=t2 - t0, fps=train_fps,
               report={"train_fps": train_fps, "probe_s": t2 - t1, "probe_mof": probe.mof},
               outputs=(tuple(losses), probe.mof, probe.edit),
               failures=check_falls("pretraining", losses)
               + check_floor("probe MoF", probe.mof, chance_mof(ds)))


def run_infer(s: Setup, seed: int, first: bool = True) -> Rep:
    """Plain evaluation clip by clip, then one TTA pass over all 60 clips.

    The probability check needs the probabilities themselves, which
    ``evaluate_clips`` does not return; it runs on the first repetition
    only, outside the timed passes (every repetition does the same work).
    """
    net, heads = s.model, s.heads
    clips = s.dataset.train() + s.dataset.test()
    aug = supervised_aug()
    clip_s, reports = [], []
    t0 = time.perf_counter()
    for clip in clips:
        c0 = time.perf_counter()
        reports.append(inference.evaluate_clips(net, [clip], aug, heads=heads))
        clip_s.append(time.perf_counter() - c0)
    t1 = time.perf_counter()
    tta = inference.evaluate_clips(net, clips, aug, tta=True,
                                   rng=substream(seed, "bench-tta"), heads=heads)
    t2 = time.perf_counter()
    n = frames(clips)
    plain_mof = sum(r.mof * r.frames for r in reports) / n
    failures = check_floor("eval MoF", plain_mof, chance_mof(s.dataset))
    if first:
        rng = substream(seed, "bench-tta-check")
        for clip in clips:
            for tta_on in (False, True):
                probs = inference.predict_probs(net, clip.features, aug, tta=tta_on,
                                                rng=rng, heads=heads)
                failures += check_probs(f"{clip.vid} {'tta' if tta_on else 'eval'}", probs)
    # The headline rate spans both timed passes: the plain pass alone is
    # under a fifth of the repetition, too short a sample on a shared host.
    return Rep(wall_s=t2 - t0, fps=2 * n / (t2 - t0),
               report={"eval_fps": n / sum(clip_s), "tta_fps": n / (t2 - t1),
                       "eval_mof": plain_mof, "tta_mof": tta.mof},
               outputs=(tuple(r.mof for r in reports), tta.mof, tta.edit),
               failures=failures, clip_ms=[1e3 * x for x in clip_s])


def icc_config() -> ICCConfig:
    return ICCConfig(iterations=ICC_ITERATIONS, labeled_fraction=ICC_LABELED_FRACTION,
                     pretrain_epochs=ICC_PRETRAIN_EPOCHS,
                     contrast_epochs=ICC_CONTRAST_EPOCHS,
                     classify_epochs=ICC_CLASSIFY_EPOCHS,
                     batch_size=PROFILE["batch_size"])


def icc_frames(ds: Dataset, labeled, unlabeled, cfg: ICCConfig) -> int:
    """Original frames one alternation pushes through a training step, a
    pseudo-labelling pass or the per-iteration test evaluation."""
    f_lab = frames(ds.get(v) for v in labeled)
    f_unl = frames(ds.get(v) for v in unlabeled)
    per_iter = cfg.classify_epochs * f_lab + frames(ds.test())
    first = cfg.pretrain_epochs * (f_lab + f_unl) + per_iter
    later = f_unl + cfg.contrast_epochs * (f_lab + f_unl) + per_iter
    return first + (cfg.iterations - 1) * later


def run_icc(s: Setup, seed: int, first: bool = True) -> Rep:
    """The 10 %-label contrast/classify alternation."""
    net = copy.deepcopy(s.model)
    ds = s.dataset
    split = data.make_split(ds, ICC_LABELED_FRACTION, seed)
    audited = AuditedDataset(ds)
    cfg = icc_config()
    t0 = time.perf_counter()
    results = icc.run_icc(net, audited, split, ds.test(), cfg, supervised_aug(),
                          contrast_cfg(), LossConfig(), seed)
    t1 = time.perf_counter()
    leaks = audited.reads_for(split.unlabeled)
    failures = [] if leaks == 0 else [f"{leaks} label reads of unlabeled clips"]
    if len(results) != cfg.iterations:
        failures.append(f"{len(results)} iterations reported, {cfg.iterations} run")
    outputs = []
    for r in results:
        values = (list(r.report.to_dict().values()) + list(r.classify_losses)
                  + list(r.contrast_losses))
        if not all(math.isfinite(v) for v in values):
            failures.append(f"iteration {r.iteration}: non-finite report or loss")
        outputs.append((r.report.mof, r.report.edit, tuple(r.classify_losses),
                        tuple(r.contrast_losses)))
    wall = t1 - t0
    return Rep(wall_s=wall,
               fps=icc_frames(ds, split.labeled, split.unlabeled, cfg) / wall,
               report={"iter_s": wall / cfg.iterations,
                       "final_mof": results[-1].report.mof,
                       "unlabeled_label_reads": leaks},
               outputs=tuple(outputs), failures=failures)


WORKLOADS = {"sup": run_sup, "pretrain": run_pretrain, "infer": run_infer, "icc": run_icc}

# Set-ups per repetition; ``infer`` trains a checkpoint in each, so it sets
# up before every second repetition only.
SETUPS_PER_REP = {"sup": 6, "pretrain": 6, "infer": 0.5, "icc": 6}
