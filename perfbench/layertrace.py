"""Outside-in layer trace: wrappers around the public functions of c2fseg.

``Tracer.install`` replaces each traced function under every name it is
looked up by, module attributes bound early by ``from ... import`` included,
and methods on their classes; ``uninstall`` puts the originals back.  A
wrapper only records a span ``(name, parent, start, end)`` in memory and,
for a few functions, a count taken from the call's result; it never
changes arguments or results, so a traced run computes the same bits as an
untraced one.

No layer has a queue or a second thread, so time waited is zero by
construction and is not recorded.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

import numpy as np

MODULES = ("autodiff", "model", "augment", "supervised", "contrastive", "optim",
           "inference", "metrics", "icc", "data")

# Public tape ops and the forward-time bucket each is reported under.
OP_KINDS = {
    "conv1d": "conv1d", "batchnorm1d": "batchnorm1d",
    "maxpool1d_ceil": "maxpool1d_ceil", "upsample1d": "upsample1d",
    "relu": "relu", "concat": "concat", "matmul": "matmul", "softmax": "softmax",
    **{name: "elementwise" for name in (
        "add", "sub", "mul", "div", "exp", "log", "sqrt", "absolute",
        "clamp_min", "clamp_max", "reduce_sum", "reduce_max")},
    **{name: "shape" for name in ("reshape", "transpose2d", "slice_axis", "take_rows")},
}
KINDS = tuple(dict.fromkeys(OP_KINDS.values()))
BLOCKS = tuple(f"enc{i}" for i in range(7)) + ("tpp",) + tuple(
    f"dec{u}" for u in range(1, 7)) + ("heads", "activity")


def _segments(pairs) -> int:
    return int(sum(1 + np.count_nonzero(np.diff(np.asarray(pred))) for pred, _ in pairs))


@dataclass(frozen=True)
class Spec:
    """One traced function: ``module.qualname``, the group whose outermost
    spans give an inclusive time, the workloads it must fire on, and an
    optional count taken from ``(args, result)``."""

    target: str
    group: str | None = None
    on: str = ""
    count: object = None


# Ops that only some workloads reach: take_rows, exp, sqrt and div belong to
# the contrastive features and loss, absolute and clamp_max to the
# transition penalty, and sub, log, clamp_min and reduce_sum to the training
# losses, which ``infer`` never runs.
OP_ON = {"take_rows": "pretrain icc", "exp": "pretrain icc", "sqrt": "pretrain icc",
         "div": "pretrain icc", "absolute": "sup", "clamp_max": "sup",
         **dict.fromkeys(("sub", "log", "clamp_min", "reduce_sum"), "sup pretrain icc")}


def _op_specs() -> list:
    return [Spec(f"autodiff.{name}", on=OP_ON.get(name, "sup pretrain infer icc"))
            for name in OP_KINDS]


TRAIN = "sup pretrain icc"
SPECS = _op_specs() + [
    Spec("autodiff.Tape.backward", on=TRAIN),
    Spec("model.Model.forward", on="sup pretrain infer icc"),
    Spec("model.DoubleConv.__call__", on="sup pretrain infer icc"),
    Spec("model.PyramidBottleneck.__call__", on="sup pretrain infer icc"),
    Spec("model.ProjectionHeads.probs", on="sup pretrain infer icc"),
    Spec("model.ActivityHead.__call__", on="sup pretrain infer icc"),
    Spec("model.build_model", on="sup pretrain infer icc"),
    Spec("model.multires_feature", on="pretrain icc",
         count=lambda a, r: r.shape[0]),
    Spec("augment.sample_window", on="sup pretrain infer icc"),
    Spec("augment.stable_window", on="sup pretrain infer icc"),
    Spec("augment.pool_features", group="pool", on="sup pretrain infer icc",
         count=lambda a, r: r.shape[0]),
    Spec("augment.pool_labels", group="pool", on="sup icc"),
    Spec("augment.tta_predict", on="infer"),
    Spec("supervised.c2f_ensemble", group="loss", on="sup infer icc"),
    Spec("supervised.cross_entropy", group="loss", on="sup icc"),
    Spec("supervised.transition_loss", group="loss", on="sup"),
    Spec("supervised.train_supervised", on="sup"),
    Spec("contrastive.kmeans", on="pretrain icc"),
    Spec("contrastive.sample_frames", on="pretrain icc", count=lambda a, r: r.frames.size),
    Spec("contrastive.build_sets", on="pretrain icc",
         count=lambda a, r: r.total_positive_pairs),
    Spec("contrastive.contrastive_loss", on="pretrain icc"),
    Spec("contrastive.run_contrast_training", on="pretrain icc"),
    Spec("contrastive.pretrain_unsupervised", on="pretrain"),
    Spec("contrastive.linear_eval", on="pretrain"),
    Spec("optim.Adam.step", on=TRAIN),
    Spec("optim.Adam.zero_grad", on=TRAIN),
    Spec("inference.predict_probs_window", group="predict", on="sup infer icc"),
    Spec("inference.predict_probs", group="predict", on="sup infer icc"),
    Spec("inference.predictions_for", on="infer icc"),
    Spec("inference.evaluate_clips", on="infer icc"),
    Spec("metrics.SegReport.from_pairs", group="score", on="pretrain infer icc",
         count=lambda a, r: _segments(a[1])),
    Spec("metrics.edit_score", group="score", on="pretrain infer icc"),
    Spec("metrics.f1_counts", group="score", on="pretrain infer icc"),
    Spec("icc.run_icc", on="icc"),
    Spec("icc.pseudo_label", on="icc"),
    Spec("icc.contrast_step", on="icc"),
    Spec("icc.classify_step", on="icc"),
    Spec("data.gen_synthetic", on="sup pretrain infer icc"),
    Spec("data.Dataset.load", on="sup pretrain infer icc"),
    Spec("data.make_split", on="icc"),
    Spec("data.restore_model", group="ckpt", on="infer"),
    Spec("data.load_checkpoint", group="ckpt", on="infer"),
]

# Training loops whose tape ops and backward passes define op_calls_per_step.
TRAIN_LOOPS = {"supervised.train_supervised", "contrastive.run_contrast_training",
               "icc.classify_step"}


def _resolve(target: str):
    """(owner, attribute, original) for ``module.name`` or ``module.Class.name``."""
    module, _, rest = target.partition(".")
    mod = importlib.import_module(f"c2fseg.{module}")
    if "." in rest:
        cls_name, attr = rest.split(".")
        owner = getattr(mod, cls_name)
        return owner, attr, owner.__dict__[attr]
    return mod, rest, getattr(mod, rest)


class Tracer:
    """Span recorder; one per process, installed around the traced phases."""

    def __init__(self):
        self.spans: list = []          # (name, parent index, start, end)
        self.values: dict = {}         # span index -> count from the result
        self.stack: list = []
        self.depth: dict = {}          # group -> open spans of that group
        self.outer: set = set()        # span indices outermost in their group
        self.blocks: dict = {}         # id(block object) -> block name
        self._patched: list = []       # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, spec: Spec):
        spans, stack, values, depth, outer = (self.spans, self.stack, self.values,
                                              self.depth, self.outer)
        clock = time.perf_counter
        name, group, count = spec.target, spec.group, spec.count
        block_names = self.blocks
        if name == "model.DoubleConv.__call__":
            def span_name(args):
                return block_names.get(id(args[0]), "unnamed")
        elif name == "model.Model.forward":
            register = self._register

            def span_name(args):
                register(args[0])
                return name
        else:
            span_name = None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            if group is not None:
                if not depth.get(group):
                    outer.add(idx)
                depth[group] = depth.get(group, 0) + 1
            label = name if span_name is None else span_name(args)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (label, stack[-1] if stack else -1, t0, t1)
                if group is not None:
                    depth[group] -= 1
                if count is not None and result is not None:
                    values[idx] = count(args, result)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _wrap_op(self, fn, name: str):
        """Lean wrapper for the per-op hot path: a span and nothing else."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def op(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, stack[-1] if stack else -1, t0, t1)

        functools.update_wrapper(op, fn)
        return op

    def _register(self, model) -> None:
        # on every forward: a copied model has new block objects, and ids of
        # freed blocks are reused
        for i, stage in enumerate(model.enc_stages):
            self.blocks[id(stage)] = f"enc{i}"
        for u, stage in enumerate(model.dec_stages, start=1):
            self.blocks[id(stage)] = f"dec{u}"

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._patched:
            return
        modules = [importlib.import_module(f"c2fseg.{m}") for m in MODULES]
        modules.append(importlib.import_module("c2fseg"))
        for spec in SPECS:
            owner, attr, original = _resolve(spec.target)
            if isinstance(owner, type):
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, spec))
                else:
                    wrapped = self._wrap(original, spec)
                setattr(owner, attr, wrapped)
                self._patched.append((owner, attr, original))
                continue
            if spec.target.startswith("autodiff.") and spec.target[9:] in OP_KINDS:
                wrapped = self._wrap_op(original, spec.target)
            else:
                wrapped = self._wrap(original, spec)
            # every binding of the function, early ``from ... import`` ones too
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- aggregation ---------------------------------------------------------

    def take(self) -> "Trace":
        """Hand over the spans recorded so far and start afresh."""
        done = Trace(list(self.spans), dict(self.values), set(self.outer))
        if self.stack:
            raise RuntimeError("take() called inside an open span")
        self.spans.clear()
        self.values.clear()
        self.outer.clear()
        return done


@dataclass
class Trace:
    spans: list
    values: dict
    outer: set

    def fired(self) -> set:
        names = {s[0] for s in self.spans}
        if any(n in BLOCKS or n == "unnamed" for n in names):
            names.add("model.DoubleConv.__call__")
        return names

    def edges(self) -> dict:
        """``parent > child`` -> [calls, inclusive s, self s]."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        table: dict = {}
        for i, (name, parent, t0, t1) in enumerate(spans):
            key = f"{spans[parent][0] if parent >= 0 else '-'} > {name}"
            row = table.setdefault(key, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[i]
        return table

    def metrics(self) -> dict:
        """The per-layer metrics of this trace, by their benchmark names."""
        spans, values, outer = self.spans, self.values, self.outer
        n = len(spans)
        child = [0.0] * n
        in_train = [False] * n
        names = [s[0] for s in spans]
        for i, (name, parent, t0, t1) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                in_train[i] = in_train[parent] or names[parent] in TRAIN_LOOPS
        calls: dict = {}
        incl: dict = {}
        outer_incl: dict = {}
        counted: dict = {}
        counted_train: dict = {}
        fwd = dict.fromkeys(KINDS, 0.0)
        train_ops = train_backward = 0
        icc_eval = 0.0
        for i, (name, parent, t0, t1) in enumerate(spans):
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur
            if i in outer:
                outer_incl[name] = outer_incl.get(name, 0.0) + dur
            if i in values:
                counted[name] = counted.get(name, 0) + values[i]
                if in_train[i]:
                    counted_train[name] = counted_train.get(name, 0) + values[i]
            if name.startswith("autodiff.") and name[9:] in OP_KINDS:
                fwd[OP_KINDS[name[9:]]] += dur - child[i]
                train_ops += in_train[i]
            elif name == "autodiff.Tape.backward":
                train_backward += in_train[i]
            elif (name == "inference.evaluate_clips" and parent >= 0
                  and names[parent] == "icc.run_icc"):
                icc_eval += dur

        def outer_sum(*targets):
            return sum(outer_incl.get(t, 0.0) for t in targets)

        multires_rows = counted_train.get("model.multires_feature", 0)
        out = {
            "autodiff.op_calls_per_step": train_ops / train_backward if train_backward else 0.0,
            "autodiff.backward_s": incl.get("autodiff.Tape.backward", 0.0),
            "autodiff.backward_calls": calls.get("autodiff.Tape.backward", 0),
        }
        out.update({f"autodiff.fwd_s.{k}": v for k, v in fwd.items()})
        out["model.forward_s"] = incl.get("model.Model.forward", 0.0)
        out["model.forward_calls"] = calls.get("model.Model.forward", 0)
        block_of = {"tpp": "model.PyramidBottleneck.__call__",
                    "heads": "model.ProjectionHeads.probs",
                    "activity": "model.ActivityHead.__call__"}
        for block in BLOCKS:
            out[f"model.block_s.{block}"] = incl.get(block_of.get(block, block), 0.0)
        out.update({
            "augment.pool_s": outer_sum("augment.pool_features", "augment.pool_labels"),
            "augment.windows_drawn": calls.get("augment.sample_window", 0),
            "augment.pooled_frames": counted.get("augment.pool_features", 0),
            "supervised.loss_s": outer_sum(*(s.target for s in SPECS if s.group == "loss")),
            "contrastive.kmeans_s": incl.get("contrastive.kmeans", 0.0),
            "contrastive.kmeans_calls": calls.get("contrastive.kmeans", 0),
            "contrastive.multires_s": incl.get("model.multires_feature", 0.0),
            "contrastive.loss_s": incl.get("contrastive.contrastive_loss", 0.0),
            "contrastive.build_sets_s": incl.get("contrastive.build_sets", 0.0),
            "contrastive.positive_pairs": counted.get("contrastive.build_sets", 0),
            "contrastive.rows_kept_ratio": (
                counted_train.get("contrastive.sample_frames", 0) / multires_rows
                if multires_rows else 0.0),
            "optim.step_s": incl.get("optim.Adam.step", 0.0),
            "optim.steps": calls.get("optim.Adam.step", 0),
            "inference.predict_s": outer_sum("inference.predict_probs",
                                             "inference.predict_probs_window"),
            "inference.windows": calls.get("inference.predict_probs_window", 0),
            "metrics.score_s": outer_sum(*(s.target for s in SPECS if s.group == "score")),
            "metrics.pred_segments": counted.get("metrics.SegReport.from_pairs", 0),
            "icc.pseudo_label_s": incl.get("icc.pseudo_label", 0.0),
            "icc.contrast_step_s": incl.get("icc.contrast_step", 0.0),
            "icc.classify_step_s": incl.get("icc.classify_step", 0.0),
            "icc.eval_s": icc_eval,
            "data.gen_s": incl.get("data.gen_synthetic", 0.0),
            "data.load_s": incl.get("data.Dataset.load", 0.0),
            "data.ckpt_s": outer_sum(*(s.target for s in SPECS if s.group == "ckpt")),
            "trace.spans": n,
        })
        return out
