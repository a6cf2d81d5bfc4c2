"""Benchmark entry point for the c2fseg package: one run of one workload.

    python3 perfbench/run.py --workload {sup,pretrain,infer,icc} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout, one process per run.  The process pins
BLAS to one thread before NumPy is imported and puts the checkout's own
``src/`` first on the import path.  It prints a run header, a report with
every workload metric under its own name, and, as the last line, the
result object with the metrics that ``BENCHMARK.json`` lists: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread; the variables only take effect before NumPy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "c2fseg" / "__init__.py").is_file():
    sys.exit(f"perfbench: no c2fseg package under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from layertrace import BLOCKS, KINDS, Tracer  # noqa: E402
from workloads import SETUPS_PER_REP, WORKLOADS, setup  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB", "fps": "frames/s",
                    "wall_s": "s"}

# Units of the report, which names each workload's metrics in its own terms.
REPORT_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MiB", "wall_s": "s", "error_rate": "failed/attempted",
    "repetitions": "count", "train_fps": "frames/s", "test_mof": "%",
    "probe_s": "s", "probe_mof": "%", "eval_fps": "frames/s", "tta_fps": "frames/s",
    "eval_mof": "%", "tta_mof": "%", "clip_ms_p50": "ms", "clip_ms_p90": "ms",
    "clip_samples": "count", "iter_s": "s", "final_mof": "%",
    "unlabeled_label_reads": "count", "trace_overhead_s": "s",
}


# Per-layer metrics of a traced run, in report order.
PER_LAYER_UNITS = {
    "autodiff.op_calls_per_step": "count", "autodiff.backward_s": "s",
    "autodiff.backward_calls": "count",
    **{f"autodiff.fwd_s.{k}": "s" for k in KINDS},
    "model.forward_s": "s", "model.forward_calls": "count",
    **{f"model.block_s.{b}": "s" for b in BLOCKS},
    "augment.pool_s": "s", "augment.windows_drawn": "count",
    "augment.pooled_frames": "count", "supervised.loss_s": "s",
    "contrastive.kmeans_s": "s", "contrastive.kmeans_calls": "count",
    "contrastive.multires_s": "s", "contrastive.loss_s": "s",
    "contrastive.build_sets_s": "s", "contrastive.positive_pairs": "count",
    "contrastive.rows_kept_ratio": "ratio", "optim.step_s": "s",
    "optim.steps": "count", "inference.predict_s": "s",
    "inference.windows": "count", "metrics.score_s": "s",
    "metrics.pred_segments": "count", "icc.pseudo_label_s": "s",
    "icc.contrast_step_s": "s", "icc.classify_step_s": "s", "icc.eval_s": "s",
    "icc.unlabeled_label_reads": "count", "data.gen_s": "s", "data.load_s": "s",
    "data.ckpt_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev() -> str:
    # The ceiling stops git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_header(args) -> dict:
    return {"argv": sys.argv, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "numpy": np.__version__, "python": platform.python_version(),
            "cpu": cpu_model(), "nproc": os.cpu_count(), "git_rev": git_rev()}


def measure(args, workdir: str) -> dict:
    """Alternate set-ups and repetitions until ``--seconds`` are used up.

    Before each repetition, set-ups run until there are ``SETUPS_PER_REP``
    per repetition so far, and the repetition runs on the last of them.
    The set-up timings are thus spread over the whole run, like the
    repetitions', and a slow phase of a shared host weighs on both alike.
    Every set-up of a seed builds the same inputs and model.
    """
    tracer = Tracer() if args.trace else None
    rep_fn = WORKLOADS[args.workload]
    setup_s, setup_layers = [], []
    attempted = failed = 0
    errors, reps = [], []                  # reps: (traced, Rep, trace metrics)
    reference = None
    start = time.perf_counter()
    spent = []                  # elapsed per repetition, set-ups and checks included
    while True:
        t_rep = time.perf_counter()
        while len(setup_s) < SETUPS_PER_REP[args.workload] * (attempted + 1):
            root = tempfile.mkdtemp(dir=workdir)
            gc.collect()    # the last phase's garbage is not this set-up's
            if tracer:
                tracer.install()
            t0 = time.perf_counter()
            try:
                s = setup(args.workload, args.seed, root)
            finally:
                setup_s.append(time.perf_counter() - t0)
                if tracer:
                    tracer.uninstall()
                    setup_layers.append(tracer.take().metrics())
                shutil.rmtree(root, ignore_errors=True)
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        gc.collect()
        if traced:
            tracer.install()
        rep = layers = None
        try:
            rep = rep_fn(s, args.seed, first=attempted == 1)
        except Exception as exc:  # a failed op is recorded, the run goes on
            errors.append(f"repetition {attempted}: {type(exc).__name__}: {exc}")
        finally:
            if traced:
                tracer.uninstall()
                trace = tracer.take()
                layers = trace.metrics()
                if attempted == 2:
                    write_edges(args, trace.edges())
        if rep is not None:
            if reference is None:
                reference = rep.outputs
            elif rep.outputs != reference:
                rep.failures.append("outputs differ from the first repetition"
                                    + (" (traced vs untraced)" if tracer else ""))
            if rep.failures:
                errors.extend(f"repetition {attempted}: {f}" for f in rep.failures)
            else:
                reps.append((traced, rep, layers))
        if rep is None or rep.failures:
            failed += 1
        spent.append(time.perf_counter() - t_rep)
        need_both = tracer is not None and attempted < 2
        # stop when one more repetition would end farther past the budget
        # than stopping now ends before it
        if (not need_both and time.perf_counter() - start + statistics.median(spent) / 2
                > args.seconds):
            break
        if attempted >= 1000:
            break
    return {"setup_s": setup_s, "setup_layers": setup_layers, "reps": reps,
            "attempted": attempted, "failed": failed, "errors": errors}


def write_edges(args, edges: dict) -> None:
    out = ROOT / "perfbench" / "_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    rows = {k: {"calls": c, "incl_s": i, "self_s": s}
            for k, (c, i, s) in sorted(edges.items(), key=lambda kv: -kv[1][1])}
    path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


def end_to_end(m: dict) -> tuple[dict, dict]:
    """(result-line metrics, report under the workload's own metric names)."""
    reps = [rep for traced, rep, _ in m["reps"] if not traced]
    # this process only: the checkpoint training of ``infer``'s set-ups runs
    # in a child, so its peak does not hide the repetitions'
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": statistics.median(m["setup_s"]), "peak_rss_mb": peak,
              "fps": statistics.median(r.fps for r in reps),
              "wall_s": statistics.median(r.wall_s for r in reps)}
    report = {"setup_s": values["setup_s"], "peak_rss_mb": peak, "wall_s": values["wall_s"],
              "error_rate": m["failed"] / m["attempted"], "repetitions": len(reps)}
    for key in reps[0].report:
        report[key] = statistics.median(r.report[key] for r in reps)
    clip_ms = [x for r in reps for x in r.clip_ms]
    if clip_ms:
        report.update({"clip_ms_p50": float(np.percentile(clip_ms, 50)),
                       "clip_ms_p90": float(np.percentile(clip_ms, 90)),
                       "clip_samples": len(clip_ms)})
    return values, report


def per_layer(m: dict) -> dict:
    traced = [(rep, layers) for t, rep, layers in m["reps"] if t]
    plain = [rep for t, rep, _ in m["reps"] if not t]
    values = {}
    for key in traced[0][1]:
        values[key] = statistics.median(layers[key] for _, layers in traced)
    for key in ("data.gen_s", "data.load_s", "data.ckpt_s"):
        values[key] = statistics.median(layers[key] for layers in m["setup_layers"])
    values["icc.unlabeled_label_reads"] = traced[0][0].report.get("unlabeled_label_reads", 0)
    values["trace.overhead_s"] = (statistics.median(r.wall_s for r, _ in traced)
                                  - statistics.median(r.wall_s for r in plain))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps({"header": run_header(args)}), flush=True)

    work = ROOT / "perfbench" / "_work"
    work.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work)
    try:
        m = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass
    for line in m["errors"]:
        print(f"error: {line}", file=sys.stderr)
    result = {"correct": m["failed"] == 0, "attempted": m["attempted"],
              "failed": m["failed"], "metrics": {}}
    plain = [r for t, r, _ in m["reps"] if not t]
    traced = [r for t, r, _ in m["reps"] if t]
    if not plain or (args.trace and not traced):
        print(json.dumps({"report": {}, "errors": m["errors"]}), flush=True)
        print(json.dumps(result), flush=True)
        return 1
    values, report = end_to_end(m)
    if args.trace:
        layer_values = per_layer(m)
        report["trace_overhead_s"] = layer_values["trace.overhead_s"]
        result["metrics"] = {k: {"value": layer_values[k], "unit": u}
                             for k, u in PER_LAYER_UNITS.items()}
    else:
        result["metrics"] = {k: {"value": values[k], "unit": u}
                             for k, u in END_TO_END_UNITS.items()}
    for key, value in report.items():
        print(f"{args.workload} {key} = {value:.6g} {REPORT_UNITS[key]}")
    report = {k: {"value": v, "unit": REPORT_UNITS[k]} for k, v in report.items()}
    print(json.dumps({"report": report, "errors": m["errors"]}), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
