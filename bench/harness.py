"""Measure one workload: set-up, a warm-up step, a timed closed loop of
steps, output checks, and (with tracing on) span-traced steps.

Each step starts when the previous one returns; one caller, one process.
End-to-end metrics come from the untraced loop; per-layer metrics from
separate traced steps after it (see `spans.py`).
"""

from __future__ import annotations

import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from gldn.model import build_model, load_checkpoint, save_checkpoint
from gldn.tensor import Tensor, backward, no_grad

from objective import kl_loss, sgd_update, soft_labels
from spans import (
    MB,
    SPAN_FIELDS,
    conv_gflop,
    matmul_gflop,
    span_names,
    traced_step,
)
from workloads import Workload, phantom_batch

# one set-up takes 5-20 ms while the speed of a shared machine drops by up to
# 1.4x for seconds at a time, so set-up repeats for half this long before the
# timed loop and half after it, and `setup_s` is the fastest of them
SETUP_SECONDS = 4.0
# a first step happens once per process, so the run also times first steps
# of fresh processes, for this long and at least FRESH_FIRST_MIN times (a
# paper-scale one takes 6 s), and reports the median
FRESH_FIRST_SECONDS = 6.0
FRESH_FIRST_MIN = 3
MAX_TRACED_STEPS = 3  # traced steps stop early once they have taken a fifth of --seconds
PROB_SUM_TOL = 1e-5
# float32 eval against a float64 build of the same seed and input: largest
# allowed absolute difference of any bin probability
F64_PROB_ATOL = 1e-5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_PY = Path(__file__).resolve().parent / "run.py"
FIRST_STEP_TIMEOUT_S = 300


def git_commit(root: Path) -> str:
    """HEAD's commit in `root`, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment(root: Path) -> dict:
    return {
        "git_commit": git_commit(root),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def check_probs(probs: np.ndarray) -> list[str]:
    if not np.all(np.isfinite(probs)):
        return ["non-finite output"]
    err = float(np.max(np.abs(probs.sum(axis=-1) - 1.0)))
    return [f"softmax rows sum to 1 +- {err:.2e} > {PROB_SUM_TOL}"] if err > PROB_SUM_TOL else []


class StepLog:
    """Times, outputs and failures of every step of a run, in order."""

    def __init__(self):
        self.times: list[float] = []
        self.outputs: list[np.ndarray | None] = []
        self.losses: list[float | None] = []
        self.failures: dict[int, list[str]] = {}

    def fail(self, index: int, message: str):
        self.failures.setdefault(index, []).append(message)

    def add(self, dt: float, probs, loss, problems: list[str]):
        for message in problems:
            self.fail(len(self.times), message)
        self.times.append(dt)
        self.outputs.append(probs)
        self.losses.append(loss)

    def run(self, step, check) -> float:
        """Time one call of `step() -> (probs, loss)`, then check its outputs untimed."""
        t0 = time.perf_counter()
        try:
            probs, loss = step()
        except Exception as e:  # a step that raises counts as failed; the loop goes on
            traceback.print_exc(file=sys.stderr)
            probs, loss, problems = None, None, [f"{type(e).__name__}: {e}"]
        else:
            problems = []
        dt = time.perf_counter() - t0
        self.add(dt, probs, loss, problems + (check(probs, loss) if probs is not None else []))
        return dt


class Bench:
    """One workload's model, inputs and step functions."""

    def __init__(self, wl: Workload, seed: int, work_dir: Path):
        self.wl = wl
        self.seed = seed
        # inputs first: their generation is not part of set-up
        self.x, ages = phantom_batch(wl.cfg.input_shape, wl.batch, seed)
        self.target = soft_labels(ages)
        self.ckpt = work_dir / f"{wl.name}-seed{seed}.ckpt"
        self.io: dict[str, float] = {}
        self.builds: list[float] = []
        self.loads: list[float] = []
        self.model = None

    # -- set-up --

    def setup(self, seconds: float) -> list[float]:
        """Eval: write the checkpoint. Then `time_setups(seconds)`.

        Eval weights come from a checkpoint written beforehand by a model
        initialised with the seed; the loading model is initialised with
        seed + 1, so the load is what makes the weights right.
        """
        if not self.wl.train:
            t0 = time.perf_counter()
            save_checkpoint(self.ckpt, build_model(self.wl.cfg, seed=self.seed))
            self.io["save"] = time.perf_counter() - t0
        return self.time_setups(seconds)

    def time_setups(self, seconds: float) -> list[float]:
        """Build the model (eval: and load the checkpoint) for `seconds`, at
        least 3 times; returns each set-up's seconds. The first model built
        becomes `self.model`; the others are dropped."""
        wl = self.wl
        totals = []
        t_end = time.perf_counter() + seconds
        while len(totals) < 3 or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            model = build_model(wl.cfg, seed=self.seed if wl.train else self.seed + 1)
            t1 = time.perf_counter()
            if not wl.train:
                load_checkpoint(self.ckpt, model)
            t2 = time.perf_counter()
            totals.append(t2 - t0)
            self.builds.append(t1 - t0)
            self.loads.append(t2 - t1)
            if self.model is None:
                self.model = model
        self.io["build"] = statistics.median(self.builds)
        if not wl.train:
            self.io["load"] = statistics.median(self.loads)
        return totals

    # -- steps --

    def step(self):
        """One untraced step: eval forward, or the full train step."""
        x = Tensor(self.x)
        if not self.wl.train:
            with no_grad():
                return self.model(x, training=False).data, None
        probs = self.model(x, training=True)
        loss = kl_loss(probs, self.target)
        backward(loss)
        sgd_update(self.model.parameters())
        return probs.data, loss.item()

    def check(self, probs: np.ndarray, loss: float | None) -> list[str]:
        problems = check_probs(probs)
        if self.wl.train:
            if loss is None or not np.isfinite(loss):
                problems.append(f"loss {loss} is not finite")
            if not all(np.all(np.isfinite(t.data)) for t in self.model.parameters().values()):
                problems.append("non-finite parameter after the update")
        return problems

    # -- checks after the timed loop, outside every metric --

    def check_run(self, log: StepLog) -> list[str]:
        """Cross-step checks. Returns run-level problems; step-level ones go to `log`."""
        if self.wl.train:
            losses = [v for v in log.losses if v is not None]
            if len(losses) < 2 or not losses[-1] < losses[0]:
                log.fail(len(log.times) - 1, f"loss did not fall: first {losses[:1]}, last {losses[-1:]}")
            return self.checkpoint_round_trip()
        reference = self.float64_reference()
        for index, probs in enumerate(log.outputs):
            if probs is None:
                continue
            err = float(np.max(np.abs(probs.astype(np.float64) - reference)))
            if err > F64_PROB_ATOL:
                log.fail(index, f"differs from the float64 build by {err:.2e} > {F64_PROB_ATOL}")
        return []

    def float64_reference(self) -> np.ndarray:
        """The seed's model built in float64 without the checkpoint, so a bad load shows."""
        ref = build_model(self.wl.cfg, seed=self.seed, dtype=np.float64)
        with no_grad():
            return ref(Tensor(self.x.astype(np.float64)), training=False).data

    def checkpoint_round_trip(self) -> list[str]:
        """Save the trained model, load it into a freshly initialised one, and
        require bit-identical state."""
        t0 = time.perf_counter()
        save_checkpoint(self.ckpt, self.model)
        t1 = time.perf_counter()
        fresh = build_model(self.wl.cfg, seed=self.seed + 1)
        t2 = time.perf_counter()
        load_checkpoint(self.ckpt, fresh)
        self.io["save"], self.io["load"] = t1 - t0, time.perf_counter() - t2
        trained, loaded = self.model.state_arrays(), fresh.state_arrays()
        changed = [k for k in trained if not np.array_equal(trained[k], loaded[k])]
        return [f"checkpoint round trip changed {changed[:4]}"] if changed else []


def first_step(wl: Workload, seed: int, work_dir: Path):
    """Set up and time one first step in this process: (seconds, probs, loss, problems)."""
    bench = Bench(wl, seed, work_dir)
    bench.setup(0.0)
    bench.ckpt.unlink(missing_ok=True)
    log = StepLog()
    log.run(bench.step, bench.check)
    return log.times[0], log.outputs[0], log.losses[0], log.failures.get(0, [])


def fresh_first_steps(wl: Workload, seed: int, work_dir: Path, seconds: float) -> list:
    """`first_step` in new processes (`run.py --first-step`, arguments and
    result pickled over its standard streams), one after another and each
    waited for, for `seconds` and at least `FRESH_FIRST_MIN` times."""
    cmd = [sys.executable, str(RUN_PY), "--first-step"]
    samples = []
    t_end = time.perf_counter() + seconds
    while len(samples) < FRESH_FIRST_MIN or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, input=pickle.dumps((wl, seed, work_dir)), stdout=subprocess.PIPE,
                                  timeout=FIRST_STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed the child and waited for it
            samples.append((time.perf_counter() - t0, None, None, ["fresh first step timed out"]))
            continue
        if proc.returncode != 0:
            samples.append((time.perf_counter() - t0, None, None, [f"fresh first step exited {proc.returncode}"]))
            continue
        samples.append(pickle.loads(proc.stdout))
    return samples


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    """Run one workload; returns the result record (see `run.py` for its layout)."""
    work_dir.mkdir(parents=True, exist_ok=True)
    log = StepLog()
    # fresh-process first steps go before anything else, while this process is
    # still small: a paper-scale train step alone needs 3.6 GB
    for sample in [] if trace else fresh_first_steps(wl, seed, work_dir, FRESH_FIRST_SECONDS):
        log.add(*sample)
    bench = Bench(wl, seed, work_dir)
    setup_times = bench.setup(SETUP_SECONDS / 2)

    log.run(bench.step, bench.check)
    first_steps = list(log.times)
    t_loop = time.perf_counter()
    while len(log.times) == len(first_steps) or time.perf_counter() - t_loop < seconds:
        log.run(bench.step, bench.check)
    loop_s = time.perf_counter() - t_loop
    rss_mb = peak_rss_mb()
    timed = log.times[len(first_steps):]
    setup_times += bench.time_setups(SETUP_SECONDS / 2)

    traces = []

    def traced():
        traces.append(traced_step(bench.model, bench.x, bench.target, wl.train))
        return traces[-1].output, traces[-1].loss

    if trace:
        t_trace = time.perf_counter()
        for _ in range(MAX_TRACED_STEPS):
            log.run(traced, bench.check)
            if time.perf_counter() - t_trace >= seconds / 5:
                break

    run_problems = bench.check_run(log)
    checkpoint_mb = bench.ckpt.stat().st_size / MB
    bench.ckpt.unlink()

    attempted = len(log.times)
    failed = len(log.failures)
    if trace:
        metrics = per_layer_metrics(bench, traces, statistics.median(timed), checkpoint_mb) if traces else {}
    else:
        metrics = {
            "setup_s": (min(setup_times), "s"),
            "first_step_s": (statistics.median(first_steps), "s"),
            "step_s.p50": (statistics.median(timed), "s"),
            "volumes_per_s": (wl.batch * len(timed) / loop_s, "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    return {
        "correct": failed == 0 and not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": [f"step {i}: {m}" for i, ms in sorted(log.failures.items()) for m in ms] + run_problems,
        "steps": {"first": len(first_steps), "timed": len(timed), "traced": len(traces), "setup_repeats": len(setup_times)},
        "step_times_s": log.times,
        "setup_times_s": setup_times,
        "losses": log.losses,
    }


def per_layer_metrics(bench: Bench, traces, untraced_step_s: float, checkpoint_mb: float) -> dict:
    """Medians over the traced steps; a span the workload does not run reports 0."""

    def med(get):
        return statistics.median(get(t) for t in traces)

    out = {}
    for name in span_names():
        for key in SPAN_FIELDS:
            unit = "s" if key.endswith("_s") else "MB"
            out[f"{name}.{key}"] = (med(lambda t: t.spans.get(name, {}).get(key, 0.0)), unit)
    flops = {**conv_gflop(bench.model, bench.wl.batch), **matmul_gflop(bench.model, bench.wl.batch)}
    for name in span_names():
        if ".llb." in name:
            out[f"{name}.conv_gflop"] = (flops.get(name, 0.0), "GFLOP")
        elif ".glb." in name:
            out[f"{name}.matmul_gflop"] = (flops.get(name, 0.0), "GFLOP")
    out["tensor.backward_s"] = (med(lambda t: t.backward_s), "s")
    out["tensor.retained_mb"] = (med(lambda t: t.retained_mb), "MB")
    out["bench.update_s"] = (med(lambda t: t.update_s), "s")
    out["trace.peak_alloc_mb"] = (med(lambda t: t.peak_alloc_mb), "MB")
    out["trace.overhead_ratio"] = (med(lambda t: t.step_s) / untraced_step_s, "ratio")
    out["model.build_model_s"] = (bench.io["build"], "s")
    out["model.load_checkpoint_s"] = (bench.io["load"], "s")
    out["model.save_checkpoint_s"] = (bench.io["save"], "s")
    out["model.checkpoint_mb"] = (checkpoint_mb, "MB")
    return out
