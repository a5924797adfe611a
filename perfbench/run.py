"""wsdsel benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; wsdsel is imported from its `src/`.
Workloads are described in `workloads.py`. The seed makes every input.

A run repeats cycles of set-ups (one, or more until SETUP_MIN_S has passed)
and one timed pass until S seconds have passed (at least MIN_PASSES cycles).
With `--trace 0` it reports medians over the set-ups and passes:

- `setup_s`: time to prepare the inputs of the timed pass, in seconds at
  the reference host speed (see below);
- `wall_norm`: wall time of one pass in lengths of a probe snippet;
- `peak_rss_mb`: peak resident memory of the process.

Both times come from a SpeedProbe that times two fixed snippets every 50 ms
while the run goes on. On a shared 2-vCPU virtual machine the same pass was
measured up to twice as slow for tens of seconds at a time, so raw seconds
from one run to the next measure the host more than the program. A span is
converted to snippet lengths with the probe samples taken in it, and
`setup_s` turns snippet lengths back into seconds with PROBE_REFERENCE_S,
a fixed snippet time. Raw seconds go on the detail line.

With `--trace 1` the cycles run for half of S, then one set-up and one pass
run under the outside-in tracer (`tracer.py`), and the run reports the
per-layer metrics of that traced set-up and pass.

Either way it checks the outputs: set-up inputs and pass outputs
(checkpoints, reports, PR curves) must be byte-identical across repeats and
between traced and untraced passes, no operation may fail, every metric
must be finite, on `walkthrough` selection must beat the baseline in mAP,
and for a seed recorded in `baseline.json` the result figures (mAP, CorLoc,
mAP gain, final training loss) must match the recorded ones up to float
rounding. The last line of standard output is the result object. The line
before it holds the checks, raw times, figures that exist on some workloads
only (train and eval images per second, the result figures, error rate)
and the pinned environment. The exit code is 0 only when every check passes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads: with two cores, a BLAS
# pool would join the paper-shape matmuls and add scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
MIN_PASSES = 3
# Each cycle sets up again until it has spent this long in set-up, so that a
# set-up much shorter than a pass still gets enough samples for its median.
SETUP_MIN_S = 1.0
# Result figures may differ from the recorded ones by float rounding only.
QUALITY_RTOL = 1e-6
QUALITY_ATOL = 1e-9
EXIT_BAD_CHECKOUT = 2
EXIT_CHECK_FAILED = 1


def import_wsdsel():
    """Import wsdsel from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import wsdsel
    except ImportError as err:
        print(f"perfbench: cannot import wsdsel from {src}: {err}", file=sys.stderr)
        sys.exit(EXIT_BAD_CHECKOUT)
    if Path(wsdsel.__file__).resolve().parent.parent != src:
        print(f"perfbench: wsdsel was imported from {wsdsel.__file__}, not from {src}", file=sys.stderr)
        sys.exit(EXIT_BAD_CHECKOUT)


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    threads = None
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name"))
        threads = next(int(line.split()[1]) for line in open("/proc/self/status") if line.startswith("Threads:"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "process_threads": threads,
    }


class SpeedProbe:
    """Samples how long this host takes for two fixed snippets, every PERIOD_S, while the run goes on.

    The snippets run from a SIGALRM handler, so they interleave with the
    workload and see the same host slowdowns. Slowdowns hit interpreted
    Python and numpy kernels by different amounts, so there are two:
    "interpreter" (a scalar loop and calls on tiny arrays) and "kernels"
    (a stable argsort, a matmul and an exp over paper-shape rows). Each span
    is measured with the one that resembles its work: set-ups and the
    walkthrough and dense_eval passes are Python loops, the paper_train
    pass is numpy kernels. One snippet for all three does not hold them
    steady: in three sets of ten seeds on a 2-vCPU Intel Xeon virtual
    machine, the spread (quartile distance over median) of wall_norm on
    paper_train was 0.017-0.075 by the kernel snippet and 0.139-0.148 by
    the interpreter one; on walkthrough and dense_eval it was 0.016-0.057
    by the interpreter snippet and 0.050-0.119 by the kernel one. The
    detail line gives every pass in lengths of both snippets.
    """

    PERIOD_S = 0.05
    # A span shorter than this is judged by the samples in a window of this length around it.
    WINDOW_S = 1.0
    KINDS = ("interpreter", "kernels")

    def __init__(self, clock):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.clock = clock
        self.tiny = rng.normal(size=64)
        self.row = rng.normal(size=2048)
        self.x = rng.normal(size=(128, 256))
        self.w = rng.normal(size=(256, 20))
        # (time, interpreter snippet seconds, kernel snippet seconds)
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def interpreter(self) -> float:
        start = self.clock()
        acc = 0.0
        for i in range(300):
            a = (i % 7) * 0.1
            acc += max(0.0, min(a + 0.5, 0.7) - a)
        for _ in range(20):
            acc += float(self.tiny.max())
        return self.clock() - start

    def kernels(self) -> float:
        np = self.np
        start = self.clock()
        for _ in range(2):
            np.argsort(-self.row, kind="stable")
            self.x @ self.w
            np.exp(self.row - self.row.max())
        return self.clock() - start

    def _sample(self, signum, frame):
        self.samples.append((self.clock(), self.interpreter(), self.kernels()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, start: float, end: float, kind: str) -> float:
        """Wall time of [start, end] in lengths of snippet `kind`: its length times the mean of 1 / snippet time.

        Averaging host speed over the samples, rather than dividing by the
        mean snippet time, stays right when the host changes speed partway
        through. Call it after the run, so that a short span's window can
        take samples from after the span too.
        """
        pad = max(0.0, (self.WINDOW_S - (end - start)) / 2)
        column = 1 + self.KINDS.index(kind)
        inside = [s[column] for s in self.samples if start - pad <= s[0] <= end + pad]
        inside = inside or [getattr(self, kind)()]
        return (end - start) * statistics.fmean(1.0 / d for d in inside)


# Harmonic mean of the interpreter snippet's times over runs of all three
# workloads on a 2-vCPU Intel Xeon virtual machine (Python 3.11, numpy with
# OpenBLAS on one thread). A fixed scale, so that setup_s reads close to
# seconds there.
PROBE_REFERENCE_S = 2.5e-4


def quality_reference(name: str, seed: int) -> dict | None:
    """Result figures recorded in baseline.json for this workload and seed, or None."""
    return json.loads(BASELINE.read_text())["quality"].get(name, {}).get(str(seed))


def quality_matches(quality: dict, reference: dict) -> bool:
    """Every recorded figure is present and equal up to float rounding."""
    return all(
        quality.get(k, (None,))[0] is not None
        and math.isclose(quality[k][0], v, rel_tol=QUALITY_RTOL, abs_tol=QUALITY_ATOL)
        for k, v in reference.items()
    )


def workload_figures(walls, setup_walls, works, ops, quality) -> dict:
    """Raw times and figures that exist on some workloads only; reported beside the result."""
    out = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_wall_s": (statistics.median(setup_walls), "s"),
        "error_rate": (ops.failed / ops.attempted if ops.attempted else 0.0, "ratio"),
    }
    train_s = [w.train_s for w in works if w.train_images]
    eval_s = [w.eval_s for w in works if w.eval_images]
    if train_s:
        out["train_img_per_s"] = (works[0].train_images / statistics.median(train_s), "1/s")
    if eval_s:
        out["eval_img_per_s"] = (works[0].eval_images / statistics.median(eval_s), "1/s")
    out.update(quality)
    return out


def _json_number(value):
    """JSON has no NaN or infinity; a non-finite value is written as null (and fails the finite check)."""
    return value if value is not None and math.isfinite(value) else None


def measure(name: str, seed: int, seconds: float, trace: bool, shape=None) -> tuple[dict, dict]:
    """Run one workload; returns (result, detail)."""
    from tracer import LAYERS, Tracer
    from workloads import WORKLOADS, Ops

    clock = time.perf_counter
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        workload = WORKLOADS[name](seed, work) if shape is None else WORKLOADS[name](seed, work, shape)
        ops = Ops()
        setups, passes, works, input_digests, output_digests = [], [], [], [], []
        budget = seconds / 2 if trace else seconds
        started = clock()
        # The probe's interrupts would land in traced spans, so traced runs go without it.
        with contextlib.nullcontext() if trace else SpeedProbe(clock) as probe:
            while len(passes) < (2 if trace else MIN_PASSES) or clock() - started < budget:
                cycle_setups = len(setups)
                while len(setups) == cycle_setups or sum(e - s for s, e in setups[cycle_setups:]) < SETUP_MIN_S:
                    start = clock()
                    workload.setup(ops)
                    setups.append((start, clock()))
                    input_digests.append(workload.input_digest())
                start = clock()
                works.append(workload.run_pass(ops, clock))
                passes.append((start, clock()))
                output_digests.append(workload.output_digest())
        walls = [end - start for start, end in passes]
        setup_walls = [end - start for start, end in setups]

        metrics: dict[str, tuple[float, str]] = {}
        norms, norms_by_probe, setup_norms, tracer = [], {}, [], None
        if trace:
            tracer = Tracer()
            with tracer:
                workload.setup(ops)
                before = tracer.self_by_layer()
                start = clock()
                workload.run_pass(ops, clock)
                traced_wall = clock() - start
                after = tracer.self_by_layer()
            input_digests.append(workload.input_digest())
            output_digests.append(workload.output_digest())
            metrics.update(tracer.metrics())
            for layer in LAYERS:
                metrics[f"{layer}.pass_share"] = ((after[layer] - before[layer]) / traced_wall, "ratio")
            metrics["trace_overhead_share"] = (traced_wall / statistics.median(walls) - 1.0, "ratio")
        else:
            # Both snippets' readings go on the detail line, so that the choice of snippet can be checked.
            norms_by_probe = {kind: [probe.normalize(start, end, kind) for start, end in passes] for kind in probe.KINDS}
            norms = norms_by_probe[workload.probe]
            setup_norms = [probe.normalize(start, end, "interpreter") for start, end in setups]
            metrics["setup_s"] = (statistics.median(setup_norms) * PROBE_REFERENCE_S, "s")
            metrics["wall_norm"] = (statistics.median(norms), "probe")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

        quality = workload.quality()
        figures = workload_figures(walls, setup_walls, works, ops, quality)
        checks = {
            "inputs_repeat": len(set(input_digests)) == 1,
            "outputs_repeat": len(set(output_digests)) == 1,
            "no_failed_operations": ops.failed == 0,
            "metrics_finite": all(
                v is not None and math.isfinite(v) for v, _ in list(metrics.values()) + list(figures.values())
            ),
        }
        if name == "walkthrough":
            checks["selection_beats_baseline"] = (quality["map_gain"][0] if "map_gain" in quality else 0.0) > 0.0
        # Recorded figures belong to the workload's own shape, not to the self-test's toy shapes.
        reference = quality_reference(name, seed) if shape is None else None
        if reference is not None:
            checks["quality_matches_reference"] = quality_matches(quality, reference)
        result = {
            "correct": all(checks.values()),
            "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": {k: {"value": _json_number(v), "unit": u} for k, (v, u) in metrics.items()},
        }
        detail = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "checks": checks,
            "quality_reference": reference,
            "figures": {k: {"value": _json_number(v), "unit": u} for k, (v, u) in figures.items()},
            "pass_walls_s": walls,
            "pass_norms": norms,
            "pass_norms_by_probe": norms_by_probe,
            "setup_walls_s": setup_walls,
            "setup_norms": setup_norms,
            "absent": tracer.absent if tracer else [],
            "environment": environment(),
        }
        return result, detail
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    import_wsdsel()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
