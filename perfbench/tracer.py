"""Outside-in tracer: times calls into wsdsel's public functions without editing them.

Every wsdsel module imports what it uses by name (`trainer.forward_image`,
`evaluation.iou`, `cli.evaluate_map`), so a wrapper placed only in the
defining module would miss most calls. `Tracer.install` therefore puts the
wrapper into every loaded `wsdsel` module namespace that holds the function,
and `Tracer.uninstall` puts each original back.

Spans nest. A call's self time is its duration minus the time covered by
the traced calls it makes, bookkeeping included, so tracer cost never lands
in a caller's self time. Functions in COUNTED only count calls: IoU runs
millions of times per eval, and a timer would cost more than the call.
`data.bytes_written` and `data.bytes_read` are the bytes that dataset saves
and loads moved through write() and read(), taken from the kernel's counters
for this process, so they follow whatever format the program writes.

A function (or module) that no longer exists is reported in `absent` and
gets no metrics, rather than metrics of zero.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time

TIMED = (
    "data.generate_synthetic",
    "data.save_dataset",
    "data.load_dataset",
    "head.class_softmax",
    "head.select_regions",
    "head.masked_softmax",
    "head.forward_image",
    "head.backward_image",
    "trainer.init_params",
    "trainer.train",
    "trainer.train_epoch",
    "trainer.sgd_step",
    "trainer.save_checkpoint",
    "trainer.load_checkpoint",
    "geometry.nms",
    "geometry.box_vote",
    "evaluation.infer_image",
    "evaluation.detect",
    "evaluation.corloc",
    "evaluation.voc_ap",
    "evaluation.weight_concentration",
    "evaluation.evaluate_map",
    "evaluation.dump_pr_curves",
    "cli.cmd_synth",
    "cli.cmd_train",
    "cli.cmd_eval",
)
COUNTED = ("geometry.iou", "schedule.pos_budget")
# Calls whose per-call latency distribution is reported.
HOT = (
    "head.forward_image",
    "head.backward_image",
    "trainer.sgd_step",
    "evaluation.detect",
    "evaluation.infer_image",
)
LAYERS = ("data", "head", "trainer", "geometry", "evaluation", "cli")
# A tail percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Byte counters of this process, kept by the kernel: rchar/wchar count every byte read()/write() moved.
PROC_IO = "/proc/self/io"


class Stat:
    __slots__ = ("calls", "total", "self", "samples")

    def __init__(self, keep_samples: bool):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.samples = [] if keep_samples else None


def _proc_io() -> tuple[int, int, int]:
    """(rchar, wchar, n): bytes this process has read and written, and n, the bytes this read adds to rchar."""
    fd = os.open(PROC_IO, os.O_RDONLY)
    try:
        raw = os.read(fd, 4096)
    finally:
        os.close(fd)
    fields = dict(line.split(b":") for line in raw.splitlines())
    return int(fields[b"rchar"]), int(fields[b"wchar"]), len(raw)


def _wsdsel_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "wsdsel" or name.startswith("wsdsel.")]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """(level, value) of the highest ladder percentile with TAIL_SAMPLES samples beyond it; (0, 0) if none."""
    n = len(sorted_values)
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= TAIL_SAMPLES:
            return q, percentile(sorted_values, q)
    return 0.0, 0.0


class Tracer:
    """Wraps the TIMED and COUNTED functions while installed; accumulates across installs."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts = {
            "detect_candidates": 0,
            "detect_detections": 0,
            "detect_empty_classes": 0,
            "selected": 0,
            "selectable": 0,
            "bytes_written": 0,
            "bytes_read": 0,
        }
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "evaluation.detect": self._on_detect,
            "head.forward_image": self._on_forward,
        }
        # Functions whose file traffic is counted: bytes the call moved through read()/write().
        self._io = {"data.save_dataset": "bytes_written", "data.load_dataset": "bytes_read"}

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        modules = _wsdsel_modules()
        for qualname in TIMED + COUNTED:
            module_name, func_name = qualname.split(".")
            try:
                original = getattr(importlib.import_module(f"wsdsel.{module_name}"), func_name, None)
            except ModuleNotFoundError:
                original = None
            if original is None:
                self.absent.append(qualname)
                continue
            stat = self.stats.setdefault(qualname, Stat(qualname in HOT))
            if qualname in COUNTED:
                wrapper = self._counter(original, stat)
            else:
                wrapper = self._timer(original, stat, self._hooks.get(qualname), self._io.get(qualname))
            holders = [(m, attr) for m in modules for attr, value in vars(m).items() if value is original]
            for module, attr in holders:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _counter(self, fn, stat: Stat):
        def counted(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return counted

    def _timer(self, fn, stat: Stat, hook, io_count):
        stack = self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn)

        def timed(*args, **kwargs):
            entered = clock()
            io_before = _proc_io() if io_count else None
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            span = end - start
            stat.calls += 1
            stat.total += span
            stat.self += span - frame[0]
            if stat.samples is not None:
                stat.samples.append(span)
            if hook is not None:
                hook(signature, args, kwargs, result)
            if io_count:
                rchar, wchar, _ = _proc_io()
                if io_count == "bytes_read":
                    self.counts[io_count] += rchar - io_before[0] - io_before[2]
                else:
                    self.counts[io_count] += wchar - io_before[1]
            if stack:
                stack[-1][0] += clock() - entered
            return result

        return timed

    def _on_detect(self, signature, args, kwargs, dets):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        passing = bound.arguments["scores"] >= bound.arguments["score_floor"]
        self.counts["detect_candidates"] += int(passing.sum())
        self.counts["detect_empty_classes"] += int((~passing.any(axis=0)).sum())
        self.counts["detect_detections"] += len(dets)

    def _on_forward(self, signature, args, kwargs, trace):
        self.counts["selected"] += int(trace.h.sum())
        self.counts["selectable"] += trace.h.size

    def self_by_layer(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for qualname, stat in self.stats.items():
            layer = qualname.split(".")[0]
            if layer in out:
                out[layer] += stat.self
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function and count metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for qualname in TIMED + COUNTED:
            stat = self.stats.get(qualname)
            if stat is None or qualname in self.absent:
                continue
            out[f"{qualname}.calls"] = (stat.calls, "count")
            if qualname in COUNTED:
                continue
            out[f"{qualname}.total_s"] = (stat.total, "s")
            out[f"{qualname}.self_s"] = (stat.self, "s")
            if qualname in HOT:
                ordered = sorted(stat.samples)
                level, value = tail(ordered)
                out[f"{qualname}.p50_us"] = (percentile(ordered, 50.0) * 1e6 if ordered else 0.0, "us")
                out[f"{qualname}.tail_us"] = (value * 1e6, "us")
                out[f"{qualname}.tail_pct"] = (level, "%")
        c = self.counts
        out["evaluation.detect.candidates"] = (c["detect_candidates"], "count")
        out["evaluation.detect.detections"] = (c["detect_detections"], "count")
        out["evaluation.detect.kept_share"] = (
            c["detect_detections"] / c["detect_candidates"] if c["detect_candidates"] else 0.0,
            "ratio",
        )
        out["evaluation.detect.empty_classes"] = (c["detect_empty_classes"], "count")
        out["head.selected_share"] = (c["selected"] / c["selectable"] if c["selectable"] else 0.0, "ratio")
        out["data.bytes_written"] = (c["bytes_written"], "bytes")
        out["data.bytes_read"] = (c["bytes_read"], "bytes")
        return out
