"""The three benchmark workloads. Each is a closed loop: one process, one call at a time.

A workload has a seeded `setup` that prepares its inputs and a `run_pass`
that does the timed work. Both go through an `Ops` object, which counts
every command or library call as attempted and a raised exception or a
non-zero exit code as failed, instead of aborting the run.
`input_digest` and `output_digest` hash what set-up and a pass produced;
both must repeat exactly from set-up to set-up and from pass to pass.
`quality` gives the result figures of the last pass (mAP, CorLoc, mAP gain,
final training loss) as name -> (value, unit).

- walkthrough: the README ablation as written, every step through
  `wsdsel.cli.main`. Small N, so per-call Python overhead dominates; the
  only workload that writes and then re-reads datasets and checkpoints.
- paper_train: training only at the paper shape (N=2048, C=20, D=256) with
  the default budgets, over a horizon where the timed epochs cover warmup
  and every halving level. The head does almost all of the work.
- dense_eval: eval only, with `--both --pr-csv` and 2 views at N=128,
  C=20, where every region passes the score floor, so NMS and box voting
  over large candidate pools dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

# Calls go through the module attributes (`data.generate_synthetic`), never
# through names bound here, so that the tracer's wrappers see them.
from wsdsel import cli, data, trainer
from wsdsel.schedule import PruneSchedule


class Ops:
    """Runs operations, counting attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def cli(self, argv: list[str]):
        """One `wsdsel` command in-process, with its console output discarded."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = self.call(cli.main, argv)
            except SystemExit as stop:  # argparse exits on a bad command line
                code = stop.code or 0
        if code != 0:
            if code is not None:
                self.failed += 1
            print(f"wsdsel {' '.join(argv)} -> exit {code}\n{out.getvalue()}", file=sys.stderr)


def digest(paths: list[Path]) -> str:
    """SHA-256 over the named files (a directory contributes its files in name order)."""
    h = hashlib.sha256()
    for path in paths:
        files = sorted(path.iterdir()) if path.is_dir() else [path]
        for f in files:
            h.update(f.name.encode())
            h.update(f.read_bytes() if f.exists() else b"<missing>")
    return h.hexdigest()


def _report(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


@dataclass
class PassWork:
    """Work one pass did: image-steps trained and test images evaluated, with the time each took."""

    train_images: int = 0
    train_s: float = 0.0
    eval_images: int = 0
    eval_s: float = 0.0


@dataclass(frozen=True)
class WalkthroughShape:
    synth_flags: tuple = ()  # the README uses the generator defaults: 200 images, C=6, D=64, N=64
    n_images: int = 200
    train_split: int = 160
    epochs: int = 40
    train_flags: tuple = ("--learning-rate", "3e-3")
    selection_flags: tuple = ("--m-start", "64", "--m-final", "8", "--m-neg", "16")
    top_m: int = 8


class Walkthrough:
    name = "walkthrough"
    probe = "interpreter"  # SpeedProbe snippet for its pass: per-call overhead, scalar IoU

    def __init__(self, seed: int, work: Path, shape: WalkthroughShape = WalkthroughShape()):
        self.seed, self.work, self.shape = seed, work, shape
        self.train_ds = work / "bench-train.json"
        self.test_ds = work / "bench-test.json"

    def _arm(self, arm: str, suffix: str) -> Path:
        return self.work / f"{arm}{suffix}"

    def setup(self, ops: Ops):
        s = self.shape
        ops.cli(["synth", "--out", str(self.work / "bench.json"), "--train-split", str(s.train_split),
                 "--seed", str(self.seed), *s.synth_flags])

    def input_digest(self) -> str:
        return digest([self.train_ds, self.test_ds, self.work / "bench-train_features", self.work / "bench-test_features"])

    def run_pass(self, ops: Ops, clock) -> PassWork:
        s = self.shape
        seed = ["--seed", str(self.seed)]
        arms = {"sel": list(s.selection_flags), "bas": ["--baseline"]}
        start = clock()
        for arm, flags in arms.items():
            ops.cli(["train", "--dataset", str(self.train_ds), "--out", str(self._arm(arm, ".wsdc")),
                     *seed, *s.train_flags, *flags])
        trained = clock()
        for arm in arms:
            ops.cli(["eval", "--dataset", str(self.test_ds), "--checkpoint", str(self._arm(arm, ".wsdc")),
                     "--out", str(self._arm(arm, ".json")), "--top-m", str(s.top_m)])
        done = clock()
        n_test = s.n_images - s.train_split
        return PassWork(len(arms) * s.epochs * s.train_split, trained - start, len(arms) * n_test, done - trained)

    def output_digest(self) -> str:
        return digest([self._arm(arm, suffix) for arm in ("sel", "bas") for suffix in (".wsdc", ".json")])

    def quality(self) -> dict[str, tuple]:
        sel, bas = _report(self._arm("sel", ".json")), _report(self._arm("bas", ".json"))
        out = {"map": (sel.get("map"), "ratio"), "corloc": (sel.get("mean_corloc"), "ratio")}
        if sel.get("map") is not None and bas.get("map") is not None:
            out["map_gain"] = (sel["map"] - bas["map"], "ratio")
        return out


@dataclass(frozen=True)
class PaperTrainShape:
    n_images: int = 48
    num_classes: int = 20
    feat_dim: int = 256
    proposals: int = 2048
    # Two warmup epochs, then one epoch at each budget 1024, 512, 256, 128.
    epochs: int = 6
    warmup_epochs: int = 2
    m_start: int = 1024
    m_final: int = 128
    m_neg: int = 128


class PaperTrain:
    name = "paper_train"
    probe = "kernels"  # SpeedProbe snippet for its pass: argsort, matmul, exp on 2048 rows

    def __init__(self, seed: int, work: Path, shape: PaperTrainShape = PaperTrainShape()):
        self.seed, self.work, self.shape = seed, work, shape
        self.dataset = None
        self.state = None
        self.checkpoint = work / "paper.wsdc"

    def setup(self, ops: Ops):
        s = self.shape
        cfg = data.SynthConfig(n_images=s.n_images, num_classes=s.num_classes, feat_dim=s.feat_dim,
                               proposals_per_image=s.proposals, seed=self.seed)
        self.dataset = None  # so that peak memory holds one dataset, not two
        self.dataset = ops.call(data.generate_synthetic, cfg)

    def input_digest(self) -> str:
        h = hashlib.sha256()
        for bag in self.dataset.images if self.dataset else []:
            h.update(bag.views[0].tobytes())
            h.update(bag.labels.tobytes())
            h.update(repr([b.as_tuple() for b in bag.proposals]).encode())
        return h.hexdigest()

    def run_pass(self, ops: Ops, clock) -> PassWork:
        s = self.shape
        schedule = PruneSchedule(warmup_epochs=s.warmup_epochs, m_start=s.m_start, m_final=s.m_final,
                                 m_neg=s.m_neg, total_epochs=s.epochs)
        config = trainer.TrainConfig(total_epochs=s.epochs, seed=self.seed, schedule=schedule)
        start = clock()
        self.state = ops.call(trainer.train, self.dataset, config)
        return PassWork(s.n_images * s.epochs, clock() - start)

    def output_digest(self) -> str:
        self.checkpoint.unlink(missing_ok=True)
        if self.state is not None:
            trainer.save_checkpoint(self.state, self.checkpoint)
        return digest([self.checkpoint])

    def quality(self) -> dict[str, tuple]:
        """Mean image loss of the last epoch (binary cross entropy summed over classes)."""
        loss = self.state.loss_history[-1] if self.state and self.state.loss_history else None
        return {"final_loss": (loss, "nats")}


@dataclass(frozen=True)
class DenseEvalShape:
    n_train: int = 16
    n_test: int = 12
    num_classes: int = 20
    feat_dim: int = 64
    proposals: int = 128
    views: int = 2
    train_epochs: int = 2


class DenseEval:
    name = "dense_eval"
    probe = "interpreter"  # SpeedProbe snippet for its pass: scalar IoU, NMS, box voting

    def __init__(self, seed: int, work: Path, shape: DenseEvalShape = DenseEvalShape()):
        self.seed, self.work, self.shape = seed, work, shape
        self.test_ds = work / "dense-test.json"
        self.checkpoint = work / "dense.wsdc"
        self.report = work / "dense.json"
        self.pr_csv = work / "dense-pr.csv"

    def setup(self, ops: Ops):
        s = self.shape
        cfg = data.SynthConfig(n_images=s.n_train + s.n_test, num_classes=s.num_classes, feat_dim=s.feat_dim,
                               proposals_per_image=s.proposals, n_views=s.views, seed=self.seed)
        ds = ops.call(data.generate_synthetic, cfg)
        if ds is None:
            return
        train_ds, test_ds = data.split_dataset(ds, s.n_train)
        ops.call(data.save_dataset, test_ds, self.test_ds)
        schedule = PruneSchedule(warmup_epochs=1, m_start=s.proposals // 2, m_final=s.proposals // 8,
                                 m_neg=s.proposals // 8, total_epochs=s.train_epochs)
        config = trainer.TrainConfig(total_epochs=s.train_epochs, seed=self.seed, schedule=schedule)
        state = ops.call(trainer.train, train_ds, config)
        if state is not None:
            ops.call(trainer.save_checkpoint, state, self.checkpoint)

    def input_digest(self) -> str:
        return digest([self.test_ds, self.work / "dense-test_features", self.checkpoint])

    def run_pass(self, ops: Ops, clock) -> PassWork:
        start = clock()
        ops.cli(["eval", "--dataset", str(self.test_ds), "--checkpoint", str(self.checkpoint),
                 "--out", str(self.report), "--both", "--pr-csv", str(self.pr_csv)])
        return PassWork(eval_images=self.shape.n_test, eval_s=clock() - start)

    def output_digest(self) -> str:
        return digest([self.report, self.pr_csv])

    def quality(self) -> dict[str, tuple]:
        report = _report(self.report)
        return {"map": (report.get("map"), "ratio"), "corloc": (report.get("mean_corloc"), "ratio")}


WORKLOADS = {w.name: w for w in (Walkthrough, PaperTrain, DenseEval)}
