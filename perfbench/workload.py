"""One benchmark workload in its own process; ``run.py`` starts it.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1

The workload synthesizes its corpus and task archive from the seed, saves
and loads its checkpoint, runs one untimed warm-up operation, checks the
program's outputs, then repeats its operation until ``--seconds`` have
passed. With ``--trace 0`` it reports the end-to-end metrics (``run.py`` adds
``peak_rss_mb``); with ``--trace 1`` it alternates untraced and traced
operations and reports the per-layer metrics and the tracing overhead.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import metasep  # noqa: E402
from metasep import autodiff as ad  # noqa: E402
from metasep import evalcli, model, taskgen, trainer  # noqa: E402
from metasep.model import SeparatorConfig  # noqa: E402
from metasep.trainer import TrainConfig  # noqa: E402

import reference  # noqa: E402
import tracer as tracing  # noqa: E402

if Path(metasep.__file__).resolve().parent != (ROOT / "src" / "metasep").resolve():
    raise SystemExit(f"imported metasep from {metasep.__file__}, not from this checkout")

# The tiny separator of acceptance criteria 7 and 10.
TINY = SeparatorConfig(enc_channels=16, enc_kernel=32, enc_stride=16, bottleneck_channels=8,
                       conv_channels=16, kernel=3, blocks_per_stack=3, stacks=1)
INNER_LR = 0.01
SETUP_REPEATS = 3
CKPT_EPOCHS = 5          # joint epochs behind sweep-tiny's checkpoint
CHECK_BETA = 1e-3        # the rate whose "after" score is recomputed
SMOOTH_PARAMS = ("mask.weight", "mask.bias", "decoder.weight")
FD_STEP = 1e-6           # central-difference step along a unit direction
FD_RTOL = 1e-4
UPIT_RTOL = 1e-9
SCORE_ATOL_DB = 1e-7


@dataclass(frozen=True)
class Spec:
    config: SeparatorConfig
    accents: int                     # synthetic accents, 2 speakers (1 task) each
    split: tuple[int, int, int]      # train / dev / test accents
    mode: str                        # training mode, or "sweep"
    meta_batch: int = 1


# The benchmark runs the workloads that BENCHMARK.json names; fomaml-default
# is run by hand, for the MAML/FOMAML outer-step ratio (see README.md).
WORKLOADS = {
    "maml-default": Spec(SeparatorConfig(), accents=4, split=(4, 0, 0), mode="maml"),
    "sweep-tiny": Spec(TINY, accents=4, split=(2, 0, 2), mode="sweep", meta_batch=2),
    "fomaml-default": Spec(SeparatorConfig(), accents=4, split=(4, 0, 0), mode="fomaml"),
}


class Workload:
    """Inputs, operation and checks of one workload at one seed."""

    def __init__(self, name: str, seed: int, work: Path, tracer: tracing.Tracer | None):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.failures: list[str] = []
        self.failed = 0
        self.setup_roots: list[list[tuple[int, int]]] = []  # span ranges per set-up

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    # -- set-up -------------------------------------------------------------

    def _setup_part(self, fn):
        """Run fn, timed, and traced under a set-up root span in a traced run."""
        t0 = time.perf_counter()
        if self.tracer is None:
            out = fn()
        else:
            with self.tracer:
                lo = self.tracer.open("setup")
                try:
                    out = fn()
                finally:
                    self.tracer.close(lo)
            self.setup_roots[-1].append((lo, len(self.tracer.spans)))
        return out, time.perf_counter() - t0

    def _build_inputs(self, rep_dir: Path):
        spec = self.spec
        manifest = taskgen.synth_corpus(
            taskgen.SynthSpec(n_accents=spec.accents, speakers_per_accent=2),
            seed=self.seed, out_dir=rep_dir / "corpus")
        corpus = taskgen.ingest(manifest)
        split = taskgen.split_accents(corpus.accents(), seed=self.seed, counts=spec.split)
        sets = taskgen.build_accent_task_sets(corpus, split, seed=self.seed)
        taskgen.write_task_archive(rep_dir / "tasks", sets, split, seed=self.seed)
        return taskgen.load_task_archive(rep_dir / "tasks")

    def _checkpoint_roundtrip(self, rep_dir: Path, params, extra):
        path = rep_dir / "checkpoint.msep"
        model.save_checkpoint(path, params, self.spec.config, extra)
        return model.load_checkpoint(path)

    def _initial_params(self, train_sets, split):
        cfg = self.spec.config
        init = model.init_params(cfg, self.seed)
        if self.spec.mode != "sweep":
            return init, {"mode": self.spec.mode}
        res = trainer.train(train_sets, TrainConfig(
            mode="joint", epochs=CKPT_EPOCHS, meta_batch=self.spec.meta_batch,
            seed=self.seed, outer_lr=2e-3, dev_eval_tasks=0), cfg, init=init)
        self.check_training_result(res, init, "checkpoint training")
        return res.params, {"mode": "joint", "train_accents": split.train}

    def setup(self) -> float:
        """Set up SETUP_REPEATS times; returns the median set-up time."""
        times = []
        source = None
        for rep in range(SETUP_REPEATS):
            rep_dir = self.work / f"setup{rep}"
            self.setup_roots.append([])
            (task_sets, split, _), t_inputs = self._setup_part(
                lambda: self._build_inputs(rep_dir))
            if source is None:
                source = self._initial_params(
                    taskgen.filter_task_sets(task_sets, split.train), split)
            (theta, cfg, extra), t_ckpt = self._setup_part(
                lambda: self._checkpoint_roundtrip(rep_dir, *source))
            times.append(t_inputs + t_ckpt)
        self.expect(cfg == self.spec.config, "checkpoint config differs after load")
        self.expect(np.array_equal(theta.values, source[0].values),
                    "checkpoint parameters differ after load")
        self.archive = rep_dir / "tasks"
        self.checkpoint = rep_dir / "checkpoint.msep"
        self.train_sets = taskgen.filter_task_sets(task_sets, split.train)
        self.test_sets = taskgen.filter_task_sets(task_sets, split.test)
        self.theta0 = theta
        self.theta = theta
        self.extra = extra
        return statistics.median(times)

    # -- the operation ------------------------------------------------------

    def batch(self, i: int):
        sets, b = self.train_sets, self.spec.meta_batch
        return [sets[(i * b + k) % len(sets)] for k in range(b)]

    def check_training_result(self, res, before, what: str) -> None:
        self.expect(not res.aborted, f"{what} aborted: {res.reason}")
        self.expect(all(math.isfinite(row["train_loss"]) for row in res.log),
                    f"{what} logged a non-finite loss")
        self.expect(not np.array_equal(res.params.values, before.values),
                    f"{what} left the parameters unchanged")

    def operation(self, i: int) -> int:
        """Run operation i; returns its task-level units of work."""
        spec = self.spec
        if spec.mode == "sweep":
            result = evalcli.beta_sweep(self.theta, spec.config, self.extra, self.test_sets)
            self.check_sweep_rows(result)
            return len(evalcli.BETA_GRID) * sum(ts.tq for ts in self.test_sets)
        cfg = TrainConfig(mode=spec.mode, epochs=1, meta_batch=spec.meta_batch,
                          seed=self.seed * 1_000_003 + i, inner_lr=INNER_LR,
                          dev_eval_tasks=0)
        res = trainer.train(self.batch(i), cfg, spec.config, init=self.theta)
        if res.aborted:                 # a diverged step is a failed operation
            self.failed += 1
            return 0
        self.check_training_result(res, self.theta, f"outer step {i}")
        self.theta = res.params
        return spec.meta_batch

    def check_sweep_rows(self, result) -> None:
        betas = [row["beta_ft"] for row in result.rows]
        self.expect(betas == [float(b) for b in evalcli.BETA_GRID],
                    f"sweep rows are for rates {betas}, not one per grid rate")
        self.expect(all(math.isfinite(row["mean_si_snri_db"]) for row in result.rows),
                    "sweep returned a non-finite score")

    # -- checks -------------------------------------------------------------

    def loss(self, sep, kind: str, values: np.ndarray) -> float:
        params = self.theta0.replace(values)
        with ad.no_grad():
            return getattr(sep, kind)(params.to_leaves()).item()

    def direction(self, salt: int) -> np.ndarray:
        """Seeded unit direction over the parameters downstream of every ReLU.

        Along these the forward activations that ReLU/PReLU gate do not
        move, so no gate flips inside the difference step. A gate flip makes
        the MAML objective jump, because the inner gradient changes by a step.
        """
        rng = np.random.default_rng([self.seed, salt])
        d = np.zeros(self.theta0.dim)
        for name in SMOOTH_PARAMS:
            off, shape = self.theta0.layout[name]
            size = int(np.prod(shape))
            d[off:off + size] = rng.standard_normal(size)
        return d / np.linalg.norm(d)

    def check_directional(self, grad: np.ndarray, f, salt: int, what: str) -> None:
        """grad . d against the central difference of f(step vector) along d."""
        d = self.direction(salt)
        fd = reference.central_difference(lambda h: f(h * d), FD_STEP)
        an = float(np.dot(grad, d))
        gap = reference.relative_gap(fd, an)
        print(f"  check {what}: analytic {an:.9e}, central difference {fd:.9e}, "
              f"relative gap {gap:.1e}", file=sys.stderr)
        self.expect(gap <= FD_RTOL, f"{what}: directional derivative {an!r} vs "
                                    f"central difference {fd!r} (gap {gap:.2e})")

    def check_upit(self, task) -> None:
        pair = task.support_pair()
        with ad.no_grad():
            prog = model.mixture_loss_tensors(pair, self.theta0.to_leaves(),
                                              self.spec.config).item()
        estimates = model.forward_separate(pair.mixture, self.theta0, self.spec.config)
        ref = reference.upit_loss([s.samples for s in pair.sources],
                                  [e.samples for e in estimates])
        self.expect(reference.relative_gap(prog, ref) <= UPIT_RTOL,
                    f"uPIT loss {prog!r} differs from the brute-force reference {ref!r}")

    def gradient_step(self):
        """One outer step on batch 0 from the checkpoint with plain SGD at
        rate 1 and no weight decay, so the step is minus the meta-gradient."""
        spec = self.spec
        sgd = TrainConfig(mode=spec.mode, epochs=1, meta_batch=spec.meta_batch,
                          seed=self.seed, inner_lr=INNER_LR, outer_optimizer="sgd",
                          outer_lr=1.0, weight_decay=0.0, dev_eval_tasks=0)
        return trainer.train(self.batch(0), sgd, spec.config, init=self.theta0)

    def check_meta_gradient(self, res) -> None:
        """The meta-gradient train() applied agrees with a central difference
        of the mode's objective along a seeded random direction."""
        spec, cfg, theta0 = self.spec, self.spec.config, self.theta0
        batch = self.batch(0)
        self.check_training_result(res, theta0, "gradient-check step")
        g = theta0.values - res.params.values
        seps = [trainer.SeparationTask(t, cfg) for ts in batch for t in ts.tasks]
        v0 = theta0.values

        def adapted(sep, values):
            return trainer.inner_adapt(theta0.replace(values), sep, INNER_LR,
                                       create_graph=False).to_vector(theta0).values

        if spec.mode == "maml":
            def objective(step):
                return sum(self.loss(s, "query_loss", adapted(s, v0 + step)) for s in seps)
        else:
            phis = [adapted(s, v0) for s in seps]
            for k, (s, phi) in enumerate(zip(seps, phis)):
                self.check_directional(
                    (v0 - phi) / INNER_LR,
                    lambda step, s=s: self.loss(s, "support_loss", v0 + step),
                    salt=10 + k, what=f"support gradient of task {k}")

            def objective(step):
                return sum(self.loss(s, "query_loss", phi + step) for s, phi in zip(seps, phis))
        self.check_directional(g, objective, salt=1, what=f"{spec.mode} meta-gradient")

    def check_sweep(self, reports: list) -> None:
        """meta_test reports of one sweep, an "after" recomputation, the CLI."""
        cfg, theta = self.spec.config, self.theta0
        self.expect(len(reports) == len(evalcli.BETA_GRID),
                    f"sweep ran meta_test {len(reports)} times for {len(evalcli.BETA_GRID)} rates")
        before = [r.accent_rows("clean", "before") for r in reports]
        self.expect(all(rows == before[0] for rows in before),
                    "meta_test 'before' scores differ between rates")
        report = next((r for r in reports if r.meta["beta_ft"] == CHECK_BETA), None)
        if report is None:
            self.expect(False, f"no meta_test report at rate {CHECK_BETA}")
            return

        task = self.test_sets[0].tasks[0]
        sep = trainer.SeparationTask(task, cfg)
        leaves = theta.to_leaves()
        grads = ad.grad(sep.support_loss(leaves), list(leaves.values()))
        g = theta.flatten_named({n: t.data for n, t in zip(leaves, grads)}).values
        self.check_directional(
            g, lambda step: self.loss(sep, "support_loss", theta.values + step),
            salt=2, what="support gradient")
        adapted = theta.replace(theta.values - CHECK_BETA * g)
        scores = []
        for q in task.query_pairs():
            est = model.forward_separate(q.mixture, adapted, cfg)
            scores.append(reference.si_snr_improvement(
                q.mixture.samples, [s.samples for s in q.sources], [e.samples for e in est]))
        mine = sum(scores) / len(scores)
        rows = [r for r in report.accent_rows("clean", "after") if r["accent"] == task.accent]
        reported = rows[0]["mean_si_snri_db"] if len(rows) == 1 and rows[0]["n_tasks"] == 1 \
            else None
        self.expect(reported is not None and abs(reported - mine) <= SCORE_ATOL_DB,
                    f"'after' row {rows} for accent {task.accent} at rate {CHECK_BETA} "
                    f"is not one task scoring the recomputed {mine!r}")

        out = self.work / "cli"
        with contextlib.redirect_stdout(io.StringIO()):
            code = evalcli.main(["--seed", str(self.seed), "--out", str(out), "sweep-beta",
                                 "--checkpoint", str(self.checkpoint),
                                 "--tasks", str(self.archive), "--grid", repr(CHECK_BETA)])
        self.expect(code == 0, f"metasep sweep-beta exited with {code}")
        files = [out / "sweep.csv", out / "sweep.json", out / "sweep_beta_config.json"]
        self.expect(all(f.is_file() for f in files), "metasep sweep-beta did not write its files")
        if code == 0 and files[0].is_file():
            rows = list(csv.DictReader(io.StringIO(files[0].read_text())))
            expected = report.overall_mean("clean", "after")
            self.expect(len(rows) == 1 and float(rows[0]["beta_ft"]) == CHECK_BETA
                        and abs(float(rows[0]["mean_si_snri_db"]) - expected) <= 1e-9,
                        f"metasep sweep-beta wrote {rows}, expected {expected!r}")

    def warm_up_and_check(self) -> float:
        """Untimed warm-up operation followed by the correctness checks;
        returns the warm-up's wall time. A training workload's warm-up is
        the SGD step whose meta-gradient the checks read back."""
        if self.spec.mode != "sweep":
            t0 = time.perf_counter()
            res = self.gradient_step()
            warm = time.perf_counter() - t0
            self.check_upit(self.batch(0)[0].tasks[0])
            self.check_meta_gradient(res)
            return warm
        reports = []
        meta_test = evalcli.meta_test

        def recording_meta_test(*args, **kwargs):
            reports.append(meta_test(*args, **kwargs))
            return reports[-1]

        evalcli.meta_test = recording_meta_test
        try:
            t0 = time.perf_counter()
            self.operation(0)
            warm = time.perf_counter() - t0
        finally:
            evalcli.meta_test = meta_test
        self.check_upit(self.test_sets[0].tasks[0])
        self.check_sweep(reports)
        return warm


# ---------------------------------------------------------------------------
# measurement


def timed(fn, i: int) -> tuple[float, int]:
    gc.collect()
    t0 = time.perf_counter()
    units = fn(i)
    return time.perf_counter() - t0, units


def measure(wl: Workload, seconds: float) -> dict:
    durations, units = [], 0
    start = time.perf_counter()
    i = 1
    while not durations or time.perf_counter() - start < seconds:
        dt, u = timed(wl.operation, i)
        durations.append(dt)
        units += u
        i += 1
    print("  operation seconds: " + " ".join(f"{d:.3f}" for d in durations), file=sys.stderr)
    return {"ops": len(durations), "op_s": statistics.median(durations),
            "tasks_per_s": units / sum(durations)}


def measure_traced(wl: Workload, tr: tracing.Tracer, seconds: float) -> dict:
    """Alternate untraced and traced operations; per-layer medians."""
    untraced, traced, per_op = [], [], []
    start = time.perf_counter()
    i = 1
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(timed(wl.operation, i)[0])
        i += 1
        gc.collect()
        with tr:
            tr.live_peak = tr.live_bytes
            lo = len(tr.spans)
            t0 = time.perf_counter()
            root = tr.open("op")
            try:
                wl.operation(i)
            finally:
                tr.close(root)
            wall = time.perf_counter() - t0
        per_op.append(tracing.op_metrics(tr, lo, len(tr.spans), wall, tr.live_peak))
        traced.append(wall)
        i += 1
    metrics = {}
    for k in per_op[0]:
        values = [op[k] for op in per_op]
        counts = all(isinstance(v, int) for v in values)
        metrics[k] = (statistics.median_low if counts else statistics.median)(values)
    metrics.update(tracing.setup_metrics(tr, wl.setup_roots))
    traced_s, untraced_s = statistics.median(traced), statistics.median(untraced)
    metrics["trace.self_gap_s"] = max(op["trace.self_gap_s"] for op in per_op)
    metrics["trace.op_s"] = traced_s
    metrics["trace.untraced_op_s"] = untraced_s
    metrics["trace.overhead"] = traced_s / untraced_s - 1.0
    allowed = max(traced_s - untraced_s, 1e-3)
    wl.expect(metrics["trace.self_gap_s"] <= allowed,
              f"span self times miss the traced wall time by {metrics['trace.self_gap_s']:.2e}s, "
              f"more than the tracing overhead {allowed:.2e}s")
    return {"ops": len(untraced) + len(traced), "metrics": metrics}


def declared_metrics(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    out_dir = HERE / "out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tr = tracing.Tracer(metasep) if args.trace else None
    wl = Workload(args.workload, args.seed, work, tr)
    try:
        setup_inputs = wl.setup()
        warm = wl.warm_up_and_check()
        if tr is None:
            m = measure(wl, args.seconds)
            values = {"setup_s": setup_inputs + warm, "op_s": m["op_s"],
                      "tasks_per_s": m["tasks_per_s"]}
            units = declared_metrics("end_to_end")
        else:
            m = measure_traced(wl, tr, args.seconds)
            values = m["metrics"]
            units = declared_metrics("per_layer")
            traces = out_dir / "traces"
            traces.mkdir(exist_ok=True)
            tr.write(traces / f"{args.workload}.npz")   # the last traced run
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # peak_rss_mb is measured by run.py, outside this process
    expected = set(units) - {"peak_rss_mb"}
    if set(values) != expected:
        raise SystemExit(f"metric names drifted from BENCHMARK.json: "
                         f"{sorted(set(values) ^ expected)}")
    for name in sorted(values):
        print(f"{args.workload:15s} {name:40s} {values[name]:>16.6g} {units[name]}")
    for what in wl.failures:
        print(f"CHECK FAILED: {what}", file=sys.stderr)
    print(json.dumps({
        "correct": not wl.failures,
        "attempted": m["ops"],
        "failed": wl.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
