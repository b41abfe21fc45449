"""Meta-testing, report aggregation, the adaptation-rate sweep, and the CLI.

Evaluation protocol per test task: score Si-SNRi on the query mixtures with
the checkpoint parameters as-is ("before"), take one gradient step on the
single support mixture, score again ("after"). Rows aggregate per accent;
the overall mean is task-weighted and the spread column is the standard
deviation across accent means.

Published full-scale reference results (not reproducible at desk scale;
recorded for orientation only): with one-shot adaptation on clean test
mixtures, first-order meta training reaches 10.13 +- 2.12 dB Si-SNRi vs
8.52 +- 2.20 for the fine-tuned joint baseline, while the second-order
variant scores -6.19 +- 1.38 before adaptation; the joint baseline's best
adaptation rates are 5e-4 clean (8.52) and 1e-3 noisy (6.89), collapsing to
-2.25 at 1e-1.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dsp
from . import model as model_mod
from . import taskgen, trainer
from .autodiff import ParamVector
from .model import SeparatorConfig
from .trainer import TrainConfig

BETA_GRID = (1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1)
META_BETA_DEFAULT = 0.01

CSV_COLUMNS = ("accent", "condition", "phase", "mean_si_snri_db", "n_tasks")
CONFIG_KEYS = ("model", "train")


class EvalError(ValueError):
    pass


@dataclass
class EvalReport:
    """Per-accent and aggregate Si-SNRi, keyed by (condition, phase)."""

    rows: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add_condition(self, condition: str, phase: str,
                      per_accent: dict[str, list[float]]) -> None:
        for accent in sorted(per_accent):
            vals = per_accent[accent]
            self.rows.append({
                "accent": accent, "condition": condition, "phase": phase,
                "mean_si_snri_db": float(np.mean(vals)), "n_tasks": len(vals),
            })

    def accent_rows(self, condition: str, phase: str) -> list[dict]:
        return [r for r in self.rows
                if r["condition"] == condition and r["phase"] == phase]

    def conditions(self) -> list[tuple[str, str]]:
        seen = []
        for r in self.rows:
            key = (r["condition"], r["phase"])
            if key not in seen:
                seen.append(key)
        return seen

    def overall_mean(self, condition: str, phase: str) -> float:
        """Task-weighted mean, identical to the plain mean over all tasks."""
        rows = self.accent_rows(condition, phase)
        n = sum(r["n_tasks"] for r in rows)
        return float(sum(r["mean_si_snri_db"] * r["n_tasks"] for r in rows) / n)

    def accent_std(self, condition: str, phase: str) -> float:
        """Population standard deviation across the per-accent means."""
        rows = self.accent_rows(condition, phase)
        return float(np.std([r["mean_si_snri_db"] for r in rows]))

    def summary(self) -> dict:
        out = {}
        for cond, phase in self.conditions():
            out[f"{cond}/{phase}"] = {
                "mean_si_snri_db": self.overall_mean(cond, phase),
                "accent_std_db": self.accent_std(cond, phase),
                "n_tasks": sum(r["n_tasks"] for r in self.accent_rows(cond, phase)),
            }
        return out


@dataclass
class SweepResult:
    rows: list[dict] = field(default_factory=list)  # condition, beta, mean

    def add(self, condition: str, beta: float, mean: float) -> None:
        self.rows.append({"condition": condition, "beta_ft": float(beta),
                          "mean_si_snri_db": float(mean)})

    def best(self, condition: str) -> dict:
        rows = [r for r in self.rows if r["condition"] == condition]
        return max(rows, key=lambda r: r["mean_si_snri_db"])


def _check_test_sets(checkpoint_extra: dict, test_sets) -> None:
    """Accents seen in training must not appear in the test sets (the whole
    point is adaptation to unseen domains), so overlap is rejected."""
    train_accents = set(checkpoint_extra.get("train_accents", ()))
    test_accents = {ts.accent for ts in test_sets}
    overlap = train_accents & test_accents
    if overlap:
        raise EvalError(f"test accents overlap training accents: {sorted(overlap)}")
    if not test_sets:
        raise EvalError("no test task sets given")


def _test_tasks(test_sets) -> list[tuple[str, taskgen.MetaTask]]:
    """(accent, task) pairs in the order meta_test scores them."""
    return [(ts.accent, task) for ts in sorted(test_sets, key=lambda s: s.accent)
            for task in ts.tasks]


def meta_test(params: ParamVector, config: SeparatorConfig, checkpoint_extra: dict,
              test_sets, beta_ft: float, noisy: bool = False,
              report: EvalReport | None = None, *,
              prepared: list[trainer.PreparedAdapt] | None = None) -> EvalReport:
    """Adapt-and-score every test task; aggregates into an EvalReport.
    A task whose "after" score is not finite aborts it with the ValueError
    of ``trainer.PreparedAdapt.score``.

    ``prepared`` holds ``trainer.prepare_adapt`` of every test task, in this
    function's order, for the same parameters and condition; without it each
    task is prepared as it is scored.
    """
    dsp.require_finite("beta_ft", beta_ft)
    _check_test_sets(checkpoint_extra, test_sets)
    tasks = _test_tasks(test_sets)
    if prepared is None:
        prepared = (trainer.prepare_adapt(params, task, config, noisy=noisy)
                    for _, task in tasks)
    elif len(prepared) != len(tasks) or any(
            prep.sep.task is not task or prep.theta is not params or prep.sep.noisy != noisy
            for prep, (_, task) in zip(prepared, tasks)):
        raise EvalError("prepared adaptation does not match these parameters, "
                        "test tasks and condition")

    condition = "noisy" if noisy else "clean"
    before: dict[str, list[float]] = {}
    after: dict[str, list[float]] = {}
    for (accent, _), prep in zip(tasks, prepared):
        before.setdefault(accent, []).append(prep.query_si_snri_pre)
        after.setdefault(accent, []).append(prep.score(beta_ft)["query_si_snri_post"])

    if report is None:
        report = EvalReport()
    report.meta.update({
        "beta_ft": float(beta_ft),
        "mode": checkpoint_extra.get("mode"),
        "config_hash": checkpoint_extra.get("config_hash"),
    })
    if noisy:
        report.meta["noise_policy"] = {
            "snr_range_db": [float(v) for v in dsp.NOISE_SNR_RANGE_DB],
            "seed_source": "per-task noise_seed from the task archive",
        }
    report.add_condition(condition, "before", before)
    report.add_condition(condition, "after", after)
    return report


def beta_sweep(params: ParamVector, config: SeparatorConfig, checkpoint_extra: dict,
               test_sets, grid=BETA_GRID, noisy: bool = False,
               force: bool = False) -> SweepResult:
    """meta_test across an adaptation-rate grid; reports the argmax rate.
    Each test task's support gradient and "before" score are computed once,
    so a rate costs one parameter update and the query forwards per task.

    Meta-trained checkpoints keep their adaptation rate pinned at 0.01 (other
    values degrade them badly), so sweeping one requires force=True.
    """
    grid = tuple(float(b) for b in grid)
    for beta in grid:
        dsp.require_finite("beta_ft", beta)
    if not grid:
        raise EvalError("sweep grid is empty")
    mode = checkpoint_extra.get("mode")
    if mode in ("maml", "fomaml") and not force:
        if tuple(grid) != (META_BETA_DEFAULT,):
            raise EvalError(
                f"checkpoint was trained with {mode}; its adaptation rate is fixed at "
                f"{META_BETA_DEFAULT} (pass force=True / --force to sweep anyway)")
    _check_test_sets(checkpoint_extra, test_sets)
    prepared = [trainer.prepare_adapt(params, task, config, noisy=noisy)
                for _, task in _test_tasks(test_sets)]
    result = SweepResult()
    condition = "noisy" if noisy else "clean"
    for beta in grid:
        rep = meta_test(params, config, checkpoint_extra, test_sets, beta, noisy=noisy,
                        prepared=prepared)
        result.add(condition, beta, rep.overall_mean(condition, "after"))
    return result


# ---------------------------------------------------------------------------
# report serialization


def report_to_csv_text(report: EvalReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in sorted(report.rows, key=lambda r: (r["accent"], r["condition"], r["phase"])):
        writer.writerow([row["accent"], row["condition"], row["phase"],
                         repr(row["mean_si_snri_db"]), row["n_tasks"]])
    for (cond, phase) in report.conditions():
        writer.writerow(["OVERALL", cond, phase,
                         repr(report.overall_mean(cond, phase)),
                         sum(r["n_tasks"] for r in report.accent_rows(cond, phase))])
    return buf.getvalue()


def _write_artifact(out_dir, name: str, text: str) -> Path:
    """Atomically write one text artifact into out_dir, creating it."""
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with dsp.atomic_open(path) as f:
        f.write(text)
    return path


def emit_report(report: EvalReport, out_dir) -> dict:
    """Write report.csv and its JSON mirror; returns the written paths."""
    payload = {"rows": report.rows, "summary": report.summary(), "meta": report.meta}
    return {"csv": _write_artifact(out_dir, "report.csv", report_to_csv_text(report)),
            "json": _write_artifact(out_dir, "report.json",
                                    json.dumps(payload, indent=1, sort_keys=True))}


def emit_sweep(result: SweepResult, out_dir) -> dict:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["condition", "beta_ft", "mean_si_snri_db"])
    for row in result.rows:
        writer.writerow([row["condition"], repr(row["beta_ft"]),
                         repr(row["mean_si_snri_db"])])
    best = {cond: result.best(cond)
            for cond in {r["condition"] for r in result.rows}}
    return {"csv": _write_artifact(out_dir, "sweep.csv", buf.getvalue()),
            "json": _write_artifact(out_dir, "sweep.json",
                                    json.dumps({"rows": result.rows, "best": best},
                                               indent=1, sort_keys=True))}


# ---------------------------------------------------------------------------
# command line


def _write_resolved_config(out_dir, command: str, resolved: dict) -> None:
    _write_artifact(out_dir, f"{command}_config.json",
                    json.dumps(resolved, indent=1, sort_keys=True))


def _config_section(cfg: dict, section: str, cls) -> dict:
    """The config file's `section` object ({} when absent), refusing a value
    that is not an object and keys that are not fields of the dataclass `cls`."""
    values = cfg.get(section, {})
    if not isinstance(values, dict):
        raise EvalError(f"config section {section!r} is {json.dumps(values)}, not an object")
    unknown = sorted(set(values) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise EvalError(f"unknown {section!r} config keys: {', '.join(unknown)}")
    return dict(values)


def load_config(path) -> tuple[SeparatorConfig, dict]:
    """The checked config file ({} without one): its model section as a
    SeparatorConfig and its train section as TrainConfig keywords. `main`
    loads it for every command, so each command refuses a file that `train`
    refuses, with the same message."""
    try:
        cfg = {} if path is None else json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as err:  # not UTF-8, not JSON, or nested too deep
        raise EvalError(f"config file {path} is not UTF-8 JSON ({err})") from None
    if not isinstance(cfg, dict):
        raise EvalError(f"config file {path} is {json.dumps(cfg)}, not an object")
    unknown = sorted(set(cfg) - set(CONFIG_KEYS))
    if unknown:
        raise EvalError(f"unknown top-level config keys: {', '.join(unknown)} "
                        f"(known: {', '.join(CONFIG_KEYS)})")
    model_config = SeparatorConfig(**_config_section(cfg, "model", SeparatorConfig))
    model_config.frames(dsp.SEGMENT_SAMPLES)  # the length of every archive segment
    train_section = _config_section(cfg, "train", TrainConfig)
    TrainConfig(**train_section)
    return model_config, train_section


def _split_sets(archive_dir):
    task_sets, split, _ = taskgen.load_task_archive(archive_dir)
    return {
        "train": taskgen.filter_task_sets(task_sets, split.train),
        "dev": taskgen.filter_task_sets(task_sets, split.dev),
        "test": taskgen.filter_task_sets(task_sets, split.test),
    }


def cmd_synth_corpus(args) -> dict:
    spec = taskgen.SynthSpec(n_accents=args.accents, speakers_per_accent=args.speakers)
    manifest = taskgen.synth_corpus(spec, seed=args.seed, out_dir=args.out)
    resolved = {"command": "synth-corpus", "seed": args.seed,
                "accents": args.accents, "speakers": args.speakers,
                "manifest": str(manifest)}
    _write_resolved_config(args.out, "synth_corpus", resolved)
    return {"manifest": str(manifest), "entries": args.accents * args.speakers}


def cmd_build_tasks(args) -> dict:
    counts = (args.train_accents, args.dev_accents, args.test_accents)
    counts = None if counts == (None, None, None) else tuple(
        0 if n is None else n for n in counts)
    corpus = taskgen.ingest(args.manifest)
    accents = corpus.accents()
    split = taskgen.split_accents(accents, seed=args.seed, counts=counts)
    if not split.train or not split.test:
        raise EvalError(
            f"accent split train={len(split.train)}, dev={len(split.dev)}, "
            f"test={len(split.test)} of {len(accents)} accents in {args.manifest} needs "
            f"at least one train and one test accent")
    task_sets = taskgen.build_accent_task_sets(corpus, split, seed=args.seed)
    index = taskgen.write_task_archive(args.out, task_sets, split, seed=args.seed)
    resolved = {"command": "build-tasks", "seed": args.seed,
                "manifest": str(args.manifest),
                "split": {"train": split.train, "dev": split.dev, "test": split.test},
                "issues": corpus.issues}
    _write_resolved_config(args.out, "build_tasks", resolved)
    return {"tasks_index": str(index),
            "n_tasks": sum(ts.tq for ts in task_sets)}


def cmd_train(args) -> dict:
    train_kwargs = args.train_section
    if train_kwargs.setdefault("mode", args.mode) != args.mode:
        raise ValueError(f"mode must be --mode's {args.mode!r}, "
                         f"got {train_kwargs['mode']!r} in the config's train section")
    if args.seed is not None:
        train_kwargs["seed"] = args.seed
    for key in ("epochs", "meta_batch", "inner_lr", "outer_lr"):
        val = getattr(args, key)
        if val is not None:
            train_kwargs[key] = val
    if args.noise:
        train_kwargs["noise"] = True
    train_config = TrainConfig(**train_kwargs)

    sets = _split_sets(args.tasks)
    result = trainer.train(sets["train"], train_config, args.model_config,
                           dev_sets=sets["dev"], out_dir=args.out)
    resolved = {"command": "train", "tasks": str(args.tasks),
                "model": args.model_config.to_dict(), "train": train_config.to_dict()}
    _write_resolved_config(args.out, "train", resolved)
    out = {"checkpoint": str(result.checkpoint_path),
           "epochs_run": len(result.log), "aborted": result.aborted}
    if result.log:
        out["final_train_loss"] = result.log[-1]["train_loss"]
    return out


def cmd_finetune(args) -> dict:
    params, model_config, extra = model_mod.load_checkpoint(args.checkpoint)
    sets = _split_sets(args.tasks)
    test_sets = sets["test"]
    wanted = test_sets if args.accent is None else [
        ts for ts in test_sets if ts.accent == args.accent]
    if not wanted:
        raise EvalError(f"no test accent {args.accent!r} in the archive")
    tasks = wanted[0].tasks
    if not 0 <= args.task_index < len(tasks):
        raise EvalError(f"task index {args.task_index} is out of range: accent "
                        f"{wanted[0].accent} has {len(tasks)} tasks")
    task = tasks[args.task_index]
    out = {"accent": task.accent, "speakers": list(task.speakers), "beta_ft": args.beta,
           **trainer.finetune_adapt(params, task, args.beta, model_config, noisy=args.noise)}
    _write_resolved_config(args.out, "finetune",
                           {"command": "finetune", "seed": args.seed, **out})
    return out


def cmd_evaluate(args) -> dict:
    params, model_config, extra = model_mod.load_checkpoint(args.checkpoint)
    sets = _split_sets(args.tasks)
    report = meta_test(params, model_config, extra, sets["test"], args.beta, noisy=False)
    if args.noise:
        report = meta_test(params, model_config, extra, sets["test"], args.beta,
                           noisy=True, report=report)
    paths = emit_report(report, args.out)
    resolved = {"command": "evaluate", "checkpoint": str(args.checkpoint),
                "tasks": str(args.tasks), "beta_ft": args.beta, "noise": bool(args.noise),
                "seed": args.seed}
    _write_resolved_config(args.out, "evaluate", resolved)
    return {"report_csv": str(paths["csv"]), "report_json": str(paths["json"]),
            "summary": report.summary()}


def cmd_sweep_beta(args) -> dict:
    params, model_config, extra = model_mod.load_checkpoint(args.checkpoint)
    sets = _split_sets(args.tasks)
    try:
        grid = BETA_GRID if args.grid is None else tuple(float(x) for x in args.grid.split(","))
    except ValueError:
        raise EvalError(f"grid {args.grid!r} is not a comma-separated list of rates") from None
    result = beta_sweep(params, model_config, extra, sets["test"], grid=grid,
                        noisy=args.noise, force=args.force)
    paths = emit_sweep(result, args.out)
    resolved = {"command": "sweep-beta", "checkpoint": str(args.checkpoint),
                "grid": list(grid), "noise": bool(args.noise), "seed": args.seed}
    _write_resolved_config(args.out, "sweep_beta", resolved)
    condition = "noisy" if args.noise else "clean"
    return {"sweep_csv": str(paths["csv"]), "best": result.best(condition)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a refused flag gets main's JSON error, not a usage exit
        raise EvalError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="metasep",
        description="Meta-learned speech separation: corpus synthesis, task "
                    "construction, training, adaptation, and evaluation.")
    parser.add_argument("--seed", type=int, default=None,
                        help="run seed (global; default: train's config train.seed, else 0)")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file ({'model': {...}, 'train': {...}})")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-corpus", help="generate the parametric toy corpus")
    p.add_argument("--accents", type=int, required=True)
    p.add_argument("--speakers", type=int, required=True)
    p.set_defaults(fn=cmd_synth_corpus)

    p = sub.add_parser("build-tasks", help="ingest a manifest and build task sets")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--train-accents", type=int, default=None, dest="train_accents")
    p.add_argument("--dev-accents", type=int, default=None, dest="dev_accents")
    p.add_argument("--test-accents", type=int, default=None, dest="test_accents")
    p.set_defaults(fn=cmd_build_tasks)

    p = sub.add_parser("train", help="train joint / maml / fomaml")
    p.add_argument("--tasks", type=Path, required=True, help="task archive dir")
    p.add_argument("--mode", choices=trainer.MODES, required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--meta-batch", type=int, default=None, dest="meta_batch")
    p.add_argument("--inner-lr", type=float, default=None, dest="inner_lr")
    p.add_argument("--outer-lr", type=float, default=None, dest="outer_lr")
    p.add_argument("--noise", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("finetune", help="one-shot adaptation on a single test task")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--tasks", type=Path, required=True)
    p.add_argument("--accent", type=str, default=None)
    p.add_argument("--task-index", type=int, default=0, dest="task_index")
    p.add_argument("--beta", type=float, default=META_BETA_DEFAULT)
    p.add_argument("--noise", action="store_true")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("evaluate", help="meta-test a checkpoint on the test accents")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--tasks", type=Path, required=True)
    p.add_argument("--beta", type=float, default=META_BETA_DEFAULT)
    p.add_argument("--noise", action="store_true",
                   help="also evaluate with noise injected into test mixtures")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("sweep-beta", help="adaptation-rate sweep for a checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--tasks", type=Path, required=True)
    p.add_argument("--grid", type=str, default=None,
                   help="comma-separated rates (default: the 9-point grid)")
    p.add_argument("--noise", action="store_true")
    p.add_argument("--force", action="store_true",
                   help="allow sweeping a meta-trained checkpoint")
    p.set_defaults(fn=cmd_sweep_beta)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.seed is None and args.fn is not cmd_train:  # train reads its config's seed
            args.seed = 0
        if args.seed is not None:  # train's own check, for every command
            dsp.require_int("seed", args.seed, 0)
        if args.out.exists() and not args.out.is_dir():  # refused before any work
            raise EvalError(f"--out {args.out} exists and is not a directory")
        args.model_config, args.train_section = load_config(args.config)
        result = args.fn(args)
    except Exception as err:  # surfaced as a machine-readable object
        payload = {"error": {"type": err.__class__.__name__, "message": str(err)}}
        if not isinstance(err, (ValueError, OSError, trainer.TrainingDiverged)):
            payload["error"]["traceback"] = traceback.format_exc()
        print(json.dumps(payload), file=sys.stderr)
        return 1
    print(json.dumps(result, indent=1, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
