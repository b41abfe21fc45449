import csv
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metasep
from metasep import autodiff as ad
from metasep import dsp, evalcli, model, taskgen, trainer
from metasep.model import SeparatorConfig
from test_trainer import MICRO, make_task_sets

CKPT_EXTRA = {"mode": "fomaml", "train_accents": ["train00", "train01"],
              "config_hash": "deadbeef"}


@pytest.fixture(scope="module")
def params():
    return model.init_params(MICRO, seed=1)


@pytest.fixture(scope="module")
def test_sets():
    return make_task_sets(3, 2, seed0=200)


# ---------------------------------------------------------------------------
# meta_test


def test_meta_test_report_shape(params, test_sets):
    report = evalcli.meta_test(params, MICRO, CKPT_EXTRA, test_sets, beta_ft=0.01)
    assert report.conditions() == [("clean", "before"), ("clean", "after")]
    for phase in ("before", "after"):
        rows = report.accent_rows("clean", phase)
        assert [r["accent"] for r in rows] == ["acc00", "acc01", "acc02"]
        assert all(r["n_tasks"] == 2 for r in rows)
        assert all(np.isfinite(r["mean_si_snri_db"]) for r in rows)


def test_meta_test_zero_beta_before_equals_after(params, test_sets):
    report = evalcli.meta_test(params, MICRO, CKPT_EXTRA, test_sets, beta_ft=0.0)
    before = report.accent_rows("clean", "before")
    after = report.accent_rows("clean", "after")
    for b, a in zip(before, after):
        assert b["mean_si_snri_db"] == a["mean_si_snri_db"]


def test_meta_test_rejects_accent_overlap(params, test_sets):
    extra = dict(CKPT_EXTRA, train_accents=["acc01", "other"])
    with pytest.raises(evalcli.EvalError, match="acc01"):
        evalcli.meta_test(params, MICRO, extra, test_sets, beta_ft=0.01)


def test_meta_test_noisy_condition_recorded(params, test_sets):
    report = evalcli.meta_test(params, MICRO, CKPT_EXTRA, test_sets, beta_ft=0.01,
                               noisy=True)
    assert report.conditions() == [("noisy", "before"), ("noisy", "after")]
    assert report.meta["noise_policy"]["snr_range_db"] == [10.0, 20.0]


def test_overall_mean_is_task_weighted(params):
    report = evalcli.EvalReport()
    report.add_condition("clean", "after", {"a": [1.0, 2.0, 3.0], "b": [10.0]})
    # task-weighted overall equals the plain mean over all tasks
    want = np.mean([1.0, 2.0, 3.0, 10.0])
    assert abs(report.overall_mean("clean", "after") - want) <= 1e-12
    assert report.accent_std("clean", "after") == pytest.approx(
        np.std([2.0, 10.0]))


def test_aggregation_identity_on_real_report(params, test_sets):
    report = evalcli.meta_test(params, MICRO, CKPT_EXTRA, test_sets, beta_ft=0.01)
    flat = []
    for ts in sorted(test_sets, key=lambda s: s.accent):
        for task in ts.tasks:
            res = trainer.finetune_adapt(params, task, 0.01, MICRO)
            flat.append(res.query_si_snri_post)
    assert abs(report.overall_mean("clean", "after") - np.mean(flat)) <= 1e-12


# ---------------------------------------------------------------------------
# beta sweep


def test_sweep_single_point_matches_meta_test(params, test_sets):
    extra = dict(CKPT_EXTRA, mode="joint")
    sweep = evalcli.beta_sweep(params, MICRO, extra, test_sets, grid=(1e-3,))
    report = evalcli.meta_test(params, MICRO, extra, test_sets, beta_ft=1e-3)
    assert sweep.rows[0]["mean_si_snri_db"] == pytest.approx(
        report.overall_mean("clean", "after"), abs=1e-12)


def test_sweep_refuses_meta_checkpoints_without_force(params, test_sets):
    with pytest.raises(evalcli.EvalError, match="force"):
        evalcli.beta_sweep(params, MICRO, CKPT_EXTRA, test_sets, grid=(1e-3, 1e-2))
    # forced sweep works
    sweep = evalcli.beta_sweep(params, MICRO, CKPT_EXTRA, test_sets,
                               grid=(1e-3, 1e-2), force=True)
    assert len(sweep.rows) == 2
    # default pinned rate needs no force
    pinned = evalcli.beta_sweep(params, MICRO, CKPT_EXTRA, test_sets, grid=(0.01,))
    assert len(pinned.rows) == 1


def test_sweep_best_row(params, test_sets):
    extra = dict(CKPT_EXTRA, mode="joint")
    sweep = evalcli.beta_sweep(params, MICRO, extra, test_sets, grid=(1e-4, 1e-3))
    best = sweep.best("clean")
    assert best["mean_si_snri_db"] == max(r["mean_si_snri_db"] for r in sweep.rows)


@pytest.mark.parametrize("noisy", [False, True])
def test_full_grid_sweep_equals_meta_test_at_every_rate(params, test_sets, noisy):
    extra = dict(CKPT_EXTRA, mode="joint")
    sweep = evalcli.beta_sweep(params, MICRO, extra, test_sets, noisy=noisy)
    condition = "noisy" if noisy else "clean"
    assert [r["beta_ft"] for r in sweep.rows] == list(evalcli.BETA_GRID)
    for row in sweep.rows:
        report = evalcli.meta_test(params, MICRO, extra, test_sets, row["beta_ft"],
                                   noisy=noisy)
        assert row["mean_si_snri_db"] == report.overall_mean(condition, "after")


@pytest.fixture
def work_counts(monkeypatch):
    """Counts of autodiff.grad calls and of mixture builds per (task, index)."""
    counts = {"grad": 0, "mixtures": {}}
    grad, mixture = ad.grad, taskgen.MetaTask.mixture

    def counting_grad(*args, **kwargs):
        counts["grad"] += 1
        return grad(*args, **kwargs)

    def counting_mixture(task, index, noisy=False):
        key = (id(task), index)
        counts["mixtures"][key] = counts["mixtures"].get(key, 0) + 1
        return mixture(task, index, noisy)

    monkeypatch.setattr(ad, "grad", counting_grad)
    monkeypatch.setattr(taskgen.MetaTask, "mixture", counting_mixture)
    return counts


def test_sweep_takes_one_support_gradient_per_task(params, test_sets, work_counts):
    extra = dict(CKPT_EXTRA, mode="joint")
    evalcli.beta_sweep(params, MICRO, extra, test_sets)
    tasks = [t for ts in test_sets for t in ts.tasks]
    rates = len(evalcli.BETA_GRID)
    assert work_counts["grad"] == len(tasks)
    for task in tasks:
        assert work_counts["mixtures"][(id(task), task.support_index)] == 1
        for q in task.query_indices:  # "before" once, then once per rate
            assert work_counts["mixtures"][(id(task), q)] == 1 + rates
    assert sum(work_counts["mixtures"].values()) == len(tasks) * (5 + 4 * rates)


@pytest.mark.parametrize("bad", ["overlap", "empty"])
def test_sweep_rejects_test_sets_before_any_work(params, test_sets, work_counts, bad):
    if bad == "overlap":
        extra, sets = dict(CKPT_EXTRA, mode="joint", train_accents=["acc02"]), test_sets
    else:
        extra, sets = dict(CKPT_EXTRA, mode="joint"), []
    with pytest.raises(evalcli.EvalError):
        evalcli.beta_sweep(params, MICRO, extra, sets)
    assert work_counts["grad"] == 0 and not work_counts["mixtures"]


def test_meta_test_rejects_prepared_work_of_other_inputs(params, test_sets):
    tasks = [t for ts in sorted(test_sets, key=lambda s: s.accent) for t in ts.tasks]
    prepared = [trainer.prepare_adapt(params, t, MICRO) for t in tasks]
    report = evalcli.meta_test(params, MICRO, CKPT_EXTRA, test_sets, 1e-3, prepared=prepared)
    assert report.rows == evalcli.meta_test(params, MICRO, CKPT_EXTRA, test_sets, 1e-3).rows
    other = params.replace(params.values.copy())
    for theta, noisy, given in [(params, True, prepared), (other, False, prepared),
                                (params, False, prepared[1:])]:
        with pytest.raises(evalcli.EvalError, match="prepared"):
            evalcli.meta_test(theta, MICRO, CKPT_EXTRA, test_sets, 1e-3, noisy=noisy,
                              prepared=given)


# ---------------------------------------------------------------------------
# report serialization


def test_empty_report_csv_is_header_only():
    text = evalcli.report_to_csv_text(evalcli.EvalReport())
    assert text == "accent,condition,phase,mean_si_snri_db,n_tasks\n"


def test_report_csv_roundtrip_exact(params, test_sets, tmp_path):
    report = evalcli.meta_test(params, MICRO, CKPT_EXTRA, test_sets, beta_ft=0.01)
    paths = evalcli.emit_report(report, tmp_path)
    with open(paths["csv"], newline="") as f:
        by_key = {(r["accent"], r["condition"], r["phase"]): r for r in csv.DictReader(f)}
    for row in report.rows:
        got = by_key[(row["accent"], row["condition"], row["phase"])]
        assert float(got["mean_si_snri_db"]) == row["mean_si_snri_db"]  # repr() roundtrip
        assert int(got["n_tasks"]) == row["n_tasks"]
    overall = by_key[("OVERALL", "clean", "after")]
    assert float(overall["mean_si_snri_db"]) == report.overall_mean("clean", "after")

    mirror = json.loads(paths["json"].read_text())
    assert mirror["summary"]["clean/after"]["mean_si_snri_db"] == \
        report.overall_mean("clean", "after")


def test_report_rows_match_accent_count(params):
    sets = make_task_sets(19, 1, seed0=300)
    report = evalcli.meta_test(params, MICRO, CKPT_EXTRA, sets, beta_ft=0.01)
    assert len(report.accent_rows("clean", "after")) == 19


def test_evaluate_is_side_effect_free_on_checkpoint(params, test_sets, tmp_path):
    path = tmp_path / "ck.msep"
    model.save_checkpoint(path, params, MICRO, CKPT_EXTRA)
    before = path.read_bytes()
    loaded, cfg, extra = model.load_checkpoint(path)
    evalcli.meta_test(loaded, cfg, extra, test_sets, beta_ft=0.01)
    assert path.read_bytes() == before


# ---------------------------------------------------------------------------
# CLI end to end (micro sizes so the whole flow stays fast)


def test_cli_full_pipeline(tmp_path, capsys):
    def run_cli(*argv):
        code = evalcli.main([str(a) for a in argv])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return json.loads(captured.out)

    corpus_dir = tmp_path / "corpus"
    tasks_dir = tmp_path / "tasks"
    run_dir = tmp_path / "run"

    run_cli("--seed", 3, "--out", corpus_dir, "synth-corpus",
            "--accents", 4, "--speakers", 2)
    manifest = corpus_dir / "manifest.jsonl"
    assert manifest.exists()
    assert (corpus_dir / "synth_corpus_config.json").exists()

    out = run_cli("--seed", 3, "--out", tasks_dir, "build-tasks",
                  "--manifest", manifest, "--train-accents", 2,
                  "--dev-accents", 1, "--test-accents", 1)
    assert out["n_tasks"] == 4

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"enc_channels": 4, "enc_kernel": 32, "enc_stride": 16,
                  "bottleneck_channels": 2, "conv_channels": 4, "kernel": 3,
                  "blocks_per_stack": 1, "stacks": 1},
        "train": {"dev_eval_tasks": 1},
    }))
    out = run_cli("--seed", 3, "--config", config, "--out", run_dir, "train",
                  "--tasks", tasks_dir, "--mode", "joint", "--epochs", 1,
                  "--meta-batch", 2)
    assert not out["aborted"]
    ckpt = run_dir / "checkpoint.msep"
    assert ckpt.exists()
    assert (run_dir / "train_config.json").exists()

    eval_dir = tmp_path / "eval"
    out = run_cli("--seed", 3, "--out", eval_dir, "evaluate",
                  "--checkpoint", ckpt, "--tasks", tasks_dir, "--beta", 1e-3)
    assert (eval_dir / "report.csv").exists()
    assert "clean/after" in out["summary"]

    out = run_cli("--seed", 3, "--out", tmp_path / "ft", "finetune",
                  "--checkpoint", ckpt, "--tasks", tasks_dir, "--beta", 1e-3)
    assert {"query_si_snri_pre", "query_si_snri_post"} <= set(out)

    sweep_dir = tmp_path / "sweep"
    out = run_cli("--seed", 3, "--out", sweep_dir, "sweep-beta",
                  "--checkpoint", ckpt, "--tasks", tasks_dir,
                  "--grid", "1e-3,1e-2")
    assert (sweep_dir / "sweep.csv").exists()
    assert out["best"]["beta_ft"] in (1e-3, 1e-2)


def test_cli_error_is_machine_readable(tmp_path, capsys):
    code = evalcli.main(["--out", str(tmp_path), "evaluate", "--checkpoint",
                         str(tmp_path / "missing.msep"), "--tasks", str(tmp_path)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert "error" in err and err["error"]["type"]


@pytest.mark.parametrize("section,key,value", [
    ("train", "adam_beta1", 0.8),
    ("model", "norm", "gln"),
    ("model", "num_sources", 2),
])
def test_train_config_rejects_unknown_keys(tmp_path, capsys, section, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {key: value}}))
    code = evalcli.main(["--config", str(config), "--out", str(tmp_path / "run"), "train",
                         "--tasks", str(tmp_path / "tasks"), "--mode", "joint"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "EvalError" and "traceback" not in err
    assert key in err["message"] and repr(section) in err["message"]


@pytest.mark.parametrize("value", [5, [1], 0, None], ids=["5", "list", "0", "null"])
@pytest.mark.parametrize("section", ["model", "train", None])
def test_train_config_section_must_be_an_object(tmp_path, capsys, section, value):
    """A "model" or "train" value, or the whole file (section None), that is
    not a JSON object is refused by name."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(value if section is None else {section: value}))
    code = evalcli.main(["--config", str(config), "--out", str(tmp_path / "run"), "train",
                         "--tasks", str(tmp_path / "tasks"), "--mode", "joint"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "EvalError" and "traceback" not in err
    where = str(config) if section is None else repr(section)
    assert where in err["message"] and "not an object" in err["message"]


@pytest.mark.parametrize("n_accents,counts,resolved", [
    (2, [], "train=0, dev=1, test=1 of 2 accents"),
    (4, ["--train-accents", 3], "train=3, dev=0, test=0 of 4 accents"),
    (4, ["--train-accents", 2, "--test-accents", 1],
     "train=2, dev=0, test=1 leave out 1 of 4 accents: synth03"),
    (4, ["--test-accents", 1], "train=0, dev=0, test=1 of 4 accents"),
])
def test_build_tasks_rejects_degenerate_split(tmp_path, capsys, n_accents, counts, resolved):
    assert evalcli.main(["--seed", "3", "--out", str(tmp_path / "corpus"), "synth-corpus",
                         "--accents", str(n_accents), "--speakers", "2"]) == 0
    capsys.readouterr()
    code = evalcli.main(["--seed", "3", "--out", str(tmp_path / "tasks"), "build-tasks",
                         "--manifest", str(tmp_path / "corpus" / "manifest.jsonl"),
                         *map(str, counts)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "EvalError" and resolved in err["message"]
    assert not (tmp_path / "tasks" / "tasks.json").exists()


@pytest.mark.parametrize("index", [-1, 2])
def test_finetune_rejects_task_index_out_of_range(params, test_sets, tmp_path, capsys, index):
    split = taskgen.SplitSpec(train=[], dev=[], test=[ts.accent for ts in test_sets])
    taskgen.write_task_archive(tmp_path / "tasks", test_sets, split, seed=0)
    model.save_checkpoint(tmp_path / "ck.msep", params, MICRO, CKPT_EXTRA)
    code = evalcli.main(["--out", str(tmp_path / "ft"), "finetune",
                         "--checkpoint", str(tmp_path / "ck.msep"),
                         "--tasks", str(tmp_path / "tasks"), "--task-index", str(index)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "EvalError"
    assert f"task index {index} is out of range" in err["message"]
    assert f"{test_sets[0].accent} has 2 tasks" in err["message"]
    assert not (tmp_path / "ft").exists()


@pytest.mark.parametrize("command,argv,refusal", [
    ("evaluate", ["--beta", "nan"], "beta_ft must be finite, got nan"),
    ("finetune", ["--beta", "inf"], "beta_ft must be finite, got inf"),
    ("sweep-beta", ["--grid", "nan,0.01"], "beta_ft must be finite, got nan"),
    ("train", ["--mode", "fomaml", "--inner-lr", "nan"], "inner_lr must be finite, got nan"),
])
def test_cli_refuses_non_finite_rates(params, test_sets, tmp_path, capsys, work_counts,
                                      command, argv, refusal):
    accents = [ts.accent for ts in test_sets]
    split = taskgen.SplitSpec(train=accents[:1], dev=[], test=accents[1:])
    taskgen.write_task_archive(tmp_path / "tasks", test_sets, split, seed=0)
    model.save_checkpoint(tmp_path / "ck.msep", params, MICRO,
                          {"mode": "joint", "train_accents": accents[:1]})
    checkpoint = [] if command == "train" else ["--checkpoint", str(tmp_path / "ck.msep")]
    code = evalcli.main(["--out", str(tmp_path / "out"), command, *checkpoint,
                         "--tasks", str(tmp_path / "tasks"), *argv])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["message"] == refusal and "traceback" not in err
    assert work_counts["grad"] == 0 and not work_counts["mixtures"]
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# artifact writes and package import


def _artifact_writers(params, test_sets):
    """name -> (file whose write is made to fail, function writing into a dir)."""
    report = evalcli.meta_test(params, MICRO, CKPT_EXTRA, test_sets, beta_ft=0.01)
    sweep = evalcli.SweepResult()
    sweep.add("clean", 1e-3, -1.5)
    result = trainer.TrainResult(params=params, log=[{"epoch": 0, "train_loss": 1.0}])
    split = taskgen.SplitSpec(train=[ts.accent for ts in test_sets], dev=[], test=[])
    return {
        "checkpoint": ("ck.msep", lambda d: model.save_checkpoint(
            d / "ck.msep", params, MICRO, CKPT_EXTRA)),
        "report": ("report.csv", lambda d: evalcli.emit_report(report, d)),
        "sweep": ("sweep.csv", lambda d: evalcli.emit_sweep(sweep, d)),
        "resolved config": ("evaluate_config.json", lambda d: evalcli._write_resolved_config(
            d, "evaluate", {"command": "evaluate"})),
        "train log": ("train_log.jsonl", lambda d: trainer._write_outputs(
            result, trainer.TrainConfig(mode="joint"), MICRO, test_sets, d)),
        "task archive": ("tasks.json", lambda d: taskgen.write_task_archive(
            d, test_sets, split, seed=0)),
        "archive segment": ("000000.f64", lambda d: dsp.write_raw(
            d / "000000.f64", dsp.Waveform(test_sets[0].tasks[0].segments_a[0]))),
    }


def _snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("writer", ["checkpoint", "report", "sweep", "resolved config",
                                    "train log", "task archive", "archive segment"])
def test_failed_artifact_write_keeps_previous_file(params, test_sets, tmp_path,
                                                   monkeypatch, writer):
    target, write = _artifact_writers(params, test_sets)[writer]
    write(tmp_path)
    previous = _snapshot(tmp_path)
    assert target in previous

    class HalfWrite:
        """Writes half of the first chunk it is given, then fails."""

        def __init__(self, f):
            self.f = f

        def write(self, data):
            self.f.write(data[:len(data) // 2])
            self.f.flush()
            raise OSError("disk full")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

    def failing_open(file, mode="r", *args, **kwargs):
        f = open(file, mode, *args, **kwargs)
        return HalfWrite(f) if Path(file).name.startswith(f".{target}.") else f

    monkeypatch.setattr(dsp, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(tmp_path)
    assert _snapshot(tmp_path) == previous  # byte-identical, no temporary left


@pytest.mark.parametrize("preset", [None, "2"])
def test_import_pins_blas_threads_unless_set(preset):
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(metasep.__file__).resolve().parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run(
        [sys.executable, "-c", "import os, metasep; print(os.environ['OPENBLAS_NUM_THREADS'], "
         "os.environ['OMP_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, timeout=60, check=True).stdout.split()
    assert out == [preset or "1", "1", "1"]


_REFAULT_PROBE = """
import resource, metasep, numpy as np
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    bufs = [np.ones(1 << 18) * k for k in range(8)]  # eight 2 MB arrays, then freed
    del bufs
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
@pytest.mark.parametrize("preset", [None, "MALLOC_TRIM_THRESHOLD_=0 MALLOC_MMAP_THRESHOLD_=65536",
                                    "GLIBC_TUNABLES=glibc.malloc.trim_threshold=0:"
                                    "glibc.malloc.mmap_threshold=65536"],
                         ids=["default", "malloc-env", "glibc-tunables"])
def test_import_keeps_freed_pages_unless_set(preset):
    """After importing metasep, freeing and reallocating arrays of a few MB
    faults no page in again; an explicit allocator setting wins."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(Path(metasep.__file__).resolve().parents[1])
    env.update(kv.split("=", 1) for kv in (preset or "").split())
    out = subprocess.run([sys.executable, "-c", _REFAULT_PROBE], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout.split()
    refaults = max(map(int, out[1:]))  # the first round faults its pages in once
    if preset is None:
        assert refaults < 100, out
    else:
        assert refaults > 1000, out
