import csv
import dataclasses
import json
import os
import platform
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import metasep
from metasep import autodiff as ad
from metasep import dsp, evalcli, model, taskgen, trainer
from metasep.model import SeparatorConfig
from test_taskgen import MALFORMED_MANIFEST_LINES, write_malformed_manifest
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
    """Every task's "after" score in a meta_test report is finetune's
    query_si_snri_post, bit for bit, and the rows aggregate those scores."""
    report = evalcli.meta_test(params, MICRO, CKPT_EXTRA, test_sets, beta_ft=0.01)
    flat = []
    for ts in sorted(test_sets, key=lambda s: s.accent):
        scores = []
        for task in ts.tasks:
            alone = [taskgen.AccentTaskSet(accent=ts.accent, tasks=[task])]
            (row,) = evalcli.meta_test(params, MICRO, CKPT_EXTRA, alone,
                                       beta_ft=0.01).accent_rows("clean", "after")
            res = trainer.finetune_adapt(params, task, 0.01, MICRO)
            assert row["mean_si_snri_db"] == res["query_si_snri_post"]
            scores.append(res["query_si_snri_post"])
        (row,) = [r for r in report.accent_rows("clean", "after") if r["accent"] == ts.accent]
        assert row["mean_si_snri_db"] == float(np.mean(scores))
        flat += scores
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


@pytest.mark.parametrize("noisy", [False, True])
def test_scores_do_not_depend_on_query_workers(params, test_sets, noisy, monkeypatch):
    """Query Si-SNRi, meta_test rows and a 9-rate sweep's rows have the same
    floats scored on one thread and on two; the threads switch every
    microsecond so that the helper takes items even at this small separator."""
    extra = dict(CKPT_EXTRA, mode="joint")
    names, score = set(), model.evaluate_si_snri

    def named_score(*args):
        names.add(threading.current_thread().name)
        return score(*args)

    monkeypatch.setattr(model, "evaluate_si_snri", named_score)
    runs, previous = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2):
            monkeypatch.setattr(ad, "WORKERS", workers)
            runs.append((
                [trainer.SeparationTask(t, MICRO, noisy=noisy).query_si_snri(params)
                 for ts in test_sets for t in ts.tasks],
                evalcli.meta_test(params, MICRO, extra, test_sets, 0.01, noisy=noisy).rows,
                evalcli.beta_sweep(params, MICRO, extra, test_sets, noisy=noisy).rows))
    finally:
        sys.setswitchinterval(previous)
    assert len(runs[1][2]) == len(evalcli.BETA_GRID) == 9
    assert runs[0] == runs[1]
    assert names == {"MainThread", "metasep-term"}


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


@pytest.mark.parametrize("argv,config", [
    (["--meta-batch", "0"], {}),
    (["--epochs", "-2"], {}),
    ([], {"train": {"dev_eval_tasks": -1}}),
    ([], {"train": {"meta_batch": 1.5}}),
], ids=["meta-batch-0", "epochs-negative", "dev-eval-tasks-negative", "meta-batch-fraction"])
def test_cli_train_refuses_degenerate_counts(tmp_path, capsys, argv, config):
    """train exits 1 with a JSON error and no traceback, and trains nothing."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = evalcli.main(["--config", str(path), "--out", str(tmp_path / "run"), "train",
                         "--tasks", str(tmp_path / "tasks"), "--mode", "joint", *argv])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError" and "traceback" not in err
    assert "must be an integer of at least" in err["message"]
    assert not (tmp_path / "run" / "checkpoint.msep").exists()


@pytest.mark.parametrize("config,field,flags", [
    ({"model": {"kernel": 2}}, "kernel", []),
    ({"model": {"kernel": 3.0}}, "kernel", []),
    ({"model": {"enc_channels": 2.5}}, "enc_channels", []),
    ({"model": {"stacks": True}}, "stacks", []),
    ({"train": {"weight_decay": -5}}, "weight_decay", []),
    ({"train": {"outer_lr": "0.01"}}, "outer_lr", []),
    ({"train": {"outer_lr": 0.0}}, "outer_lr", []),
    ({"train": {"inner_lr": -1.0}}, "inner_lr", []),
    ({"train": {"noise": "no"}}, "noise", []),
    ({}, "seed", ["--seed", "-1"]),
    ({"train": {"seed": -1}}, "seed", []),
    ({"train": {"mode": "maml"}}, "mode", []),
], ids=["kernel-even", "kernel-float", "enc-channels-float", "stacks-bool",
        "weight-decay-negative", "outer-lr-string", "outer-lr-zero", "inner-lr-negative",
        "noise-string", "seed-negative", "config-seed-negative", "config-mode-differs"])
def test_cli_train_refuses_a_degenerate_config_value(tmp_path, capsys, config, field, flags):
    """A bad model or train value, in the config or a global flag, exits 1
    with a JSON error naming the field, before any task is read: no
    traceback and no checkpoint."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = evalcli.main(["--config", str(path), *flags, "--out", str(tmp_path / "run"),
                         "train", "--tasks", str(tmp_path / "tasks"), "--mode", "joint"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    err = json.loads(err)["error"]
    assert err["type"] == "ValueError" and "traceback" not in err
    assert err["message"].startswith(f"{field} must be ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("train,flags,seed", [
    ({"seed": 7}, [], 7),
    ({"seed": 7}, ["--seed", "3"], 3),
    ({"mode": "joint"}, [], 0),
    ({}, ["--seed", "5"], 5),
], ids=["config-seed", "flag-over-config", "config-mode-agrees", "flag-only"])
def test_cli_train_takes_the_config_seed_unless_the_flag_is_given(tmp_path, train, flags, seed):
    """train runs with --seed when it is given, else with the config's
    train.seed, else with 0, and a config mode equal to --mode is accepted;
    train_config.json records the seed and mode it ran with."""
    sets = make_task_sets(2, 1, seed0=300)
    split = taskgen.SplitSpec(train=["acc00"], dev=[], test=["acc01"])
    taskgen.write_task_archive(tmp_path / "tasks", sets, split, seed=0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": dataclasses.asdict(MICRO),
                                  "train": {"dev_eval_tasks": 0, **train}}))
    code = evalcli.main(["--config", str(config), *flags, "--out", str(tmp_path / "run"),
                         "train", "--tasks", str(tmp_path / "tasks"), "--mode", "joint",
                         "--epochs", "1", "--meta-batch", "1"])
    assert code == 0
    resolved = json.loads((tmp_path / "run" / "train_config.json").read_text())["train"]
    assert (resolved["seed"], resolved["mode"]) == (seed, "joint")


@pytest.mark.parametrize("argv,field", [
    (["--accents", "0"], "n_accents"),
    (["--accents", "-1"], "n_accents"),
    (["--speakers", "1"], "speakers_per_accent"),
], ids=["accents-0", "accents-negative", "speakers-1"])
def test_cli_synth_corpus_refuses_bad_input_before_writing(tmp_path, capsys, argv, field):
    flags = {"--accents": "2", "--speakers": "2"}
    flags.update(zip(argv[::2], argv[1::2]))
    code = evalcli.main(["--out", str(tmp_path / "corpus"), "synth-corpus",
                         *[x for kv in flags.items() for x in kv]])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    err = json.loads(err)["error"]
    assert err["type"] == "TaskGenError" and "traceback" not in err
    assert err["message"].startswith(f"{field} must be ")
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("command,config,key", [
    ("build-tasks", {"split_count": [1, 0, 3]}, "split_count"),
    ("build-tasks", {"modle": {"kernel": 3}}, "modle"),
    ("synth-corpus", {"utterance_secs": 20}, "utterance_secs"),
    ("train", {"splt": 1, "model": {}}, "splt"),
    ("build-tasks", {"split_counts": [2, 0, 1]}, "split_counts"),
    ("synth-corpus", {"utterance_seconds": 12.5}, "utterance_seconds"),
    ("synth-corpus", {"split_counts": [2, 0, 1]}, "split_counts"),
    ("train", {"model": {}, "split_counts": [2, 0, 1], "utterance_seconds": 12.5},
     "split_counts, utterance_seconds"),
])
def test_cli_refuses_config_keys_no_command_reads(tmp_path, capsys, command, config, key):
    """Any top-level key but model and train, the split_counts and
    utterance_seconds of older files included, exits 1 with a JSON error
    that names it, before anything is read or written."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = {"build-tasks": ["--manifest", str(tmp_path / "manifest.jsonl")],
            "synth-corpus": ["--accents", "2", "--speakers", "2"],
            "train": ["--tasks", str(tmp_path / "tasks"), "--mode", "joint"]}[command]
    code = evalcli.main(["--config", str(path), "--out", str(tmp_path / "out"), command, *argv])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    err = json.loads(err)["error"]
    assert err["type"] == "EvalError" and "traceback" not in err
    assert err["message"] == f"unknown top-level config keys: {key} (known: model, train)"
    assert not (tmp_path / "out").exists()


def test_one_config_file_serves_every_command(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"enc_channels": 4, "enc_kernel": 32, "enc_stride": 16,
                  "bottleneck_channels": 2, "conv_channels": 4, "kernel": 3,
                  "blocks_per_stack": 1, "stacks": 1},
        "train": {"dev_eval_tasks": 0},
    }))
    common = ["--seed", "3", "--config", str(config)]
    assert evalcli.main([*common, "--out", str(tmp_path / "corpus"), "synth-corpus",
                         "--accents", "3", "--speakers", "2"]) == 0
    assert evalcli.main([*common, "--out", str(tmp_path / "tasks"), "build-tasks",
                         "--manifest", str(tmp_path / "corpus" / "manifest.jsonl"),
                         "--train-accents", "2", "--test-accents", "1"]) == 0
    assert evalcli.main([*common, "--out", str(tmp_path / "run"), "train", "--tasks",
                         str(tmp_path / "tasks"), "--mode", "joint", "--epochs", "1"]) == 0
    capsys.readouterr()
    resolved = json.loads((tmp_path / "tasks" / "build_tasks_config.json").read_text())
    assert [len(resolved["split"][k]) for k in ("train", "dev", "test")] == [2, 0, 1]
    assert (tmp_path / "run" / "checkpoint.msep").is_file()


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
    (4, ["--train-accents", 4], "train=4, dev=0, test=0 of 4 accents"),
    (4, ["--dev-accents", 1, "--test-accents", 3], "train=0, dev=1, test=3 of 4 accents"),
])
def test_build_tasks_rejects_degenerate_split(tmp_path, capsys, n_accents, counts, resolved):
    """A split that places every accent but has no train or no test accent
    is refused by build-tasks; the split itself allows it."""
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


@pytest.mark.parametrize("counts,refusal", [
    (["--train-accents", -1, "--dev-accents", 2, "--test-accents", 3],
     "(-1, 2, 3) must be three non-negative integers (train, dev, test)"),
    (["--test-accents", -2], "(0, 0, -2) must be three non-negative integers (train, dev, test)"),
    (["--train-accents", 3], "(3, 0, 0) must place all 4 accents, but place 3"),
    (["--train-accents", 2, "--test-accents", 1],
     "(2, 0, 1) must place all 4 accents, but place 3"),
    (["--test-accents", 1], "(0, 0, 1) must place all 4 accents, but place 1"),
    (["--train-accents", 4, "--test-accents", 1],
     "(4, 0, 1) must place all 4 accents, but place 5"),
], ids=["train-negative", "test-negative", "train-3-of-4", "one-left-out", "test-only",
        "one-too-many"])
def test_build_tasks_refuses_bad_split_counts(tmp_path, capsys, counts, refusal):
    """Flag counts are refused by the split when they are not non-negative
    integers or do not place every accent; a flag not given counts 0."""
    assert evalcli.main(["--seed", "3", "--out", str(tmp_path / "corpus"), "synth-corpus",
                         "--accents", "4", "--speakers", "2"]) == 0
    capsys.readouterr()
    code = evalcli.main(["--seed", "3", "--out", str(tmp_path / "tasks"), "build-tasks",
                         "--manifest", str(tmp_path / "corpus" / "manifest.jsonl"),
                         *map(str, counts)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "TaskGenError" and "traceback" not in err
    assert err["message"] == f"split counts {refusal}"
    assert not (tmp_path / "tasks").exists()


def test_build_tasks_lists_an_unreadable_wav_as_an_issue(tmp_path, capsys):
    """A manifest entry whose file is not a WAV is dropped with its reason,
    and build-tasks still builds the archive from the rest."""
    assert evalcli.main(["--seed", "3", "--out", str(tmp_path / "corpus"), "synth-corpus",
                         "--accents", "2", "--speakers", "2"]) == 0
    manifest = tmp_path / "corpus" / "manifest.jsonl"
    capsys.readouterr()
    (tmp_path / "corpus" / "audio" / "bad.wav").write_bytes(b"not a RIFF file")
    with manifest.open("a") as f:
        f.write(json.dumps({"accent": "synth01", "speaker_id": "bad",
                            "path": "audio/bad.wav"}) + "\n")
    assert evalcli.main(["--seed", "3", "--out", str(tmp_path / "tasks"), "build-tasks",
                         "--manifest", str(manifest), "--train-accents", "1",
                         "--test-accents", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["n_tasks"] == 2
    resolved = json.loads((tmp_path / "tasks" / "build_tasks_config.json").read_text())
    assert resolved["issues"] == [f"synth01/bad: {tmp_path / 'corpus' / 'audio' / 'bad.wav'}: "
                                  f"not a WAV file (file does not start with RIFF id)"]
    assert (tmp_path / "tasks" / "tasks.json").is_file()


@pytest.mark.parametrize("kind", MALFORMED_MANIFEST_LINES)
def test_build_tasks_refuses_a_malformed_manifest_line(tmp_path, capsys, kind):
    manifest = tmp_path / "manifest.jsonl"
    write_malformed_manifest(manifest, kind)
    code = evalcli.main(["--out", str(tmp_path / "tasks"), "build-tasks",
                         "--manifest", str(manifest)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    err = json.loads(err)["error"]
    assert err["type"] == "TaskGenError" and "traceback" not in err
    assert err["message"] == f"{manifest} {MALFORMED_MANIFEST_LINES[kind][1]}"
    assert not (tmp_path / "tasks").exists()


@pytest.mark.parametrize("argv,refusal", [
    (["--task-index", "-1"], "task index -1 is out of range: accent acc00 has 2 tasks"),
    (["--task-index", "2"], "task index 2 is out of range: accent acc00 has 2 tasks"),
    (["--accent", ""], "no test accent '' in the archive"),
], ids=["-1", "2", "accent-empty"])
def test_finetune_rejects_task_index_out_of_range(params, test_sets, tmp_path, capsys, argv,
                                                  refusal):
    """An out-of-range task index, or an accent that names no test accent
    (the empty string included), is refused."""
    split = taskgen.SplitSpec(train=[], dev=[], test=[ts.accent for ts in test_sets])
    taskgen.write_task_archive(tmp_path / "tasks", test_sets, split, seed=0)
    model.save_checkpoint(tmp_path / "ck.msep", params, MICRO, CKPT_EXTRA)
    code = evalcli.main(["--out", str(tmp_path / "ft"), "finetune",
                         "--checkpoint", str(tmp_path / "ck.msep"),
                         "--tasks", str(tmp_path / "tasks"), *argv])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "EvalError" and err["message"] == refusal
    assert not (tmp_path / "ft").exists()


def _run_on_joint_checkpoint(params, test_sets, tmp_path, command, argv) -> int:
    """Runs `command` on an archive of test_sets (the first accent for
    training) and a joint checkpoint of params, with output into tmp_path/out."""
    accents = [ts.accent for ts in test_sets]
    split = taskgen.SplitSpec(train=accents[:1], dev=[], test=accents[1:])
    taskgen.write_task_archive(tmp_path / "tasks", test_sets, split, seed=0)
    model.save_checkpoint(tmp_path / "ck.msep", params, MICRO,
                          {"mode": "joint", "train_accents": accents[:1]})
    checkpoint = [] if command == "train" else ["--checkpoint", str(tmp_path / "ck.msep")]
    return evalcli.main(["--out", str(tmp_path / "out"), command, *checkpoint,
                         "--tasks", str(tmp_path / "tasks"), *argv])


@pytest.mark.parametrize("command,argv,refusal", [
    ("evaluate", ["--beta", "nan"], "beta_ft must be finite, got nan"),
    ("finetune", ["--beta", "inf"], "beta_ft must be finite, got inf"),
    ("sweep-beta", ["--grid", "nan,0.01"], "beta_ft must be finite, got nan"),
    ("train", ["--mode", "fomaml", "--inner-lr", "nan"], "inner_lr must be finite, got nan"),
    ("sweep-beta", ["--grid", ""], "grid '' is not a comma-separated list of rates"),
])
def test_cli_refuses_non_finite_rates(params, test_sets, tmp_path, capsys, work_counts,
                                      command, argv, refusal):
    assert _run_on_joint_checkpoint(params, test_sets, tmp_path, command, argv) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["message"] == refusal and "traceback" not in err
    assert work_counts["grad"] == 0 and not work_counts["mixtures"]
    assert not (tmp_path / "out").exists()


def _overflow_refusal(task: str, command: str) -> str:
    loss = " and support loss nan" if command == "finetune" else ""
    return f"task {task} scores nan dB Si-SNRi{loss} after one step at rate 1e+300"


def _refuses_overflow_quietly(api, command: str):
    """api() raises exactly ValueError naming the first task and the rate,
    without numpy's overflow warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as refused:
            api()
    assert type(refused.value) is ValueError
    assert str(refused.value) == _overflow_refusal("acc00/s200a+s200b", command)


def _cli_refuses_overflow(params, test_sets, tmp_path, capsys, command, argv):
    code = _run_on_joint_checkpoint(params, test_sets, tmp_path, command, argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == {
        "type": "ValueError", "message": _overflow_refusal("acc01/s202a+s202b", command)}
    assert not (tmp_path / "out").exists()


def test_overflowing_rate_aborts_meta_test_and_sweep(params, test_sets):
    """A finite rate whose step overflows scores NaN; that aborts the
    evaluation, naming the task and the rate, instead of entering a report
    or the sweep's choice of rate."""
    extra = dict(CKPT_EXTRA, mode="joint")
    _refuses_overflow_quietly(
        lambda: evalcli.meta_test(params, MICRO, extra, test_sets, 1e300), "evaluate")
    _refuses_overflow_quietly(
        lambda: evalcli.beta_sweep(params, MICRO, extra, test_sets, grid=(1e300, 0.01)),
        "sweep-beta")


@pytest.mark.parametrize("command,argv", [
    ("evaluate", ["--beta", "1e300"]),
    ("sweep-beta", ["--grid", "1e300,0.01"]),
])
def test_cli_refuses_an_overflowing_rate(params, test_sets, tmp_path, capsys, command, argv):
    _cli_refuses_overflow(params, test_sets, tmp_path, capsys, command, argv)


def test_overflowing_rate_aborts_finetune(params, test_sets):
    """finetune refuses a step whose scores overflow to NaN through the same
    check, adding the support loss to the message."""
    _refuses_overflow_quietly(
        lambda: trainer.finetune_adapt(params, test_sets[0].tasks[0], 1e300, MICRO,
                                       noisy=True), "finetune")


def test_cli_finetune_refuses_an_overflowing_rate(params, test_sets, tmp_path, capsys):
    _cli_refuses_overflow(params, test_sets, tmp_path, capsys, "finetune", ["--beta", "1e300"])


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


@pytest.mark.parametrize("order,preset,warns", [
    ("numpy, metasep", None, True),
    ("numpy, metasep", "OMP_NUM_THREADS=1", False),
    ("metasep, numpy", None, False),
], ids=["numpy-first", "numpy-first-with-setting", "metasep-first"])
def test_import_warns_when_the_blas_pin_cannot_take_effect(order, preset, warns):
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(metasep.__file__).resolve().parents[1])
    env.update(kv.split("=", 1) for kv in (preset or "").split())
    err = subprocess.run([sys.executable, "-c", f"import {order}"], env=env,
                         capture_output=True, text=True, timeout=60, check=True).stderr
    assert ("RuntimeWarning: numpy was imported before metasep" in err) == warns, err


_SWEEP_PROBE = """
import sys
sys.path.insert(0, {tests!r})
import metasep
from metasep import autodiff, evalcli, model, trainer
from test_trainer import MICRO, make_task, make_task_sets
autodiff.WORKERS = 2
params = model.init_params(MICRO, seed=1)
extra = {{"mode": "joint", "train_accents": ["train00"], "config_hash": "x"}}
evalcli.beta_sweep(params, MICRO, extra, make_task_sets(2, 1, seed0=200))
trainer.meta_gradient(params, [trainer.SeparationTask(make_task(7), MICRO)], 0.01, "fomaml")
print("concurrent.futures" in sys.modules)
"""


def test_sweep_and_meta_gradient_leave_concurrent_futures_unloaded():
    """The two-thread map needs no thread pool, so neither concurrent.futures
    nor the logging it loads is imported."""
    env = dict(os.environ, PYTHONPATH=str(Path(metasep.__file__).resolve().parents[1]))
    probe = _SWEEP_PROBE.format(tests=str(Path(__file__).resolve().parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.split()
    assert out == ["False"]


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


_ARENA_PROBE = """
import resource, threading, metasep, numpy as np
def churn():
    bufs = [np.ones(1 << 18) * k for k in range(8)]  # eight 2 MB arrays, then freed
    del bufs
worker = threading.Thread(target=churn)
worker.start()
worker.join()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
bufs = [np.ones(1 << 18) * k for k in range(8)]
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
@pytest.mark.parametrize("preset", [None, "MALLOC_ARENA_MAX=8",
                                    "GLIBC_TUNABLES=glibc.malloc.arena_max=8"],
                         ids=["default", "malloc-env", "glibc-tunables"])
def test_import_shares_one_arena_across_threads_unless_set(preset):
    """After importing metasep, the main thread reuses the pages that another
    thread's arrays freed instead of faulting in its own; an explicit arena
    setting wins."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(Path(metasep.__file__).resolve().parents[1])
    env.update(kv.split("=", 1) for kv in (preset or "").split())
    out = subprocess.run([sys.executable, "-c", _ARENA_PROBE], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout.split()
    faults = int(out[0])
    if preset is None:
        assert faults < 100, out
    else:
        assert faults > 1000, out
