import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
# the CLI input contract: a command exits 0 with one JSON object on stdout, or
# exits 1 with empty stdout and one JSON error on stderr that names the input
# it refuses, carries no traceback and leaves nothing written under --out


def _contract(argv, out: Path) -> tuple[int, dict]:
    """Runs main on argv, whose --out is out, checks the contract and returns
    the exit code with the result or the error object."""
    before = out.read_bytes() if out.is_file() else None
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = evalcli.main([str(a) for a in argv])
    stdout, stderr = stdout.getvalue(), stderr.getvalue()
    if code == 0:
        assert stderr == "" and stdout.startswith("{"), stderr
        return 0, json.loads(stdout)
    error = json.loads(stderr)
    assert code == 1 and stdout == "" and list(error) == ["error"], (code, stdout)
    assert sorted(error["error"]) == ["message", "type"], stderr  # no traceback
    assert out.read_bytes() == before if before is not None else not out.exists()
    return 1, error["error"]


CLI_CONFIG = {"model": dataclasses.asdict(MICRO), "train": {"dev_eval_tasks": 1, "epochs": 1}}
ARCHIVES = {"nope": "nope", "format": '{"format": "metasep-tasks-v1"}', "list": "[]"}


@pytest.fixture(scope="module")
def cli(tmp_path_factory) -> dict:
    """What a run names with "@": 4 x 2 and 2 x 2 synthetic corpora, a 2/1/1
    archive and a joint MICRO checkpoint trained with dev scoring, all written
    through main (their outputs under "outputs"), and broken inputs: a missing
    path, an empty directory, a manifest with a malformed line, four malformed
    archives and an existing file for --out."""
    root = tmp_path_factory.mktemp("cli")
    cli = {name: root / path for name, path in [
        ("root", ""), ("fresh", "out"), ("config", "config.json"), ("missing", "missing"),
        ("manifest", "corpus/manifest.jsonl"), ("manifest-2", "corpus-2/manifest.jsonl"),
        ("tasks", "tasks"), ("index", "tasks/tasks.json"), ("checkpoint", "run/checkpoint.msep"),
        ("empty", "empty"), ("bad-manifest", "bad.jsonl"), ("out-file", "out-file"),
        *[(name, name) for name in [*ARCHIVES, "no-seg-files-a"]]]}
    cli["config"].write_text(json.dumps(CLI_CONFIG))
    cli["outputs"] = {}
    for out, argv in [("corpus", ["synth-corpus", "--accents", 4, "--speakers", 2]),
                      ("corpus-2", ["synth-corpus", "--accents", 2, "--speakers", 2]),
                      ("tasks", ["build-tasks", "--manifest", cli["manifest"], "--train-accents",
                                 2, "--dev-accents", 1, "--test-accents", 1]),
                      ("run", ["--config", cli["config"], "train", "--tasks", cli["tasks"],
                               "--mode", "joint", "--meta-batch", 2])]:
        code, result = _contract(["--seed", 3, "--out", root / out, *argv], root / out)
        assert code == 0, result
        cli["outputs"][out] = result
    cli["empty"].mkdir()
    cli["out-file"].write_text("kept as it is")
    write_malformed_manifest(cli["bad-manifest"], "list")
    lacking = json.loads(cli["index"].read_text())
    del lacking["accents"][0]["tasks"][0]["seg_files_a"]
    for name, text in {**ARCHIVES, "no-seg-files-a": json.dumps(lacking)}.items():
        cli[name].mkdir()
        (cli[name] / "tasks.json").write_text(text)
    return cli


BAD = ("0", "-1", "1.5", "nan", "inf", "1e300", "", "text")
RATE = (None, "1e-3", *BAD)
BROKEN = (None, "@missing", "@empty")  # a required path left out, missing, or a directory
# flag -> (its value unless drawn, None leaving it out; the values drawn; the
# words besides the flag and the path that a refusal of a drawn value may name)
GLOBAL_FLAGS = {"--seed": (None, ("3", *BAD), ("seed",)), "--out": ("@fresh", ("@out-file",), ())}
ARCHIVE = {"--noise": (None, (True,), ()),
           "--tasks": ("@tasks", (*BROKEN, "@checkpoint", "@no-seg-files-a",
                                  *[f"@{name}" for name in ARCHIVES]), ())}
CHECKPOINT = {"--checkpoint": ("@checkpoint", (*BROKEN, "@index"), ()), **ARCHIVE}
BETA = {"--beta": (None, RATE, ("beta_ft", "rate"))}
FLAGS = {
    "synth-corpus": {"--accents": ("2", ("3", "4", *BAD), ("accents",)),
                     "--speakers": ("2", ("3", *BAD), ("speakers",))},
    "build-tasks": {"--manifest": ("@manifest", (*BROKEN, "@checkpoint", "@bad-manifest"), ()),
                    **{f"--{s}-accents": (None, ("1", "2", "4", *BAD), ("split",))
                       for s in ("train", "dev", "test")}},
    "train": {**ARCHIVE, "--mode": ("joint", (None, "fomaml", "maml", "text"), ()),
              "--epochs": ("1", (None, *BAD), ("epochs",)),
              "--meta-batch": (None, ("2", *BAD), ("meta_batch",)),
              "--inner-lr": (None, RATE, ("inner_lr",)),
              "--outer-lr": (None, RATE, ("outer_lr",))},
    "evaluate": {**CHECKPOINT, **BETA},
    "finetune": {**CHECKPOINT, **BETA, "--task-index": (None, ("1", *BAD), ("task index",)),
                 "--accent": (None, ("synth00", "synth01", "synth02", "synth03", "", "text"),
                              ("accent",))},
    "sweep-beta": {**CHECKPOINT, "--force": (None, (True,), ()),
                   "--grid": (None, ("1e-3,0.01", "0.01,,1", *BAD), ("grid", "beta_ft", "rate"))},
}
NO_CONFIG = (None, ())
JSON_VALUES = (0, 1, 2, 3, 5, 8, -1, 1.5, 1e300, math.nan, math.inf, True, None, "", "text",
               "joint", "sgd", [1])
DRAWN_KEYS = {"model": [f.name for f in dataclasses.fields(SeparatorConfig)] + ["norm"],
               "train": [f.name for f in dataclasses.fields(trainer.TrainConfig)] + ["adam_beta1"],
               None: ["model", "train", "split_counts", "utterance_seconds"]}


def _config(content, *words) -> tuple[bytes, tuple]:
    """A config file of content's JSON, whose refusal may name one of words:
    by default its keys at both levels, or "@config" (the file's path) when
    it is no object."""
    if not words:
        words = (*content, *(k for v in content.values() if isinstance(v, dict) for k in v)) \
            if isinstance(content, dict) else ("@config",)
    return json.dumps(content).encode(), words


@st.composite
def _config_files(draw) -> tuple:
    """A directory ("@empty"), a file that is no JSON object, or the valid
    config with one JSON value set at a key of model, train or the top level."""
    if draw(st.booleans()):
        return draw(st.sampled_from(["@empty", b"5", b"[1]", b"null", b'"text"', b"",
                                     b"not json", b"\xff\xfe{}", b'{"model": '])), ("@config",)
    section = draw(st.sampled_from(list(DRAWN_KEYS)))
    key, value = draw(st.sampled_from(DRAWN_KEYS[section])), draw(st.sampled_from(JSON_VALUES))
    config = copy.deepcopy(CLI_CONFIG)
    (config if section is None else config[section])[key] = value
    return _config(config, key)


@st.composite
def _cli_runs(draw) -> tuple:
    """(command, config file, {flag: value} for up to two flags drawn from
    FLAGS); one run in four has a drawn config file."""
    command = draw(st.sampled_from(list(FLAGS)))
    flags = {**GLOBAL_FLAGS, **FLAGS[command]}
    config = draw(_config_files() if draw(st.integers(0, 3)) == 0
                  else st.sampled_from([NO_CONFIG, _config(CLI_CONFIG)]))
    drawn = draw(st.lists(st.sampled_from(list(flags)), max_size=2, unique=True))
    return command, config, {flag: draw(st.sampled_from(flags[flag][1])) for flag in drawn}


def _check_run(cli: dict, run) -> tuple[int, dict]:
    """Runs (command, config file, {flag: value}) under the contract, other
    flags at their FLAGS value. A refusal names a given flag, one of its words
    or its path, or one of the config's words. A run given a path that FLAGS
    draws, or a config file that is not a JSON object, is refused."""
    command, (content, words), given = run
    config = cli["empty"] if content == "@empty" else cli["root"] / "config-under-test.json"
    if content is None and command == "train":  # train would build the default separator
        content = json.dumps(CLI_CONFIG).encode()
    if isinstance(content, bytes):
        config.write_bytes(content)
    names = [str(config) if word == "@config" else word for word in words]
    refuse, head, tail = "@config" in words, [], []
    for flag, (default, drawn, flag_words) in {**GLOBAL_FLAGS, **FLAGS[command]}.items():
        value = given.get(flag, default)
        if isinstance(value, str) and value.startswith("@"):
            refuse = refuse or value in drawn  # every path FLAGS draws is a broken one
            value = cli[value[1:]]
        if flag in given:
            names += [flag, *flag_words, *([str(value)] if isinstance(value, Path) else [])]
        if value is not None:
            argv = head if flag in GLOBAL_FLAGS else tail
            argv += [flag] if value is True else [flag, value]
    config_flag = [] if content is None else ["--config", config]
    try:
        code, obj = _contract([*config_flag, *head, command, *tail],
                              cli[given.get("--out", "@fresh")[1:]])
    finally:
        shutil.rmtree(cli["fresh"], ignore_errors=True)
    assert code == 1 or not refuse, obj
    assert code == 0 or any(name in obj["message"] for name in names), (names, obj)
    return code, obj


@settings(max_examples=150)
@example(run=("train", NO_CONFIG, {"--tasks": "@nope"}))
@example(run=("train", NO_CONFIG, {"--tasks": "@format"}))
@example(run=("train", NO_CONFIG, {"--tasks": "@list"}))
@example(run=("train", NO_CONFIG, {"--tasks": "@no-seg-files-a"}))
@example(run=("build-tasks", NO_CONFIG, {"--manifest": "@empty"}))
@example(run=("evaluate", NO_CONFIG, {"--checkpoint": "@empty"}))
@example(run=("build-tasks", NO_CONFIG, {"--manifest": "@checkpoint"}))
@example(run=("synth-corpus", NO_CONFIG, {"--out": "@out-file"}))
@example(run=("train", NO_CONFIG, {"--epochs": "1.5"}))
@example(run=("evaluate", NO_CONFIG, {"--checkpoint": None}))
@given(run=_cli_runs())
def test_every_cli_input_is_run_or_refused_by_name(cli, run):
    _check_run(cli, run)


@settings(max_examples=30)
@example(config=_config({"model": {"bogus": 1}}, "bogus"))
@example(config=_config({"model": {"stacks": 0}}, "stacks"))
@example(config=_config({"train": {"inner_lr": -1}}, "inner_lr"))
@example(config=_config({"train": {"outer_optimizer": 5}}, "outer_optimizer"))
@example(config=_config({"model": {"enc_kernel": 3}}, "enc_kernel"))
@example(config=(b"not json", ("@config",)))
@example(config=(b"[" * 10**5 + b"]" * 10**5, ("@config",)))
@example(config=("@empty", ("@config",)))
@given(config=_config_files().filter(lambda c: c[0] == "@empty" or b'"mode"' not in c[0]))
def test_every_command_refuses_a_config_that_train_refuses(cli, config):
    """Every command refuses the file with train's message. No mode is drawn:
    train alone also compares the config's mode with --mode."""
    code, error = _check_run(cli, ("train", config, {}))
    for command in FLAGS if code == 1 else ():
        assert _check_run(cli, (command, config, {})) == (1, error), command


def test_cli_full_pipeline(cli, tmp_path):
    """The fixture's pipeline built 4 tasks, one per accent, and trained on its
    2 train accents scoring its dev accent; evaluate, finetune and sweep-beta
    score the test accent with the checkpoint."""
    assert cli["outputs"]["tasks"]["n_tasks"] == 4 and not cli["outputs"]["run"]["aborted"]
    (log,) = map(json.loads, (cli["root"] / "run" / "train_log.jsonl").read_text().splitlines())
    assert math.isfinite(log["dev_si_snri"])
    assert (cli["root"] / "run" / "train_config.json").is_file()
    scored = ["--checkpoint", cli["checkpoint"], "--tasks", cli["tasks"]]
    out = {command: _contract(["--out", tmp_path / command, command, *scored, *argv],
                              tmp_path / command)
           for command, argv in [("evaluate", ["--beta", 1e-3]), ("finetune", ["--beta", 1e-3]),
                                 ("sweep-beta", ["--grid", "1e-3,1e-2"])]}
    assert "clean/after" in out["evaluate"][1]["summary"]
    assert {"query_si_snri_pre", "query_si_snri_post"} <= set(out["finetune"][1])
    assert out["sweep-beta"][1]["best"]["beta_ft"] in (1e-3, 1e-2)
    assert all((tmp_path / c / f).is_file() for c, f in [("evaluate", "report.csv"),
                                                         ("sweep-beta", "sweep.csv")])


def _refused(cli, command, config=NO_CONFIG, argv=()) -> dict:
    """The error object of a run, with config the content of its config file
    and argv its flags and their values, that is refused."""
    values = [v if isinstance(v, Path) else str(v) for v in argv[1::2]]
    config = config if config is NO_CONFIG else _config(config)
    code, error = _check_run(cli, (command, config, dict(zip(argv[::2], values))))
    assert code == 1, error
    return error


def test_cli_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exited:
        evalcli.main(["train", "--help"])
    assert exited.value.code == 0 and "usage: metasep train" in capsys.readouterr().out


# Each case below is one run of the property's contract, with its type and the
# part of its message that no API test pins.


def test_cli_error_is_machine_readable(cli):
    error = _refused(cli, "evaluate", argv=["--checkpoint", "@missing"])
    assert error["type"] == "FileNotFoundError"


@pytest.mark.parametrize("section,key,value", [
    ("train", "adam_beta1", 0.8),
    ("model", "norm", "gln"),
    ("model", "num_sources", 2),
])
def test_train_config_rejects_unknown_keys(cli, section, key, value):
    assert _refused(cli, "train", {section: {key: value}}) == {
        "type": "EvalError", "message": f"unknown {section!r} config keys: {key}"}


@pytest.mark.parametrize("argv,config", [
    (["--meta-batch", "0"], {}),
    (["--epochs", "-2"], {}),
    ([], {"train": {"dev_eval_tasks": -1}}),
    ([], {"train": {"meta_batch": 1.5}}),
], ids=["meta-batch-0", "epochs-negative", "dev-eval-tasks-negative", "meta-batch-fraction"])
def test_cli_train_refuses_degenerate_counts(cli, argv, config):
    assert _refused(cli, "train", config, argv)["type"] == "ValueError"


@pytest.mark.parametrize("config,flags", [
    ({"model": {"kernel": 2}}, []),
    ({"model": {"kernel": 3.0}}, []),
    ({"model": {"enc_channels": 2.5}}, []),
    ({"model": {"stacks": True}}, []),
    ({"train": {"weight_decay": -5}}, []),
    ({"train": {"outer_lr": "0.01"}}, []),
    ({"train": {"outer_lr": 0.0}}, []),
    ({"train": {"inner_lr": -1.0}}, []),
    ({"train": {"noise": "no"}}, []),
    ({}, ["--seed", "-1"]),
    ({"train": {"seed": -1}}, []),
    ({"train": {"mode": "maml"}}, []),
], ids=["kernel-even", "kernel-float", "enc-channels-float", "stacks-bool",
        "weight-decay-negative", "outer-lr-string", "outer-lr-zero", "inner-lr-negative",
        "noise-string", "seed-negative", "config-seed-negative", "config-mode-differs"])
def test_cli_train_refuses_a_degenerate_config_value(cli, config, flags):
    error = _refused(cli, "train", config, flags)
    assert error["type"] == "ValueError" and " must be " in error["message"]


@pytest.mark.parametrize("argv", [["--accents", "0"], ["--accents", "-1"], ["--speakers", "1"]],
                         ids=["accents-0", "accents-negative", "speakers-1"])
def test_cli_synth_corpus_refuses_bad_input_before_writing(cli, argv):
    assert _refused(cli, "synth-corpus", argv=argv)["type"] == "TaskGenError"


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
def test_cli_refuses_config_keys_no_command_reads(cli, command, config, key):
    refusal = f"unknown top-level config keys: {key} (known: model, train)"
    assert _refused(cli, command, config) == {"type": "EvalError", "message": refusal}


@pytest.mark.parametrize("value", [5, [1], 0, None], ids=["5", "list", "0", "null"])
@pytest.mark.parametrize("section", ["model", "train", None])
def test_train_config_section_must_be_an_object(cli, section, value):
    error = _refused(cli, "train", value if section is None else {section: value})
    assert error["type"] == "EvalError" and "not an object" in error["message"]


@pytest.mark.parametrize("n_accents,counts,resolved", [
    (2, [], "train=0, dev=1, test=1 of 2 accents"),
    (4, ["--train-accents", 4], "train=4, dev=0, test=0 of 4 accents"),
    (4, ["--dev-accents", 1, "--test-accents", 3], "train=0, dev=1, test=3 of 4 accents"),
])
def test_build_tasks_rejects_degenerate_split(cli, n_accents, counts, resolved):
    manifest = ["--manifest", "@manifest-2"] if n_accents == 2 else []
    error = _refused(cli, "build-tasks", argv=[*manifest, *counts])
    assert error["type"] == "EvalError" and resolved in error["message"]


@pytest.mark.parametrize("counts,resolved", [
    (["--train-accents", -1, "--dev-accents", 2, "--test-accents", 3], "(-1, 2, 3)"),
    (["--test-accents", -2], "(0, 0, -2)"),
    (["--train-accents", 3], "(3, 0, 0)"),
    (["--train-accents", 2, "--test-accents", 1], "(2, 0, 1)"),
    (["--test-accents", 1], "(0, 0, 1)"),
    (["--train-accents", 4, "--test-accents", 1], "(4, 0, 1)"),
], ids=["train-negative", "test-negative", "train-3-of-4", "one-left-out", "test-only",
        "one-too-many"])
def test_build_tasks_refuses_bad_split_counts(cli, counts, resolved):
    error = _refused(cli, "build-tasks", argv=counts)
    assert error["type"] == "TaskGenError"
    assert error["message"].startswith(f"split counts {resolved} must ")


@pytest.mark.parametrize("kind", MALFORMED_MANIFEST_LINES)
def test_build_tasks_refuses_a_malformed_manifest_line(cli, tmp_path, kind):
    write_malformed_manifest(tmp_path / "manifest.jsonl", kind)
    error = _refused(cli, "build-tasks", argv=["--manifest", tmp_path / "manifest.jsonl"])
    assert error["type"] == "TaskGenError"


@pytest.mark.parametrize("argv,refusal", [
    (["--task-index", "-1"], "task index -1 is out of range: accent acc01 has 2 tasks"),
    (["--task-index", "2"], "task index 2 is out of range: accent acc01 has 2 tasks"),
    (["--accent", ""], "no test accent '' in the archive"),
], ids=["-1", "2", "accent-empty"])
def test_finetune_rejects_task_index_out_of_range(params, test_sets, tmp_path, argv, refusal):
    assert _run_on_joint_checkpoint(params, test_sets, tmp_path, "finetune", argv) == (1, {
        "type": "EvalError", "message": refusal})


@pytest.mark.parametrize("train,flags,seed", [
    ({"seed": 7}, [], 7),
    ({"seed": 7}, ["--seed", "3"], 3),
    ({"mode": "joint"}, [], 0),
    ({}, ["--seed", "5"], 5),
], ids=["config-seed", "flag-over-config", "config-mode-agrees", "flag-only"])
def test_cli_train_takes_the_config_seed_unless_the_flag_is_given(cli, tmp_path, train, flags,
                                                                 seed):
    """train runs with --seed when it is given, else with the config's
    train.seed, else with 0, and a config mode equal to --mode is accepted;
    train_config.json records the seed and mode it ran with."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": dataclasses.asdict(MICRO),
                                  "train": {"dev_eval_tasks": 0, **train}}))
    assert _contract(["--config", config, *flags, "--out", tmp_path / "run", "train", "--tasks",
                      cli["tasks"], "--mode", "joint", "--epochs", 1], tmp_path / "run")[0] == 0
    resolved = json.loads((tmp_path / "run" / "train_config.json").read_text())["train"]
    assert (resolved["seed"], resolved["mode"]) == (seed, "joint")


def test_one_config_file_serves_every_command(cli):
    """One file with a model and a train section, given to every command at
    its fixture inputs and default flags, is accepted by each."""
    for command in FLAGS:
        assert _check_run(cli, (command, _config(CLI_CONFIG), {}))[0] == 0, command


def test_build_tasks_lists_an_unreadable_wav_as_an_issue(tmp_path):
    """A manifest entry whose file is not a WAV is dropped with its reason,
    and build-tasks still builds the archive from the rest."""
    assert _contract(["--seed", 3, "--out", tmp_path / "corpus", "synth-corpus", "--accents", 2,
                      "--speakers", 2], tmp_path / "corpus")[0] == 0
    manifest = tmp_path / "corpus" / "manifest.jsonl"
    (tmp_path / "corpus" / "audio" / "bad.wav").write_bytes(b"not a RIFF file")
    with manifest.open("a") as f:
        f.write(json.dumps({"accent": "synth01", "speaker_id": "bad",
                            "path": "audio/bad.wav"}) + "\n")
    assert _contract(["--seed", 3, "--out", tmp_path / "tasks", "build-tasks", "--manifest",
                      manifest, "--train-accents", 1, "--test-accents", 1],
                     tmp_path / "tasks")[1]["n_tasks"] == 2
    resolved = json.loads((tmp_path / "tasks" / "build_tasks_config.json").read_text())
    assert resolved["issues"] == [f"synth01/bad: {tmp_path / 'corpus' / 'audio' / 'bad.wav'}: "
                                  f"not a WAV file (file does not start with RIFF id)"]
    assert (tmp_path / "tasks" / "tasks.json").is_file()


def _run_on_joint_checkpoint(params, test_sets, tmp_path, command, argv) -> tuple[int, dict]:
    """Runs `command` under the CLI contract on an archive of test_sets (the
    first accent for training) and a joint checkpoint of params, with output
    into tmp_path/out."""
    accents = [ts.accent for ts in test_sets]
    split = taskgen.SplitSpec(train=accents[:1], dev=[], test=accents[1:])
    taskgen.write_task_archive(tmp_path / "tasks", test_sets, split, seed=0)
    model.save_checkpoint(tmp_path / "ck.msep", params, MICRO,
                          {"mode": "joint", "train_accents": accents[:1]})
    checkpoint = [] if command == "train" else ["--checkpoint", tmp_path / "ck.msep"]
    return _contract(["--out", tmp_path / "out", command, *checkpoint, "--tasks",
                      tmp_path / "tasks", *argv], tmp_path / "out")


@pytest.mark.parametrize("command,argv,refusal", [
    ("evaluate", ["--beta", "nan"], "beta_ft must be finite, got nan"),
    ("finetune", ["--beta", "inf"], "beta_ft must be finite, got inf"),
    ("sweep-beta", ["--grid", "nan,0.01"], "beta_ft must be finite, got nan"),
    ("train", ["--mode", "fomaml", "--inner-lr", "nan"], "inner_lr must be finite, got nan"),
    ("sweep-beta", ["--grid", ""], "grid '' is not a comma-separated list of rates"),
])
def test_cli_refuses_non_finite_rates(params, test_sets, tmp_path, work_counts, command, argv,
                                      refusal):
    code, error = _run_on_joint_checkpoint(params, test_sets, tmp_path, command, argv)
    assert code == 1 and error["message"] == refusal
    assert work_counts["grad"] == 0 and not work_counts["mixtures"]


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


def _cli_refuses_overflow(params, test_sets, tmp_path, command, argv):
    assert _run_on_joint_checkpoint(params, test_sets, tmp_path, command, argv) == (1, {
        "type": "ValueError", "message": _overflow_refusal("acc01/s202a+s202b", command)})


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
def test_cli_refuses_an_overflowing_rate(params, test_sets, tmp_path, command, argv):
    _cli_refuses_overflow(params, test_sets, tmp_path, command, argv)


def test_overflowing_rate_aborts_finetune(params, test_sets):
    """finetune refuses a step whose scores overflow to NaN through the same
    check, adding the support loss to the message."""
    _refuses_overflow_quietly(
        lambda: trainer.finetune_adapt(params, test_sets[0].tasks[0], 1e300, MICRO,
                                       noisy=True), "finetune")


def test_cli_finetune_refuses_an_overflowing_rate(params, test_sets, tmp_path):
    _cli_refuses_overflow(params, test_sets, tmp_path, "finetune", ["--beta", "1e300"])


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


def _probe(code: str, preset=None, unset=r".*_NUM_THREADS", timeout=60):
    """Runs code in a new interpreter that imports metasep from this source
    tree, without the environment variables whose names match unset and
    with preset's NAME=value pairs."""
    env = {k: v for k, v in os.environ.items() if not (unset and re.fullmatch(unset, k))}
    env["PYTHONPATH"] = str(Path(metasep.__file__).resolve().parents[1])
    env.update(kv.split("=", 1) for kv in (preset or "").split())
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=timeout, check=True)


@pytest.mark.parametrize("preset", [None, "2"])
def test_import_pins_blas_threads_unless_set(preset):
    out = _probe("import os, metasep; print(os.environ['OPENBLAS_NUM_THREADS'], "
                 "os.environ['OMP_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])",
                 preset and f"OPENBLAS_NUM_THREADS={preset}").stdout.split()
    assert out == [preset or "1", "1", "1"]


@pytest.mark.parametrize("order,preset,warns", [
    ("numpy, metasep", None, True),
    ("numpy, metasep", "OMP_NUM_THREADS=1", False),
    ("metasep, numpy", None, False),
], ids=["numpy-first", "numpy-first-with-setting", "metasep-first"])
def test_import_warns_when_the_blas_pin_cannot_take_effect(order, preset, warns):
    err = _probe(f"import {order}", preset).stderr
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
    probe = _SWEEP_PROBE.format(tests=str(Path(__file__).resolve().parent))
    out = _probe(probe, unset=None, timeout=120).stdout.split()
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
    out = _probe(_REFAULT_PROBE, preset, unset=r"MALLOC_.*|GLIBC_TUNABLES").stdout.split()
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
    out = _probe(_ARENA_PROBE, preset, unset=r"MALLOC_.*|GLIBC_TUNABLES").stdout.split()
    faults = int(out[0])
    if preset is None:
        assert faults < 100, out
    else:
        assert faults > 1000, out
