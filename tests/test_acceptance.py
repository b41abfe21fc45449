"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale trend
criterion trains first-order meta learning and the joint baseline across five
seeds; expect the whole module to take on the order of 15 minutes. Everything
is seeded, so outcomes are bit-reproducible.
"""

import gc
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from metasep import autodiff as ad
from metasep import dsp, evalcli, model, taskgen, trainer
from metasep.model import SeparatorConfig
from metasep.trainer import TrainConfig
from oracles import assert_fd_close, brute_force_upit, measured_snr_db, query_pool_gradient
from primitive_cases import CASES, check_first_order, check_second_order
from test_trainer import MICRO, QuadraticTask, make_task, make_task_sets, theta_vec

RNG = np.random.default_rng

TREND_CONFIG = SeparatorConfig(enc_channels=16, enc_kernel=32, enc_stride=16,
                               bottleneck_channels=8, conv_channels=16, kernel=3,
                               blocks_per_stack=3, stacks=1)
TREND_SEEDS = (0, 1, 2, 3, 4)
TREND_EPOCHS = 20
CPU_BUDGET_SECONDS = 30 * 60


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:2d} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {num:2d} ({name}): PASS")


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_criterion_1_gradient_suite():
    with criterion(1, "gradient suite vs central finite differences"):
        t_start = time.perf_counter()
        cases = 0

        # every primitive in the case table, each input, first and second order
        for op, case in CASES.items():
            for arg in case.inputs:
                for seed in (10, 11):
                    check_first_order(op, arg, seed)
                    check_second_order(op, arg, seed)
                    cases += 2

        assert cases >= 100, f"only {cases} primitive gradient cases"

        # end-to-end uPIT loss through the full separator, every coordinate
        theta = model.init_params(MICRO, seed=4)
        sep = trainer.SeparationTask(make_task(41), MICRO)
        leaves = theta.to_leaves()
        loss = sep.support_loss(leaves)
        grads = ad.grad(loss, list(leaves.values()))
        analytic = theta.flatten_named({n: g.data for n, g in zip(leaves, grads)})

        pair = sep.task.support_pair()
        est = model.forward_separate(pair.mixture, theta, MICRO)
        l_id = -0.5 * (dsp.si_snr(pair.sources[0], est[0])
                       + dsp.si_snr(pair.sources[1], est[1]))
        l_sw = -0.5 * (dsp.si_snr(pair.sources[0], est[1])
                       + dsp.si_snr(pair.sources[1], est[0]))
        assert abs(l_id - l_sw) > 0.05, "test point sits near a permutation tie"

        def end_to_end(values):
            pv = theta.replace(values)
            estimates = model.forward_separate(pair.mixture, pv, MICRO)
            val, _ = model.upit_loss(estimates, pair.sources)
            return val

        step = 1e-5
        for c in range(theta.dim):
            vp = theta.values.copy()
            vp[c] += step
            vm = theta.values.copy()
            vm[c] -= step
            num = (end_to_end(vp) - end_to_end(vm)) / (2 * step)
            assert_fd_close(analytic.values[c], num, rtol=1e-4, atol=1e-7,
                            label=f"end-to-end coord {c}")

        elapsed = time.perf_counter() - t_start
        assert elapsed < 300.0, f"gradient suite took {elapsed:.0f}s (budget 300s)"
        print(f"    {cases} primitive cases + {theta.dim} end-to-end coordinates "
              f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. second-order quadratic oracle


def test_criterion_2_second_order_oracle():
    with criterion(2, "MAML/FOMAML closed forms on scalar quadratics"):
        for seed in range(24):
            rng = RNG(9000 + seed)
            a, b = rng.uniform(0.2, 3.0, size=2)
            u, v, theta0 = rng.uniform(-2, 2, size=3)
            alpha = rng.uniform(0.01, 0.3)
            task = QuadraticTask(a, u, b, v)
            theta = theta_vec(theta0)
            got_maml = trainer.meta_gradient(theta, [task], alpha, "maml")[0].view("theta")
            got_fo = trainer.meta_gradient(theta, [task], alpha, "fomaml")[0].view("theta")
            theta_prime = task.adapted(theta0, alpha)
            assert abs(got_maml - 2 * b * (theta_prime - v) * (1 - 2 * a * alpha)) <= 1e-8
            assert abs(got_fo - 2 * b * (theta_prime - v)) <= 1e-8


# ---------------------------------------------------------------------------
# 3. degenerate-alpha identity


def test_criterion_3_alpha_zero_identity():
    with criterion(3, "alpha=0 collapses MAML, FOMAML, pooled query gradient"):
        sets = make_task_sets(2, 1)
        tasks = [trainer.SeparationTask(t, MICRO) for ts in sets for t in ts.tasks]
        theta = model.init_params(MICRO, seed=3)
        g_maml = trainer.meta_gradient(theta, tasks, 0.0, "maml")[0]
        g_fo = trainer.meta_gradient(theta, tasks, 0.0, "fomaml")[0]
        g_pool = query_pool_gradient(theta, tasks)
        assert np.max(np.abs(g_maml.values - g_pool)) <= 1e-12
        assert np.max(np.abs(g_fo.values - g_pool)) <= 1e-12


# ---------------------------------------------------------------------------
# 4. Si-SNR properties


def test_criterion_4_si_snr_properties():
    with criterion(4, "Si-SNR scale invariance, orthogonal form, zero improvement"):
        rng = RNG(10)
        s = rng.normal(size=256)
        s_hat = rng.normal(size=256)
        base = dsp.si_snr(s, s_hat)
        for c in (-2.0, 0.5, 10.0):
            assert abs(dsp.si_snr(s, c * s_hat) - base) <= 1e-9

        # exactly representable orthogonal pair: identical float expressions
        s2 = np.zeros(8)
        s2[0] = s2[1] = 1.0
        e2 = np.zeros(8)
        e2[0], e2[1] = 0.5, -0.5
        assert np.dot(s2, e2) == 0.0
        got = dsp.si_snr(s2, s2 + e2)
        want = 10.0 * math.log10(np.dot(s2, s2) / np.dot(e2, e2))
        assert got == want

        for seed in range(10):
            rng = RNG(11 + seed)
            sv = rng.normal(size=64)
            ev = rng.normal(size=64)
            ev -= (np.dot(ev, sv) / np.dot(sv, sv)) * sv
            ev -= (np.dot(ev, sv) / np.dot(sv, sv)) * sv
            got = dsp.si_snr(sv, sv + ev)
            want = 10.0 * math.log10(np.dot(sv, sv) / np.dot(ev, ev))
            assert abs(got - want) <= 1e-9

        pair = dsp.mix_at_snr(dsp.Waveform(rng.normal(size=200) * 0.3),
                              dsp.Waveform(rng.normal(size=200) * 0.3), 2.5)
        assert dsp.si_snr_improvement(pair, (pair.mixture, pair.mixture)) == 0.0


# ---------------------------------------------------------------------------
# 5. uPIT oracle


def test_criterion_5_upit_brute_force():
    with criterion(5, "uPIT equals brute-force enumeration on 1000 cases"):
        rng = RNG(12)
        for _ in range(1000):
            srcs = (rng.normal(size=40), rng.normal(size=40))
            ests = (rng.normal(size=40), rng.normal(size=40))
            got_loss, got_perm = model.upit_loss(ests, srcs)
            want_loss, want_perm = brute_force_upit(ests, srcs)
            assert abs(got_loss - want_loss) <= 1e-12
            assert got_perm == want_perm
            sw_loss, _ = model.upit_loss((ests[1], ests[0]), srcs)
            assert sw_loss == got_loss


# ---------------------------------------------------------------------------
# 6. task construction


def test_criterion_6_task_construction(tmp_path):
    with criterion(6, "task structure, SNR audit, proportional sampling"):
        manifest = taskgen.synth_corpus(taskgen.SynthSpec(1, 12), seed=21,
                                        out_dir=tmp_path / "twelve")
        corpus = taskgen.ingest(manifest)
        (ts,) = taskgen.build_accent_task_sets(corpus, None, seed=21)
        assert ts.tq == 66
        for task in ts.tasks:
            assert task.snr_grid.shape == (3, 3)  # 9 mixtures
            assert isinstance(task.support_index, int)
            assert len(task.query_indices) == 4
            si, sj = divmod(task.support_index, 3)
            for q in task.query_indices:
                qi, qj = divmod(q, 3)
                assert qi != si and qj != sj
            for k in range(9):
                p = task.mixture(k)
                i, j = divmod(k, 3)
                measured = measured_snr_db(p.sources[0], p.sources[1])
                assert abs(measured - task.snr_grid[i, j]) <= 1e-9

        # tq = {1, 3, 6} from accents with 2, 3, 4 speakers
        sets = []
        for n_spk, seed in ((2, 31), (3, 32), (4, 33)):
            m = taskgen.synth_corpus(taskgen.SynthSpec(1, n_spk), seed=seed,
                                     out_dir=tmp_path / f"spk{n_spk}")
            c = taskgen.ingest(m)
            (one,) = taskgen.build_accent_task_sets(c, None, seed=seed)
            sets.append(taskgen.AccentTaskSet(accent=f"acc_n{n_spk}", tasks=one.tasks))
        tq = [s.tq for s in sets]
        assert tq == [1, 3, 6]
        set_of_task = {id(t): k for k, s in enumerate(sets) for t in s.tasks}
        counts = [0, 0, 0]
        draws = 10000
        for i in range(draws):
            (picked,) = taskgen.sample_task_batch(sets, b=1, seed=400000 + i)
            counts[set_of_task[id(picked)]] += 1
        total = sum(tq)
        expected = [draws * q / total for q in tq]
        result = stats.chisquare(counts, expected)
        assert result.pvalue > 0.01, f"chi-square p={result.pvalue:.4f}"
        print(f"    sampling frequencies {counts} vs expected {expected}, "
              f"p={result.pvalue:.3f}")


# ---------------------------------------------------------------------------
# 7 + 10. desk-scale trend and adaptation-rate sanity (shared training runs)


@pytest.fixture(scope="module")
def trend_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("trend")
    runs = {}
    for seed in TREND_SEEDS:
        out = root / f"s{seed}"
        manifest = taskgen.synth_corpus(
            taskgen.SynthSpec(n_accents=18, speakers_per_accent=2),
            seed=seed, out_dir=out)
        corpus = taskgen.ingest(manifest)
        split = taskgen.split_accents(corpus.accents(), seed=seed, counts=(12, 2, 4))
        task_sets = taskgen.build_accent_task_sets(corpus, split, seed=seed)
        train_sets = taskgen.filter_task_sets(task_sets, split.train)
        test_sets = taskgen.filter_task_sets(task_sets, split.test)

        per_mode = {}
        for mode in ("fomaml", "joint"):
            cfg = TrainConfig(mode=mode, epochs=TREND_EPOCHS, meta_batch=4,
                              seed=seed, inner_lr=0.01, outer_lr=0.001,
                              dev_eval_tasks=0)
            cpu0 = time.process_time()
            result = trainer.train(train_sets, cfg, TREND_CONFIG)
            cpu = time.process_time() - cpu0
            per_mode[mode] = {"params": result.params, "cpu_seconds": cpu,
                              "aborted": result.aborted}
        runs[seed] = {"split": split, "test_sets": test_sets, "modes": per_mode}
    return runs


def test_criterion_7_desk_scale_trend(trend_runs):
    with criterion(7, "fine-tuned FOMAML beats its pre-adapt self and the joint baseline"):
        wins = 0
        for seed, run in trend_runs.items():
            extra_f = {"mode": "fomaml", "train_accents": run["split"].train}
            extra_j = {"mode": "joint", "train_accents": run["split"].train}
            assert not run["modes"]["fomaml"]["aborted"]
            assert not run["modes"]["joint"]["aborted"]
            for mode in ("fomaml", "joint"):
                cpu = run["modes"][mode]["cpu_seconds"]
                assert cpu < CPU_BUDGET_SECONDS, \
                    f"{mode} seed {seed} used {cpu:.0f}s CPU (budget {CPU_BUDGET_SECONDS}s)"

            rep_f = evalcli.meta_test(run["modes"]["fomaml"]["params"], TREND_CONFIG,
                                      extra_f, run["test_sets"], beta_ft=0.01)
            fom_pre = rep_f.overall_mean("clean", "before")
            fom_post = rep_f.overall_mean("clean", "after")

            joint_post = -np.inf
            for beta in (1e-4, 1e-3, 1e-2):  # generous baseline: best of a small grid
                rep_j = evalcli.meta_test(run["modes"]["joint"]["params"], TREND_CONFIG,
                                          extra_j, run["test_sets"], beta_ft=beta)
                joint_post = max(joint_post, rep_j.overall_mean("clean", "after"))

            assert fom_post > fom_pre, \
                f"seed {seed}: adaptation did not help ({fom_post:.2f} <= {fom_pre:.2f})"
            if fom_post >= joint_post:
                wins += 1
            print(f"    seed {seed}: fomaml {fom_pre:7.2f} -> {fom_post:7.2f} dB, "
                  f"joint(best beta) {joint_post:7.2f} dB")
        assert wins >= 4, f"fine-tuned FOMAML won only {wins}/5 seeds"
        print(f"    fomaml >= joint in {wins}/5 seeds")


def test_criterion_10_beta_sweep_sanity(tmp_path):
    # a 20-epoch trend checkpoint is too undertrained for huge steps to hurt
    # it (any adaptation helps an unstructured model), so this criterion gets
    # a dedicated, longer joint run whose parameters are worth destroying
    with criterion(10, "joint model degrades at beta=1e-1 vs beta=1e-3"):
        manifest = taskgen.synth_corpus(
            taskgen.SynthSpec(n_accents=4, speakers_per_accent=2),
            seed=0, out_dir=tmp_path / "corpus")
        corpus = taskgen.ingest(manifest)
        split = taskgen.split_accents(corpus.accents(), seed=0, counts=(2, 0, 2))
        task_sets = taskgen.build_accent_task_sets(corpus, split, seed=0)
        cfg = TrainConfig(mode="joint", epochs=250, meta_batch=2, seed=0,
                          outer_lr=2e-3, dev_eval_tasks=0)
        result = trainer.train(taskgen.filter_task_sets(task_sets, split.train),
                               cfg, TREND_CONFIG)
        assert result.log[-1]["train_loss"] < 0.0, "joint model failed to train"

        extra = {"mode": "joint", "train_accents": split.train}
        sweep = evalcli.beta_sweep(result.params, TREND_CONFIG, extra,
                                   taskgen.filter_task_sets(task_sets, split.test),
                                   grid=(1e-3, 1e-1))
        by_beta = {r["beta_ft"]: r["mean_si_snri_db"] for r in sweep.rows}
        assert by_beta[1e-1] < by_beta[1e-3], \
            f"expected degradation at 1e-1: {by_beta}"
        print(f"    mean Si-SNRi at beta=1e-3: {by_beta[1e-3]:.2f} dB, "
              f"at beta=1e-1: {by_beta[1e-1]:.2f} dB")


# ---------------------------------------------------------------------------
# 8. cost ordering


def test_criterion_8_maml_costs_more_than_fomaml():
    with criterion(8, "MAML outer step strictly slower than FOMAML, every trial"):
        theta = model.init_params(TREND_CONFIG, seed=0)
        tasks = [trainer.SeparationTask(make_task(600 + i, n=32000), TREND_CONFIG)
                 for i in range(4)]

        trainer.meta_gradient(theta, tasks, 0.01, "fomaml")  # warm-up
        trainer.meta_gradient(theta, tasks, 0.01, "maml")
        gc.collect()
        gc.disable()
        try:
            for trial in range(3):
                # each mode's fastest of three interleaved runs, so one run
                # slowed by the host does not decide the trial
                times = {"fomaml": [], "maml": []}
                for _ in range(3):
                    for mode in times:
                        t0 = time.perf_counter()
                        trainer.meta_gradient(theta, tasks, 0.01, mode)
                        times[mode].append(time.perf_counter() - t0)
                fo, ma = min(times["fomaml"]), min(times["maml"])
                print(f"    trial {trial}: fomaml {fo:.2f}s, maml {ma:.2f}s "
                      f"(ratio {ma / fo:.2f}, fastest of 3 each)")
                assert ma > fo, f"trial {trial}: maml {ma:.3f}s <= fomaml {fo:.3f}s"
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# 9. reproducibility


def test_criterion_9_bit_exact_reproducibility(tmp_path):
    with criterion(9, "identical seeds reproduce checkpoints and reports bit-exactly"):
        sets = make_task_sets(2, 2, seed0=700)
        test_sets = make_task_sets(2, 1, seed0=800, prefix="test_acc")
        cfg = TrainConfig(mode="fomaml", epochs=2, meta_batch=2, seed=13)
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            result = trainer.train(sets, cfg, MICRO, out_dir=out)
            extra = {"mode": "fomaml", "train_accents": ["acc00", "acc01"]}
            report = evalcli.meta_test(result.params, MICRO, extra, test_sets,
                                       beta_ft=0.01, noisy=True)
            evalcli.emit_report(report, out)
            outputs.append({
                "checkpoint": (out / "checkpoint.msep").read_bytes(),
                "csv": (out / "report.csv").read_bytes(),
                "json": (out / "report.json").read_bytes(),
            })
        assert outputs[0]["checkpoint"] == outputs[1]["checkpoint"]
        assert outputs[0]["csv"] == outputs[1]["csv"]
        assert outputs[0]["json"] == outputs[1]["json"]
