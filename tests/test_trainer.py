import math
import weakref

import numpy as np
import pytest

from metasep import autodiff as ad
from metasep import dsp, model, taskgen, trainer
from metasep.model import SeparatorConfig
from metasep.trainer import TrainConfig
from oracles import (assert_fd_close, finetune_via_inner_adapt, pooled_loss,
                     query_pool_gradient, reference_adam_step, reverse_over_reverse_maml)

RNG = np.random.default_rng

MICRO = SeparatorConfig(enc_channels=4, enc_kernel=8, enc_stride=4,
                        bottleneck_channels=2, conv_channels=4, kernel=3,
                        blocks_per_stack=1, stacks=1)
SEG_LEN = 104  # aligns with MICRO's kernel/stride


class QuadraticTask:
    """sup = a (theta - u)^2, qry = b (theta - v)^2 over a 1-d parameter."""

    def __init__(self, a, u, b, v):
        self.a, self.u, self.b, self.v = a, u, b, v
        self.name = f"quad(a={a},u={u},b={b},v={v})"

    def support_loss(self, p):
        d = ad.add_constant(p["theta"], -self.u)
        return ad.scalar_mul(self.a, ad.mul(d, d))

    def query_loss(self, p):
        d = ad.add_constant(p["theta"], -self.v)
        return ad.scalar_mul(self.b, ad.mul(d, d))

    def query_terms(self):
        return [self.query_loss]

    def adapted(self, theta, alpha):
        return theta - alpha * 2 * self.a * (theta - self.u)

    def maml_grad(self, theta, alpha):
        return 2 * self.b * (self.adapted(theta, alpha) - self.v) * (1 - 2 * self.a * alpha)

    def fomaml_grad(self, theta, alpha):
        return 2 * self.b * (self.adapted(theta, alpha) - self.v)


def theta_vec(value=0.0):
    return ad.ParamVector.from_arrays({"theta": np.array(float(value))})


def make_task(seed, accent="acc", n=SEG_LEN, same_everywhere=False):
    rng = RNG(seed)
    if same_everywhere:
        sa = rng.normal(size=n) * 0.3
        sb = rng.normal(size=n) * 0.3
        segs_a = (sa, sa.copy(), sa.copy())
        segs_b = (sb, sb.copy(), sb.copy())
        snr = np.full((3, 3), 2.0)
    else:
        segs_a = tuple(rng.normal(size=n) * 0.3 for _ in range(3))
        segs_b = tuple(rng.normal(size=n) * 0.3 for _ in range(3))
        snr = rng.uniform(0, 5, size=(3, 3))
    support = int(rng.integers(9))
    return taskgen.MetaTask(
        accent=accent, speakers=(f"s{seed}a", f"s{seed}b"),
        segments_a=segs_a, segments_b=segs_b,
        seg_indices_a=(0, 1, 2), seg_indices_b=(0, 1, 2),
        snr_grid=snr, support_index=support,
        noise_seed=int(rng.integers(2 ** 62)))


def make_task_sets(n_accents, tasks_per_accent, seed0=0, n=SEG_LEN, prefix="acc"):
    sets = []
    k = seed0
    for a in range(n_accents):
        tasks = []
        for _ in range(tasks_per_accent):
            tasks.append(make_task(k, accent=f"{prefix}{a:02d}", n=n))
            k += 1
        sets.append(taskgen.AccentTaskSet(accent=f"{prefix}{a:02d}", tasks=tasks))
    return sets


# ---------------------------------------------------------------------------
# inner loop on the quadratic oracle


def test_inner_adapt_quadratic_example():
    task = QuadraticTask(a=1.0, u=1.0, b=1.0, v=3.0)
    adapted = trainer.inner_adapt(theta_vec(0.0), task, alpha=0.1)
    assert adapted.prime["theta"].item() == pytest.approx(0.2, abs=1e-15)
    assert adapted.support_loss == pytest.approx(1.0)


def test_inner_adapt_alpha_zero_is_identity():
    task = QuadraticTask(a=2.0, u=-1.0, b=1.0, v=0.5)
    theta = theta_vec(0.7)
    adapted = trainer.inner_adapt(theta, task, alpha=0.0)
    assert adapted.prime["theta"].item() == 0.7


def test_inner_adapt_derivative_wrt_theta():
    task = QuadraticTask(a=1.0, u=1.0, b=1.0, v=3.0)
    adapted = trainer.inner_adapt(theta_vec(0.0), task, alpha=0.1)
    (d,) = ad.grad(adapted.prime["theta"], [adapted.leaves["theta"]])
    assert d.item() == pytest.approx(1 - 2 * 0.1, abs=1e-12)


def test_inner_adapt_rejects_non_finite_loss():
    class BadTask:
        name = "bad"

        def support_loss(self, p):
            with np.errstate(invalid="ignore"):
                return ad.log10(ad.add_constant(ad.mul(p["theta"], p["theta"]), -10.0))

        def query_loss(self, p):
            return p["theta"]

    with pytest.raises(trainer.TrainingDiverged, match="bad"):
        trainer.inner_adapt(theta_vec(0.0), BadTask(), alpha=0.1)


# ---------------------------------------------------------------------------
# meta gradients against closed forms


def test_maml_fomaml_frozen_example():
    task = QuadraticTask(a=1.0, u=1.0, b=1.0, v=3.0)
    theta = theta_vec(0.0)
    g_maml = trainer.meta_gradient(theta, [task], 0.1, "maml")[0]
    g_fo = trainer.meta_gradient(theta, [task], 0.1, "fomaml")[0]
    assert g_maml.view("theta") == pytest.approx(-4.48, abs=1e-12)
    assert g_fo.view("theta") == pytest.approx(-5.6, abs=1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_quadratic_closed_forms_random_family(seed):
    rng = RNG(1000 + seed)
    a, b = rng.uniform(0.2, 3.0, size=2)
    u, v, theta0 = rng.uniform(-2, 2, size=3)
    alpha = rng.uniform(0.01, 0.3)
    task = QuadraticTask(a, u, b, v)
    theta = theta_vec(theta0)
    got_maml = trainer.meta_gradient(theta, [task], alpha, "maml")[0].view("theta")
    got_fo = trainer.meta_gradient(theta, [task], alpha, "fomaml")[0].view("theta")
    assert abs(got_maml - task.maml_grad(theta0, alpha)) <= 1e-8
    assert abs(got_fo - task.fomaml_grad(theta0, alpha)) <= 1e-8


def test_meta_gradient_sums_over_batch():
    tasks = [QuadraticTask(1.0, 1.0, 1.0, 3.0), QuadraticTask(0.5, -1.0, 2.0, 0.0)]
    theta = theta_vec(0.3)
    got = trainer.meta_gradient(theta, tasks, 0.05, "maml")[0].view("theta")
    want = sum(t.maml_grad(0.3, 0.05) for t in tasks)
    assert got == pytest.approx(want, abs=1e-12)


def test_fomaml_maml_gap_shrinks_linearly_in_alpha():
    task = QuadraticTask(a=1.3, u=0.4, b=0.8, v=-1.0)
    theta = theta_vec(0.9)
    gaps = []
    for alpha in (1e-1, 1e-2, 1e-3):
        g_m = trainer.meta_gradient(theta, [task], alpha, "maml")[0].view("theta")
        g_f = trainer.meta_gradient(theta, [task], alpha, "fomaml")[0].view("theta")
        gaps.append(abs(g_m - g_f))
    assert gaps[0] > gaps[1] > gaps[2]
    # closed form: gap = |2 b (theta'-v)| * 2 a alpha, i.e. O(alpha)
    assert gaps[1] / gaps[0] == pytest.approx(0.1, rel=0.15)
    assert gaps[2] / gaps[1] == pytest.approx(0.1, rel=0.15)


def test_alpha_zero_meta_gradients_equal_pooled_query_gradient():
    sets = make_task_sets(2, 1)
    tasks = [trainer.SeparationTask(t, MICRO) for ts in sets for t in ts.tasks]
    theta = model.init_params(MICRO, seed=3)
    g_maml = trainer.meta_gradient(theta, tasks, 0.0, "maml")[0]
    g_fo = trainer.meta_gradient(theta, tasks, 0.0, "fomaml")[0]
    g_pool = query_pool_gradient(theta, tasks)
    np.testing.assert_allclose(g_maml.values, g_pool, rtol=0, atol=1e-12)
    np.testing.assert_allclose(g_fo.values, g_pool, rtol=0, atol=1e-12)


def test_meta_gradient_matches_finite_differences_on_micro_model():
    theta = model.init_params(MICRO, seed=4)
    sep = trainer.SeparationTask(make_task(41), MICRO)
    alpha = 0.01

    # all five mixtures must sit away from permutation ties, or the central
    # differences would straddle a branch flip
    for pair in [sep.task.support_pair()] + sep.task.query_pairs():
        est = model.forward_separate(pair.mixture, theta, MICRO)
        l_id = -0.5 * (dsp.si_snr(pair.sources[0], est[0]) + dsp.si_snr(pair.sources[1], est[1]))
        l_sw = -0.5 * (dsp.si_snr(pair.sources[0], est[1]) + dsp.si_snr(pair.sources[1], est[0]))
        assert abs(l_id - l_sw) > 0.05

    analytic = trainer.meta_gradient(theta, [sep], alpha, "maml")[0]

    def meta_objective(values):
        pv = theta.replace(values)
        adapted = trainer.inner_adapt(pv, sep, alpha, create_graph=False)
        with ad.no_grad():
            return sep.query_loss(adapted.prime).item()

    rng = RNG(5)
    coords = rng.choice(theta.dim, size=60, replace=False)
    step = 1e-5
    for c in coords:
        vp = theta.values.copy()
        vp[c] += step
        vm = theta.values.copy()
        vm[c] -= step
        num = (meta_objective(vp) - meta_objective(vm)) / (2 * step)
        assert_fd_close(analytic.values[c], num, rtol=1e-4, atol=1e-7,
                        label=f"meta coord {c}")


def test_maml_matches_reverse_over_reverse_oracle_on_every_coordinate():
    theta = model.init_params(MICRO, seed=4)
    tasks = [trainer.SeparationTask(make_task(41 + k), MICRO) for k in range(2)]
    alpha = 0.05
    got, _ = trainer.meta_gradient(theta, tasks, alpha, "maml")
    want = theta.replace(sum(reverse_over_reverse_maml(theta, t, alpha) for t in tasks))
    fo, _ = trainer.meta_gradient(theta, tasks, alpha, "fomaml")
    # the Hessian term is not negligible, so the comparison has teeth
    assert np.max(np.abs(want.values - fo.values)) > 1e-3 * np.max(np.abs(want.values))
    prelus = [n for n in theta.layout if n.endswith(".prelu")]
    assert prelus and all(theta.view(n).shape == () for n in prelus)
    for name in theta.layout:
        np.testing.assert_allclose(got.view(name), want.view(name), rtol=1e-10, atol=0,
                                   err_msg=name)


def test_joint_meta_gradient_is_pooled_loss_gradient():
    theta = model.init_params(MICRO, seed=5)
    tasks = [trainer.SeparationTask(make_task(60 + k), MICRO) for k in range(2)]
    got, loss = trainer.meta_gradient(theta, tasks, 0.3, "joint")
    want = np.zeros(theta.dim)
    values = []
    for sep in tasks:
        leaves = theta.to_leaves()
        pooled = pooled_loss(sep.task, MICRO, leaves)
        grads = ad.grad(pooled, list(leaves.values()))
        want += theta.flatten_named({n: g.data for n, g in zip(leaves, grads)}).values
        values.append(pooled.item())
    np.testing.assert_allclose(got.values, want, rtol=1e-10, atol=0)
    assert loss == pytest.approx(np.mean(values), rel=1e-12)


class TrackedQuadraticTask(QuadraticTask):
    """Quadratic task that keeps a weak reference to every loss it returns
    and notes, whenever it builds one, which other task's losses are alive."""

    def __init__(self, built, leaks, *args):
        super().__init__(*args)
        self.built, self.leaks = built, leaks

    def _track(self, loss):
        self.leaks += [t.name for t, ref in self.built if t is not self and ref() is not None]
        self.built.append((self, weakref.ref(loss)))
        return loss

    def support_loss(self, p):
        return self._track(super().support_loss(p))

    def query_loss(self, p):
        return self._track(super().query_loss(p))


@pytest.mark.parametrize("mode", trainer.MODES)
def test_meta_gradient_frees_each_task_graph_before_the_next(mode):
    built, leaks = [], []
    tasks = [TrackedQuadraticTask(built, leaks, 1.0, 1.0, 1.0, 3.0),
             TrackedQuadraticTask(built, leaks, 0.5, -1.0, 2.0, 0.0)]
    trainer.meta_gradient(theta_vec(0.3), tasks, 0.05, mode)
    assert {t for t, _ in built} == set(tasks)
    assert leaks == []


@pytest.mark.parametrize("mode", trainer.MODES)
def test_meta_gradient_keeps_one_query_mixture_graph_alive(mode, monkeypatch):
    sep = trainer.SeparationTask(make_task(42), MICRO)
    support = sep.task.support_pair().mixture.samples
    built, alive_at_build = [], []
    real = model.mixture_loss_tensors

    def tracked(pair, params, config):
        alive_at_build.append(sum(ref() is not None for ref in built))
        loss = real(pair, params, config)
        if not np.array_equal(pair.mixture.samples, support) or mode == "joint":
            built.append(weakref.ref(loss))
        return loss

    monkeypatch.setattr(model, "mixture_loss_tensors", tracked)
    trainer.meta_gradient(model.init_params(MICRO, seed=6), [sep], 0.01, mode)
    assert len(built) == (5 if mode == "joint" else 4)
    assert alive_at_build == [0] * len(alive_at_build)


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_is_identity():
    theta = theta_vec(1.5)
    state = trainer.AdamState.zeros(1)
    new, state = trainer.adam_update(theta, theta.replace(np.zeros(theta.dim)), state,
                                     lr=1e-3, weight_decay=0.0)
    assert new.values[0] == 1.5
    assert state.step == 1


def test_adam_first_step_magnitude():
    # with fresh moments the first update is ~lr * sign(g)
    theta = ad.ParamVector.from_arrays({"w": np.zeros(4)})
    g = theta.replace(np.array([3.0, -0.5, 10.0, -2.0]))
    new, _ = trainer.adam_update(theta, g, trainer.AdamState.zeros(4),
                                 lr=1e-3, weight_decay=0.0)
    np.testing.assert_allclose(new.values, -1e-3 * np.sign(g.values), rtol=1e-6)


def test_adam_matches_reference_implementation_over_sequence():
    rng = RNG(6)
    dim = 12
    theta = ad.ParamVector.from_arrays({"w": rng.normal(size=dim)})
    state = trainer.AdamState.zeros(dim)
    ref_theta = theta.values.copy()
    ref_m = np.zeros(dim)
    ref_v = np.zeros(dim)
    ref_t = 0
    for _ in range(25):
        g = rng.normal(size=dim)
        theta, state = trainer.adam_update(theta, theta.replace(g), state, lr=0.01,
                                           weight_decay=1e-5)
        ref_theta, ref_m, ref_v, ref_t = reference_adam_step(
            ref_theta, g, ref_m, ref_v, ref_t, lr=0.01, beta1=0.9, beta2=0.999,
            eps=1e-8, weight_decay=1e-5)
    np.testing.assert_array_equal(theta.values, ref_theta)


def test_adam_deterministic():
    theta = ad.ParamVector.from_arrays({"w": np.ones(3)})
    g = theta.replace(np.array([1.0, -2.0, 0.5]))
    a, _ = trainer.adam_update(theta, g, trainer.AdamState.zeros(3), lr=0.01)
    b, _ = trainer.adam_update(theta, g, trainer.AdamState.zeros(3), lr=0.01)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_optimizer_refuses_a_step_to_non_finite_params(optimizer):
    theta = ad.ParamVector.from_arrays({"w": np.array([1.0, -1.0])})
    g = theta.replace(np.array([3.0, -3.0]))  # lr * g overflows
    with np.errstate(over="ignore"), \
            pytest.raises(trainer.TrainingDiverged, match="non-finite parameters"):
        if optimizer == "adam":
            trainer.adam_update(theta, g, trainer.AdamState.zeros(2), lr=1e308)
        else:
            trainer.sgd_update(theta, g, lr=1e308)


def test_adam_rejects_non_finite_gradient():
    theta = theta_vec(0.0)
    bad = theta.replace(np.array([np.nan]))
    with pytest.raises(trainer.TrainingDiverged):
        trainer.adam_update(theta, bad, trainer.AdamState.zeros(1), lr=0.01)


# ---------------------------------------------------------------------------
# training loop


def test_one_epoch_full_batch_is_exactly_one_sgd_update():
    sets = make_task_sets(2, 1)
    total = sum(ts.tq for ts in sets)
    cfg = TrainConfig(mode="joint", epochs=1, meta_batch=total, seed=9,
                      outer_optimizer="sgd", outer_lr=1e-3, weight_decay=0.0)
    theta0 = model.init_params(MICRO, seed=9)
    result = trainer.train(sets, cfg, MICRO, init=theta0.replace(theta0.values.copy()))
    assert len(result.log) == 1

    tasks = [trainer.SeparationTask(t, MICRO) for ts in sets for t in ts.tasks]
    grad_vec, _ = trainer.meta_gradient(theta0, tasks, 0.0, "joint")
    np.testing.assert_allclose(result.params.values, theta0.values - 1e-3 * grad_vec.values,
                               rtol=0, atol=1e-12)


def test_joint_training_monotonic_on_repeated_mixture():
    task = make_task(77, same_everywhere=True)
    sets = [taskgen.AccentTaskSet(accent="acc", tasks=[task])]
    cfg = TrainConfig(mode="joint", epochs=50, meta_batch=1, seed=1,
                      outer_lr=1e-3, weight_decay=0.0)
    result = trainer.train(sets, cfg, MICRO)
    losses = [row["train_loss"] for row in result.log]
    assert all(b < a for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0] - 1.0


def test_single_joint_step_descends_at_small_lr():
    task = make_task(78)
    sets = [taskgen.AccentTaskSet(accent="acc", tasks=[task])]
    theta0 = model.init_params(MICRO, seed=2)
    with ad.no_grad():
        before = pooled_loss(task, MICRO, theta0.to_constants()).item()
    cfg = TrainConfig(mode="joint", epochs=1, meta_batch=1, seed=2,
                      outer_lr=1e-4, weight_decay=0.0)
    result = trainer.train(sets, cfg, MICRO, init=theta0.replace(theta0.values.copy()))
    with ad.no_grad():
        after = pooled_loss(task, MICRO, result.params.to_constants()).item()
    assert after < before


@pytest.mark.parametrize("mode", ["fomaml", "maml"])
def test_meta_training_runs_and_logs(mode):
    sets = make_task_sets(2, 1)
    cfg = TrainConfig(mode=mode, epochs=2, meta_batch=2, seed=3, inner_lr=0.01)
    result = trainer.train(sets, cfg, MICRO, dev_sets=make_task_sets(1, 1, seed0=50))
    assert not result.aborted
    assert len(result.log) == 2
    for row in result.log:
        assert row["mode"] == mode
        assert np.isfinite(row["train_loss"])
        assert row["dev_si_snri"] is not None
        assert row["wall_seconds"] > 0


@pytest.mark.parametrize("mode", trainer.MODES)
def test_training_keeps_no_mixture_past_its_loss(mode, monkeypatch):
    """Each mixture is built when a loss or score needs it and dropped after,
    so the mixtures alive do not grow with the tasks sampled."""
    built, alive_at_build = [], []
    real = taskgen.MetaTask.mixture

    def tracked(task, index, noisy=False):
        alive_at_build.append(sum(ref() is not None for ref in built))
        pair = real(task, index, noisy=noisy)
        built.append(weakref.ref(pair))
        return pair

    monkeypatch.setattr(taskgen.MetaTask, "mixture", tracked)
    cfg = TrainConfig(mode=mode, epochs=2, meta_batch=2, seed=7, inner_lr=0.01)
    result = trainer.train(make_task_sets(3, 2), cfg, MICRO,
                           dev_sets=make_task_sets(1, 2, seed0=50))
    assert not result.aborted
    assert max(alive_at_build) <= 2
    # 3 batches of 2 tasks with 5 mixtures each, and 2 dev tasks' 4 queries, per epoch
    assert len(built) == 2 * (3 * 2 * 5 + 2 * 4)


def test_train_aborts_with_last_good_params(monkeypatch, tmp_path):
    sets = make_task_sets(2, 1)
    calls = {"n": 0}
    real = trainer._meta_task_gradient

    def flaky(theta, task, alpha, second_order):
        calls["n"] += 1
        if calls["n"] > 3:
            raise trainer.TrainingDiverged("synthetic blowup")
        return real(theta, task, alpha, second_order)

    monkeypatch.setattr(trainer, "_meta_task_gradient", flaky)
    cfg = TrainConfig(mode="fomaml", epochs=3, meta_batch=1, seed=4)
    result = trainer.train(sets, cfg, MICRO, out_dir=tmp_path)
    assert result.aborted
    assert "synthetic blowup" in result.reason
    assert np.all(np.isfinite(result.params.values))
    params, _, extra = model.load_checkpoint(tmp_path / "checkpoint.msep")
    assert extra["aborted"] is True
    assert np.array_equal(params.values, result.params.values)


def test_train_writes_checkpoint_and_log(tmp_path):
    sets = make_task_sets(1, 2)
    cfg = TrainConfig(mode="joint", epochs=2, meta_batch=2, seed=5)
    result = trainer.train(sets, cfg, MICRO, out_dir=tmp_path)
    params, cfg_loaded, extra = model.load_checkpoint(result.checkpoint_path)
    assert extra["mode"] == "joint"
    assert extra["train_accents"] == ["acc00"]
    assert cfg_loaded == MICRO
    log_lines = (tmp_path / "train_log.jsonl").read_text().strip().split("\n")
    assert len(log_lines) == 2
    import json
    row = json.loads(log_lines[0])
    assert set(row) == {"epoch", "mode", "train_loss", "dev_si_snri", "wall_seconds"}


def test_training_reproducible_bit_exact(tmp_path):
    sets = make_task_sets(2, 1)
    cfg = TrainConfig(mode="fomaml", epochs=2, meta_batch=2, seed=6)
    r1 = trainer.train(sets, cfg, MICRO, out_dir=tmp_path / "a")
    r2 = trainer.train(sets, cfg, MICRO, out_dir=tmp_path / "b")
    assert np.array_equal(r1.params.values, r2.params.values)
    assert (tmp_path / "a" / "checkpoint.msep").read_bytes() == \
        (tmp_path / "b" / "checkpoint.msep").read_bytes()


def test_train_rejects_empty_task_sets():
    with pytest.raises(ValueError):
        trainer.train([], TrainConfig(mode="joint"), MICRO)


def test_config_rejects_bad_mode_and_lr():
    with pytest.raises(ValueError):
        TrainConfig(mode="magic")
    with pytest.raises(ValueError):
        TrainConfig(mode="maml", inner_lr=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["inner_lr", "outer_lr", "weight_decay"])
def test_config_rejects_non_finite_rates(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
        TrainConfig(mode="fomaml", **{name: value})


def test_overflowing_update_aborts_with_the_previous_params(tmp_path):
    """An outer step whose parameters overflow is not taken: the run aborts
    and its checkpoint holds the last finite parameters, here the initial ones."""
    cfg = TrainConfig(mode="joint", epochs=2, meta_batch=1, seed=4, outer_lr=1e308)
    with np.errstate(over="ignore"):
        result = trainer.train(make_task_sets(2, 1), cfg, MICRO, out_dir=tmp_path)
    assert result.aborted
    assert result.reason == "epoch 0 batch 0: non-finite parameters after the optimizer step"
    params, _, extra = model.load_checkpoint(tmp_path / "checkpoint.msep")
    assert extra["aborted"] is True
    assert np.array_equal(params.values, model.init_params(MICRO, seed=4).values)


# ---------------------------------------------------------------------------
# one-shot adaptation


def test_finetune_zero_beta_changes_nothing():
    theta = model.init_params(MICRO, seed=7)
    res = trainer.finetune_adapt(theta, make_task(90), beta_ft=0.0, model_config=MICRO)
    assert np.array_equal(res.adapted.values, theta.values)
    assert res.query_si_snri_post == res.query_si_snri_pre
    assert res.support_loss_post == res.support_loss_pre


def test_finetune_matches_inner_adapt_algebra():
    theta = model.init_params(MICRO, seed=8)
    task = make_task(91)
    beta = 0.02
    res = trainer.finetune_adapt(theta, task, beta_ft=beta, model_config=MICRO)
    adapted = trainer.inner_adapt(theta, trainer.SeparationTask(task, MICRO),
                                  beta, create_graph=False)
    np.testing.assert_array_equal(res.adapted.values, adapted.to_vector(theta).values)
    assert res.support_loss_pre == adapted.support_loss


@pytest.mark.parametrize("noisy", [False, True])
def test_finetune_matches_inner_adapt_route_bit_for_bit(noisy):
    theta = model.init_params(MICRO, seed=10)
    task = make_task(93)
    res = trainer.finetune_adapt(theta, task, beta_ft=0.02, model_config=MICRO, noisy=noisy)
    adapted, support_pre, support_post, snri_pre, snri_post = finetune_via_inner_adapt(
        theta, task, 0.02, MICRO, noisy=noisy)
    assert res.adapted == adapted
    assert (res.support_loss_pre, res.support_loss_post) == (support_pre, support_post)
    assert (res.query_si_snri_pre, res.query_si_snri_post) == (snri_pre, snri_post)


def test_prepared_adapt_scores_any_rate_like_finetune():
    theta = model.init_params(MICRO, seed=11)
    task = make_task(94)
    prep = trainer.prepare_adapt(theta, task, MICRO)
    for beta in (0.0, 1e-3, 0.05):
        res = trainer.finetune_adapt(theta, task, beta_ft=beta, model_config=MICRO)
        assert prep.adapted(beta) == res.adapted
        assert prep.sep.query_si_snri(prep.adapted(beta)) == res.query_si_snri_post
        assert prep.query_si_snri_pre == res.query_si_snri_pre


def test_prepare_adapt_rejects_non_finite_support_loss():
    theta = model.init_params(MICRO, seed=12)
    theta = theta.replace(np.full_like(theta.values, np.nan))
    with pytest.raises(trainer.TrainingDiverged, match="support"):
        trainer.prepare_adapt(theta, make_task(95), MICRO)


def test_finetune_reduces_support_loss_at_small_step():
    theta = model.init_params(MICRO, seed=9)
    res = trainer.finetune_adapt(theta, make_task(92), beta_ft=1e-4, model_config=MICRO)
    assert res.support_loss_post < res.support_loss_pre
