import functools
import math
import re
import threading
import warnings
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
    """Each thread drops a mixture's graph before it builds the next, and the
    query workers of a meta mode hold at most one graph each."""
    monkeypatch.setattr(ad, "WORKERS", 2)
    sep = trainer.SeparationTask(make_task(42), MICRO)
    support = sep.task.support_pair().mixture.samples
    built, alive_at_build = [], []
    real = model.mixture_loss_tensors

    def tracked(pair, params, config):
        me = threading.get_ident()
        alive = [owner for owner, ref in built if ref() is not None]
        alive_at_build.append((alive.count(me), len(alive)))
        loss = real(pair, params, config)
        if not np.array_equal(pair.mixture.samples, support) or mode == "joint":
            built.append((me, weakref.ref(loss)))
        return loss

    monkeypatch.setattr(model, "mixture_loss_tensors", tracked)
    trainer.meta_gradient(model.init_params(MICRO, seed=6), [sep], 0.01, mode)
    assert len(built) == (5 if mode == "joint" else 4)
    assert all(own == 0 for own, _ in alive_at_build)
    assert max(total for _, total in alive_at_build) <= (0 if mode == "joint" else 1)


# The tiny separator of acceptance criteria 7 and 10, at 0.4-second mixtures.
TINY = SeparatorConfig(enc_channels=16, enc_kernel=32, enc_stride=16, bottleneck_channels=8,
                       conv_channels=16, kernel=3, blocks_per_stack=3, stacks=1)
TINY_LEN = 3200


def _sequential_task_gradient(theta, task, alpha, mode):
    """One task's meta-gradient and loss with the query passes one after
    another on this thread, at theta' from the support backward that the
    Hessian-vector product then walks."""
    adapted = trainer.inner_adapt(theta, task, alpha, create_graph=mode == "maml")
    theta_prime = adapted.to_vector(theta)
    terms = task.query_terms()
    total, value = np.zeros_like(theta.values), 0.0
    for loss_fn in terms:
        leaves = theta_prime.to_leaves()
        loss = loss_fn(leaves)
        grads = ad.grad(loss, list(leaves.values()))
        total += theta.flatten_named({n: g.data for n, g in zip(leaves, grads)}).values
        value += loss.item()
    g_q = total / len(terms)
    if mode == "maml":
        v = theta.replace(g_q)
        out = functools.reduce(ad.add, (ad.dot(p, ad.tensor(v.view(n)))
                                        for n, p in adapted.prime.items()))
        grads = ad.grad(out, list(adapted.leaves.values()))
        g_q = theta.flatten_named({n: g.data for n, g in zip(adapted.leaves, grads)}).values
    return g_q, value / len(terms)


@pytest.mark.parametrize("mode", ["maml", "fomaml"])
def test_threaded_query_passes_equal_a_sequential_loop(mode, monkeypatch):
    monkeypatch.setattr(ad, "WORKERS", 2)
    theta = model.init_params(TINY, seed=70)
    tasks = [trainer.SeparationTask(make_task(70, n=TINY_LEN), TINY),
             trainer.SeparationTask(make_task(71, n=TINY_LEN), TINY, noisy=True)]
    made = []  # (thread, node id) of every tensor the threaded call makes
    real_init = ad.Tensor.__init__

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        made.append((threading.get_ident(), self._id))

    monkeypatch.setattr(ad.Tensor, "__init__", recording_init)
    g, loss = trainer.meta_gradient(theta, tasks, 0.01, mode)
    monkeypatch.setattr(ad.Tensor, "__init__", real_init)

    total, losses = np.zeros_like(theta.values), []
    for task in tasks:
        g_task, loss_task = _sequential_task_gradient(theta, task, 0.01, mode)
        total += g_task
        losses.append(loss_task)
    assert np.array_equal(g.values, total)
    assert np.array_equal(loss, float(np.mean(losses)))
    main = threading.get_ident()
    worker_ids = [i for thread, i in made if thread != main]
    threads = {thread for thread, _ in made}
    assert len(threads) >= 2 and main in threads  # the caller is one of the workers
    assert len(set(worker_ids)) == len(worker_ids)
    assert len({i for _, i in made}) == len(made)


def _counted_walk_helpers(monkeypatch):
    """The names of the threads that help a walk, one per helper started."""
    helped, real_help = [], ad._Walk.help

    def counting_help(walk):
        helped.append(threading.current_thread().name)
        real_help(walk)

    monkeypatch.setattr(ad._Walk, "help", counting_help)
    return helped


@pytest.mark.parametrize("separator", ["tiny", "default"])
def test_hessian_vector_product_on_two_threads_gives_the_same_bits(separator, monkeypatch):
    """Every mode's meta-gradient has the same bits with WORKERS 1 and 2; at
    the tiny separator, whose graphs alone would keep every walk on one
    thread, the helper is forced. On two, each walk that runs alone takes
    one helper: maml's theta' walk, its create-graph walk and its
    Hessian-vector product, fomaml's theta' walk and joint's five pooled
    terms. No query walk takes one."""
    if separator == "tiny":
        cfg, n = TINY, TINY_LEN
        monkeypatch.setattr(ad, "_HELPER_MIN_MEAN_ELEMENTS", 0)
    else:
        cfg, n = SeparatorConfig(), dsp.SEGMENT_SAMPLES
    theta = model.init_params(cfg, seed=72)
    task = trainer.SeparationTask(make_task(72, n=n), cfg)
    helped = _counted_walk_helpers(monkeypatch)
    for mode, walks in (("maml", 3), ("fomaml", 1), ("joint", 5)):
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(ad, "WORKERS", workers)
            runs.append(trainer._meta_task_gradient(theta, task, 0.01, mode))
        assert helped == ["metasep-walk"] * walks, mode
        helped.clear()
        assert np.array_equal(runs[0][0], runs[1][0]), mode
        assert runs[0][1] == runs[1][1], mode


def test_prepare_adapt_support_walk_takes_one_helper(monkeypatch):
    """prepare_adapt's support gradient and scores have the same bits with
    WORKERS 1 and 2; on two its one walk takes a helper, forced at
    this small separator."""
    monkeypatch.setattr(ad, "_HELPER_MIN_MEAN_ELEMENTS", 0)
    theta = model.init_params(TINY, seed=73)
    task = make_task(73, n=TINY_LEN)
    helped = _counted_walk_helpers(monkeypatch)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(ad, "WORKERS", workers)
        prep = trainer.prepare_adapt(theta, task, TINY, noisy=True)
        runs.append((prep.support_grad, prep.support_loss_pre, prep.query_si_snri_pre))
    assert helped == ["metasep-walk"]
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1:] == runs[1][1:]


def test_walks_of_a_two_thread_map_take_no_helper(monkeypatch):
    """With WORKERS 2, the query passes of a two-thread map walk each graph
    on the thread that built it. Terms meet in pairs at a barrier, so the
    caller and the map's helper walk two each, and no walk starts a helper."""
    monkeypatch.setattr(ad, "_HELPER_MIN_MEAN_ELEMENTS", 0)
    monkeypatch.setattr(ad, "WORKERS", 2)
    helped = _counted_walk_helpers(monkeypatch)
    walkers, real_run = [], ad._Walk.run

    def named_run(walk):
        walkers.append(threading.current_thread().name)
        real_run(walk)

    monkeypatch.setattr(ad._Walk, "run", named_run)
    sep = trainer.SeparationTask(make_task(74), MICRO)
    theta = model.init_params(MICRO, seed=74)
    pair_in = threading.Barrier(2, timeout=30)
    terms = [lambda p, f=f: (pair_in.wait(), f(p))[1] for f in sep.query_terms()]
    trainer._mean_gradient(theta, sep, terms, "query", 2)
    assert helped == []
    assert sorted(walkers) == ["MainThread"] * 2 + ["metasep-term"] * 2


class FourQueryTask(QuadraticTask):
    """Quadratic task whose query loss is split into four terms, one of which
    is NaN when `nan_at` names it."""

    def __init__(self, name, nan_at=None):
        super().__init__(1.0, 1.0, 1.0, 3.0)
        self.name, self.nan_at = name, nan_at

    def query_terms(self):
        terms = [self.query_loss] * 4
        if self.nan_at is not None:
            terms[self.nan_at] = lambda p: ad.scalar_mul(math.nan, self.query_loss(p))
        return terms


@pytest.mark.parametrize("nan_at", [0, 3])
@pytest.mark.parametrize("mode", ["maml", "fomaml"])
def test_non_finite_query_loss_in_a_worker_raises(mode, nan_at, monkeypatch):
    monkeypatch.setattr(ad, "WORKERS", 2)
    before = threading.active_count()
    tasks = [FourQueryTask("quad-ok"), FourQueryTask("quad-nan", nan_at)]
    with pytest.raises(trainer.TrainingDiverged,
                       match=r"^query loss is non-finite for task quad-nan$"):
        trainer.meta_gradient(theta_vec(0.3), tasks, 0.05, mode)
    assert threading.active_count() == before
    trainer.meta_gradient(theta_vec(0.3), tasks[:1], 0.05, mode)
    assert threading.active_count() == before


def test_in_order_helpers_run_under_the_callers_errstate():
    """Each of two threads takes one item, and the helper's overflow obeys the
    caller's np.errstate (a context variable), so no warning is raised."""
    both_in = threading.Barrier(2, timeout=30)
    names = []

    def overflow(x):
        both_in.wait()
        names.append(threading.current_thread().name)
        return x * 1e300

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(over="ignore"):
            out = ad.in_order(overflow, [np.float64(1e300)] * 2, 2)
    assert out == [np.inf, np.inf]
    assert sorted(names) == ["MainThread", "metasep-term"]


def test_in_order_raises_the_lowest_failing_items_error():
    """Item 1 fails first, then item 0: item 0's error is raised, no later
    item is started, and the helper is joined."""
    before = threading.active_count()
    item_1_failed = threading.Event()
    started = []

    def fail_first_two(i):
        started.append(i)
        if i == 1:
            item_1_failed.set()
            raise ValueError("item 1 failed")
        if i == 0:
            assert item_1_failed.wait(timeout=30)
            raise ValueError("item 0 failed")
        return i

    with pytest.raises(ValueError, match="item 0 failed"):
        ad.in_order(fail_first_two, range(4), 2)
    assert sorted(started) == [0, 1]
    assert threading.active_count() == before
    assert ad.in_order(lambda i: i * i, range(5), 2) == [0, 1, 4, 9, 16]
    assert threading.active_count() == before


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
    # 3 batches of 2 tasks with 5 mixtures each (maml builds its support mixture
    # again after the queries), and 2 dev tasks' 4 queries, per epoch
    per_task = 6 if mode == "maml" else 5
    assert len(built) == 2 * (3 * 2 * per_task + 2 * 4)


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
    for mode in trainer.MODES:  # one rule for every mode, joint included
        for value in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"^inner_lr must be positive, got {value}$"):
                TrainConfig(mode=mode, inner_lr=value)


@pytest.mark.parametrize("name,value", [("meta_batch", 0), ("meta_batch", -1), ("meta_batch", 1.5),
                                        ("epochs", 0), ("epochs", -2), ("dev_eval_tasks", -1)])
def test_config_rejects_degenerate_counts(name, value):
    """A meta-batch or epoch count below 1, a negative dev task cap, or a
    count that is not an integer, is refused when the config is made, not by
    a division, a slice or the task sampler later."""
    least = 0 if name == "dev_eval_tasks" else 1
    with pytest.raises(ValueError,
                       match=f"^{name} must be an integer of at least {least}, got {value}$"):
        TrainConfig(mode="fomaml", **{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["inner_lr", "outer_lr", "weight_decay"])
def test_config_rejects_non_finite_rates(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
        TrainConfig(mode="fomaml", **{name: value})


@pytest.mark.parametrize("name,value,refusal", [
    ("weight_decay", -5, "weight_decay must be at least 0, got -5"),
    ("weight_decay", -1e-9, "weight_decay must be at least 0, got -1e-09"),
    ("outer_lr", "0.01", "outer_lr must be a finite number, got '0.01'"),
    ("inner_lr", True, "inner_lr must be a finite number, got True"),
    ("meta_batch", True, "meta_batch must be an integer of at least 1, got True"),
    ("epochs", 2.0, "epochs must be an integer of at least 1, got 2.0"),
    ("outer_lr", 0.0, "outer_lr must be positive, got 0.0"),
    ("inner_lr", -1.0, "inner_lr must be positive, got -1.0"),
    ("noise", "no", "noise must be true or false, got 'no'"),
    ("noise", 1, "noise must be true or false, got 1"),
    ("seed", -1, "seed must be an integer of at least 0, got -1"),
    ("seed", 1.5, "seed must be an integer of at least 0, got 1.5"),
])
def test_config_refuses_degenerate_values(name, value, refusal):
    """A negative weight decay would grow the parameters at every step, so it
    is refused; so are rates that are not positive numbers, counts that are
    bools or floats, a negative seed and a noise flag that is not a bool."""
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        TrainConfig(mode="fomaml", **{name: value})


def test_config_accepts_zero_weight_decay():
    assert TrainConfig(mode="fomaml", weight_decay=0).weight_decay == 0


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
    task = make_task(90)
    res = trainer.finetune_adapt(theta, task, beta_ft=0.0, model_config=MICRO)
    assert np.array_equal(trainer.prepare_adapt(theta, task, MICRO).adapted(0.0).values,
                          theta.values)
    assert res["query_si_snri_post"] == res["query_si_snri_pre"]
    assert res["support_loss_post"] == res["support_loss_pre"]


def test_finetune_matches_inner_adapt_algebra():
    theta = model.init_params(MICRO, seed=8)
    task = make_task(91)
    beta = 0.02
    res = trainer.finetune_adapt(theta, task, beta_ft=beta, model_config=MICRO)
    adapted = trainer.inner_adapt(theta, trainer.SeparationTask(task, MICRO),
                                  beta, create_graph=False)
    np.testing.assert_array_equal(trainer.prepare_adapt(theta, task, MICRO).adapted(beta).values,
                                  adapted.to_vector(theta).values)
    assert res["support_loss_pre"] == adapted.support_loss


@pytest.mark.parametrize("noisy", [False, True])
def test_finetune_matches_inner_adapt_route_bit_for_bit(noisy):
    theta = model.init_params(MICRO, seed=10)
    task = make_task(93)
    res = trainer.finetune_adapt(theta, task, beta_ft=0.02, model_config=MICRO, noisy=noisy)
    adapted, support_pre, support_post, snri_pre, snri_post = finetune_via_inner_adapt(
        theta, task, 0.02, MICRO, noisy=noisy)
    assert trainer.prepare_adapt(theta, task, MICRO, noisy=noisy).adapted(0.02) == adapted
    assert res == {"support_loss_pre": support_pre, "support_loss_post": support_post,
                   "query_si_snri_pre": snri_pre, "query_si_snri_post": snri_post}


def test_prepared_adapt_scores_any_rate_like_finetune():
    theta = model.init_params(MICRO, seed=11)
    task = make_task(94)
    prep = trainer.prepare_adapt(theta, task, MICRO)
    for beta in (0.0, 1e-3, 0.05):
        res = trainer.finetune_adapt(theta, task, beta_ft=beta, model_config=MICRO)
        assert prep.score(beta) == {"query_si_snri_post": res["query_si_snri_post"]}
        assert prep.score(beta, support_loss=True) == {
            k: res[k] for k in ("query_si_snri_post", "support_loss_post")}
        assert prep.sep.query_si_snri(prep.adapted(beta)) == res["query_si_snri_post"]
        assert prep.query_si_snri_pre == res["query_si_snri_pre"]


def test_prepare_adapt_rejects_non_finite_support_loss():
    theta = model.init_params(MICRO, seed=12)
    theta = theta.replace(np.full_like(theta.values, np.nan))
    with pytest.raises(trainer.TrainingDiverged, match="support"):
        trainer.prepare_adapt(theta, make_task(95), MICRO)


def test_finetune_reduces_support_loss_at_small_step():
    theta = model.init_params(MICRO, seed=9)
    res = trainer.finetune_adapt(theta, make_task(92), beta_ft=1e-4, model_config=MICRO)
    assert res["support_loss_post"] < res["support_loss_pre"]
