"""Tests of the benchmark's own arithmetic: reference Si-SNR, permutation
search and span self times.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# reference Si-SNR


def test_si_snr_hand_computed():
    # target = 2*s, error = e1: 10 log10(4 / 1)
    s = np.array([1.0, 0.0, 0.0, 0.0])
    x = np.array([2.0, 1.0, 0.0, 0.0])
    assert reference.si_snr(s, x) == pytest.approx(10 * math.log10(4.0), abs=1e-12)


def test_si_snr_orthogonal_error_closed_form():
    rng = np.random.default_rng(0)
    s = rng.standard_normal(1000)
    e = rng.standard_normal(1000)
    e -= (e @ s) / (s @ s) * s            # make the error orthogonal to s
    x = 0.7 * s + e
    expected = 10 * math.log10(0.49 * (s @ s) / (e @ e))
    assert reference.si_snr(s, x) == pytest.approx(expected, abs=1e-9)


def test_si_snr_scale_invariant_in_both_arguments():
    rng = np.random.default_rng(1)
    s, x = rng.standard_normal(500), rng.standard_normal(500)
    base = reference.si_snr(s, x)
    assert reference.si_snr(s, 3.5 * x) == pytest.approx(base, abs=1e-9)
    assert reference.si_snr(0.2 * s, x) == pytest.approx(base, abs=1e-9)


def test_si_snr_refuses_degenerate_inputs():
    s = np.ones(8)
    with pytest.raises(ValueError):
        reference.si_snr(np.zeros(8), s)
    with pytest.raises(ValueError):
        reference.si_snr(s, 2 * s)          # error energy at the floor
    with pytest.raises(ValueError):
        reference.si_snr(s, np.ones(7))


# ---------------------------------------------------------------------------
# permutation search


def test_best_assignment_finds_swapped_estimates():
    rng = np.random.default_rng(2)
    s = [rng.standard_normal(400) for _ in range(2)]
    est = [s[1] + 0.1 * rng.standard_normal(400), s[0] + 0.1 * rng.standard_normal(400)]
    perm, total = reference.best_assignment(s, est)
    assert perm == (1, 0)
    assert total == pytest.approx(reference.si_snr(s[0], est[1]) + reference.si_snr(s[1], est[0]))


def test_best_assignment_three_sources_planted_permutation():
    rng = np.random.default_rng(3)
    s = [rng.standard_normal(300) for _ in range(3)]
    planted = (2, 0, 1)                     # source c is estimate planted[c]
    est = [None] * 3
    for c, e in enumerate(planted):
        est[e] = s[c] + 0.05 * rng.standard_normal(300)
    assert reference.best_assignment(s, est)[0] == planted


def test_upit_loss_is_minus_half_the_better_assignment():
    rng = np.random.default_rng(4)
    s = [rng.standard_normal(256) for _ in range(2)]
    est = [rng.standard_normal(256) for _ in range(2)]
    identity = -0.5 * (reference.si_snr(s[0], est[0]) + reference.si_snr(s[1], est[1]))
    swap = -0.5 * (reference.si_snr(s[0], est[1]) + reference.si_snr(s[1], est[0]))
    assert reference.upit_loss(s, est) == pytest.approx(min(identity, swap), abs=1e-12)


def test_tie_keeps_identity():
    rng = np.random.default_rng(5)
    s = [rng.standard_normal(64) for _ in range(2)]
    x = rng.standard_normal(64)
    assert reference.best_assignment(s, [x, x])[0] == (0, 1)


def test_mixture_as_estimate_improves_nothing():
    rng = np.random.default_rng(6)
    s = [rng.standard_normal(128) for _ in range(2)]
    mix = s[0] + s[1]
    assert reference.si_snr_improvement(mix, s, [mix, mix]) == pytest.approx(0.0, abs=1e-12)


def test_central_difference_of_a_cubic():
    # (f(h) - f(-h)) / 2h = 3 + h^2 for f(h) = 3h + h^3
    assert reference.central_difference(lambda h: 3 * h + h ** 3, 1e-2) == \
        pytest.approx(3.0001, abs=1e-12)


# ---------------------------------------------------------------------------
# span self times


def span(name, start, end, parent, flags=0, nbytes=0):
    return [name, start, end, parent, flags, nbytes]


def test_self_times_subtract_direct_children_only():
    spans = [
        span("op", 0.0, 10.0, -1),
        span("trainer.train", 1.0, 9.0, 0),
        span("autodiff.grad", 2.0, 6.0, 1),
        span("autodiff.mul", 3.0, 4.0, 2, tracing.IN_GRAD),
        span("autodiff.conv1d", 7.0, 8.5, 1),
    ]
    assert tracing.self_times(spans, 0, len(spans)) == [2.0, 2.5, 3.0, 1.0, 1.5]
    assert sum(tracing.self_times(spans, 0, len(spans))) == 10.0


def test_self_times_of_a_later_root():
    spans = [span("setup", 0.0, 1.0, -1), span("op", 2.0, 5.0, -1),
             span("autodiff.add", 2.5, 3.0, 1)]
    assert tracing.self_times(spans, 1, 3) == [2.5, 0.5]


def test_op_metrics_split_forward_backward_and_outer_grad():
    tr = tracing.Tracer(package=None)
    tr.spans = [
        span("op", 0.0, 20.0, -1),
        span("trainer.inner_adapt", 1.0, 8.0, 0),
        span("autodiff.conv1d", 1.0, 3.0, 1, 0, 64),
        span("autodiff.grad", 3.0, 8.0, 1),
        span("autodiff.conv1d_input_grad", 4.0, 6.0, 3, tracing.IN_GRAD, 32),
        span("autodiff.grad", 9.0, 19.0, 0),
        span("autodiff.add", 10.0, 11.0, 5, tracing.IN_GRAD | tracing.IN_SECOND_ORDER, 16),
    ]
    m = tracing.op_metrics(tr, 0, len(tr.spans), wall=20.0, live_peak=80)
    assert m["autodiff.fwd.self_s"] == 2.0
    assert m["autodiff.bwd.self_s"] == 3.0
    assert m["autodiff.bwd2.self_s"] == 1.0
    assert m["autodiff.grad.self_s"] == 3.0 + 9.0
    assert m["autodiff.grad.calls"] == 2
    assert m["autodiff.conv.calls"] == 2 and m["autodiff.conv.self_s"] == 4.0
    assert m["autodiff.nodes"] == 3 and m["autodiff.out_bytes"] == 112
    assert m["trainer.outer_grad.s"] == 10.0       # the grad under inner_adapt is excluded
    assert m["trainer.inner_adapt.s"] == 7.0
    assert m["layer.trainer.self_s"] == 0.0        # 7 s minus its 2 s + 5 s children
    assert m["trace.unattributed_s"] == 20.0 - 7.0 - 10.0
    modules = sum(m[f"layer.{mod}.self_s"] for mod in tracing.MODULES)
    assert modules + m["trace.unattributed_s"] == 20.0
    assert m["trace.self_gap_s"] == 0.0


def test_recorded_spans_nest_and_add_up():
    tr = tracing.Tracer(package=None)
    root = tr.open("op")
    a = tr.open("model.upit_loss")
    b = tr.open("dsp.si_snr_graph")
    tr.close(b)
    tr.close(a)
    c = tr.open("autodiff.grad")
    tr.close(c)
    tr.close(root)
    assert [s[tracing.PARENT] for s in tr.spans] == [-1, 0, 1, 0]
    selfs = tracing.self_times(tr.spans, 0, len(tr.spans))
    assert min(selfs) >= 0.0
    dur = tr.spans[0][tracing.END] - tr.spans[0][tracing.START]
    assert sum(selfs) == pytest.approx(dur, rel=1e-12, abs=1e-15)


def test_install_records_and_uninstall_restores():
    sys.path.insert(0, str(ROOT / "src"))
    import metasep
    from metasep import autodiff as ad, dsp, evalcli, model, taskgen, trainer  # noqa: F401

    before = {name: getattr(ad, name) for name in tracing.PRIMITIVES + ("grad",)}
    method = trainer.SeparationTask.query_loss
    tr = tracing.Tracer(metasep)
    with tr:
        assert ad.add is not before["add"] and metasep.grad is not before["grad"]
        x = ad.tensor(np.ones(3), requires_grad=True)
        y = ad.sum_all(ad.mul(x, x))
        (g,) = ad.grad(y, [x])
    assert {name: getattr(ad, name) for name in before} == before
    assert metasep.grad is before["grad"] and trainer.SeparationTask.query_loss is method
    np.testing.assert_array_equal(g.data, 2 * np.ones(3))
    names = [s[tracing.NAME] for s in tr.spans]
    assert names[:2] == ["autodiff.mul", "autodiff.sum_all"] and "autodiff.grad" in names
    assert tr.spans[0][tracing.BYTES] == 24
