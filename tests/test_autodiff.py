import gc
import weakref

import numpy as np
import pytest

from metasep import autodiff as ad
from metasep import model, trainer
from oracles import assert_fd_close, fd_gradient, naive_conv1d, naive_conv_transpose1d
from primitive_cases import (CASES, CONV, case_inputs, check_first_order,
                             check_second_order, scalar_loss)
from test_trainer import MICRO, make_task

RNG = np.random.default_rng


# ---------------------------------------------------------------------------
# forward oracles


def test_forward_identity_graph():
    t = RNG(0).normal(size=(3, 5))
    with ad.no_grad():
        out = ad.reshape(ad.tensor(t), t.shape)
    assert np.array_equal(out.data, t)


def test_forward_sigmoid_at_zero():
    with ad.no_grad():
        out = ad.sigmoid(ad.tensor(np.zeros(())))
    assert out.data == 0.5


def test_forward_two_layer_conv_matches_straight_line():
    rng = RNG(11)
    x = rng.normal(size=(2, 30))
    w1 = rng.normal(size=(4, 2, 5))
    w2 = rng.normal(size=(3, 4, 3))
    p = ad.ParamVector.from_arrays({"w1": w1, "w2": w2}).to_leaves()

    with ad.no_grad():
        h = ad.sigmoid(ad.conv1d(ad.tensor(x), p["w1"], stride=2, pad=1))
        got = ad.conv1d(h, p["w2"], dilation=2, pad=2).data

    h = 1.0 / (1.0 + np.exp(-naive_conv1d(x, w1, stride=2, pad=1)))
    want = naive_conv1d(h, w2, dilation=2, pad=2)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed,stride,dilation,groups,pad", [
    (0, 1, 1, 1, 0), (1, 2, 1, 1, 0), (2, 1, 3, 1, 2), (3, 3, 2, 1, 4),
    (4, 1, 1, 2, 0), (5, 1, 2, 3, 2), (6, 2, 1, 6, 1), (7, 1, 4, 2, 3),
])
def test_conv1d_matches_naive(seed, stride, dilation, groups, pad):
    rng = RNG(seed)
    cin, cout, k, t = 6, 4 * groups, 3, 25
    x = rng.normal(size=(cin, t))
    w = rng.normal(size=(cout, cin // groups, k))
    got = ad.conv1d(ad.tensor(x), ad.tensor(w), stride=stride, dilation=dilation,
                    groups=groups, pad=pad)
    want = naive_conv1d(x, w, stride=stride, dilation=dilation, groups=groups, pad=pad)
    np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)


def test_transposed_conv_matches_naive():
    rng = RNG(21)
    g = rng.normal(size=(4, 9))
    w = rng.normal(size=(4, 2, 5))
    got = ad.conv1d_input_grad(ad.tensor(g), ad.tensor(w), stride=2, pad=1, out_len=20)
    want = naive_conv_transpose1d(g, w, stride=2, pad=1, out_len=20)
    np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# gradient checks: every primitive against central finite differences
#
# The case table in primitive_cases.py drives both checks. The tests group
# its entries into one-input ops, ops of two or more inputs (each input in
# turn) and the fused layers (one test per input); the grouping covers every
# entry.

ONE_INPUT = [op for op, c in CASES.items() if len(c.inputs) == 1]
TWO_INPUTS = [op for op, c in CASES.items() if len(c.inputs) > 1 and not c.layer]
LAYER_INPUTS = [(op, arg) for op, c in CASES.items() if c.layer for arg in c.inputs]
LAYER_IDS = [f"{op}.{arg}" for op, arg in LAYER_INPUTS]


def test_case_groups_cover_the_table():
    grouped = ONE_INPUT + TWO_INPUTS + sorted({op for op, _ in LAYER_INPUTS})
    assert sorted(grouped) == sorted(CASES)


def test_every_recorded_op_has_a_case(monkeypatch):
    """Every op string the engine records over the meta-gradients of all
    three modes, a noisy one-shot adaptation and an evaluation has an entry
    in the case table, so both of its finite-difference checks run."""
    seen = set()
    node = ad._node

    def recording_node(op, data, parents, vjp):
        seen.add(op)
        return node(op, data, parents, vjp)

    monkeypatch.setattr(ad, "_node", recording_node)
    theta = model.init_params(MICRO, seed=0)
    tasks = [trainer.SeparationTask(make_task(90 + k), MICRO) for k in range(2)]
    for mode in trainer.MODES:
        trainer.meta_gradient(theta, tasks, 0.01, mode)
    task = make_task(95)
    trainer.prepare_adapt(theta, task, MICRO, noisy=True)
    model.evaluate_si_snri(task.support_pair(), theta, MICRO)

    assert not seen - set(CASES), f"ops without a case: {sorted(seen - set(CASES))}"
    # these stay in the engine only because the benchmark's tracer wraps them;
    # add_channel_bias is conv1d's bias add, checked on its own
    assert set(CASES) - seen == {"relu", "sqrt", "sum_all", "expand_scalar",
                                 "add_channel_bias"}


@pytest.mark.parametrize("op", ONE_INPUT)
@pytest.mark.parametrize("seed", range(4))
def test_unary_primitive_gradients(op, seed):
    (arg,) = CASES[op].inputs
    check_first_order(op, arg, seed)


@pytest.mark.parametrize("op", TWO_INPUTS)
@pytest.mark.parametrize("seed", range(4))
def test_binary_primitive_gradients(op, seed):
    for arg in CASES[op].inputs:
        check_first_order(op, arg, seed)


@pytest.mark.parametrize("op,arg", LAYER_INPUTS, ids=LAYER_IDS)
@pytest.mark.parametrize("seed", range(4))
def test_fused_primitive_gradients(op, arg, seed):
    check_first_order(op, arg, seed)


@pytest.mark.parametrize("op", [op for op in ONE_INPUT + TWO_INPUTS if op != "dot"])
@pytest.mark.parametrize("seed", range(2))
def test_primitive_second_order(op, seed):
    for arg in CASES[op].inputs:
        check_second_order(op, arg, seed)


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("seed", range(2))
def test_dot_second_order(side, seed):
    """dot's second-order check, one test per input: the meta-gradient's
    inner products all run through it."""
    check_second_order("dot", list(CASES["dot"].inputs)[side], seed)


@pytest.mark.parametrize("op,arg", LAYER_INPUTS, ids=LAYER_IDS)
@pytest.mark.parametrize("seed", range(2))
def test_fused_primitive_second_order(op, arg, seed):
    check_second_order(op, arg, seed)


@pytest.mark.parametrize("op", ["div", "sigmoid", "sqrt", "gln_inv", "gln_input_grad"])
def test_outputs_whose_vjp_reads_them_hold_no_cycle(op):
    """These VJPs read the op's own output through a weakref, so with the
    cycle collector off the output still dies with its last reference."""
    ins = [ad.tensor(v, requires_grad=True) for v in case_inputs(op, 0).values()]
    gc.collect()
    gc.disable()
    try:
        out = CASES[op].build(*ins)
        assert out.requires_grad and out._vjp is not None
        ref = weakref.ref(out)
        del out
        assert ref() is None
    finally:
        gc.enable()


def _gradcheck(make_out, x0, *, rtol=1e-5, step=1e-5, label=""):
    leaf = ad.tensor(x0, requires_grad=True)
    (g,) = ad.grad(scalar_loss(make_out(leaf)), [leaf])
    num = fd_gradient(lambda xv: scalar_loss(make_out(ad.tensor(xv))).item(), x0, step=step)
    assert_fd_close(g.data, num, rtol=rtol, label=label)


CONV_GRAD_CASES = [
    (0, 1, 1, 1, 0), (1, 2, 1, 1, 1), (2, 1, 2, 1, 2), (3, 3, 1, 1, 0),
    (4, 1, 1, 2, 0), (5, 1, 2, 6, 2), (6, 2, 2, 2, 3), (7, 1, 4, 3, 4),
]


@pytest.mark.parametrize("seed,stride,dilation,groups,pad", CONV_GRAD_CASES)
def test_conv1d_gradients(seed, stride, dilation, groups, pad):
    rng = RNG(400 + seed)
    cin, cout, k, t = 6, 2 * groups, 3, 21
    x0 = rng.normal(size=(cin, t))
    w0 = rng.normal(size=(cout, cin // groups, k))
    kw = dict(stride=stride, dilation=dilation, groups=groups, pad=pad)
    _gradcheck(lambda xt: ad.conv1d(xt, ad.tensor(w0), **kw), x0,
               label=f"conv1d.x[{seed}]")
    _gradcheck(lambda wt: ad.conv1d(ad.tensor(x0), wt, **kw), w0,
               label=f"conv1d.w[{seed}]")


# the last case overlaps strided taps (stride < K) with padding and groups
@pytest.mark.parametrize("seed,stride,dilation,groups,pad",
                         CONV_GRAD_CASES[:6] + [(8, 2, 1, 2, 1)])
def test_conv1d_input_grad_gradients(seed, stride, dilation, groups, pad):
    rng = RNG(500 + seed)
    out_len = 21
    k = 3
    cout = 2 * groups
    span = dilation * (k - 1) + 1
    t_out = (out_len + 2 * pad - span) // stride + 1
    g0 = rng.normal(size=(cout, t_out))
    w0 = rng.normal(size=(cout, 6 // groups if groups <= 3 else 1, k))
    cin = w0.shape[1] * groups
    kw = dict(stride=stride, dilation=dilation, groups=groups, pad=pad, out_len=out_len)
    _gradcheck(lambda gt: ad.conv1d_input_grad(gt, ad.tensor(w0), **kw), g0,
               label=f"tconv.g[{seed}]")
    _gradcheck(lambda wt: ad.conv1d_input_grad(ad.tensor(g0), wt, **kw), w0,
               label=f"tconv.w[{seed}]")
    assert cin >= 1


# K=16, stride 8 is the encoder/decoder geometry
TCONV_SECOND_ORDER_CASES = [(0, 16, 8, 1, 1, 0), (1, 5, 2, 1, 2, 1), (2, 3, 1, 2, 3, 2)]


@pytest.mark.parametrize("seed,k,stride,dilation,groups,pad", TCONV_SECOND_ORDER_CASES)
def test_conv1d_input_grad_second_order(seed, k, stride, dilation, groups, pad):
    """Gradient of a function of conv1d_input_grad's own gradient (built with
    create_graph) against central differences, and the forward against the
    naive transposed convolution."""
    rng = RNG(800 + seed)
    out_len = 4 * k + 3
    span = dilation * (k - 1) + 1
    t_out = (out_len + 2 * pad - span) // stride + 1
    g0 = rng.normal(size=(2 * groups, t_out))
    w0 = rng.normal(size=(2 * groups, 2, k))
    kw = dict(stride=stride, dilation=dilation, groups=groups, pad=pad, out_len=out_len)
    got = ad.conv1d_input_grad(ad.tensor(g0), ad.tensor(w0), **kw)
    np.testing.assert_allclose(got.data, naive_conv_transpose1d(g0, w0, **kw),
                               rtol=0, atol=1e-12)

    def grad_norm(wt):
        gt = ad.tensor(g0, requires_grad=True)
        (dg,) = ad.grad(scalar_loss(ad.conv1d_input_grad(gt, wt, **kw)), [gt],
                        create_graph=True)
        return ad.dot(dg, dg)

    _gradcheck(grad_norm, w0, label=f"tconv second order[{seed}]")


@pytest.mark.parametrize("seed,stride,dilation,groups,pad", CONV_GRAD_CASES[:4])
def test_conv1d_weight_grad_gradients(seed, stride, dilation, groups, pad):
    rng = RNG(600 + seed)
    cin, cout, k, t = 6, 2 * groups, 3, 21
    span = dilation * (k - 1) + 1
    t_out = (t + 2 * pad - span) // stride + 1
    x0 = rng.normal(size=(cin, t))
    g0 = rng.normal(size=(cout, t_out))
    kw = dict(kernel=k, stride=stride, dilation=dilation, groups=groups, pad=pad)
    _gradcheck(lambda xt: ad.conv1d_weight_grad(xt, ad.tensor(g0), **kw), x0,
               label=f"wgrad.x[{seed}]")
    _gradcheck(lambda gt: ad.conv1d_weight_grad(ad.tensor(x0), gt, **kw), g0,
               label=f"wgrad.g[{seed}]")


def _bits(arr):
    return np.asarray(arr, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("slope", [0.0, 0.25, -1.5])
def test_prelu_forward_and_input_vjp_are_bit_exact(slope):
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -2.0, 5e-324, -5e-324])
    x = np.concatenate([special, RNG(980).normal(size=23)])
    g = np.concatenate([special[::-1], RNG(981).normal(size=23)])
    with np.errstate(invalid="ignore"):  # 0 * inf
        out = ad.prelu(ad.tensor(x, requires_grad=True), ad.tensor(slope))
        dx, _ = out._vjp(ad.tensor(g))
        assert np.array_equal(_bits(out.data), _bits(np.where(x > 0, x, slope * x)))
        assert np.array_equal(_bits(dx.data), _bits(np.where(x > 0, g, slope * g)))


def test_broadcasts_are_read_only_views():
    s = ad.tensor(2.0, requires_grad=True)
    c = ad.tensor(np.arange(3.0), requires_grad=True)
    for out in (ad.expand_scalar(s, (4, 5)), ad.expand_time(c, 6)):
        assert not out.data.flags.writeable and not out.data.flags.owndata
        with pytest.raises(ValueError):
            out.data[0, 0] = 1.0
        with pytest.raises(ValueError):
            out.data += 1.0
    np.testing.assert_array_equal(ad.expand_time(c, 6).data,
                                  np.repeat(np.arange(3.0)[:, None], 6, axis=1))


def test_sum_all_gradient_is_a_view_that_flatten_named_copies():
    x = ad.tensor(RNG(985).normal(size=(3, 4)), requires_grad=True)
    (g,) = ad.grad(ad.sum_all(x), [x])
    np.testing.assert_array_equal(g.data, np.ones((3, 4)))
    assert not g.data.flags.writeable
    pv = ad.ParamVector.from_arrays({"w": np.zeros((3, 4)), "c": np.zeros(2)})
    packed = pv.flatten_named({"w": g.data, "c": np.arange(2.0)})
    w = packed.view("w")
    assert w.flags.writeable and w.flags.c_contiguous and packed.values.flags.owndata
    np.testing.assert_array_equal(packed.values, np.r_[np.ones(12), 0.0, 1.0])
    w[0, 0] = 7.0  # the packed gradient is its own memory, not the broadcast's
    np.testing.assert_array_equal(g.data, np.ones((3, 4)))


def test_fused_primitive_forwards_match_composed_layers():
    def gln(x, gamma, beta):
        centered = x - x.mean()
        return (centered / np.sqrt(np.mean(centered ** 2) + 1e-8) * gamma[:, None]
                + beta[:, None])

    want = {
        "add_channel_bias": lambda x, b: x + b[:, None],
        "conv1d": lambda x, w, b: naive_conv1d(x, w, **CONV) + b[:, None],
        "prelu": lambda x, a: np.maximum(x, 0.0) - a * np.maximum(-x, 0.0),
        "gln": gln,
    }
    for op, composed in want.items():
        vals = case_inputs(op, 990)
        got = CASES[op].build(*map(ad.tensor, vals.values())).data
        np.testing.assert_allclose(got, composed(*vals.values()), rtol=0, atol=1e-12,
                                   err_msg=op)


# ---------------------------------------------------------------------------
# spec'd example values


def test_polynomial_gradient():
    theta = ad.tensor(3.0, requires_grad=True)
    (g,) = ad.grad(ad.mul(theta, theta), [theta])
    assert g.item() == pytest.approx(6.0, abs=1e-12)


def test_sigmoid_gradient_closed_form():
    x = ad.tensor(0.0, requires_grad=True)
    (g,) = ad.grad(ad.sigmoid(x), [x])
    assert g.item() == pytest.approx(0.25, abs=1e-12)


def test_second_derivative_of_cubic():
    x = ad.tensor(2.0, requires_grad=True)
    y = ad.mul(ad.mul(x, x), x)
    (g1,) = ad.grad(y, [x], create_graph=True)
    (g2,) = ad.grad(g1, [x])
    assert abs(g2.item() - 12.0) <= 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_second_derivatives_on_polynomials(seed):
    # f(x) = a x^4 + b x^3 + c x^2, f'' = 12 a x^2 + 6 b x + 2 c
    rng = RNG(700 + seed)
    a, b, c = rng.normal(size=3)
    x0 = float(rng.normal())
    x = ad.tensor(x0, requires_grad=True)
    x2 = ad.mul(x, x)
    f = ad.add(ad.add(ad.scalar_mul(a, ad.mul(x2, x2)),
                      ad.scalar_mul(b, ad.mul(x2, x))),
               ad.scalar_mul(c, x2))
    (g1,) = ad.grad(f, [x], create_graph=True)
    (g2,) = ad.grad(g1, [x])
    want = 12 * a * x0 ** 2 + 6 * b * x0 + 2 * c
    assert abs(g2.item() - want) <= 1e-8 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# engine invariants


def test_determinism_bit_identical():
    def run():
        rng = RNG(42)
        x = ad.tensor(rng.normal(size=(3, 16)), requires_grad=True)
        w = ad.tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
        y = ad.sigmoid(ad.conv1d(x, w, pad=1))
        loss = ad.sum_all(ad.mul(y, y))
        gx, gw = ad.grad(loss, [x, w])
        return loss.data.copy(), gx.data.copy(), gw.data.copy()

    first, second = run(), run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_gradient_linearity():
    rng = RNG(9)
    x0 = rng.normal(size=(5,))
    a, b = 2.375, -0.625  # exactly representable, so linearity is bit-tight

    def f(t):
        return ad.sum_all(ad.mul(t, ad.sigmoid(t)))

    def g(t):
        return ad.dot(t, t)

    x = ad.tensor(x0, requires_grad=True)
    (combined,) = ad.grad(ad.add(ad.scalar_mul(a, f(x)), ad.scalar_mul(b, g(x))), [x])
    x = ad.tensor(x0, requires_grad=True)
    (gf,) = ad.grad(f(x), [x])
    x = ad.tensor(x0, requires_grad=True)
    (gg,) = ad.grad(g(x), [x])
    np.testing.assert_allclose(combined.data, a * gf.data + b * gg.data,
                               rtol=0, atol=1e-12)


def test_shape_mismatch_identifies_op():
    with pytest.raises(ad.ShapeMismatchError, match="add"):
        ad.add(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((3, 2))))
    with pytest.raises(ad.ShapeMismatchError, match="conv1d"):
        ad.conv1d(ad.tensor(np.zeros((3, 10))), ad.tensor(np.zeros((4, 2, 3))))


def test_gradient_rejects_non_scalar():
    x = ad.tensor(np.ones(4), requires_grad=True)
    with pytest.raises(ad.NonScalarOutputError):
        ad.grad(ad.neg(x), [x])


def test_gradient_of_unused_leaf_is_zero():
    x = ad.tensor(1.0, requires_grad=True)
    unused = ad.tensor(np.ones(3), requires_grad=True)
    gx, gu = ad.grad(ad.mul(x, x), [x, unused])
    assert gx.item() == 2.0
    assert np.array_equal(gu.data, np.zeros(3))


def test_no_grad_suppresses_recording():
    x = ad.tensor(2.0, requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert not y.requires_grad
    (g,) = ad.grad(ad.mul(x, x), [x])
    assert g.item() == 4.0


def test_gradient_and_second_order_through_inner_grad():
    theta = ad.tensor(3.0, requires_grad=True)
    (g,) = ad.grad(ad.mul(theta, theta), [theta])
    assert g.item() == pytest.approx(6.0)

    # quadratic-in-quadratic: L(theta') with theta' = theta - a * dLsup/dtheta
    alpha, a, u, b, v = 0.1, 1.0, 1.0, 1.0, 3.0
    th = ad.tensor(0.0, requires_grad=True)
    diff = ad.add_constant(th, -u)
    sup = ad.scalar_mul(a, ad.mul(diff, diff))
    (gs,) = ad.grad(sup, [th], create_graph=True)
    th_prime = ad.sub(th, ad.scalar_mul(alpha, gs))
    dq = ad.add_constant(th_prime, -v)
    (got,) = ad.grad(ad.scalar_mul(b, ad.mul(dq, dq)), [th])
    theta_prime = 0.0 - alpha * 2 * a * (0.0 - u)
    want = 2 * b * (theta_prime - v) * (1 - 2 * a * alpha)
    assert got.item() == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(-4.48)

    with pytest.raises(ad.NonScalarOutputError):
        ad.grad(ad.expand_scalar(theta, (2,)), [theta])


# ---------------------------------------------------------------------------
# ParamVector


def test_param_vector_layout_roundtrip():
    rng = RNG(3)
    arrays = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(4,)),
              "c": rng.normal(size=())}
    pv = ad.ParamVector.from_arrays(arrays)
    assert pv.dim == 11
    assert list(pv.layout.items()) == [("a", (0, (2, 3))), ("b", (6, (4,))), ("c", (10, ()))]
    for name, arr in arrays.items():
        np.testing.assert_array_equal(pv.view(name), arr)
    packed = pv.flatten_named({n: pv.view(n) for n in pv.layout})
    assert np.array_equal(packed.values, pv.values)


def test_param_vector_rejects_bad_layout():
    with pytest.raises(ValueError, match="covers 2 values, vector has 3"):
        ad.ParamVector(np.zeros(3), {"a": (2,)})  # does not cover


def test_flatten_named_needs_every_slice():
    pv = ad.ParamVector.from_arrays({"a": np.zeros(2), "b": np.zeros(3)})
    with pytest.raises(KeyError, match="b"):
        pv.flatten_named({"a": np.ones(2)})


def test_leaves_are_independent_of_vector():
    pv = ad.ParamVector.from_arrays({"w": np.arange(4.0)})
    leaves = pv.to_leaves()
    pv.values[:] = 0.0
    assert np.array_equal(leaves["w"].data, np.arange(4.0))
