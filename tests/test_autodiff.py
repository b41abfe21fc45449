import collections
import contextlib
import dataclasses
import functools
import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from metasep import autodiff as ad
from metasep import model, trainer
from oracles import assert_fd_close, fd_gradient, naive_conv1d, naive_conv_transpose1d
from primitive_cases import (CASES, CONV, GLN_EPS, case_inputs, check_first_order,
                             check_second_order, gln_stats, scalar_loss)
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
    # these stay in the engine only because the benchmark's tracer wraps them,
    # add_constant also for sigmoid_grad_y's VJP, a third derivative;
    # add_channel_bias and conv1d_addend are conv1d's bias add and its addend,
    # checked on their own, and prelu_gln a gLN of a released PReLU output
    assert set(CASES) - seen == {"relu", "sqrt", "sum_all", "expand_scalar", "add_constant",
                                 "add_channel_bias", "conv1d_addend", "prelu_gln"}


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


ALL_INPUTS = [(op, arg) for op, c in CASES.items() for arg in c.inputs]


@pytest.mark.parametrize("op,arg", ALL_INPUTS, ids=[f"{op}.{arg}" for op, arg in ALL_INPUTS])
def test_second_order_through_summed_cotangents(op, arg):
    """Each input feeds two copies of the op, so a create-graph walk sums two
    VJP outputs into its cotangent and releases their arrays; the Hessian-
    vector product through those sums still matches differences."""
    check_second_order(op, arg, 0, twice=True)


@pytest.mark.parametrize("op", sorted(CASES))
def test_vjp_contributions_are_distinct_and_feed_no_node_of_their_vjp(op, monkeypatch):
    """What the release of summed operands relies on: a VJP's contributions,
    other than a cotangent it passes through, are distinct objects, and no
    node the VJP records, deferred contributions included, reads one."""
    vals = case_inputs(op, 0)
    out = CASES[op].build(*(ad.tensor(v, requires_grad=True) for v in vals.values()))
    g = ad.tensor(RNG(1).normal(size=out.shape), requires_grad=True)
    recorded, node = [], ad._node

    def recording_node(*args):
        recorded.append(node(*args))
        return recorded[-1]

    monkeypatch.setattr(ad, "_node", recording_node)
    contribs = [c() if type(c) is ad._Later else c for c in out._vjp(g)]
    fresh = {id(c) for c in contribs if c is not None and c is not g}
    assert len(fresh) == sum(c is not None and c is not g for c in contribs)
    assert not any(id(p) in fresh for t in recorded for p in t._parents)


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


# K=16, stride 8 is the encoder/decoder geometry; K=1, stride 1 a 1x1 conv's
TCONV_SECOND_ORDER_CASES = [(0, 16, 8, 1, 1, 0), (1, 5, 2, 1, 2, 1), (2, 3, 1, 2, 3, 2),
                            (3, 1, 1, 1, 1, 0)]


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


@pytest.mark.parametrize("slope", [0.0, 0.25, -1.5])
def test_a_released_prelu_output_reads_back_its_bits(slope, monkeypatch):
    """gln releases the array of the recorded PReLU output it normalizes: the
    output keeps a NaN view of its shape that owns no memory, its shape and a
    walk's size count read no data, and each read of its data recomputes a
    fresh array with the forward's bits."""
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -2.0, 5e-324, -5e-324])
    x = np.concatenate([special, RNG(983).normal(size=23)]).reshape(2, 16)
    with np.errstate(invalid="ignore"):  # 0 * inf, and the stats of a NaN
        out = ad.prelu(ad.tensor(x, requires_grad=True), ad.tensor(slope, requires_grad=True))
        want = out.data.copy()
        normed = ad.gln(out, ad.tensor(np.ones(2)), ad.tensor(np.zeros(2)), GLN_EPS)
        held = ad._held(out)
        assert held.shape == (2, 16) and held.strides == (0, 0) and np.isnan(held).all()
        assert not held.flags.owndata
        reads, remade = [], ad._remade
        monkeypatch.setattr(ad, "_remade", lambda t: reads.append(t) or remade(t))
        assert out.shape == (2, 16) and "(2, 16)" in repr(out)
        ad._Walk(ad.sum_all(normed), [out], create_graph=False)
        assert reads == []
        first, second = out.data, out.data
        assert len(reads) == 2 and first is not second
        assert np.array_equal(_bits(first), _bits(want))
        assert np.array_equal(_bits(second), _bits(want))


def test_a_prelu_output_that_no_graph_records_keeps_its_array():
    with ad.no_grad():
        out = ad.prelu(ad.tensor(RNG(984).normal(size=(2, 5)), requires_grad=True),
                       ad.tensor(0.25))
        ad.gln(out, ad.tensor(np.ones(2)), ad.tensor(np.zeros(2)), GLN_EPS)
    assert type(out) is ad.Tensor and ad._held(out).flags.owndata


def _sigmoid_by_sign(x):
    """sigmoid's former forward: the two branches split by boolean-mask indexing."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def test_sigmoid_forward_is_bit_exact():
    special = np.array([0.0, -0.0, 1e3, -1e3, np.inf, -np.inf, np.nan, -np.nan, 5e-324])
    for x in [special, RNG(982).normal(size=(128, 3999)) * 8.0, *special]:
        x = np.asarray(x)
        got = ad.sigmoid(ad.tensor(x)).data
        assert got.shape == x.shape
        assert np.array_equal(_bits(got), _bits(_sigmoid_by_sign(x)))


def _sigmoid_vjp_chain(g, y):
    """sigmoid's former VJP, g * (y * ((-y) + 1)) as four nodes."""
    return ad.mul(g, ad.mul(y, ad.add_constant(ad.neg(y), 1.0)))


def test_sigmoid_grad_nodes_are_bit_exact():
    """sigmoid_grad has the bits of the chain it replaced, and its VJP's two
    outputs have the bits of a walk back through that chain."""
    rng = RNG(991)
    g, c = rng.normal(size=(2, 64, 301))
    y = ad.sigmoid(ad.tensor(rng.normal(size=(64, 301)) * 4.0)).data
    leaves = [ad.tensor(v, requires_grad=True) for v in (g, y)]
    assert np.array_equal(_bits(ad._sigmoid_grad(*leaves).data),
                          _bits(_sigmoid_vjp_chain(*leaves).data))
    want = ad.grad(ad.dot(_sigmoid_vjp_chain(*leaves), ad.tensor(c)), leaves)
    got = ad._sigmoid_grad(*leaves)._vjp(ad.tensor(c))
    assert [t.op for t in got] == ["sigmoid_grad", "sigmoid_grad_y"]
    for w, t in zip(want, got):
        assert np.array_equal(_bits(t.data), _bits(w.data))


def _tap_overlap_add(g, w, *, stride, dilation, groups, pad, out_len):
    """conv1d_input_grad's former forward: one strided add per kernel tap."""
    cout, t_out = g.shape
    _, cg, k = w.shape
    cin = cg * groups
    gg = g.reshape(groups, cout // groups, t_out)
    wg = w.reshape(groups, cout // groups, cg, k)
    dxp = np.zeros((cin, out_len + 2 * pad))
    hi = (t_out - 1) * stride + 1
    if groups == 1:
        contrib = (wg[0].transpose(1, 2, 0).reshape(cg * k, cout) @ gg[0]).reshape(cin, k, t_out)
    else:
        contrib = np.einsum("got,goik->gikt", gg, wg).reshape(cin, k, t_out)
    for tap in range(k):
        dxp[:, tap * dilation: tap * dilation + hi: stride] += contrib[:, tap]
    return dxp[:, pad: pad + out_len] if pad else dxp


@pytest.mark.parametrize("cout,cg,k,stride,dilation,groups,pad,extra", [
    (64, 1, 16, 8, 1, 1, 0, 0),   # the default separator's decoder
    (16, 1, 32, 16, 1, 1, 0, 0),  # the benchmark's tiny separator's decoder
    (16, 1, 32, 16, 1, 1, 0, 9),  # 9 trailing samples that no tap reaches
    (6, 2, 16, 8, 1, 1, 3, 5),    # padded
    (4, 3, 1, 1, 1, 1, 0, 0),     # 1 tap
    (4, 2, 4, 2, 1, 2, 1, 1),     # grouped
    (4, 3, 5, 2, 1, 1, 1, 1),     # a stride that does not divide K
    (4, 1, 3, 1, 2, 4, 2, 0),     # dilated depthwise
])
def test_conv1d_input_grad_forward_is_bit_exact(cout, cg, k, stride, dilation, groups, pad,
                                                extra):
    rng = RNG(983)
    t_out = 37
    out_len = (t_out - 1) * stride + dilation * (k - 1) + 1 - 2 * pad + extra
    g = rng.normal(size=(cout, t_out))
    w = rng.normal(size=(cout, cg, k))
    kw = dict(stride=stride, dilation=dilation, groups=groups, pad=pad, out_len=out_len)
    got = ad.conv1d_input_grad(ad.tensor(g), ad.tensor(w), **kw).data
    assert got.shape == (cg * groups, out_len)
    assert np.array_equal(_bits(got), _bits(_tap_overlap_add(g, w, **kw)))


def _naive_overlap_add(g, w, *, stride, dilation, groups, pad, out_len):
    """Loop-based conv1d_input_grad that adds every product to its sample in
    a zeroed signal, taps in increasing order, as the kernel sums them."""
    cout, t_out = g.shape
    _, cg, k = w.shape
    dxp = np.zeros((cg * groups, out_len + 2 * pad))
    for tap in range(k):
        for o in range(cout):
            for i in range(cg):
                for t in range(t_out):
                    dxp[o // (cout // groups) * cg + i, t * stride + tap * dilation] += (
                        w[o, i, tap] * g[o, t])
    return dxp[:, pad: pad + out_len]


@pytest.mark.parametrize("cout,cg,k,dilation,groups,pad", [
    (5, 4, 1, 1, 1, 0),  # 1 tap: the product is dx, with no zero buffer
    (4, 1, 1, 1, 4, 0),  # 1-tap depthwise, which keeps the zero buffer
    (4, 1, 3, 1, 4, 1),  # padded depthwise
    (4, 1, 3, 2, 4, 2),  # padded depthwise, dilated
])
def test_conv1d_input_grad_matches_a_naive_overlap_add(cout, cg, k, dilation, groups, pad):
    rng = RNG(989)
    t_out = 37
    out_len = t_out + dilation * (k - 1) - 2 * pad
    # whole numbers sum exactly in any order, so BLAS's bits are the loop's
    g = np.round(rng.normal(size=(cout, t_out)) * 2.0)
    w = np.round(rng.normal(size=(cout, cg, k)) * 2.0)
    if groups > 1:  # no sums across channels: test the rounding of real products
        g, w = rng.normal(size=g.shape), rng.normal(size=w.shape)
    # a zero row and column of g against negative weights give products of -0.0,
    # which the loop's add to a +0.0 clears
    g[1], g[:, 5] = 0.0, 0.0
    w[1], w[:, 0] = -np.abs(w[1]) - 1.0, -np.abs(w[:, 0]) - 1.0
    kw = dict(stride=1, dilation=dilation, groups=groups, pad=pad, out_len=out_len)
    got = ad.conv1d_input_grad(ad.tensor(g), ad.tensor(w), **kw).data
    want = _naive_overlap_add(g, w, **kw)
    assert not np.signbit(want[want == 0.0]).any()
    assert np.array_equal(_bits(got), _bits(want))


def _windowed_conv(x, w, *, stride, dilation, groups, pad):
    """conv1d's former forward, over np.pad and a window view at every geometry;
    with g in place of w, conv1d_weight_grad's."""
    cout, cg, k = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad))) if pad else x
    t_out = (xp.shape[1] - dilation * (k - 1) - 1) // stride + 1
    win = ad._windows(xp, k, stride, dilation).reshape(groups, cg, t_out, k)
    wg = w.reshape(groups, cout // groups, cg, k)
    if groups == 1:
        return wg[0].reshape(cout, cg * k) @ win[0].transpose(0, 2, 1).reshape(cg * k, t_out)
    return np.einsum("gitk,goik->got", win, wg).reshape(cout, t_out)


def _windowed_weight_grad(x, g, *, kernel, stride, dilation, groups, pad):
    cin, cout = x.shape[0], g.shape[0]
    cg, t_out = cin // groups, g.shape[1]
    xp = np.pad(x, ((0, 0), (pad, pad))) if pad else x
    win = ad._windows(xp, kernel, stride, dilation).reshape(groups, cg, t_out, kernel)
    gg = g.reshape(groups, cout // groups, t_out)
    if groups == 1:
        cols = win[0].transpose(1, 0, 2).reshape(t_out, cg * kernel)
        return (gg[0] @ cols).reshape(cout, cg, kernel)
    return np.einsum("got,gitk->goik", gg, win).reshape(cout, cg, kernel)


@pytest.mark.parametrize("cout,cg,k,stride,dilation,groups,pad", [
    (5, 6, 1, 1, 1, 1, 0),   # 1 tap: the weight matrix times the input
    (5, 6, 3, 1, 1, 1, 1),   # padded
    (6, 1, 3, 1, 2, 6, 2),   # padded depthwise, dilated
    (6, 1, 3, 1, 1, 6, 1),   # padded depthwise at dilation 1: shifted multiply-adds
    (6, 1, 5, 1, 1, 6, 2),   # the same with 5 taps, two of them odd
    (4, 3, 4, 2, 1, 2, 0),   # strided, grouped
])
def test_conv1d_and_weight_grad_forwards_are_bit_exact(cout, cg, k, stride, dilation,
                                                       groups, pad):
    rng = RNG(984)
    x = rng.normal(size=(cg * groups, 45))
    w = rng.normal(size=(cout, cg, k))
    b = rng.normal(size=cout)
    kw = dict(stride=stride, dilation=dilation, groups=groups, pad=pad)
    want = _windowed_conv(x, w, **kw)
    got = ad.conv1d(ad.tensor(x), ad.tensor(w), **kw).data
    assert np.array_equal(_bits(got), _bits(want))
    got = ad.conv1d(ad.tensor(x), ad.tensor(w), ad.tensor(b), **kw).data
    assert np.array_equal(_bits(got), _bits(want + b[:, None]))
    g = rng.normal(size=want.shape)
    got = ad.conv1d_weight_grad(ad.tensor(x), ad.tensor(g), kernel=k, **kw).data
    assert np.array_equal(_bits(got), _bits(_windowed_weight_grad(x, g, kernel=k, **kw)))


def test_gln_forward_is_bit_exact():
    rng = RNG(986)
    x, gamma, beta = rng.normal(size=(8, 301)) * 3.0 + 0.7, rng.normal(size=8), rng.normal(size=8)
    n = x.size
    mu = (1.0 / n) * x.sum()
    centered = x - mu
    inv = 1.0 / np.sqrt((1.0 / n) * np.dot(centered.ravel(), centered.ravel()) + GLN_EPS)
    want = centered * (inv * gamma)[:, None] + beta[:, None]  # one scale per channel
    got = ad.gln(ad.tensor(x), ad.tensor(gamma), ad.tensor(beta), GLN_EPS).data
    assert np.array_equal(_bits(got), _bits(want))


def _gln_input_grad_by_sums(x, g, gamma):
    """inv * (g * gamma - m1 - x_hat * m2), its two means from per-channel sums."""
    n = x.size
    mu, inv = gln_stats(x)
    xhat = (x - mu) * inv
    m1 = np.dot(gamma, g.sum(axis=1)) / n
    m2 = np.dot(gamma, np.einsum("ct,ct->c", g, xhat)) / n
    return g * (inv * gamma)[:, None] - (xhat * (inv * m2) + inv * m1)


def test_gln_input_grad_is_bit_exact():
    rng = RNG(987)
    x, g = rng.normal(size=(8, 301)) * 3.0 + 0.7, rng.normal(size=(8, 301))
    gamma, beta = rng.normal(size=8), rng.normal(size=8)
    want = _gln_input_grad_by_sums(x, g, gamma)
    got = ad._gln_input_grad(ad.tensor(x), ad.tensor(g), ad.tensor(gamma), gln_stats(x)).data
    assert np.array_equal(_bits(got), _bits(want))
    # through gln's VJP, which hands the input gradient gamma's gradient
    ins = [ad.tensor(v, requires_grad=True) for v in (x, gamma, beta)]
    dx, dgamma, _ = ad.gln(*ins, GLN_EPS)._vjp(ad.tensor(g))
    assert np.array_equal(_bits(dx.data), _bits(want))
    mu, inv = gln_stats(x)
    assert np.array_equal(_bits(dgamma.data), _bits(np.einsum("ct,ct->c", g, (x - mu) * inv)))


# x at 1e6 is left out: a step of 1e-5 there is itself rounded by 1e-5 of its size
GLN_FAR_INPUTS = [(mean, op, arg) for op in ("gln", "gln_input_grad")
                  for arg in CASES[op].inputs for mean in (1e3, 1e6)
                  if mean == 1e3 or arg != "x"]


@pytest.mark.parametrize("mean,op,arg", GLN_FAR_INPUTS,
                         ids=[f"{o}.{a}@{m:.0e}" for m, o, a in GLN_FAR_INPUTS])
def test_gln_far_from_zero_mean_matches_differences(mean, op, arg):
    """x = mean + N(0, 1), outside the case table's domains: a mean large next
    to the spread, where x_hat written as inv * x - inv * mean would cancel."""
    vals = case_inputs(op, 0)
    vals["x"] = mean + vals["x"]
    check_first_order(op, arg, 0, vals=vals)
    check_second_order(op, arg, 0, vals=vals)


def test_gln_forward_far_from_zero_mean_matches_textbook():
    rng = RNG(988)
    x, gamma, beta = 1e3 + rng.normal(size=(8, 301)), rng.normal(size=8), rng.normal(size=8)
    centered = x - x.mean()
    want = centered / np.sqrt(np.mean(centered ** 2) + GLN_EPS) * gamma[:, None] + beta[:, None]
    got = ad.gln(ad.tensor(x), ad.tensor(gamma), ad.tensor(beta), GLN_EPS).data
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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
        "conv1d_addend": lambda a, x, w, b: naive_conv1d(x, w, **CONV) + b[:, None] + a,
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
    with pytest.raises(ad.ShapeMismatchError, match=r"conv1d: addend must be \(4, 8\)"):
        ad.conv1d(ad.tensor(np.zeros((2, 10))), ad.tensor(np.zeros((4, 2, 3))),
                  addend=ad.tensor(np.zeros((4, 10))))
    with pytest.raises(ad.ShapeMismatchError, match="sigmoid_grad"):
        ad._sigmoid_grad(ad.tensor(np.zeros(3)), ad.tensor(np.zeros(4)))


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


def test_node_ids_stay_unique_across_threads():
    """Eight threads record graph nodes at once, switching every microsecond;
    a lost update of the shared id counter would hand two nodes one id."""
    ids, previous = [[] for _ in range(8)], sys.getswitchinterval()

    def record(out):
        x = ad.tensor(1.0, requires_grad=True)
        for _ in range(2000):
            out.append(ad.add(x, x)._id)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=record, args=(out,)) for out in ids]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    every = [i for out in ids for i in out]
    assert len(every) == 8 * 2000
    assert len(set(every)) == len(every)


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


def _micro_loss(seed):
    leaves = model.init_params(MICRO, seed=seed).to_leaves()
    task = trainer.SeparationTask(make_task(seed), MICRO)
    return leaves, task.support_loss(leaves)


def _interior_nodes(output):
    """Every node of output's graph that is neither output nor a leaf."""
    seen, stack = {}, list(output._parents)
    while stack:
        node = stack.pop()
        if node._id not in seen and node._parents:
            seen[node._id] = node
            stack.extend(node._parents)
    return list(seen.values())


def test_first_order_grad_consumes_its_graph():
    """A second backward through a graph that a first-order grad walked
    raises; it never returns zeros."""
    leaves, loss = _micro_loss(40)
    shared = _interior_nodes(loss)[0]
    ad.grad(loss, list(leaves.values()))
    with pytest.raises(RuntimeError, match="consumed"):
        ad.grad(loss, list(leaves.values()))
    with pytest.raises(RuntimeError, match="consumed"):
        ad.grad(loss, list(leaves.values()), create_graph=True)
    with pytest.raises(RuntimeError, match="consumed"):
        ad.grad(ad.dot(shared, shared), list(leaves.values()))


def test_create_graph_backward_leaves_the_graph_whole():
    """Two create-graph backwards of one loss, then a first-order one, give
    the same bits."""
    leaves, loss = _micro_loss(41)
    runs = [ad.grad(loss, list(leaves.values()), create_graph=create_graph)
            for create_graph in (True, True, False)]
    for grads in runs[1:]:
        for a, b in zip(runs[0], grads):
            assert np.array_equal(a.data, b.data)


def test_create_graph_walk_releases_only_summed_arrays_it_made():
    """A create-graph sum keeps its operands as graph parents but not their
    arrays: each operand the walk made reads NaN afterwards and owns no
    memory, while a tensor made before the walk that a VJP hands back keeps
    its array."""
    x = ad.tensor(RNG(2).normal(size=(3, 4)), requires_grad=True)
    made_before = ad.tensor(RNG(3).normal(size=(3, 4)))
    kept = made_before.data
    handed_back = ad._node("handed_back", x.data.copy(), (x,), lambda g: (made_before,))
    loss = ad.add(ad.sum_all(handed_back), ad.sum_all(ad.mul(x, x)))
    (gx,) = ad.grad(loss, [x], create_graph=True)
    np.testing.assert_allclose(gx.data, kept + 2.0 * x.data, rtol=1e-15)
    operands, stack = [], list(gx._parents)
    while stack:
        t = stack.pop()
        operands.append(t)
        if t.op == "add":
            stack.extend(t._parents)
    assert sorted(t.op for t in operands) == ["add", "leaf", "mul", "mul"]
    for t in operands:
        if t is made_before:
            assert t.data is kept
        else:
            assert t.data.shape == (3, 4) and np.isnan(t.data).all() and t.data.strides == (0, 0)


def test_first_order_grad_frees_the_nodes_it_walks():
    """Once a first-order grad returns, no interior node of the walked graph
    is alive, though the caller still holds the output."""
    leaves, loss = _micro_loss(42)
    refs = [weakref.ref(node) for node in _interior_nodes(loss)]
    assert len(refs) > 30
    gc.collect()
    gc.disable()
    try:
        ad.grad(loss, list(leaves.values()))
        assert [r() for r in refs if r() is not None] == []
    finally:
        gc.enable()


def _walk_threads(monkeypatch):
    """Node-making thread names, recorded while every walk on more than one
    worker takes a helper whatever its arrays' sizes."""
    monkeypatch.setattr(ad, "_HELPER_MIN_MEAN_ELEMENTS", 0)
    made, node = [], ad._node

    def recording_node(op, data, parents, vjp):
        out = node(op, data, parents, vjp)
        made.append((threading.current_thread().name, out))
        return out

    monkeypatch.setattr(ad, "_node", recording_node)
    return made


@pytest.mark.parametrize("op", sorted(CASES))
def test_two_thread_walk_gives_the_same_bits(op, monkeypatch):
    """Every case's gradient with respect to all its inputs has the same bits
    on one and on two threads, and the helper records no graph."""
    made = _walk_threads(monkeypatch)
    vals = case_inputs(op, 0)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(ad, "WORKERS", workers)
        ins = [ad.tensor(v, requires_grad=True) for v in vals.values()]
        runs.append(ad.grad(scalar_loss(CASES[op].build(*ins)), ins))
    for one, two in zip(*runs):
        assert np.array_equal(one.data, two.data)
    assert all(not t._parents and not t.requires_grad
               for thread, t in made if thread == "metasep-walk")


def test_helper_threads_run_vjps_without_recording(monkeypatch):
    """On a model loss the helper runs VJPs, and every cotangent it makes is
    a plain array with no parents."""
    made = _walk_threads(monkeypatch)
    monkeypatch.setattr(ad, "WORKERS", 2)
    leaves, loss = _micro_loss(43)
    ad.grad(loss, list(leaves.values()))
    helper = [t for thread, t in made if thread == "metasep-walk"]
    assert helper
    assert all(not t._parents and not t.requires_grad and t._vjp is None for t in helper)


def test_small_graphs_keep_the_walk_on_one_thread(monkeypatch):
    """Over a graph of small arrays the GIL sets the pace, so a walk on two
    workers starts no helper there."""
    threads = []
    monkeypatch.setattr(ad._Walk, "help", lambda walk: threads.append(walk))
    monkeypatch.setattr(ad, "WORKERS", 2)
    leaves, loss = _micro_loss(45)
    ad.grad(loss, list(leaves.values()))
    assert threads == []


def test_a_walk_that_runs_alone_takes_a_helper_on_any_thread(monkeypatch):
    """Outside an in_order map, a walk over large enough arrays takes
    WORKERS - 1 helpers, on the main thread and on a thread started
    elsewhere alike, with the bits of one thread."""
    monkeypatch.setattr(ad, "_HELPER_MIN_MEAN_ELEMENTS", 0)
    helped, real_help = [], ad._Walk.help

    def counting_help(walk):
        helped.append(threading.current_thread().name)
        real_help(walk)

    monkeypatch.setattr(ad._Walk, "help", counting_help)

    def walk():
        leaves, loss = _micro_loss(55)
        return [g.data for g in ad.grad(loss, list(leaves.values()))]

    monkeypatch.setattr(ad, "WORKERS", 1)
    one = walk()
    assert helped == []
    monkeypatch.setattr(ad, "WORKERS", 2)
    on_main = walk()
    assert helped == ["metasep-walk"]
    elsewhere = []
    runner = threading.Thread(target=lambda: elsewhere.append(walk()), daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert helped == ["metasep-walk"] * 2
    for a, b, c in zip(one, on_main, elsewhere[0]):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_walks_on_more_threads_than_cores_keep_their_bits(monkeypatch):
    """Stress: four walk threads on 2 CPUs, switching every microsecond, over
    model losses, first-order and create-graph with a backward through it;
    a lost update of the walk's shared state would lose or reorder a
    contribution, release a cotangent a VJP passed through, or hang the
    walk."""
    monkeypatch.setattr(ad, "_HELPER_MIN_MEAN_ELEMENTS", 0)
    results, previous = {}, sys.getswitchinterval()
    # two blocks, so a residual sum passes its cotangent through to two parents
    config = dataclasses.replace(MICRO, blocks_per_stack=2)

    def walk_all():
        for seed in range(46, 52):
            for workers in (1, 4):
                monkeypatch.setattr(ad, "WORKERS", workers)
                leaves = model.init_params(config, seed=seed).to_leaves()
                loss = trainer.SeparationTask(make_task(seed), config).support_loss(leaves)
                grads = ad.grad(loss, list(leaves.values()), create_graph=True)
                norm = functools.reduce(ad.add, (ad.dot(g, g) for g in grads))
                results[seed, workers] = grads + ad.grad(norm, list(leaves.values()))

    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=walk_all, daemon=True)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not runner.is_alive()
    assert len(results) == 12
    for seed in range(46, 52):
        for one, four in zip(results[seed, 1], results[seed, 4]):
            assert np.array_equal(one.data, four.data)


def test_vjp_failing_on_the_helper_propagates(monkeypatch):
    """Of two sibling nodes, the helper runs one, whose VJP raises there; the
    other waits on the calling thread until then. The error reaches the
    caller, and the helper thread is gone."""
    monkeypatch.setattr(ad, "_HELPER_MIN_MEAN_ELEMENTS", 0)
    monkeypatch.setattr(ad, "WORKERS", 2)
    failed = threading.Event()

    def vjp(g):
        if threading.current_thread().name == "metasep-walk":
            failed.set()
            raise ValueError("vjp failed on the helper")
        assert failed.wait(timeout=30)
        return (g,)

    before = threading.active_count()
    x = ad.tensor(1.0, requires_grad=True)
    out = ad.add(ad._node("a", np.asarray(1.0), (x,), vjp),
                 ad._node("b", np.asarray(1.0), (x,), vjp))
    with pytest.raises(ValueError, match="on the helper"):
        ad.grad(out, [x])
    assert threading.active_count() == before
    y = ad.tensor(2.0, requires_grad=True)
    (g,) = ad.grad(ad.mul(y, y), [y])
    assert g.item() == 4.0
    assert threading.active_count() == before


def test_vjp_failing_on_the_caller_waits_for_the_helper(monkeypatch):
    """When the calling thread's VJP raises while the helper still runs one,
    grad returns only after the helper has ended."""
    monkeypatch.setattr(ad, "_HELPER_MIN_MEAN_ELEMENTS", 0)
    monkeypatch.setattr(ad, "WORKERS", 2)
    started = threading.Event()

    def vjp(g):
        if threading.current_thread().name == "metasep-walk":
            started.set()
            time.sleep(0.2)
            return (g,)
        assert started.wait(timeout=30)
        raise ValueError("vjp failed on the caller")

    before = threading.active_count()
    x = ad.tensor(1.0, requires_grad=True)
    out = ad.add(ad._node("a", np.asarray(1.0), (x,), vjp),
                 ad._node("b", np.asarray(1.0), (x,), vjp))
    with pytest.raises(ValueError, match="on the caller"):
        ad.grad(out, [x])
    assert threading.active_count() == before


def test_two_thread_walk_consumes_its_graph(monkeypatch):
    """A walk on two threads consumes its graph as one on one thread does."""
    monkeypatch.setattr(ad, "_HELPER_MIN_MEAN_ELEMENTS", 0)
    monkeypatch.setattr(ad, "WORKERS", 2)
    leaves, loss = _micro_loss(44)
    shared = _interior_nodes(loss)[0]
    ad.grad(loss, list(leaves.values()))
    with pytest.raises(RuntimeError, match="consumed"):
        ad.grad(loss, list(leaves.values()))
    with pytest.raises(RuntimeError, match="consumed"):
        ad.grad(ad.dot(shared, shared), list(leaves.values()))


def test_in_place_sums_never_write_into_a_vjp_result():
    """add's VJP hands one array to both its inputs, and sum_time's hands out
    read-only views. A first-order walk sums three contributions of each kind
    in a buffer of its own, with the bits of a create-graph walk, which adds
    into fresh arrays."""
    rng = RNG(5)
    c, weights = rng.normal(size=(3, 4)), rng.normal(size=(3, 3))
    a0, b0 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))

    def build():
        a, b = ad.tensor(a0, requires_grad=True), ad.tensor(b0, requires_grad=True)
        out = ad.dot(ad.add(ad.add(a, a), a), ad.tensor(c))  # one array, three times
        for w in weights:  # three read-only views
            out = ad.add(out, ad.dot(ad.sum_time(b), ad.tensor(w)))
        return out, a, b

    out, a, b = build()
    first = ad.grad(out, [a, b])
    out, a, b = build()
    again = ad.grad(out, [a, b], create_graph=True)
    for one, other in zip(first, again):
        assert np.array_equal(one.data, other.data)
    assert np.array_equal(first[0].data, (c + c) + c)
    np.testing.assert_allclose(first[1].data, np.broadcast_to(weights.sum(0)[:, None], (3, 4)),
                               rtol=1e-14)


@contextlib.contextmanager
def _switching_fast():
    """Threads switch every microsecond inside this context."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


@pytest.mark.parametrize("op", sorted(CASES))
def test_two_thread_create_graph_walk_gives_the_same_bits(op, monkeypatch):
    """Every case's create-graph gradient, built on one and on two threads
    switching every microsecond, and a first-order backward through it have
    the same bits."""
    monkeypatch.setattr(ad, "_HELPER_MIN_MEAN_ELEMENTS", 0)
    vals = case_inputs(op, 0)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(ad, "WORKERS", workers)
        ins = [ad.tensor(v, requires_grad=True) for v in vals.values()]
        with _switching_fast():
            grads = ad.grad(scalar_loss(CASES[op].build(*ins)), ins, create_graph=True)
        again = ad.grad(functools.reduce(ad.add, (ad.dot(g, g) for g in grads)), ins)
        runs.append([g.data for g in grads + again])
    for one, two in zip(*runs):
        assert np.array_equal(one, two)


def test_create_graph_helper_records_nodes_with_unique_ids(monkeypatch):
    """In a create-graph walk the helper records graph nodes, as the caller
    does, and no id is handed out twice."""
    made = _walk_threads(monkeypatch)
    monkeypatch.setattr(ad, "WORKERS", 2)
    leaves, loss = _micro_loss(53)
    with _switching_fast():
        grads = ad.grad(loss, list(leaves.values()), create_graph=True)
    helper = [t for thread, t in made if thread == "metasep-walk"]
    assert any(t._parents and t.requires_grad for t in helper)
    ids = [t._id for _, t in made]
    assert len(set(ids)) == len(ids)
    assert any(g.requires_grad for g in grads)


@pytest.mark.parametrize("cap", [0, 1, None])
@pytest.mark.parametrize("create_graph", [False, True])
def test_queued_leaf_contributions_stay_under_their_cap(cap, create_graph, monkeypatch):
    """A probe on the queue of leaf contributions sees a walk with a helper
    hold at most _MAX_QUEUED of them and a walk with none queue nothing, and
    at any cap (0 sends every one to the thread that made it) the gradients
    have the bits of one thread."""
    monkeypatch.setattr(ad, "_HELPER_MIN_MEAN_ELEMENTS", 0)
    if cap is not None:
        monkeypatch.setattr(ad, "_MAX_QUEUED", cap)
    lengths = []

    class Probe(collections.deque):
        def append(self, item):
            super().append(item)
            lengths.append(len(self))

    monkeypatch.setattr(ad, "deque", Probe)
    runs, queued = [], []
    for workers in (1, 2):
        monkeypatch.setattr(ad, "WORKERS", workers)
        leaves, loss = _micro_loss(54)
        with _switching_fast():
            runs.append(ad.grad(loss, list(leaves.values()), create_graph=create_graph))
        queued.append(lengths[:])
        lengths.clear()
    for one, two in zip(*runs):
        assert np.array_equal(one.data, two.data)
    alone, helped = queued
    assert alone == []
    assert max(helped, default=0) <= ad._MAX_QUEUED
    assert bool(helped) == (ad._MAX_QUEUED > 0)


@pytest.mark.parametrize("create_graph", [False, True])
def test_leaf_contribution_failing_on_the_helper_propagates(create_graph, monkeypatch):
    """Two sibling nodes each queue a deferred contribution into a leaf. The
    helper runs one and it raises there; the other, on the calling thread,
    waits until then. The error reaches the caller, and the helper is gone."""
    monkeypatch.setattr(ad, "_HELPER_MIN_MEAN_ELEMENTS", 0)
    monkeypatch.setattr(ad, "WORKERS", 2)
    failed = threading.Event()

    def contribution(g):
        if threading.current_thread().name == "metasep-walk":
            failed.set()
            raise ValueError("deferred contribution failed on the helper")
        assert failed.wait(timeout=30)
        return g

    def vjp(g):
        return (ad._Later(contribution, g),)

    before = threading.active_count()
    x, y = ad.tensor(1.0, requires_grad=True), ad.tensor(2.0, requires_grad=True)
    out = ad.add(ad._node("a", np.asarray(1.0), (x,), vjp),
                 ad._node("b", np.asarray(1.0), (y,), vjp))
    with pytest.raises(ValueError, match="on the helper"):
        ad.grad(out, [x, y], create_graph=create_graph)
    assert failed.is_set()
    assert threading.active_count() == before


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
