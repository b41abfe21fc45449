import numpy as np
import pytest

from metasep import autodiff as ad
from oracles import assert_fd_close, fd_gradient, naive_conv1d, naive_conv_transpose1d

RNG = np.random.default_rng


def scalar_loss(t):
    """Simple smooth scalar readout used to gradcheck any-shaped outputs."""
    return ad.sum_all(ad.mul(t, ad.sigmoid(t)))


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


def _gradcheck(make_out, x0, *, rtol=1e-5, step=1e-5, label=""):
    leaf = ad.tensor(x0, requires_grad=True)
    (g,) = ad.grad(scalar_loss(make_out(leaf)), [leaf])
    num = fd_gradient(lambda xv: scalar_loss(make_out(ad.tensor(xv))).item(), x0, step=step)
    assert_fd_close(g.data, num, rtol=rtol, label=label)


UNARY_CASES = [
    ("neg", lambda t: ad.neg(t), (4, 6), None),
    ("scalar_mul", lambda t: ad.scalar_mul(-1.7, t), (3, 5), None),
    ("add_constant", lambda t: ad.add_constant(t, 0.3), (7,), None),
    ("relu", lambda t: ad.relu(t), (5, 5), None),
    ("sigmoid", lambda t: ad.sigmoid(t), (4, 4), None),
    ("sqrt", lambda t: ad.sqrt(t), (6,), "positive"),
    ("log10", lambda t: ad.log10(t), (6,), "positive"),
    ("clamp_min", lambda t: ad.clamp_min(t, 0.1), (5, 3), "away_from_clamp"),
    ("sum_all", lambda t: ad.expand_scalar(ad.sum_all(t), (3, 3)), (4, 5), None),
    ("mean_all", lambda t: ad.expand_scalar(ad.mean_all(t), (2, 2)), (4, 5), None),
    ("sum_time", lambda t: ad.sum_time(t), (3, 7), None),
    ("expand_time", lambda t: ad.expand_time(t, 6), (5,), None),
    ("reshape", lambda t: ad.reshape(t, (2, 6)), (3, 4), None),
    ("slice_channels", lambda t: ad.slice_channels(t, 1, 4), (6, 5), None),
    ("pad_channels", lambda t: ad.pad_channels(t, 2, 9), (3, 4), None),
]


@pytest.mark.parametrize("name,fn,shape,domain", UNARY_CASES,
                         ids=[c[0] for c in UNARY_CASES])
@pytest.mark.parametrize("seed", range(4))
def test_unary_primitive_gradients(name, fn, shape, domain, seed):
    rng = RNG(100 + seed)
    x = rng.normal(size=shape)
    if domain == "positive":
        x = np.abs(x) + 0.5
    elif domain == "away_from_clamp":
        x = np.where(np.abs(x - 0.1) < 0.05, x + 0.2, x)
    _gradcheck(fn, x, label=f"{name}[seed={seed}]")


BINARY_CASES = [
    ("add", ad.add), ("sub", ad.sub), ("mul", ad.mul), ("div", ad.div),
    ("dot", ad.dot),
]


@pytest.mark.parametrize("name,fn", BINARY_CASES, ids=[c[0] for c in BINARY_CASES])
@pytest.mark.parametrize("seed", range(4))
def test_binary_primitive_gradients(name, fn, seed):
    rng = RNG(200 + seed)
    a0 = rng.normal(size=(4, 5))
    b0 = rng.normal(size=(4, 5))
    if name == "div":
        b0 = np.sign(b0) * (np.abs(b0) + 0.5)

    for side in (0, 1):
        def make(t, side=side):
            other = ad.tensor(b0 if side == 0 else a0)
            return fn(t, other) if side == 0 else fn(other, t)

        _gradcheck(make, a0 if side == 0 else b0, label=f"{name}[side={side},seed={seed}]")


@pytest.mark.parametrize("seed", range(4))
def test_scale_gradients_both_sides(seed):
    rng = RNG(300 + seed)
    a0 = rng.normal(size=(3, 6))
    s0 = rng.normal(size=())
    _gradcheck(lambda t: ad.scale(t, ad.tensor(s0)), a0, label=f"scale.a[{seed}]")
    _gradcheck(lambda t: ad.scale(ad.tensor(a0), t), s0, label=f"scale.s[{seed}]")


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
        return ad.sq_norm(dg)

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


# fused layer primitives: op -> (function, names of its tensor inputs)
FUSED_OPS = {
    "add_channel_bias": (ad.add_channel_bias, ("x", "b")),
    "prelu": (ad.prelu, ("x", "a")),
    "gln": (lambda x, gamma, beta: ad.gln(x, gamma, beta, 1e-8), ("x", "gamma", "beta")),
}
FUSED_CASES = [(op, arg) for op, (_, args) in FUSED_OPS.items() for arg in args]
FUSED_IDS = [f"{op}.{arg}" for op, arg in FUSED_CASES]


def _fused_inputs(rng):
    x = rng.normal(size=(4, 6))
    x = np.where(np.abs(x) < 0.05, x + 0.2, x)  # away from the PReLU kink
    return {"x": x, "b": rng.normal(size=4), "a": rng.normal(size=()),
            "gamma": rng.normal(size=4), "beta": rng.normal(size=4)}


@pytest.mark.parametrize("op,arg", FUSED_CASES, ids=FUSED_IDS)
@pytest.mark.parametrize("seed", range(4))
def test_fused_primitive_gradients(op, arg, seed):
    fn, names = FUSED_OPS[op]
    vals = _fused_inputs(RNG(900 + seed))

    def make(t):
        return fn(*(t if n == arg else ad.tensor(vals[n]) for n in names))

    _gradcheck(make, vals[arg], label=f"{op}.{arg}[seed={seed}]")


@pytest.mark.parametrize("op,arg", FUSED_CASES, ids=FUSED_IDS)
@pytest.mark.parametrize("seed", range(2))
def test_fused_primitive_second_order(op, arg, seed):
    """Gradient with respect to one input of the squared norm of the op's own
    create-graph gradient with respect to every input, against central
    differences."""
    fn, names = FUSED_OPS[op]
    vals = _fused_inputs(RNG(950 + seed))

    def grad_norm(v):
        ins = [ad.tensor(v if n == arg else vals[n], requires_grad=True) for n in names]
        grads = ad.grad(scalar_loss(fn(*ins)), ins, create_graph=True)
        total = ad.sq_norm(grads[0])
        for g in grads[1:]:
            total = ad.add(total, ad.sq_norm(g))
        return total, ins[names.index(arg)]

    out, leaf = grad_norm(vals[arg])
    (got,) = ad.grad(out, [leaf])
    num = fd_gradient(lambda v: grad_norm(v)[0].item(), vals[arg], step=1e-5)
    assert_fd_close(got.data, num, rtol=1e-5, label=f"{op}.{arg} second order[{seed}]")


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("seed", range(2))
def test_dot_second_order(side, seed):
    """Gradient with respect to one input of the squared norm of dot's own
    create-graph gradient with respect to both inputs, against central
    differences."""
    rng = RNG(970 + seed)
    vals = [rng.normal(size=(3, 5)), rng.normal(size=(3, 5))]

    def grad_norm(v):
        ins = [ad.tensor(v if i == side else vals[i], requires_grad=True) for i in range(2)]
        ga, gb = ad.grad(scalar_loss(ad.dot(*ins)), ins, create_graph=True)
        return ad.add(ad.sq_norm(ga), ad.sq_norm(gb)), ins[side]

    out, leaf = grad_norm(vals[side])
    (got,) = ad.grad(out, [leaf])
    num = fd_gradient(lambda v: grad_norm(v)[0].item(), vals[side], step=1e-5)
    assert_fd_close(got.data, num, rtol=1e-5, label=f"dot.{side} second order[{seed}]")


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
    vals = _fused_inputs(RNG(990))
    x, b, a, gamma, beta = (vals[n] for n in ("x", "b", "a", "gamma", "beta"))
    eps = 1e-8
    got = {name: fn(*(ad.tensor(vals[n]) for n in names)).data
           for name, (fn, names) in FUSED_OPS.items()}
    centered = x - x.mean()
    want = {
        "add_channel_bias": x + b[:, None],
        "prelu": np.maximum(x, 0.0) - a * np.maximum(-x, 0.0),
        "gln": centered / np.sqrt(np.mean(centered ** 2) + eps) * gamma[:, None]
        + beta[:, None],
    }
    for name in FUSED_OPS:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12, err_msg=name)


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
        loss = ad.mean_all(ad.mul(y, y))
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
    for name, arr in arrays.items():
        np.testing.assert_array_equal(pv.view(name), arr)
    packed = pv.flatten_named({n: pv.view(n) for n in pv.names()})
    assert np.array_equal(packed.values, pv.values)


def test_param_vector_rejects_bad_layout():
    with pytest.raises(ValueError):
        ad.ParamVector(np.zeros(5), {"a": (0, (2,)), "b": (3, (2,))})  # gap at 2
    with pytest.raises(ValueError):
        ad.ParamVector(np.zeros(3), {"a": (0, (2,))})  # does not cover


def test_leaves_are_independent_of_vector():
    pv = ad.ParamVector.from_arrays({"w": np.arange(4.0)})
    leaves = pv.to_leaves()
    pv.values[:] = 0.0
    assert np.array_equal(leaves["w"].data, np.arange(4.0))
