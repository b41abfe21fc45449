"""Reverse-mode automatic differentiation over float64 numpy arrays.

The engine is define-by-run: every primitive returns a :class:`Tensor` that
remembers its parents and a VJP closure. The VJP closures are themselves
written in terms of tracked primitives, so calling :func:`grad` with
``create_graph=True`` yields gradients that are differentiable again. That is
what makes exact second-order meta-gradients possible without any symbolic
machinery.

Design constraints honored throughout:

* all arithmetic in float64; forward and backward are bit-deterministic,
* explicit shapes only -- the broadcasts allowed are scalar-times-tensor,
  conv1d's channel bias and the per-channel scale and shift of gln,
* ``expand_scalar`` and ``expand_time`` return read-only ``np.broadcast_to``
  views that own no memory (an in-place write into one raises); ``dot`` is
  one primitive, not a ``sum_all`` of a ``mul``,
* the fused layers' backwards keep one node per cotangent (see below),
* convolution, its input-gradient (transposed convolution) and its
  weight-gradient form a closed triple: each one's VJP is expressed with the
  other two, so arbitrarily high derivative orders stay exact. conv1d adds
  a channel bias into its fresh output, so no graph keeps a pre-bias array.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from collections import OrderedDict
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ParamVector",
    "pack_layout",
    "ShapeMismatchError",
    "NonScalarOutputError",
    "tensor",
    "grad",
    "no_grad",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "scalar_mul",
    "add_constant",
    "scale",
    "relu",
    "sigmoid",
    "sqrt",
    "log10",
    "clamp_min",
    "sum_all",
    "expand_scalar",
    "sum_time",
    "expand_time",
    "dot",
    "reshape",
    "slice_channels",
    "pad_channels",
    "conv1d",
    "conv1d_input_grad",
    "conv1d_weight_grad",
    "prelu",
    "gln",
]

_LN10 = math.log(10.0)


class ShapeMismatchError(ValueError):
    """Raised when an operation's inputs do not have the declared shapes."""


class NonScalarOutputError(ValueError):
    """Raised when a gradient is requested of a non-scalar output."""


_ids = itertools.count()


class _GradMode(threading.local):
    """Per-thread recording flag; concurrent evaluations stay independent."""

    def __init__(self):
        self.enabled = True


_GradMode = _GradMode()


class no_grad:
    """Context manager that suspends graph recording."""

    def __enter__(self):
        self._prev = _GradMode.enabled
        _GradMode.enabled = False
        return self

    def __exit__(self, *exc):
        _GradMode.enabled = self._prev
        return False


class Tensor:
    """A float64 array plus the graph edge that produced it."""

    __slots__ = ("data", "requires_grad", "op", "_parents", "_vjp", "_id", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable | None = None
        self._id = next(_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape}, grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def _node(op: str, data: np.ndarray, parents: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    out = Tensor(data)
    if _GradMode.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.op = op
        out._parents = parents
        out._vjp = vjp
    else:
        out.op = op
    return out


def _check(cond: bool, op: str, msg: str) -> None:
    if not cond:
        raise ShapeMismatchError(f"{op}: {msg}")


def _same_shape(op, a, b):
    _check(a.data.shape == b.data.shape, op,
           f"operands must share a shape, got {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)
    return _node("add", a.data + b.data, (a, b),
                 lambda g: (g if a.requires_grad else None,
                            g if b.requires_grad else None))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("sub", a, b)
    return _node("sub", a.data - b.data, (a, b),
                 lambda g: (g if a.requires_grad else None,
                            neg(g) if b.requires_grad else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)
    return _node("mul", a.data * b.data, (a, b),
                 lambda g: (mul(g, b) if a.requires_grad else None,
                            mul(g, a) if b.requires_grad else None))


def div(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("div", a, b)

    def vjp(g):
        da = div(g, b) if a.requires_grad else None
        db = neg(mul(g, div(ref(), b))) if b.requires_grad else None
        return (da, db)

    out = _node("div", a.data / b.data, (a, b), vjp)
    # the vjp reads out through a weakref bound after the fact, so there is no
    # out->vjp->out cycle; out is alive whenever its vjp runs
    ref = weakref.ref(out)
    return out


def neg(a: Tensor) -> Tensor:
    return _node("neg", -a.data, (a,), lambda g: (neg(g),))


def scalar_mul(c: float, a: Tensor) -> Tensor:
    c = float(c)
    return _node("scalar_mul", c * a.data, (a,), lambda g: (scalar_mul(c, g),))


def add_constant(a: Tensor, c: float) -> Tensor:
    return _node("add_constant", a.data + float(c), (a,), lambda g: (g,))


def scale(a: Tensor, s: Tensor) -> Tensor:
    """Scalar tensor times tensor."""
    _check(s.data.shape == (), "scale", f"scale factor must be a scalar, got {s.data.shape}")
    return _node("scale", a.data * s.data, (a, s),
                 lambda g: (scale(g, s) if a.requires_grad else None,
                            dot(g, a) if s.requires_grad else None))


def relu(a: Tensor) -> Tensor:
    # The 0/1 gate is a constant of the backward pass: d2(relu)/dx2 == 0 a.e.
    gate = Tensor((a.data > 0.0).astype(np.float64))
    return _node("relu", np.maximum(a.data, 0.0), (a,), lambda g: (mul(g, gate),))


def clamp_min(a: Tensor, floor: float) -> Tensor:
    floor = float(floor)
    gate = Tensor((a.data > floor).astype(np.float64))
    return _node("clamp_min", np.maximum(a.data, floor), (a,), lambda g: (mul(g, gate),))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)

    def vjp(g):
        y_out = ref()
        return (mul(g, mul(y_out, add_constant(neg(y_out), 1.0))),)

    out = _node("sigmoid", y, (a,), vjp)
    ref = weakref.ref(out)
    return out


def sqrt(a: Tensor) -> Tensor:
    def vjp(g):
        return (scalar_mul(0.5, div(g, ref())),)

    out = _node("sqrt", np.sqrt(a.data), (a,), vjp)
    ref = weakref.ref(out)
    return out


def log10(a: Tensor) -> Tensor:
    def vjp(g):
        return (scalar_mul(1.0 / _LN10, div(g, a)),)

    return _node("log10", np.log10(a.data), (a,), vjp)


# ---------------------------------------------------------------------------
# reductions and shape movement


def sum_all(a: Tensor) -> Tensor:
    shp = a.data.shape
    return _node("sum_all", a.data.sum(), (a,), lambda g: (expand_scalar(g, shp),))


def expand_scalar(s: Tensor, shape: tuple[int, ...]) -> Tensor:
    _check(s.data.shape == (), "expand_scalar", f"expected a scalar, got {s.data.shape}")
    shape = tuple(int(d) for d in shape)
    return _node("expand_scalar", np.broadcast_to(s.data, shape), (s,),
                 lambda g: (sum_all(g),))


def sum_time(a: Tensor) -> Tensor:
    """(C, T) -> (C,), summing over the time axis."""
    _check(a.data.ndim == 2, "sum_time", f"expected a (C, T) tensor, got {a.data.shape}")
    t = a.data.shape[1]
    return _node("sum_time", a.data.sum(axis=1), (a,), lambda g: (expand_time(g, t),))


def expand_time(a: Tensor, t: int) -> Tensor:
    """(C,) -> (C, T), replicating each channel across time."""
    _check(a.data.ndim == 1, "expand_time", f"expected a (C,) tensor, got {a.data.shape}")
    data = np.broadcast_to(a.data[:, None], (a.data.shape[0], int(t)))
    return _node("expand_time", data, (a,), lambda g: (sum_time(g),))


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Sum of the elementwise product of two same-shape tensors, as one node."""
    _same_shape("dot", a, b)
    return _node("dot", np.dot(a.data.ravel(), b.data.ravel()), (a, b),
                 lambda g: (scale(b, g) if a.requires_grad else None,
                            scale(a, g) if b.requires_grad else None))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    shape = tuple(int(d) for d in shape)
    _check(int(np.prod(shape, dtype=np.int64)) == a.data.size, "reshape",
           f"cannot reshape {a.data.shape} to {shape}")
    old = a.data.shape
    return _node("reshape", a.data.reshape(shape), (a,),
                 lambda g: (reshape(g, old),))


def slice_channels(a: Tensor, lo: int, hi: int) -> Tensor:
    _check(a.data.ndim == 2, "slice_channels", f"expected (C, T), got {a.data.shape}")
    c = a.data.shape[0]
    _check(0 <= lo < hi <= c, "slice_channels", f"bad channel range [{lo}, {hi}) for C={c}")
    view = a.data[lo:hi]  # read-only, so a write cannot reach a's data
    view.flags.writeable = False
    return _node("slice_channels", view, (a,), lambda g: (pad_channels(g, lo, c),))


def pad_channels(a: Tensor, lo: int, total: int) -> Tensor:
    _check(a.data.ndim == 2, "pad_channels", f"expected (C, T), got {a.data.shape}")
    c, t = a.data.shape
    _check(0 <= lo and lo + c <= total, "pad_channels",
           f"slice of {c} channels at offset {lo} exceeds total {total}")
    data = np.zeros((total, t))
    data[lo:lo + c] = a.data
    return _node("pad_channels", data, (a,),
                 lambda g: (slice_channels(g, lo, lo + c),))


# ---------------------------------------------------------------------------
# 1-dim convolution triple
#
# conv1d computes a valid cross-correlation after zero-padding `pad` samples
# on both sides. conv1d_input_grad scatters cotangents back through the same
# geometry (it doubles as the transposed convolution used by the decoder) and
# conv1d_weight_grad correlates input windows with output cotangents. Each
# op's VJP is built from the other two, closing the set under differentiation.
#
# Each contraction runs as one BLAS matmul over (channel, tap) pairs when
# groups == 1. Grouped (depthwise) weights are too thin for BLAS, so those go
# to np.einsum's direct loop, which reads the strided windows without a copy.


def _windows(xp: np.ndarray, kernel: int, stride: int, dilation: int) -> np.ndarray:
    c, tp = xp.shape
    span = dilation * (kernel - 1) + 1
    t_out = (tp - span) // stride + 1
    s0, s1 = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, shape=(c, t_out, kernel), strides=(s0, stride * s1, dilation * s1),
        writeable=False)


def _conv_geometry(op, t, kernel, stride, dilation, pad):
    _check(stride >= 1 and dilation >= 1 and pad >= 0, op, "stride/dilation/pad out of range")
    span = dilation * (kernel - 1) + 1
    padded = t + 2 * pad
    _check(padded >= span, op,
           f"input of length {t} (pad {pad}) shorter than kernel span {span}")
    return (padded - span) // stride + 1


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None, *, stride: int = 1,
           dilation: int = 1, groups: int = 1, pad: int = 0) -> Tensor:
    """Grouped 1-dim convolution of x:(Cin, T) with w:(Cout, Cin/groups, K),
    plus the channel bias b:(Cout,) at every time step when one is given."""
    _check(x.data.ndim == 2, "conv1d", f"input must be (Cin, T), got {x.data.shape}")
    _check(w.data.ndim == 3, "conv1d", f"weight must be (Cout, Cin/groups, K), got {w.data.shape}")
    cin, t = x.data.shape
    cout, cg, k = w.data.shape
    _check(cin == cg * groups, "conv1d",
           f"weight expects {cg * groups} input channels, input has {cin}")
    _check(cout % groups == 0, "conv1d", f"Cout={cout} not divisible by groups={groups}")
    _check(b is None or b.data.shape == (cout,), "conv1d",
           f"bias must be ({cout},), got {None if b is None else b.data.shape}")
    t_out = _conv_geometry("conv1d", t, k, stride, dilation, pad)

    xp = np.pad(x.data, ((0, 0), (pad, pad))) if pad else x.data
    win = _windows(xp, k, stride, dilation).reshape(groups, cg, t_out, k)
    wg = w.data.reshape(groups, cout // groups, cg, k)
    if groups == 1:
        y = wg[0].reshape(cout, cg * k) @ win[0].transpose(0, 2, 1).reshape(cg * k, t_out)
    else:
        y = np.einsum("gitk,goik->got", win, wg).reshape(cout, t_out)
    if b is not None:
        y += b.data[:, None]  # y is fresh, so no pre-bias array outlives the call

    def vjp(g):
        dx = conv1d_input_grad(g, w, stride=stride, dilation=dilation, groups=groups,
                               pad=pad, out_len=t) if x.requires_grad else None
        dw = conv1d_weight_grad(x, g, kernel=k, stride=stride, dilation=dilation,
                                groups=groups, pad=pad) if w.requires_grad else None
        return (dx, dw) if b is None else (dx, dw, sum_time(g) if b.requires_grad else None)

    return _node("conv1d", y, (x, w) if b is None else (x, w, b), vjp)


def conv1d_input_grad(g: Tensor, w: Tensor, *, stride: int = 1, dilation: int = 1,
                      groups: int = 1, pad: int = 0, out_len: int) -> Tensor:
    """Adjoint of conv1d w.r.t. its input; also the decoder's transposed conv.

    g:(Cout, T') and w:(Cout, Cin/groups, K) produce (Cin, out_len) by
    overlap-adding each kernel tap's contribution at its source position.
    """
    _check(g.data.ndim == 2, "conv1d_input_grad", f"grad must be (Cout, T'), got {g.data.shape}")
    _check(w.data.ndim == 3, "conv1d_input_grad", f"weight must be 3-d, got {w.data.shape}")
    cout, t_out = g.data.shape
    cout_w, cg, k = w.data.shape
    _check(cout == cout_w, "conv1d_input_grad",
           f"grad has {cout} channels, weight expects {cout_w}")
    cin = cg * groups
    t_expect = _conv_geometry("conv1d_input_grad", out_len, k, stride, dilation, pad)
    _check(t_expect == t_out, "conv1d_input_grad",
           f"grad length {t_out} inconsistent with output length {out_len} (expected {t_expect})")

    gg = g.data.reshape(groups, cout // groups, t_out)
    wg = w.data.reshape(groups, cout // groups, cg, k)
    dxp = np.zeros((cin, out_len + 2 * pad))
    hi = (t_out - 1) * stride + 1
    if groups == 1:
        contrib = (wg[0].transpose(1, 2, 0).reshape(cg * k, cout) @ gg[0]).reshape(cin, k, t_out)
    else:
        contrib = np.einsum("got,goik->gikt", gg, wg).reshape(cin, k, t_out)
    for tap in range(k):
        dxp[:, tap * dilation: tap * dilation + hi: stride] += contrib[:, tap]
    dx = dxp[:, pad: pad + out_len] if pad else dxp

    def vjp(c):
        dg = conv1d(c, w, stride=stride, dilation=dilation, groups=groups,
                    pad=pad) if g.requires_grad else None
        dw = conv1d_weight_grad(c, g, kernel=k, stride=stride, dilation=dilation,
                                groups=groups, pad=pad) if w.requires_grad else None
        return (dg, dw)

    return _node("conv1d_input_grad", dx, (g, w), vjp)


def conv1d_weight_grad(x: Tensor, g: Tensor, *, kernel: int, stride: int = 1,
                       dilation: int = 1, groups: int = 1, pad: int = 0) -> Tensor:
    """Adjoint of conv1d w.r.t. its weight: correlate input windows with g."""
    _check(x.data.ndim == 2 and g.data.ndim == 2, "conv1d_weight_grad",
           f"expected 2-d input and grad, got {x.data.shape} and {g.data.shape}")
    cin, t = x.data.shape
    cout, t_out = g.data.shape
    _check(cin % groups == 0 and cout % groups == 0, "conv1d_weight_grad",
           f"channels ({cin}, {cout}) not divisible by groups={groups}")
    t_expect = _conv_geometry("conv1d_weight_grad", t, kernel, stride, dilation, pad)
    _check(t_expect == t_out, "conv1d_weight_grad",
           f"grad length {t_out} does not match {t_expect} windows of the input")

    cg = cin // groups
    xp = np.pad(x.data, ((0, 0), (pad, pad))) if pad else x.data
    win = _windows(xp, kernel, stride, dilation).reshape(groups, cg, t_out, kernel)
    gg = g.data.reshape(groups, cout // groups, t_out)
    if groups == 1:
        cols = win[0].transpose(1, 0, 2).reshape(t_out, cg * kernel)
        dw = (gg[0] @ cols).reshape(cout, cg, kernel)
    else:
        dw = np.einsum("got,gitk->goik", gg, win).reshape(cout, cg, kernel)

    def vjp(c):
        dx = conv1d_input_grad(g, c, stride=stride, dilation=dilation, groups=groups,
                               pad=pad, out_len=t) if x.requires_grad else None
        dg = conv1d(x, c, stride=stride, dilation=dilation, groups=groups,
                    pad=pad) if g.requires_grad else None
        return (dx, dg)

    return _node("conv1d_weight_grad", dw, (x, g), vjp)


# ---------------------------------------------------------------------------
# fused layer primitives
#
# A PReLU and a global layer norm each record one node (a channel bias rides
# in conv1d). Their VJPs are written in tracked primitives, so second order
# stays exact. Their backwards record one node per cotangent as well, as MAML
# keeps the create-graph support gradient alive: PReLU's slope gradient is
# one masked dot over the forward's gate, and the gLN backward is one input-
# gradient node and one gamma-gradient node, each recomputing x_hat from the
# forward's (mean, inv). The VJPs of those need x_hat = (x - mean) * inv and
# inv = 1 / sqrt(var + eps) as functions of x; two more private nodes
# provide them, and all these VJPs are built from each other again.


def prelu(x: Tensor, a: Tensor) -> Tensor:
    """max(x, 0) + a * min(x, 0) with a scalar slope a."""
    _check(a.data.shape == (), "prelu", f"slope must be a scalar, got {a.data.shape}")
    return _gated(x, a, x.data > 0.0)


def _gated(x: Tensor, a: Tensor, gate: np.ndarray) -> Tensor:
    """x where the boolean gate holds, a * x elsewhere. As in relu, the gate
    is a constant of the backward pass, so the map is linear in x and in a."""

    def vjp(g):
        dx = _gated(g, a, gate) if x.requires_grad else None
        da = _masked_dot(g, x, gate) if a.requires_grad else None
        return (dx, da)

    # one multiply by where(gate, 1, a); the closure keeps only the boolean gate
    return _node("prelu", x.data * np.where(gate, 1.0, a.data), (x, a), vjp)


def _masked_dot(a: Tensor, b: Tensor, gate: np.ndarray) -> Tensor:
    """Sum of a * b where the boolean gate does not hold: PReLU's slope
    gradient as one scalar node that shares the forward's gate."""

    def vjp(s):
        # b where the gate does not hold is b minus the gated map of b with slope 0
        zero = Tensor(0.0)
        da = scale(sub(b, _gated(b, zero, gate)), s) if a.requires_grad else None
        db = scale(sub(a, _gated(a, zero, gate)), s) if b.requires_grad else None
        return (da, db)

    return _node("masked_dot", np.dot(a.data.ravel(), np.where(gate, 0.0, b.data).ravel()),
                 (a, b), vjp)


def gln(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Global layer norm (Conv-TasNet): x:(C, T) normalized by the mean and
    variance over all of it, then each channel scaled by gamma and shifted by
    beta."""
    _check(x.data.ndim == 2 and gamma.data.shape == beta.data.shape == x.data.shape[:1],
           "gln", f"expected (C, T), (C,) and (C,), got {x.data.shape}, "
           f"{gamma.data.shape} and {beta.data.shape}")
    n = x.data.size
    mu = (1.0 / n) * x.data.sum()
    centered = x.data - mu
    inv = 1.0 / np.sqrt((1.0 / n) * (centered * centered).sum() + float(eps))
    stats = (mu, inv)

    def vjp(g):
        dx = _gln_input_grad(x, g, gamma, stats) if x.requires_grad else None
        dgamma = _gln_gamma_grad(x, g, stats) if gamma.requires_grad else None
        dbeta = sum_time(g) if beta.requires_grad else None
        return (dx, dgamma, dbeta)

    y = centered * inv * gamma.data[:, None] + beta.data[:, None]
    return _node("gln", y, (x, gamma, beta), vjp)


def _xhat(x: np.ndarray, stats: tuple) -> np.ndarray:
    mu, inv = stats
    xhat = x - mu
    xhat *= inv
    return xhat


def _gln_input_grad(x: Tensor, g: Tensor, gamma: Tensor, stats: tuple) -> Tensor:
    """J(x) (g * gamma), the cotangent of x for a cotangent g * gamma of
    x_hat, as one node. J h = inv * (h - mean(h) - x_hat * mean(h * x_hat))
    is the Jacobian of x_hat, and it is symmetric."""
    n = x.data.size
    t = x.data.shape[1]
    xhat = _xhat(x.data, stats)
    h = g.data * gamma.data[:, None]
    xhat *= np.dot(h.ravel(), xhat.ravel()) / n
    h -= h.sum() / n
    h -= xhat
    h *= stats[1]

    def vjp(c):
        jc = _gln_input_grad(x, c, Tensor(np.ones(gamma.data.shape)), stats)
        dx = dg = dgamma = None
        if x.requires_grad:
            # d<c, J(x) h>/dx = -(inv/n) (<c, Jh> x_hat + <h, x_hat> Jc + <c, x_hat> Jh)
            out = ref()
            xh = _gln_normalize(x, stats)
            h_xhat = dot(gamma, _gln_gamma_grad(x, g, stats))
            dx = scale(add(add(scale(xh, dot(c, out)), scale(jc, h_xhat)),
                           scale(out, dot(c, xh))),
                       scalar_mul(-1.0 / n, _gln_inv(x, stats)))
        if g.requires_grad:
            dg = mul(jc, expand_time(gamma, t))
        if gamma.requires_grad:
            dgamma = sum_time(mul(g, jc))
        return (dx, dg, dgamma)

    out = _node("gln_input_grad", h, (x, g, gamma), vjp)
    ref = weakref.ref(out)
    return out


def _gln_gamma_grad(x: Tensor, g: Tensor, stats: tuple) -> Tensor:
    """sum_t g * x_hat, gamma's cotangent, as one (C,) node."""
    t = x.data.shape[1]

    def vjp(s):
        dx = _gln_input_grad(x, g, s, stats) if x.requires_grad else None
        dg = mul(expand_time(s, t), _gln_normalize(x, stats)) if g.requires_grad else None
        return (dx, dg)

    return _node("gln_gamma_grad", np.einsum("ct,ct->c", g.data, _xhat(x.data, stats)),
                 (x, g), vjp)


def _gln_normalize(x: Tensor, stats: tuple) -> Tensor:
    return _node("gln_normalize", _xhat(x.data, stats), (x,),
                 lambda h: (_gln_input_grad(x, h, Tensor(np.ones(x.data.shape[:1])), stats),))


def _gln_inv(x: Tensor, stats: tuple) -> Tensor:
    # d inv / dx = -inv^2 * x_hat / n
    def vjp(s):
        inv = ref()
        return (scale(_gln_normalize(x, stats),
                      scalar_mul(-1.0 / x.data.size, mul(s, mul(inv, inv)))),)

    out = _node("gln_inv", np.asarray(stats[1]), (x,), vjp)
    ref = weakref.ref(out)
    return out


# ---------------------------------------------------------------------------
# reverse pass


def _topo_from(output: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    state: dict[int, int] = {}  # 0 = discovered, 1 = emitted
    stack: list[Tensor] = [output]
    while stack:
        node = stack[-1]
        st = state.get(node._id)
        if st is None:
            state[node._id] = 0
            for p in node._parents:
                if p.requires_grad and state.get(p._id) is None:
                    stack.append(p)
        elif st == 0:
            state[node._id] = 1
            order.append(node)
            stack.pop()
        else:
            stack.pop()
    return order


def grad(output: Tensor, wrt: Sequence[Tensor], create_graph: bool = False) -> list[Tensor]:
    """Cotangents of a scalar `output` with respect to each tensor in `wrt`.

    With ``create_graph=True`` the returned tensors carry their own graphs and
    can be differentiated again. Tensors in `wrt` that the output does not
    depend on receive zeros.
    """
    if output.data.shape != ():
        raise NonScalarOutputError(
            f"gradient target must be a scalar, got shape {output.data.shape} from op {output.op!r}")
    wrt = list(wrt)
    if not output.requires_grad:
        return [Tensor(np.zeros(w.data.shape)) for w in wrt]

    topo = _topo_from(output)
    wrt_ids = {w._id for w in wrt}
    cot: dict[int, Tensor] = {output._id: Tensor(1.0)}

    prev = _GradMode.enabled
    _GradMode.enabled = bool(create_graph)
    try:
        for node in reversed(topo):
            g = cot.get(node._id)
            if g is None:
                continue
            if node._vjp is not None:
                for p, pg in zip(node._parents, node._vjp(g)):
                    if pg is None or not p.requires_grad:
                        continue
                    have = cot.get(p._id)
                    cot[p._id] = pg if have is None else add(have, pg)
            if node._id not in wrt_ids:
                del cot[node._id]
    finally:
        _GradMode.enabled = prev

    out: list[Tensor] = []
    for w in wrt:
        g = cot.get(w._id)
        out.append(g if g is not None else Tensor(np.zeros(w.data.shape)))
    return out


# ---------------------------------------------------------------------------
# flat parameter storage


def pack_layout(shapes: Mapping[str, tuple[int, ...]]) -> tuple["OrderedDict", int]:
    """The packing rule of flat parameter storage: name -> (offset, shape)
    for slices laid back to back in the order of `shapes`, and their total size."""
    layout: "OrderedDict[str, tuple[int, tuple[int, ...]]]" = OrderedDict()
    off = 0
    for name, shape in shapes.items():
        shape = tuple(int(d) for d in shape)
        layout[name] = (off, shape)
        off += math.prod(shape)
    return layout, off


class ParamVector:
    """Flat float64 parameter storage: named slices of `shapes`, back to back in
    their order and covering the vector (``layout``: name -> (offset, shape))."""

    def __init__(self, values: np.ndarray, shapes: Mapping[str, tuple[int, ...]]):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"ParamVector values must be 1-d, got shape {values.shape}")
        self.layout, size = pack_layout(shapes)
        if size != values.size:
            raise ValueError(f"layout covers {size} values, vector has {values.size}")
        self.values = values

    @classmethod
    def from_arrays(cls, named: Mapping[str, np.ndarray]) -> "ParamVector":
        arrays = [np.asarray(arr, dtype=np.float64) for arr in named.values()]
        values = np.concatenate([a.reshape(-1) for a in arrays] or [np.zeros(0)])
        return cls(values, dict(zip(named, (a.shape for a in arrays))))

    @property
    def dim(self) -> int:
        return self.values.size

    def view(self, name: str) -> np.ndarray:
        off, shape = self.layout[name]
        return self.values[off: off + math.prod(shape)].reshape(shape)

    def replace(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(values, {name: shape for name, (_, shape) in self.layout.items()})

    def to_leaves(self) -> "OrderedDict[str, Tensor]":
        """Fresh requires-grad leaf tensors, one per named slice."""
        return OrderedDict((name, Tensor(self.view(name).copy(), requires_grad=True))
                           for name in self.layout)

    def to_constants(self) -> "OrderedDict[str, Tensor]":
        """Constant tensors over each named slice's view; no gradient flows to them."""
        return OrderedDict((name, Tensor(self.view(name))) for name in self.layout)

    def flatten_named(self, named: Mapping[str, np.ndarray]) -> "ParamVector":
        """Pack one array per slice (e.g. gradients; every name needed) into this layout."""
        return self.replace(np.concatenate([np.ravel(named[name]) for name in self.layout]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, ParamVector)
                and self.layout == other.layout
                and np.array_equal(self.values, other.values))
