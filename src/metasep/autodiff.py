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
  a channel bias into its fresh output, so no graph keeps a pre-bias array,
* a first-order :func:`grad` (``create_graph=False``) consumes the graph it
  walks: each node drops its parents and its VJP as soon as the VJP has run,
  so an activation is freed once the backward has passed it, and a later
  walk through a consumed node raises ``RuntimeError``. ``create_graph=True``
  leaves the graph as it was, so a graph needed by two backwards takes a
  create-graph backward for all but the last,
* the reverse walk runs a node once every consumer that feeds it has run,
  highest topological position first, and sums each node's cotangent
  contributions in one fixed order (consumers by descending position, then
  by parent index). Every walk runs one loop: on its own thread, or over
  large arrays on ``WORKERS`` threads, unless its thread runs an item of an
  :func:`in_order` map on several threads; the helpers record graph nodes
  in a create-graph walk as the caller does. The weight, bias, slope and
  shift gradients that flow into leaves come back deferred: with helpers, a
  few wait for whichever thread has no node to start, and the thread that
  made any other one runs it next. A contribution that comes early waits
  for those before it, so the bits are those of one thread on any number
  of threads. A first-order walk adds the third and later contributions in
  place into a buffer of its own, never into an array a VJP returned,
* a create-graph walk records each sum of two contributions as an ``add``
  node whose VJP passes its cotangent through, so no backward reads the
  operands' arrays again. Right after that add it releases each operand's
  array (its ``data`` becomes a NaN view of the same shape that owns no
  memory) when the walk made the operand, no VJP passed it through as its
  own cotangent, and nothing holds a weak reference to it (the VJPs that
  read their own output do so through one).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import os
import threading
import weakref
from collections import OrderedDict, deque
from heapq import heappop, heappush
from itertools import zip_longest
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
    "WORKERS",
    "in_order",
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


# Node ids key the reverse walk's bookkeeping, so they must be unique across
# the threads that build graphs at once: next() on an itertools.count is one
# C call that runs under the GIL, so no two threads ever get the same id.
_ids = itertools.count()


class _GradMode(threading.local):
    """Per-thread recording flag, and whether the thread runs an item of an
    in_order map on several threads; concurrent evaluations stay independent."""

    def __init__(self):
        self.enabled = True
        self.in_map = False


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


class _Later(functools.partial):
    """A VJP's contribution to one parent, computed when the walk calls it:
    the weight, bias, slope and shift gradients of conv1d, conv1d_input_grad,
    prelu and gln. The walk calls one that flows into an interior node as
    soon as the VJP returns, and defers one that flows into a leaf (see
    _Walk)."""

    __slots__ = ()


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
    # with e = e^-|x|, max(e, x >= 0) / (1 + e) is 1 / (1 + e^-x) where x >= 0
    # and e^x / (1 + e^x) elsewhere, so exp never overflows; -|x| is taken as
    # min(x, -x), which keeps a NaN's sign
    x = a.data
    e = np.negative(x, out=np.empty_like(x))  # an array even for a 0-d x, so it is reused
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    y = np.maximum(e, x >= 0)
    y /= np.add(e, 1.0, out=e)

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
# A depthwise input gradient sums nothing, so it is one broadcast product.


def _windows(xp: np.ndarray, kernel: int, stride: int, dilation: int) -> np.ndarray:
    c, tp = xp.shape
    span = dilation * (kernel - 1) + 1
    t_out = (tp - span) // stride + 1
    s0, s1 = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, shape=(c, t_out, kernel), strides=(s0, stride * s1, dilation * s1),
        writeable=False)


def _padded(x: np.ndarray, pad: int) -> np.ndarray:
    if not pad:
        return x
    xp = np.zeros((x.shape[0], x.shape[1] + 2 * pad))
    xp[:, pad:-pad] = x
    return xp


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

    wg = w.data.reshape(groups, cout // groups, cg, k)
    if (k, stride, pad, groups) == (1, 1, 0, 1):
        # the window view would hand BLAS these same operands
        y = wg[0].reshape(cout, cg) @ x.data
    else:
        win = _windows(_padded(x.data, pad), k, stride, dilation).reshape(groups, cg, t_out, k)
        if groups == 1:
            y = wg[0].reshape(cout, cg * k) @ win[0].transpose(0, 2, 1).reshape(cg * k, t_out)
        else:
            y = np.einsum("gitk,goik->got", win, wg).reshape(cout, t_out)
    if b is not None:
        y += b.data[:, None]  # y is fresh, so no pre-bias array outlives the call

    def vjp(g):
        dx = conv1d_input_grad(g, w, stride=stride, dilation=dilation, groups=groups,
                               pad=pad, out_len=t) if x.requires_grad else None
        dw = _Later(conv1d_weight_grad, x, g, kernel=k, stride=stride, dilation=dilation,
                    groups=groups, pad=pad) if w.requires_grad else None
        return (dx, dw) if b is None else (dx, dw, _Later(sum_time, g) if b.requires_grad else None)

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

    def vjp(c):
        dg = conv1d(c, w, stride=stride, dilation=dilation, groups=groups,
                    pad=pad) if g.requires_grad else None
        dw = _Later(conv1d_weight_grad, c, g, kernel=k, stride=stride, dilation=dilation,
                    groups=groups, pad=pad) if w.requires_grad else None
        return (dg, dw)

    gg = g.data.reshape(groups, cout // groups, t_out)
    wg = w.data.reshape(groups, cout // groups, cg, k)
    if groups == 1:
        contrib = (wg[0].transpose(1, 2, 0).reshape(cg * k, cout) @ gg[0]).reshape(cin, k, t_out)
        if (k, stride, pad) == (1, 1, 0):
            # one tap per sample: the overlap-add would only add each product to
            # a zero, and BLAS sums from +0.0, so that add would not change a bit
            return _node("conv1d_input_grad", contrib.reshape(cin, t_out), (g, w), vjp)
    elif cg == 1 and cout == groups:
        # depthwise: each tap's contribution is the one product einsum would form
        contrib = w.data.reshape(cin, k)[:, :, None] * g.data[:, None, :]
    else:
        contrib = np.einsum("got,goik->gikt", gg, wg).reshape(cin, k, t_out)
    dxp = np.zeros((cin, out_len + 2 * pad))
    if dilation == 1 and k % stride == 0:
        # tap j * stride + r of output t lands in block t + j, column r: k / stride
        # block adds, and each sample still sums its taps in increasing order
        q = k // stride
        blocks = dxp[:, :(t_out + q - 1) * stride].reshape(cin, t_out + q - 1, stride)
        for j in range(q):
            blocks[:, j:j + t_out] += contrib[:, j * stride:(j + 1) * stride].transpose(0, 2, 1)
    else:
        hi = (t_out - 1) * stride + 1
        for tap in range(k):
            dxp[:, tap * dilation: tap * dilation + hi: stride] += contrib[:, tap]
    dx = dxp[:, pad: pad + out_len] if pad else dxp
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
    gg = g.data.reshape(groups, cout // groups, t_out)
    if (kernel, stride, pad, groups) == (1, 1, 0, 1):
        # the window view would hand BLAS these same operands
        dw = (gg[0] @ x.data.T).reshape(cout, cg, kernel)
    else:
        xp = _padded(x.data, pad)
        win = _windows(xp, kernel, stride, dilation).reshape(groups, cg, t_out, kernel)
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
# gradient node and one gamma-gradient node. Both take x_hat from the
# forward's (mean, inv); gln's VJP computes it once for the two, and the input
# gradient takes one of its means from gamma's gradient. The VJPs of
# those need x_hat = (x - mean) * inv and inv = 1 / sqrt(var + eps) as
# functions of x; two more private nodes provide them, and all these VJPs are
# built from each other again.


def prelu(x: Tensor, a: Tensor) -> Tensor:
    """max(x, 0) + a * min(x, 0) with a scalar slope a."""
    _check(a.data.shape == (), "prelu", f"slope must be a scalar, got {a.data.shape}")
    return _gated(x, a, x.data > 0.0)


def _gated(x: Tensor, a: Tensor, gate: np.ndarray) -> Tensor:
    """x where the boolean gate holds, a * x elsewhere. As in relu, the gate
    is a constant of the backward pass, so the map is linear in x and in a."""

    def vjp(g):
        dx = _gated(g, a, gate) if x.requires_grad else None
        da = _Later(_masked_dot, g, x, gate) if a.requires_grad else None
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
    y = x.data - mu
    dev = y.ravel()
    inv = 1.0 / np.sqrt((1.0 / n) * np.dot(dev, dev) + float(eps))
    stats = (mu, inv)

    def vjp(g):
        xhat = _xhat(x.data, stats)
        # gamma's gradient reads xhat before the input gradient scales it in
        # place, and the input gradient reuses that gradient's sums
        dgamma = _gln_gamma_grad(x, g, stats, xhat) if gamma.requires_grad else None
        dx = _gln_input_grad(x, g, gamma, stats, xhat,
                             None if dgamma is None else dgamma.data) if x.requires_grad else None
        dbeta = _Later(sum_time, g) if beta.requires_grad else None
        return (dx, dgamma, dbeta)

    # (x - mean) * (inv * gamma) + beta, written over the deviations
    y *= (inv * gamma.data)[:, None]
    y += beta.data[:, None]
    return _node("gln", y, (x, gamma, beta), vjp)


def _xhat(x: np.ndarray, stats: tuple) -> np.ndarray:
    mu, inv = stats
    xhat = x - mu
    xhat *= inv
    return xhat


def _gln_input_grad(x: Tensor, g: Tensor, gamma: Tensor, stats: tuple,
                    xhat: np.ndarray | None = None,
                    gx: np.ndarray | None = None) -> Tensor:
    """J(x) (g * gamma), the cotangent of x for a cotangent g * gamma of
    x_hat, as one node. J h = inv * (h - mean(h) - x_hat * mean(h * x_hat))
    is the Jacobian of x_hat, and it is symmetric. Both means come from
    per-channel sums: gamma . sum_t g / n and gamma . gx / n, where
    gx = sum_t g * x_hat is gamma's gradient. A given `xhat` is x_hat for
    `stats`, and this call overwrites it; a given `gx` is that sum."""
    n = x.data.size
    t = x.data.shape[1]
    inv = stats[1]
    if xhat is None:
        xhat = _xhat(x.data, stats)
    if gx is None:
        gx = np.einsum("ct,ct->c", g.data, xhat)
    # inv * (g * gamma - m1 - x_hat * m2), with x_hat kept as (x - mean) * inv:
    # inv * x - inv * mean would cancel where the mean is large next to the spread
    h = g.data * (inv * gamma.data)[:, None]
    xhat *= inv * (np.dot(gamma.data, gx) / n)
    xhat += inv * (np.dot(gamma.data, g.data.sum(axis=1)) / n)
    h -= xhat

    def vjp(c):
        # one x_hat node for the three uses; jc overwrites the copy it is given
        xh = _gln_normalize(x, stats)
        jc = _gln_input_grad(x, c, Tensor(np.ones(gamma.data.shape)), stats, xh.data.copy())
        dx = dg = dgamma = None
        if x.requires_grad:
            # d<c, J(x) h>/dx = -(inv/n) (<c, Jh> x_hat + <h, x_hat> Jc + <c, x_hat> Jh)
            out = ref()
            h_xhat = dot(gamma, _gln_gamma_grad(x, g, stats, xh.data))
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


def _gln_gamma_grad(x: Tensor, g: Tensor, stats: tuple,
                    xhat: np.ndarray | None = None) -> Tensor:
    """sum_t g * x_hat, gamma's cotangent, as one (C,) node; `xhat`, when
    given, is x_hat for `stats`."""
    t = x.data.shape[1]
    if xhat is None:
        xhat = _xhat(x.data, stats)

    def vjp(s):
        dx = _gln_input_grad(x, g, s, stats) if x.requires_grad else None
        dg = mul(expand_time(s, t), _gln_normalize(x, stats)) if g.requires_grad else None
        return (dx, dg)

    return _node("gln_gamma_grad", np.einsum("ct,ct->c", g.data, xhat), (x, g), vjp)


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


def _consumed(g):
    raise RuntimeError("backward through a graph that a first-order grad has consumed; "
                       "build it again, or take the earlier backward with create_graph=True")


# Threads that a walk running alone and an in_order map put to work: 2, or 1
# where the process may use one CPU. numpy releases the GIL in the
# separator's kernels, and two query graphs take less memory than the
# Hessian-vector product.
WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
# A walk takes helper threads only over graphs whose nodes hold this many
# elements on average. Below it the GIL sets the pace. On 2 vCPUs with one
# BLAS thread, a Hessian-vector product averaging 8k elements (the tiny
# separator) took 16.4 ms on two threads against 14.8 ms on one, one
# averaging 14k gained 3 %, and one averaging 23k took 112 against 142 ms
# (the default separator's averages 46k).
_HELPER_MIN_MEAN_ELEMENTS = 20_000
# A thread does not start a node while more than this many contributions wait
# for one that comes before them in their sum's order, unless no other thread
# runs one. It bounds the arrays that an out-of-order schedule keeps alive.
_MAX_PARKED = 2
# A walk with helpers queues at most this many leaf contributions (each holds
# a cotangent array), a walk without none; the thread whose VJP made one more
# runs it next itself.
_MAX_QUEUED = 2
_MISSING = object()
_NAN = np.float64(np.nan)


class _Walk:
    """One reverse walk from `output`, shared by the threads that run it.

    The walk covers the nodes that `output` reaches through requires-grad
    edges, numbered by a depth-first walk over their parents so that each
    comes after its parents; node ids play no part, so a graph recorded on
    several threads is numbered as one recorded on one. A node is ready once
    every consumer that feeds it has run, and ready nodes are taken highest
    position first: on one thread that is descending topological order. Each
    node's cotangent contributions are ranked in that order (consumers by
    descending position, then by parent index) and summed in rank order, each
    as soon as those before it are in; one that comes early is parked until
    then. So the bits do not depend on the schedule.

    The calling thread and any helpers all run :meth:`run`. Under one lock
    they share the sums, the counts of running and waiting threads, the cap
    on parked contributions and the queue of leaf contributions. A deferred
    contribution (:class:`_Later`) into an interior node is computed as soon
    as its VJP returns. One into a leaf is queued, up to ``max_queued`` of
    them, for a thread with no node ready to start, and the thread whose VJP
    made one more runs it next itself. :func:`grad` sets that cap to
    ``_MAX_QUEUED`` with helpers and to 0 without, so a lone thread runs its
    leaf contributions right after the VJP that made them. Either way the
    result joins the ranked sum as any VJP's does.

    A first-order walk makes one buffer for a sum of two contributions and
    adds any further ones into it in place. It never writes into an array
    that a VJP returned: VJPs pass their cotangent through (add, sub,
    add_constant) or return read-only views.

    A create-graph walk records each sum as an ``add`` node, whose VJP reads
    neither operand, and at once replaces the ``data`` of each operand with
    a NaN view of its shape that owns no memory, if all three hold: the
    operand was made during this walk (its id is at least that of the
    walk's first cotangent), no VJP returned it as the very cotangent it
    was given (marked when the VJP returns), and nothing refers to it weakly
    (div, sigmoid, sqrt, _gln_input_grad and _gln_inv read their own output
    through a weakref). This relies on a VJP's contributions being distinct
    objects that no other node of that VJP takes as a parent. The shapes,
    and so ``mean_elements`` of a later walk, stay as they were.
    """

    def __init__(self, output: Tensor, wrt: Sequence[Tensor], create_graph: bool):
        order: list[Tensor] = []
        pos: dict[int, int] = {}  # node id -> -1 while discovered, then its position
        stack = [output]
        while stack:
            node = stack[-1]
            at = pos.get(node._id)
            if at is None:
                pos[node._id] = -1
                for p in node._parents:
                    if p.requires_grad and p._id not in pos:
                        stack.append(p)
            else:
                if at == -1:
                    pos[node._id] = len(order)
                    order.append(node)
                stack.pop()
        n = len(order)
        # per parent of node k, (the parent's position, this contribution's rank)
        links: list[list] = [[]] * n
        counts = [0] * n  # contributions per node
        elements = 0
        for k in range(n - 1, -1, -1):
            node = order[k]
            elements += node.data.size
            if node._parents:
                link = links[k] = []
                for p in node._parents:
                    if p.requires_grad:
                        q = pos[p._id]
                        link.append((q, counts[q]))
                        counts[q] += 1
                    else:
                        link.append(None)
        self.mean_elements = elements / n
        self.order, self.links, self.counts = order, links, counts
        self.create_graph = create_graph
        self.at = [pos.get(w._id) for w in wrt]
        self.cot: list = [None] * n
        self.cot[-1] = Tensor(1.0)
        self.first = self.cot[-1]._id  # tensors with a lower id predate the walk
        self.passed: set = set()  # ids of cotangents a VJP passed through unchanged
        self.owned = [False] * n  # cot[k] is a buffer this walk made
        self.next = [0] * n       # rank of node k's next contribution to sum
        self.parked: dict = {}    # (position, rank) -> contribution that came early
        self.ready = [-(n - 1)]   # heap of negated positions
        self.queue: deque = deque()  # (link, _Later) into a leaf, for any thread
        self.max_queued = 0  # the queue's cap, set by grad from the helper count
        self.leaf = [node._vjp is None for node in order]
        self.running = self.waiting = 0
        self.stopped = False
        self.error: BaseException | None = None
        self.lock = threading.Lock()
        self.wake = threading.Condition(self.lock)

    def run(self) -> None:
        """Run ready nodes and queued contributions until none is left or the
        walk is stopped. A failure stops the walk for every thread, then
        propagates."""
        lock, wake, ready, order, cot, keep = (self.lock, self.wake, self.ready, self.order,
                                               self.cot, set(self.at))
        links, counts, nxt, parked, owned = (self.links, self.counts, self.next,
                                             self.parked, self.owned)
        queue, max_queued, leaf, create_graph = (self.queue, self.max_queued, self.leaf,
                                                 self.create_graph)
        first, passed = self.first, self.passed
        # (link, contribution) pairs to hand over, once this thread has run
        # something, and the leaf contributions it runs next itself
        done, mine, later = None, [], None
        try:
            while True:
                with lock:
                    if done is not None:
                        for link, pg in done:
                            if link is None:
                                continue
                            if type(pg) is _Later:  # into a leaf
                                (queue if len(queue) < max_queued else mine).append((link, pg))
                                continue
                            q, rank = link
                            if rank != nxt[q]:
                                parked[link] = pg
                                continue
                            while True:
                                if pg is not None:
                                    have = cot[q]
                                    if have is None:
                                        cot[q] = pg
                                    elif create_graph:
                                        cot[q] = add(have, pg)
                                        # add's VJP passes its cotangent through, so
                                        # no VJP reads the operands' arrays again
                                        for t in (have, pg):
                                            if (t._id >= first and t._id not in passed
                                                    and not weakref.getweakrefcount(t)):
                                                t.data = np.broadcast_to(_NAN, t.data.shape)
                                    else:
                                        if have.data.shape != pg.data.shape:
                                            _same_shape("add", have, pg)
                                        if owned[q]:
                                            np.add(have.data, pg.data, out=have.data)
                                        else:
                                            cot[q] = Tensor(have.data + pg.data)
                                            owned[q] = True
                                rank += 1
                                if rank == counts[q]:
                                    heappush(ready, -q)
                                    break
                                pg = parked.pop((q, rank), _MISSING) if parked else _MISSING
                                if pg is _MISSING:
                                    break
                            nxt[q] = rank
                        done = pg = have = None
                        if not mine:
                            self.running -= 1
                        if self.waiting:
                            wake.notify_all()
                    if mine:
                        later, mine = mine, []
                    else:
                        # wait while another thread runs, nothing is queued and
                        # no node is ready or too many are parked
                        while not self.stopped and self.running and not queue and not (
                                ready and len(parked) <= _MAX_PARKED):
                            self.waiting += 1
                            wake.wait()
                            self.waiting -= 1
                        if self.stopped:
                            return
                        take_node = ready and (len(parked) <= _MAX_PARKED or not self.running)
                        if not (take_node or queue):  # every node has run
                            if self.waiting:
                                wake.notify_all()
                            return
                        self.running += 1
                        if take_node:
                            k = -heappop(ready)
                            node, g = order[k], cot[k]
                            order[k] = None  # the walk keeps no node it has passed
                            if k not in keep:
                                cot[k] = None
                        else:
                            later = [queue.popleft()]
                if later is not None:
                    done = [(link, pg()) for link, pg in later]
                    later = None
                    continue
                vjp = node._vjp
                if g is None or vjp is None:
                    done = ()
                else:
                    if not create_graph:
                        node._vjp, node._parents = _consumed, ()
                    # the contributions into interior nodes, now
                    done = [(link, pg() if type(pg) is _Later and not leaf[link[0]] else pg)
                            for link, pg in zip_longest(links[k], vjp(g))]
                    if create_graph and any(pg is g for _, pg in done):
                        passed.add(g._id)
                g = node = vjp = pg = None
        except BaseException as err:
            self.stop(err)
            raise

    def stop(self, err: BaseException | None = None) -> None:
        """End the walk on every thread, keeping the first failure."""
        with self.lock:
            self.stopped = True
            if self.error is None:
                self.error = err
            self.wake.notify_all()

    def help(self) -> None:
        """A helper thread's loop. It records graph nodes as the caller does,
        that is in a create-graph walk only. Its failure is kept in ``error``
        by run() and raised in the calling thread, not here."""
        _GradMode.enabled = self.create_graph
        try:
            self.run()
        except BaseException:
            pass


def _run_with_helpers(helpers: int, work: Callable[[], None],
                      helper_work: Callable[[], None], name: str) -> None:
    """Run `work` here while `helpers` daemon threads run `helper_work`, each
    in a copy of this thread's context (numpy's errstate is a context
    variable); they are joined before this returns. `helper_work` keeps its
    own failures for the caller to raise."""
    threads = [threading.Thread(target=contextvars.copy_context().run, args=(helper_work,),
                                name=name, daemon=True) for _ in range(helpers)]
    try:
        for thread in threads:
            thread.start()
        work()
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()


def in_order(fn: Callable, items: Sequence, workers: int) -> list:
    """[fn(item) for item in items] on this thread and up to `workers` - 1
    helpers, which claim items in order. With helpers, every thread of the
    map is marked, so no walk of an item takes a helper of its own. No item
    after a failed one starts; once the helpers are joined, the lowest
    failing item's error is raised."""
    results, errors = [None] * len(items), [None] * len(items)
    claims = itertools.count()  # next() is one C call under the GIL
    helpers = min(workers, len(items)) - 1

    def run_items():
        prev = _GradMode.in_map
        _GradMode.in_map = prev or helpers > 0  # a helper thread starts unmarked
        try:
            for i in claims:
                if i >= len(items) or any(err is not None for err in errors[:i]):
                    return
                try:
                    results[i] = fn(items[i])
                except BaseException as err:  # re-raised by the calling thread
                    errors[i] = err
        finally:
            _GradMode.in_map = prev

    _run_with_helpers(helpers, run_items, run_items, "metasep-term")
    for err in errors:
        if err is not None:
            raise err
    return results


def grad(output: Tensor, wrt: Sequence[Tensor], create_graph: bool = False) -> list[Tensor]:
    """Cotangents of a scalar `output` with respect to each tensor in `wrt`.

    With ``create_graph=True`` the returned tensors carry their own graphs and
    can be differentiated again, and the graph of `output` is left intact.
    Without it the walk consumes that graph: every node it passes loses its
    parents and its VJP right after the VJP runs, so its inputs are freed as
    the walk goes, and another backward through any of those nodes raises
    ``RuntimeError`` instead of returning zeros. Where the graph's arrays are
    large enough, the walk runs its VJPs on ``WORKERS`` threads, with the
    bits of one, unless this thread runs an item of an :func:`in_order` map
    on several threads.
    Tensors in `wrt` that the output does not depend on receive zeros.
    """
    if output.data.shape != ():
        raise NonScalarOutputError(
            f"gradient target must be a scalar, got shape {output.data.shape} from op {output.op!r}")
    wrt = list(wrt)
    if not output.requires_grad:
        return [Tensor(np.zeros(w.data.shape)) for w in wrt]

    walk = _Walk(output, wrt, bool(create_graph))
    helpers = 0
    if walk.mean_elements >= _HELPER_MIN_MEAN_ELEMENTS and not _GradMode.in_map:
        helpers = WORKERS - 1
    walk.max_queued = _MAX_QUEUED if helpers > 0 else 0
    prev = _GradMode.enabled
    _GradMode.enabled = bool(create_graph)
    try:
        _run_with_helpers(helpers, walk.run, walk.help, "metasep-walk")
    finally:
        _GradMode.enabled = prev
    if walk.error is not None:
        raise walk.error
    return [walk.cot[k] if k is not None and walk.cot[k] is not None
            else Tensor(np.zeros(w.data.shape)) for k, w in zip(walk.at, wrt)]


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
