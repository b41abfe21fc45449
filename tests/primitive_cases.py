"""The autodiff primitives' finite-difference case table and its two checks.

``CASES`` maps every op string the engine records to a builder over input
tensors and each input's shape and domain. ``check_first_order`` compares
the gradient of a smooth readout of the op against central differences;
``check_second_order`` does the same for the squared norm of the op's own
create-graph gradient, so a VJP that is right in value but built from
untracked constants fails it; with two copies of the op it also runs
through cotangents that the create-graph walk sums. The unit tests and
acceptance criterion 1 both run over this table, and a unit test fails
when the model records an op string that has no entry here.
"""

import functools
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from metasep import autodiff as ad
from oracles import assert_fd_close, fd_gradient

GLN_EPS = 1e-8


def positive(x):
    return np.abs(x) + 0.5


def nonzero(x):
    return np.sign(x) * (np.abs(x) + 0.5)


def away_from(kink):
    """Moves draws within 0.05 of a kink off it, so differences stay on one side."""
    return lambda x: np.where(np.abs(x - kink) < 0.05, x + 0.2, x)


def gln_stats(x):
    """(mean, 1 / sqrt(variance + eps)) over all of x, as gln computes them:
    the variance as the dot of the deviations with themselves."""
    n = x.size
    mu = (1.0 / n) * x.sum()
    dev = (x - mu).ravel()
    return mu, 1.0 / np.sqrt((1.0 / n) * np.dot(dev, dev) + GLN_EPS)


@dataclass(frozen=True)
class Case:
    """build(*inputs) -> the op's node; inputs maps each input's name, in
    argument order, to (shape, domain), where domain maps a standard normal
    draw into the op's smooth region (None keeps the draw)."""

    build: Callable[..., ad.Tensor]
    inputs: dict
    layer: bool = False  # a fused layer primitive


def _one(shape, domain=None):
    return {"a": (shape, domain)}


def _two(shape, domain_b=None):
    return {"a": (shape, None), "b": (shape, domain_b)}


_GATE = np.arange(20).reshape(4, 5) % 3 != 0  # a fixed PReLU gate, open at 2 of 3 cells
CONV = dict(stride=2, groups=2, pad=1)  # 6 -> 4 channels, 21 -> 11 frames, K = 3

CASES = {
    "neg": Case(ad.neg, _one((4, 6))),
    "scalar_mul": Case(lambda a: ad.scalar_mul(-1.7, a), _one((3, 5))),
    "add_constant": Case(lambda a: ad.add_constant(a, 0.3), _one((7,))),
    "relu": Case(ad.relu, _one((5, 5), away_from(0.0))),
    "sigmoid": Case(ad.sigmoid, _one((4, 4))),
    "sqrt": Case(ad.sqrt, _one((6,), positive)),
    "log10": Case(ad.log10, _one((6,), positive)),
    "clamp_min": Case(lambda a: ad.clamp_min(a, 0.1), _one((5, 3), away_from(0.1))),
    "sum_all": Case(ad.sum_all, _one((4, 5))),
    "expand_scalar": Case(lambda a: ad.expand_scalar(a, (3, 4)), _one(())),
    "sum_time": Case(ad.sum_time, _one((3, 7))),
    "expand_time": Case(lambda a: ad.expand_time(a, 6), _one((5,))),
    "reshape": Case(lambda a: ad.reshape(a, (2, 6)), _one((3, 4))),
    "slice_channels": Case(lambda a: ad.slice_channels(a, 1, 4), _one((6, 5))),
    "pad_channels": Case(lambda a: ad.pad_channels(a, 2, 9), _one((3, 4))),
    "gln_normalize": Case(lambda a: ad._gln_normalize(a, gln_stats(a.data)), _one((4, 6))),
    "gln_inv": Case(lambda a: ad._gln_inv(a, gln_stats(a.data)), _one((4, 6))),
    "add": Case(ad.add, _two((4, 5))),
    "sub": Case(ad.sub, _two((4, 5))),
    "mul": Case(ad.mul, _two((4, 5))),
    "div": Case(ad.div, _two((4, 5), nonzero)),
    "dot": Case(ad.dot, _two((4, 5))),
    "masked_dot": Case(lambda a, b: ad._masked_dot(a, b, _GATE), _two((4, 5))),
    "gln_gamma_grad": Case(lambda x, g: ad._gln_gamma_grad(x, g, gln_stats(x.data)),
                           _two((4, 6))),
    "sigmoid_grad": Case(ad._sigmoid_grad, {"g": ((4, 5), None), "y": ((4, 5), None)}),
    "sigmoid_grad_y": Case(ad._sigmoid_grad_y,
                           {"c": ((4, 5), None), "g": ((4, 5), None), "y": ((4, 5), None)}),
    "scale": Case(ad.scale, {"a": ((3, 6), None), "s": ((), None)}),
    "conv1d": Case(lambda x, w, b: ad.conv1d(x, w, b, **CONV),
                   {"x": ((6, 21), None), "w": ((4, 3, 3), None), "b": ((4,), None)}),
    # a conv that adds its addend into its output, as the residual and skip convs do
    "conv1d_addend": Case(lambda a, x, w, b: ad.conv1d(x, w, b, addend=a, **CONV),
                          {"a": ((4, 11), None), "x": ((6, 21), None), "w": ((4, 3, 3), None),
                           "b": ((4,), None)}),
    "conv1d_input_grad": Case(lambda g, w: ad.conv1d_input_grad(g, w, out_len=21, **CONV),
                              {"g": ((4, 11), None), "w": ((4, 3, 3), None)}),
    "conv1d_weight_grad": Case(lambda x, g: ad.conv1d_weight_grad(x, g, kernel=3, **CONV),
                               {"x": ((6, 21), None), "g": ((4, 11), None)}),
    # the channel bias add on its own: conv1d through a 1x1 identity kernel
    "add_channel_bias": Case(lambda x, b: ad.conv1d(x, ad.tensor(np.eye(4)[:, :, None]), b),
                             {"x": ((4, 6), None), "b": ((4,), None)}, layer=True),
    "prelu": Case(ad.prelu, {"x": ((4, 6), away_from(0.0)), "a": ((), None)}, layer=True),
    "gln_input_grad": Case(lambda x, g, gamma: ad._gln_input_grad(x, g, gamma,
                                                                   gln_stats(x.data)),
                           {"x": ((4, 6), None), "g": ((4, 6), None), "gamma": ((4,), None)},
                           layer=True),
    "gln": Case(lambda x, gamma, beta: ad.gln(x, gamma, beta, GLN_EPS),
                {"x": ((4, 6), None), "gamma": ((4,), None), "beta": ((4,), None)},
                layer=True),
    # a gLN of a PReLU output, as in each TCN block: gln releases the output's
    # array, so its backward recomputes it from x, the slope and the gate
    "prelu_gln": Case(lambda x, a, gamma, beta: ad.gln(ad.prelu(x, a), gamma, beta, GLN_EPS),
                      {"x": ((4, 6), away_from(0.0)), "a": ((), None), "gamma": ((4,), None),
                       "beta": ((4,), None)}, layer=True),
}


def case_inputs(op, seed):
    """Seeded input arrays of one case, by name."""
    rng = np.random.default_rng((zlib.crc32(op.encode()), seed))
    vals = {}
    for name, (shape, domain) in CASES[op].inputs.items():
        x = rng.normal(size=shape)
        vals[name] = x if domain is None else domain(x)
    return vals


def scalar_loss(t):
    """Smooth scalar readout used to gradcheck any-shaped outputs."""
    return ad.sum_all(ad.mul(t, ad.sigmoid(t)))


def _readout(op, ins, twice=False):
    out = scalar_loss(CASES[op].build(*ins.values()))
    if twice:
        out = ad.add(out, ad.scalar_mul(0.5, scalar_loss(CASES[op].build(*ins.values()))))
    return out


def check_first_order(op, arg, seed, rtol=1e-5, vals=None):
    """Gradient of the readout with respect to input `arg`, against central
    differences; the other inputs are constants. `vals`, when given, replaces
    the case's seeded inputs."""
    vals = case_inputs(op, seed) if vals is None else vals

    def readout(v):
        return _readout(op, {n: v if n == arg else ad.tensor(x) for n, x in vals.items()})

    leaf = ad.tensor(vals[arg], requires_grad=True)
    (got,) = ad.grad(readout(leaf), [leaf])
    num = fd_gradient(lambda v: readout(ad.tensor(v)).item(), vals[arg], step=1e-5)
    assert_fd_close(got.data, num, rtol=rtol, label=f"{op}.{arg}[seed={seed}]")


def check_second_order(op, arg, seed, rtol=1e-5, vals=None, twice=False):
    """Gradient with respect to input `arg` of the squared norm of the op's
    own create-graph gradient with respect to every input, against central
    differences. `vals`, when given, replaces the case's seeded inputs.
    With `twice`, every input feeds two copies of the op, read out as
    readout + 0.5 readout, so each input's cotangent is a create-graph sum
    of two VJP outputs: the sum whose operands the walk releases."""
    vals = case_inputs(op, seed) if vals is None else vals

    def grad_norm(v):
        ins = {n: ad.tensor(v if n == arg else x, requires_grad=True) for n, x in vals.items()}
        grads = ad.grad(_readout(op, ins, twice), list(ins.values()), create_graph=True)
        return functools.reduce(ad.add, (ad.dot(g, g) for g in grads)), ins[arg]

    out, leaf = grad_norm(vals[arg])
    (got,) = ad.grad(out, [leaf])
    num = fd_gradient(lambda v: grad_norm(v)[0].item(), vals[arg], step=1e-5)
    assert_fd_close(got.data, num, rtol=rtol, label=f"{op}.{arg} second order[seed={seed}]")
