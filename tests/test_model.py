import collections
import dataclasses
import functools
import json
import os
import platform
import re
import struct
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import metasep
from metasep import autodiff as ad
from metasep import dsp, model, trainer
from metasep.model import SeparatorConfig
from oracles import (assert_fd_close, brute_force_upit, direct_si_snr,
                     fd_gradient, naive_conv1d)
from test_trainer import make_task

RNG = np.random.default_rng

TINY = SeparatorConfig(enc_channels=8, enc_kernel=16, enc_stride=8,
                       bottleneck_channels=4, conv_channels=8, kernel=3,
                       blocks_per_stack=2, stacks=1)


def upit(estimates, sources):
    """model.upit_loss on constant tensors of the estimates: (loss float, permutation)."""
    loss, perm = model.upit_loss([ad.tensor(dsp._as_samples(e)) for e in estimates], sources)
    return loss.item(), perm


def make_pair(n=400, seed=0, snr_db=2.0):
    rng = RNG(seed)
    return dsp.mix_at_snr(dsp.Waveform(rng.normal(size=n) * 0.3),
                          dsp.Waveform(rng.normal(size=n) * 0.3), snr_db)


# ---------------------------------------------------------------------------
# config


def test_frames_formula():
    cfg = SeparatorConfig()
    assert cfg.frames(32000) == 3999


def test_frames_rejects_misaligned_length():
    with pytest.raises(ValueError, match="align"):
        SeparatorConfig().frames(32001)


def test_config_rejects_nonpositive():
    with pytest.raises(ValueError):
        SeparatorConfig(enc_stride=0)


BAD_SEPARATOR_FIELDS = [
    ("kernel", 2, "kernel must be odd, got 2"),
    ("kernel", 3.0, "kernel must be an integer of at least 1, got 3.0"),
    ("enc_channels", 2.5, "enc_channels must be an integer of at least 1, got 2.5"),
    ("stacks", True, "stacks must be an integer of at least 1, got True"),
    ("conv_channels", 0, "conv_channels must be an integer of at least 1, got 0"),
    ("enc_stride", "8", "enc_stride must be an integer of at least 1, got '8'"),
]


@pytest.mark.parametrize("name,value,refusal", BAD_SEPARATOR_FIELDS)
def test_config_refuses_a_field_that_is_not_a_positive_int(name, value, refusal):
    """Every field is an int (a bool is not one) of at least 1, and the
    depthwise kernel is odd so that its padding keeps the length; a bad value
    is refused when the config is made, not inside the first forward."""
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        SeparatorConfig(**{name: value})


@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_odd_kernels_keep_the_length(kernel):
    cfg = dataclasses.replace(TINY, kernel=kernel)
    x = RNG(2).normal(size=400)
    outs = model.forward_separate(x, model.init_params(cfg, seed=0), cfg)
    assert [len(o) for o in outs] == [400, 400]


# ---------------------------------------------------------------------------
# encoder


def test_encode_identity_config():
    cfg = SeparatorConfig(enc_channels=1, enc_kernel=1, enc_stride=1,
                          bottleneck_channels=1, conv_channels=1,
                          blocks_per_stack=1, stacks=1)
    params = model.init_params(cfg, seed=0)
    params.view("encoder.weight")[:] = 1.0
    x = RNG(0).normal(size=50)
    with ad.no_grad():
        out = model.encode_tensors(ad.tensor(x), params.to_constants(), cfg).data
    assert out.shape == (1, 50)
    np.testing.assert_allclose(out[0], x, rtol=0, atol=1e-15)


def test_encode_matches_naive_convolution():
    cfg = TINY
    params = model.init_params(cfg, seed=1)
    x = RNG(2).normal(size=96)
    with ad.no_grad():
        got = model.encode_tensors(ad.tensor(x), params.to_constants(), cfg).data
    want = naive_conv1d(x[None, :], params.view("encoder.weight"), stride=cfg.enc_stride)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_encode_rejects_too_short_input():
    p = model.init_params(TINY, 0).to_constants()
    with pytest.raises(ValueError, match="shorter"), ad.no_grad():
        model.encode_tensors(ad.tensor(np.ones(8)), p, TINY)


# ---------------------------------------------------------------------------
# separator masks


def test_masks_lie_in_unit_interval():
    p = model.init_params(TINY, seed=3).to_constants()
    with ad.no_grad():
        x_enc = model.encode_tensors(ad.tensor(RNG(4).normal(size=160)), p, TINY)
        masks = model.separate_mask_tensors(x_enc, p, TINY)
    assert len(masks) == 2
    for m in masks:
        assert m.shape == x_enc.shape
        assert m.data.min() >= 0.0 and m.data.max() <= 1.0


def test_zeroed_mask_head_gives_half_masks():
    params = model.init_params(TINY, seed=5)
    params.view("mask.weight")[:] = 0.0
    params.view("mask.bias")[:] = 0.0
    p = params.to_constants()
    with ad.no_grad():
        x_enc = model.encode_tensors(ad.tensor(RNG(6).normal(size=160)), p, TINY)
        masks = model.separate_mask_tensors(x_enc, p, TINY)
    for m in masks:
        np.testing.assert_array_equal(m.data, np.full_like(m.data, 0.5))


def test_receptive_field_impulse_probe(monkeypatch):
    # global layer norm couples every frame, so the conv-stack receptive
    # field is probed with each norm replaced by the identity
    monkeypatch.setattr(model.ad, "gln", lambda x, gamma, beta, eps: x)
    cfg = SeparatorConfig(enc_channels=4, enc_kernel=4, enc_stride=4,
                          bottleneck_channels=4, conv_channels=4, kernel=3,
                          blocks_per_stack=3, stacks=2)
    dilations = [2 ** x for _ in range(cfg.stacks) for x in range(cfg.blocks_per_stack)]
    expected = 1 + (cfg.kernel - 1) * sum(dilations)

    p = model.init_params(cfg, seed=7).to_constants()
    frames = 4 * expected
    base = np.zeros((cfg.enc_channels, frames))
    probe = base.copy()
    center = frames // 2
    probe[1, center] = 1.0

    with ad.no_grad():
        m_base = model.separate_mask_tensors(ad.tensor(base), p, cfg)
        m_probe = model.separate_mask_tensors(ad.tensor(probe), p, cfg)
    changed = np.zeros(frames, dtype=bool)
    for a, b in zip(m_base, m_probe):
        changed |= np.any(a.data != b.data, axis=0)
    idx = np.flatnonzero(changed)
    assert idx.size == expected
    assert idx[0] == center - (expected - 1) // 2
    assert idx[-1] == center + (expected - 1) // 2


# ---------------------------------------------------------------------------
# masking and decoding


# the forward masks the encoder output with ad.mul, one mask per source


def test_apply_masks_identity_and_zero():
    x_enc = ad.tensor(RNG(8).normal(size=(4, 9)))
    with ad.no_grad():
        d1 = ad.mul(x_enc, ad.tensor(np.ones((4, 9))))
        d2 = ad.mul(x_enc, ad.tensor(np.zeros((4, 9))))
    np.testing.assert_array_equal(d1.data, x_enc.data)
    np.testing.assert_array_equal(d2.data, np.zeros((4, 9)))


def test_apply_masks_complementary_sum():
    x_enc = ad.tensor(RNG(9).normal(size=(4, 9)))
    m = RNG(10).uniform(size=(4, 9))
    with ad.no_grad():
        d1, d2 = (ad.mul(x_enc, ad.tensor(v)) for v in (m, 1.0 - m))
    np.testing.assert_allclose(d1.data + d2.data, x_enc.data, rtol=0, atol=1e-15)


def test_apply_masks_rejects_shape_mismatch():
    with pytest.raises(ad.ShapeMismatchError), ad.no_grad():
        ad.mul(ad.tensor(np.ones((4, 9))), ad.tensor(np.ones((4, 8))))


def test_masked_features_bounded_by_input():
    p = model.init_params(TINY, seed=11).to_constants()
    with ad.no_grad():
        x_enc = model.encode_tensors(ad.tensor(RNG(12).normal(size=160)), p, TINY)
        masked = [ad.mul(x_enc, m) for m in model.separate_mask_tensors(x_enc, p, TINY)]
    for d in masked:
        assert np.all(np.abs(d.data) <= np.abs(x_enc.data) + 1e-15)


def test_decode_zero_input():
    p = model.init_params(TINY, seed=13).to_constants()
    with ad.no_grad():
        out = model.decode_tensors(ad.tensor(np.zeros((8, 10))), p, TINY)
    np.testing.assert_array_equal(out.data, np.zeros(9 * 8 + 16))


def test_encode_decode_pseudo_inverse_reconstruction():
    # square encoder (H == L, stride == L): decoder = inverse transform
    cfg = SeparatorConfig(enc_channels=8, enc_kernel=8, enc_stride=8,
                          bottleneck_channels=4, conv_channels=4,
                          blocks_per_stack=1, stacks=1)
    params = model.init_params(cfg, seed=14)
    w = RNG(15).normal(size=(8, 8)) + 4.0 * np.eye(8)  # well conditioned
    params.view("encoder.weight")[:] = w[:, None, :]
    params.view("decoder.weight")[:] = np.linalg.inv(w).T[:, None, :]
    x = RNG(16).normal(size=64)
    p = params.to_constants()
    with ad.no_grad():
        out = model.decode_tensors(model.encode_tensors(ad.tensor(x), p, cfg), p, cfg)
    assert np.max(np.abs(out.data - x)) <= 1e-6


def test_decode_gradient_matches_finite_differences():
    cfg = TINY
    params = model.init_params(cfg, seed=17)
    d0 = RNG(18).normal(size=(8, 6))
    w0 = params.view("decoder.weight").copy()
    target = RNG(19).normal(size=5 * 8 + 16)

    def loss_for_weight(wv):
        p = dict(params.to_leaves())
        p["decoder.weight"] = ad.tensor(wv, requires_grad=True)
        out = model.decode_tensors(ad.tensor(d0), p, cfg)
        diff = ad.sub(out, ad.tensor(target))
        return p["decoder.weight"], ad.scalar_mul(1.0 / diff.data.size, ad.dot(diff, diff))

    leaf, loss = loss_for_weight(w0)
    (g,) = ad.grad(loss, [leaf])
    num = fd_gradient(lambda wv: loss_for_weight(wv)[1].item(), w0)
    assert_fd_close(g.data, num, rtol=1e-5, label="decoder weight")


# ---------------------------------------------------------------------------
# full pipeline


def test_forward_separate_preserves_length_and_is_deterministic():
    params = model.init_params(TINY, seed=20)
    pair = make_pair(n=240, seed=21)
    a1 = model.forward_separate(pair.mixture, params, TINY)
    a2 = model.forward_separate(pair.mixture, params, TINY)
    assert len(a1[0]) == len(pair.mixture) and len(a1[1]) == len(pair.mixture)
    for x, y in zip(a1, a2):
        assert np.array_equal(x.samples, y.samples)


def test_forward_separate_composition_matches_stages():
    params = model.init_params(TINY, seed=22)
    pair = make_pair(n=240, seed=23)
    est = model.forward_separate(pair.mixture, params, TINY)
    p = params.to_constants()
    with ad.no_grad():
        x_enc = model.encode_tensors(ad.tensor(pair.mixture.samples), p, TINY)
        masks = model.separate_mask_tensors(x_enc, p, TINY)
        staged = [model.decode_tensors(ad.mul(x_enc, m), p, TINY) for m in masks]
    for a, b in zip(est, staged):
        np.testing.assert_array_equal(a.samples, b.data)


# ---------------------------------------------------------------------------
# uPIT loss


def test_upit_identity_permutation_for_true_sources():
    pair = make_pair(seed=24)
    loss, perm = upit(pair.sources, pair.sources)
    assert perm == (0, 1)
    assert loss < -40.0


def test_upit_swapped_estimates_select_swap_with_same_loss():
    pair = make_pair(seed=25)
    loss_in, perm_in = upit(pair.sources, pair.sources)
    swapped = (pair.sources[1], pair.sources[0])
    loss_sw, perm_sw = upit(swapped, pair.sources)
    assert perm_sw == (1, 0)
    assert loss_sw == loss_in


def test_upit_matches_brute_force_enumeration():
    rng = RNG(26)
    for _ in range(200):
        srcs = (rng.normal(size=50), rng.normal(size=50))
        ests = (rng.normal(size=50), rng.normal(size=50))
        got_loss, got_perm = upit(ests, srcs)
        want_loss, want_perm = brute_force_upit(ests, srcs)
        assert got_loss == pytest.approx(want_loss, abs=1e-12)
        assert got_perm == want_perm


def test_upit_argument_swap_symmetry_exact():
    rng = RNG(27)
    srcs = (rng.normal(size=40), rng.normal(size=40))
    e1, e2 = rng.normal(size=40), rng.normal(size=40)
    l_a, _ = upit((e1, e2), srcs)
    l_b, _ = upit((e2, e1), srcs)
    assert l_a == l_b


@pytest.mark.parametrize("c1,c2", [(-2.0, 0.5), (10.0, -2.0), (0.5, 10.0)])
def test_upit_scale_invariance(c1, c2):
    rng = RNG(28)
    srcs = (rng.normal(size=60), rng.normal(size=60))
    e1, e2 = rng.normal(size=60), rng.normal(size=60)
    base, _ = upit((e1, e2), srcs)
    scaled, _ = upit((c1 * e1, c2 * e2), srcs)
    assert abs(base - scaled) <= 1e-9


def test_upit_rejects_zero_energy_source():
    with pytest.raises(dsp.ZeroSignalError):
        upit((np.ones(10), np.ones(10)), (np.zeros(10), np.ones(10)))


def test_end_to_end_gradient_matches_finite_differences():
    cfg = TINY
    params = model.init_params(cfg, seed=30)
    pair = make_pair(n=240, seed=31)

    # stay away from permutation ties so the piecewise-smooth min is smooth
    base_est = model.forward_separate(pair.mixture, params, cfg)
    l_id = -0.5 * (dsp.si_snr(pair.sources[0], base_est[0])
                   + dsp.si_snr(pair.sources[1], base_est[1]))
    l_sw = -0.5 * (dsp.si_snr(pair.sources[0], base_est[1])
                   + dsp.si_snr(pair.sources[1], base_est[0]))
    assert abs(l_id - l_sw) > 1e-3

    leaves = params.to_leaves()
    loss = model.mixture_loss_tensors(pair, leaves, cfg)
    grads = ad.grad(loss, list(leaves.values()))
    flat = params.flatten_named({n: g.data for n, g in zip(leaves, grads)})

    def full_loss(values):
        pv = params.replace(values)
        est = model.forward_separate(pair.mixture, pv, cfg)
        loss, _ = upit(est, pair.sources)
        return loss

    rng = RNG(32)
    coords = rng.choice(params.dim, size=150, replace=False)
    step = 1e-5
    for c in coords:
        vp = params.values.copy()
        vp[c] += step
        vm = params.values.copy()
        vm[c] -= step
        num = (full_loss(vp) - full_loss(vm)) / (2 * step)
        assert_fd_close(flat.values[c], num, rtol=1e-4, atol=1e-7,
                        label=f"param coord {c}")


def _graph_nodes(roots):
    nodes, stack, seen = [], list(roots), set()
    while stack:
        node = stack.pop()
        if node._id not in seen:
            seen.add(node._id)
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_mixture_graph_uses_fused_layers(monkeypatch):
    """Biased convs, PReLUs and gLNs are one node each: the loss graph has no
    decomposed-layer node left, each bias is the last parent of its conv1d
    node (the third, or the fourth after an addend) and nothing else reads
    it, the residual and skip sums ride in the convs as their first parents,
    so no add joins blocks, and every conv the forward runs reaches the loss
    (the last block's residual conv is not run)."""
    convs, real = [], ad.conv1d

    def recording_conv1d(*args, **kw):
        convs.append(real(*args, **kw))
        return convs[-1]

    monkeypatch.setattr(ad, "conv1d", recording_conv1d)
    leaves = model.init_params(TINY, seed=33).to_leaves()
    loss = model.mixture_loss_tensors(make_pair(n=240, seed=34), leaves, TINY)
    nodes = _graph_nodes([loss])
    ops = {node.op for node in nodes}
    assert {"conv1d", "prelu", "gln"} <= ops
    assert not ops & {"add_channel_bias", "expand_time", "relu", "neg"}
    biases = {id(t) for name, t in leaves.items() if name.endswith(".bias")}
    readers = [(node, i) for node in nodes for i, p in enumerate(node._parents)
               if id(p) in biases]
    assert all(node.op == "conv1d" and i == len(node._parents) - 1 for node, i in readers)
    unread = {id(leaves["tcn.0.1.residual.bias"])}
    assert sorted(id(node._parents[-1]) for node, _ in readers) == sorted(biases - unread)
    # block 0's residual conv adds the bottleneck output, block 1's skip conv block 0's skip
    fused = [node for node, _ in readers if len(node._parents) == 4]
    assert sorted(id(node._parents[3]) for node in fused) == sorted(
        id(leaves[f"tcn.0.{name}.bias"]) for name in ("0.residual", "1.skip"))
    assert all(node._parents[0].op == "conv1d" for node in fused)
    assert not any(node.op == "add" and "conv1d" in {p.op for p in node._parents}
                   for node in nodes)
    # encoder, bottleneck, 2 x (expand, depthwise, skip), 1 residual, mask
    assert len(convs) == 10 and {id(c) for c in convs} <= {id(n) for n in nodes}


def _unfused(monkeypatch):
    """Has the model build the graphs it built before the residual and skip
    sums rode in conv1d and sigmoid's VJP was one node: add(a, conv1d(...))
    for a conv with an addend, and g * (y * ((-y) + 1)) as four nodes."""
    conv1d = ad.conv1d

    def conv1d_then_add(*args, addend=None, **kw):
        out = conv1d(*args, **kw)
        return out if addend is None else ad.add(addend, out)

    monkeypatch.setattr(ad, "conv1d", conv1d_then_add)
    monkeypatch.setattr(ad, "_sigmoid_grad",
                        lambda g, y: ad.mul(g, ad.mul(y, ad.add_constant(ad.neg(y), 1.0))))


def _loss_support_grad_hvp(cfg):
    """The loss of one mixture, its create-graph gradient and the gradient of
    that gradient's inner product with a fixed vector, as arrays."""
    leaves = list(model.init_params(cfg, seed=37).to_leaves().values())
    loss = model.mixture_loss_tensors(make_pair(n=240, seed=38), dict(zip(
        model.param_shapes(cfg), leaves)), cfg)
    grads = ad.grad(loss, leaves, create_graph=True)
    rng = RNG(39)
    inner = functools.reduce(ad.add, (ad.dot(g, ad.tensor(rng.normal(size=g.shape)))
                                      for g in grads))
    arrays = [loss.data.copy(), *(g.data.copy() for g in grads)]
    return arrays + [h.data for h in ad.grad(inner, leaves)]


def test_fused_sums_and_sigmoid_grad_keep_the_bits_of_the_graph_they_replace(monkeypatch):
    """The loss, the create-graph support gradient and the Hessian-vector
    product through it, at two stacks of two blocks, are bit for bit those of
    the graph of separate add nodes and a four-node sigmoid VJP."""
    cfg = dataclasses.replace(TINY, stacks=2)
    fused = _loss_support_grad_hvp(cfg)
    _unfused(monkeypatch)
    for got, want in zip(fused, _loss_support_grad_hvp(cfg), strict=True):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_mask_halves_are_read_only_views_of_the_sigmoid_output():
    leaves = model.init_params(TINY, seed=35).to_leaves()
    x_enc = model.encode_tensors(ad.tensor(RNG(36).normal(size=240)), leaves, TINY)
    for mask in model.separate_mask_tensors(x_enc, leaves, TINY):
        (stacked,) = mask._parents
        assert (mask.op, stacked.op) == ("slice_channels", "sigmoid")
        assert np.shares_memory(mask.data, stacked.data)
        with pytest.raises(ValueError, match="read-only"):
            mask.data[0, 0] = 0.5


def _graph_mib(roots):
    """MiB of the distinct arrays the nodes of the graph of `roots` hold, a
    view counted as the array that owns its memory and a PReLU output that
    gln released as holding none."""
    owners = {}
    for node in _graph_nodes(roots):
        if type(node) is ad._Released:
            continue
        arr = node.data
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        owners[id(arr)] = arr
    return sum(a.nbytes for a in owners.values()) / 2 ** 20


def test_default_separator_graphs_stay_under_their_byte_bounds():
    """One mixture's loss graph and the create-graph support graph, at the
    default separator and 4-second mixtures, each hold at most their pinned
    bytes: a biased conv keeps only its biased output, the residual and skip
    convs keep only the running sums they add into theirs, the mask halves
    are views of the sigmoid output, and the support graph's cotangent sums
    keep no operand's array, and no PReLU output that a gLN reads keeps its
    array."""
    cfg = SeparatorConfig()
    pair = make_pair(n=dsp.SEGMENT_SAMPLES, seed=61)
    theta = model.init_params(cfg, seed=61)
    loss = model.mixture_loss_tensors(pair, theta.to_leaves(), cfg)
    # 95.4 MiB; 126.7 keeping each PReLU output, 140.3 also each block's sums
    assert _graph_mib([loss]) <= 96.5
    del loss
    task = types.SimpleNamespace(
        support_loss=functools.partial(model.mixture_loss_tensors, pair, config=cfg))
    adapted = trainer.inner_adapt(theta, task, 0.01, create_graph=True)
    # 219.4 MiB; 250.6 keeping each PReLU output, 276.0 also each block's sums,
    # 329.3 also the sums' operands
    assert _graph_mib(adapted.prime.values()) <= 220.5


def test_maml_task_peak_stays_under_its_bound():
    """One MAML task at the default separator and 4-second mixtures keeps at
    most two query graphs alive at once, builds the support graph again only
    after them, keeps no operand array of its cotangent sums and no array of
    a PReLU output that a gLN reads, and the Hessian-vector product frees
    what it walks and holds two (C, T) arrays in the backward of a sigmoid
    backward."""
    cfg = SeparatorConfig()
    theta = model.init_params(cfg, seed=62)
    task = trainer.SeparationTask(make_task(62, n=dsp.SEGMENT_SAMPLES), cfg)
    tracemalloc.start()
    try:
        trainer._meta_task_gradient(theta, task, 0.01, "maml")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 254.0-254.2 MiB, in the Hessian-vector product; 285.4 keeping each PReLU
    # output, 310.7 also each block's sums and a four-node sigmoid backward,
    # 349.7 also the sums' operands
    assert peak / 2 ** 20 <= 262.0


def test_a_first_order_walk_recomputes_each_released_prelu_output_at_most_once(monkeypatch):
    """In one default mixture graph, each TCN block's gLNs release the PReLU
    outputs they read. One first-order walk of it recomputes each of them at
    most once: gln's backward builds x_hat once for its input and gamma
    gradients, and the walk reads only their sizes."""
    cfg = SeparatorConfig()
    leaves = model.init_params(cfg, seed=63).to_leaves()
    loss = model.mixture_loss_tensors(make_pair(n=dsp.SEGMENT_SAMPLES, seed=63), leaves, cfg)
    released = [node for node in _graph_nodes([loss]) if type(node) is ad._Released]
    assert len(released) == 2 * cfg.stacks * cfg.blocks_per_stack
    reads, remade = collections.Counter(), ad._remade
    monkeypatch.setattr(ad, "_remade", lambda t: reads.update([id(t)]) or remade(t))
    ad.grad(loss, list(leaves.values()))
    assert reads and set(reads) <= {id(node) for node in released}
    assert max(reads.values()) == 1, reads


# ru_maxrss of a process started from a large one (the test runner) carries
# the starter's resident peak, so the probe reads its own high-water mark.
_MAML_RSS_PROBE = """
from metasep import dsp, model, taskgen, trainer
from metasep.model import SeparatorConfig
import numpy as np
rng = np.random.default_rng(62)
segs = [tuple(rng.normal(size=dsp.SEGMENT_SAMPLES) * 0.3 for _ in range(3)) for _ in range(2)]
task = taskgen.MetaTask(accent="acc", speakers=("a", "b"), segments_a=segs[0],
                        segments_b=segs[1], seg_indices_a=(0, 1, 2), seg_indices_b=(0, 1, 2),
                        snr_grid=rng.uniform(0, 5, size=(3, 3)), support_index=4, noise_seed=1)
cfg = SeparatorConfig()
trainer._meta_task_gradient(model.init_params(cfg, seed=62),
                            trainer.SeparationTask(task, cfg), 0.01, "maml")
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM")))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not Path("/proc/self/status").exists(),
                    reason="the bound is glibc's, and the probe reads Linux's VmHWM")
def test_maml_task_resident_peak_stays_under_its_bound():
    """The resident peak of one MAML task at the default separator, in a fresh
    process, stays near tracemalloc's: the pages that the query workers free
    go back to the one malloc arena, where the Hessian-vector product reuses
    them. tracemalloc cannot see pages an arena keeps; with an arena per
    thread the peak was about 650-740 MB."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(Path(metasep.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _MAML_RSS_PROBE], env=env, capture_output=True,
                         text=True, timeout=300, check=True).stdout.split()
    # about 312-313 MB; about 343-348 keeping each PReLU output, about 364-367
    # also each block's sums and a four-node sigmoid backward, about 404 also
    # the sums' operands
    assert int(out[-1]) / 1024 <= 325.0, out


def _recording_vjp(node, log):
    """Wraps node's VJP so each call logs the id counter on entry, the
    outputs, with each deferred contribution computed, and what the VJP's
    closure holds."""
    vjp = node._vjp
    held = [c.cell_contents for c in vjp.__closure__ or ()]

    def recorded(g):
        start = next(ad._ids)
        out = tuple(o() if isinstance(o, ad._Later) else o for o in vjp(g))
        log.append((start, out, held))
        return out

    node._vjp = recorded


def _kept_arrays(outputs, start, shape, shared):
    """Arrays of the given shape that the graph of `outputs`, built after
    `start`, keeps: node data owning its memory, and arrays in VJP closures
    other than those in `shared`."""
    kept, stack, seen = {}, [t for t in outputs if t is not None], set()
    while stack:
        node = stack.pop()
        if node._id < start or node._id in seen:
            continue
        seen.add(node._id)
        stack.extend(node._parents)
        if node.data.shape == shape and node.data.flags.owndata:
            kept[id(node.data)] = node.data
        for cell in (node._vjp.__closure__ or ()) if node._vjp else ():
            v = cell.cell_contents
            if isinstance(v, np.ndarray) and v.shape == shape and not any(v is s for s in shared):
                kept[id(v)] = v
    return list(kept.values())


def test_second_order_graph_keeps_no_materialized_broadcasts():
    """The create-graph support gradient, which MAML keeps alive for its
    Hessian-vector product, keeps one (C, T) array per gLN backward, none
    for a PReLU slope gradient, no sum_all-of-mul chain and no float
    multiplier in a PReLU closure; the broadcasts that a backward through it
    builds are read-only views."""
    leaves = model.init_params(TINY, seed=33).to_leaves()
    loss = model.mixture_loss_tensors(make_pair(n=240, seed=34), leaves, TINY)
    calls = {}
    for node in _graph_nodes([loss]):
        if node.op in ("gln", "prelu"):
            _recording_vjp(node, calls.setdefault(node, []))
    grads = ad.grad(loss, list(leaves.values()), create_graph=True)
    assert {node.op for node in calls} == {"gln", "prelu"}
    for node, log in calls.items():
        ((start, (dx, *rest), held),) = log
        shape = node._parents[0].data.shape
        if node.op == "gln":
            assert len(_kept_arrays([dx, *rest], start, shape, held)) == 1, node
        else:
            assert not _kept_arrays(rest, start, shape, held), node
    nodes = _graph_nodes([loss, *grads])
    for node in nodes:
        if node.op == "sum_all":
            assert all(p.op != "mul" for p in node._parents), node
        if node.op == "prelu":
            x = node._parents[0]
            cells = [c.cell_contents for c in node._vjp.__closure__ or ()]
            assert not any(isinstance(v, np.ndarray) and v.dtype.kind == "f"
                           and v.shape == x.data.shape for v in cells), node
    # a backward through the kept graph, as MAML's Hessian-vector product runs
    hvp = ad.grad(functools.reduce(ad.add, (ad.dot(g, g) for g in grads)), list(leaves.values()),
                  create_graph=True)
    broadcasts = [n for n in _graph_nodes(hvp) if n.op in ("expand_scalar", "expand_time")]
    assert any(n.op == "expand_time" for n in broadcasts)
    for node in broadcasts:
        assert not node.data.flags.writeable and not node.data.flags.owndata, node


# ---------------------------------------------------------------------------
# Si-SNRi evaluation and checkpoints


def test_evaluate_si_snri_is_finite_and_permutation_aligned():
    params = model.init_params(TINY, seed=33)
    pair = make_pair(n=240, seed=34)
    val = model.evaluate_si_snri(pair, params, TINY)
    assert np.isfinite(val)


def _si_snri_of_upit_aligned(pair, estimates):
    """evaluate_si_snri's former route: uPIT's permutation, then the mean
    Si-SNR gain of the aligned estimates."""
    _, perm = upit(estimates, pair.sources)
    return dsp.si_snr_gain(pair, [dsp.si_snr(pair.sources[c], estimates[perm[c]])
                                  for c in range(2)])


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_evaluate_si_snri_equals_si_snr_improvement_of_upit_aligned(monkeypatch, order):
    """Bit for bit, with the separator's estimates in either order, so both
    permutations are chosen."""
    params = model.init_params(TINY, seed=33)
    pair = make_pair(n=240, seed=34)
    estimates = model.forward_separate(pair.mixture, params, TINY)
    estimates = tuple(estimates[e] for e in order)
    monkeypatch.setattr(model, "forward_separate", lambda *args: estimates)
    assert model.evaluate_si_snri(pair, params, TINY) == _si_snri_of_upit_aligned(pair, estimates)
    assert upit(estimates, pair.sources)[1] != upit(estimates[::-1], pair.sources)[1]


def test_evaluate_si_snri_at_a_upit_tie(monkeypatch):
    """Sources s and -s give each estimate the same Si-SNR against both, so
    the two assignments tie exactly; the scores still match bit for bit."""
    rng = RNG(36)
    s = dsp.Waveform(rng.normal(size=240))
    pair = dsp.MixturePair(mixture=dsp.Waveform(rng.normal(size=240)),
                           sources=(s, dsp.Waveform(-s.samples)))
    estimates = (dsp.Waveform(s.samples + rng.normal(size=240)),
                 dsp.Waveform(rng.normal(size=240)))
    snr = [[dsp.si_snr(src, e) for e in estimates] for src in pair.sources]
    assert snr[0][0] + snr[1][1] == snr[0][1] + snr[1][0] and snr[0][0] != snr[0][1]
    assert upit(estimates, pair.sources)[1] == (0, 1)
    monkeypatch.setattr(model, "forward_separate", lambda *args: estimates)
    params = model.init_params(TINY, seed=33)
    assert model.evaluate_si_snri(pair, params, TINY) == _si_snri_of_upit_aligned(pair, estimates)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = TINY
    params = model.init_params(cfg, seed=35)
    extra = {"mode": "fomaml", "train_accents": ["a", "b"], "seed": 35}
    path = tmp_path / "ck.msep"
    model.save_checkpoint(path, params, cfg, extra)
    loaded, cfg2, extra2 = model.load_checkpoint(path)
    assert np.array_equal(loaded.values, params.values)
    assert loaded.layout == params.layout
    assert cfg2 == cfg
    assert extra2 == extra

    # writing again is byte-identical
    path2 = tmp_path / "ck2.msep"
    model.save_checkpoint(path2, loaded, cfg2, extra2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "x.msep"
    path.write_bytes(b"\x08\x00\x00\x00\x00\x00\x00\x00{\"a\":1}")
    with pytest.raises(ValueError):
        model.load_checkpoint(path)


def _saved_checkpoint(tmp_path):
    params = model.init_params(TINY, seed=36)
    path = tmp_path / "ck.msep"
    model.save_checkpoint(path, params, TINY, {"mode": "joint"})
    return path, params


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path, _ = _saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*bytes, expected"):
        model.load_checkpoint(path)


@pytest.mark.parametrize("cut", [1, 8, 10_000])
def test_checkpoint_rejects_truncated_file(tmp_path, cut):
    path, _ = _saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        model.load_checkpoint(path)


def test_checkpoint_rejects_non_finite_values(tmp_path):
    path, params = _saved_checkpoint(tmp_path)
    raw = bytearray(path.read_bytes())
    at = len(raw) - 8 * (params.dim // 2)  # one value in the middle of the vector
    raw[at:at + 8] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: non-finite parameter values"):
        model.load_checkpoint(path)


def _widen_conv_channels(header):
    header["config"]["conv_channels"] += 1


def _transpose_encoder(header):  # same parameter count, other shapes
    header["layout"][0][2] = header["layout"][0][2][::-1]


def _edit_header(path, edit):
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw)
    header = json.loads(raw[8:8 + hlen])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + raw[8 + hlen:])


@pytest.mark.parametrize("edit", [_widen_conv_channels, _transpose_encoder])
def test_checkpoint_rejects_layout_of_another_config(tmp_path, edit):
    path, params = _saved_checkpoint(tmp_path)
    _edit_header(path, edit)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*layout does not match"):
        model.load_checkpoint(path)


def test_checkpoint_with_a_norm_option_is_refused(tmp_path):
    # checkpoints written while the separator had a "norm" or a "num_sources"
    # option carry it in their header config; the options are gone, so they
    # no longer load
    for option in ({"norm": "gln"}, {"num_sources": 2}):
        path, _ = _saved_checkpoint(tmp_path)
        _edit_header(path, lambda header: header["config"].update(option))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: bad separator config"):
            model.load_checkpoint(path)
