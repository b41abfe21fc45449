"""Independent straight-line oracles shared by the test modules.

Everything here is deliberately naive (loops, direct formulas) and never
calls into the package's compute paths, so a test comparing against these
functions is a genuine two-route check. The exceptions run on the package's
autodiff engine: ``reverse_over_reverse_maml`` along the direct route the
trainer's Hessian-vector-product form avoids, ``query_pool_gradient`` on each
task's whole query loss instead of the trainer's per-mixture gradients,
``pooled_loss`` as one graph over a task's support and query mixtures
instead of the trainer's per-mixture joint gradients, and
``finetune_via_inner_adapt`` along the route one-shot adaptation took before
its rate-independent part was split off.
"""

import functools
import math

import numpy as np

from metasep import autodiff as ad
from metasep import model, trainer


def naive_conv1d(x, w, stride=1, dilation=1, groups=1, pad=0):
    """Loop-based grouped 1-dim cross-correlation with zero padding."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    cin, t = x.shape
    cout, cg, k = w.shape
    assert cin == cg * groups and cout % groups == 0
    xp = np.zeros((cin, t + 2 * pad))
    xp[:, pad:pad + t] = x
    span = dilation * (k - 1) + 1
    t_out = (t + 2 * pad - span) // stride + 1
    y = np.zeros((cout, t_out))
    og = cout // groups
    for o in range(cout):
        gidx = o // og
        for tt in range(t_out):
            acc = 0.0
            for i in range(cg):
                for kk in range(k):
                    acc += w[o, i, kk] * xp[gidx * cg + i, tt * stride + kk * dilation]
            y[o, tt] = acc
    return y


def naive_conv_transpose1d(g, w, stride=1, dilation=1, groups=1, pad=0, out_len=None):
    """Loop-based adjoint of naive_conv1d with respect to its input."""
    g = np.asarray(g, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    cout, t_out = g.shape
    _, cg, k = w.shape
    cin = cg * groups
    dxp = np.zeros((cin, out_len + 2 * pad))
    og = cout // groups
    for o in range(cout):
        gidx = o // og
        for tt in range(t_out):
            for i in range(cg):
                for kk in range(k):
                    dxp[gidx * cg + i, tt * stride + kk * dilation] += w[o, i, kk] * g[o, tt]
    return dxp[:, pad:pad + out_len]


def fd_gradient(f, x, step=1e-5):
    """Central finite differences of scalar f at array x, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        out[idx] = (f(xp) - f(xm)) / (2.0 * step)
    return out


def assert_fd_close(analytic, numeric, rtol, atol=1e-8, label=""):
    """Relative-error check with a tiny absolute guard for ~zero components.

    The guard only absorbs central-difference rounding noise (~1e-10 at the
    loss scales used here); any real disagreement trips the relative bound.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    diff = np.abs(analytic - numeric)
    tol = rtol * np.maximum(np.abs(analytic), np.abs(numeric)) + atol
    worst = np.max(diff - tol)
    assert np.all(diff <= tol), (
        f"{label}: finite-difference mismatch, worst excess {worst:.3e}, "
        f"max |analytic-numeric| = {diff.max():.3e}")


def direct_si_snr(s, s_hat, eps=1e-8):
    """Straight-line scale-invariant SNR in dB, denominator floored at eps."""
    s = np.asarray(s, dtype=np.float64)
    s_hat = np.asarray(s_hat, dtype=np.float64)
    proj = (np.dot(s, s_hat) / np.dot(s, s)) * s
    err = s_hat - proj
    return 10.0 * np.log10(np.dot(proj, proj) / max(np.dot(err, err), eps))


def measured_snr_db(reference, other):
    """10*log10 energy ratio of two signals, used to audit stored mixtures."""
    a = np.asarray(getattr(reference, "samples", reference), dtype=np.float64)
    b = np.asarray(getattr(other, "samples", other), dtype=np.float64)
    return 10.0 * math.log10(float(np.dot(a, a)) / float(np.dot(b, b)))


def brute_force_upit(estimates, sources, eps=1e-8):
    """Enumerate both 2-source assignments; return (min loss, argmin perm)."""
    perms = [(0, 1), (1, 0)]
    best = None
    best_perm = None
    for perm in perms:
        total = 0.0
        for c, p in enumerate(perm):
            total += -direct_si_snr(sources[c], estimates[p], eps=eps)
        loss = total / 2.0
        if best is None or loss < best:
            best = loss
            best_perm = perm
    return best, best_perm


def reference_adam_step(theta, g, m, v, t, lr, beta1, beta2, eps, weight_decay):
    """One textbook bias-corrected Adam step with decoupled weight decay."""
    t = t + 1
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * weight_decay * theta
    return theta, m, v, t


def reverse_over_reverse_maml(theta, task, alpha):
    """One task's MAML meta-gradient as the query loss differentiated through
    the differentiable inner step, the whole query graph stacked on the
    differentiated support graph (flat numpy vector)."""
    adapted = trainer.inner_adapt(theta, task, alpha, create_graph=True)
    grads = ad.grad(task.query_loss(adapted.prime), list(adapted.leaves.values()))
    return theta.flatten_named({n: g.data for n, g in zip(adapted.leaves, grads)}).values


def query_pool_gradient(theta, tasks):
    """Sum over the tasks of the query-loss gradient at theta with no
    adaptation, one grad of each task's query_loss (flat numpy vector): the
    alpha = 0 meta-gradient."""
    total = np.zeros_like(theta.values)
    for task in tasks:
        leaves = theta.to_leaves()
        grads = ad.grad(task.query_loss(leaves), list(leaves.values()))
        total += theta.flatten_named({n: g.data for n, g in zip(leaves, grads)}).values
    return total


def pooled_loss(task, config, params, noisy=False):
    """Mean uPIT loss over one meta task's support and query mixtures
    together, as one graph: the joint (pooled) training loss."""
    pairs = [task.support_pair(noisy=noisy)] + task.query_pairs(noisy=noisy)
    total = functools.reduce(ad.add, (model.mixture_loss_tensors(p, params, config)
                                      for p in pairs))
    return ad.scalar_mul(1.0 / len(pairs), total)


def finetune_via_inner_adapt(theta, task, beta, config, noisy=False):
    """One-shot adaptation as a differentiable inner step with no kept graph:
    (adapted vector, support loss pre/post, query Si-SNRi pre/post)."""
    sep = trainer.SeparationTask(task, config, noisy=noisy)
    pre_snri = sep.query_si_snri(theta)
    inner = trainer.inner_adapt(theta, sep, beta, create_graph=False)
    adapted = inner.to_vector(theta)
    with ad.no_grad():
        support_post = sep.support_loss(
            {n: ad.tensor(adapted.view(n)) for n in adapted.layout}).item()
    return adapted, inner.support_loss, support_post, pre_snri, sep.query_si_snri(adapted)
