"""Reference computations the benchmark checks the program against.

Nothing here imports ``metasep``: these are the benchmark's own formulas,
written from the definitions, so a check that compares against them is a
second route to the same number.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Si-SNR's documented floor on the error energy; realistic estimates never
# reach it, and si_snr refuses inputs where it would matter.
ERROR_ENERGY_FLOOR = 1e-8


def si_snr(reference, estimate) -> float:
    """Scale-invariant SNR in dB: 10 log10(|s_t|^2 / |e|^2), with
    s_t = (<est, ref> / <ref, ref>) ref and e = est - s_t."""
    s = np.asarray(reference, dtype=np.float64)
    x = np.asarray(estimate, dtype=np.float64)
    if s.shape != x.shape or s.ndim != 1:
        raise ValueError(f"shapes {s.shape} and {x.shape} are not one matching 1-d pair")
    ref_energy = math.fsum(s * s)
    if ref_energy <= 0.0:
        raise ValueError("reference has zero energy")
    target = (math.fsum(s * x) / ref_energy) * s
    err = x - target
    err_energy = math.fsum(err * err)
    if err_energy <= ERROR_ENERGY_FLOOR:
        raise ValueError("error energy at the floor: the reference value is capped there")
    return 10.0 * math.log10(math.fsum(target * target) / err_energy)


def best_assignment(sources, estimates) -> tuple[tuple[int, ...], float]:
    """Brute force over every assignment of estimates to sources.

    Returns (perm, total) where perm[c] is the estimate given to source c and
    total is the largest summed Si-SNR; ties keep the first permutation in
    lexicographic order (the identity first).
    """
    if len(sources) != len(estimates):
        raise ValueError("need as many estimates as sources")
    best_perm, best_total = None, -math.inf
    for perm in itertools.permutations(range(len(sources))):
        total = sum(si_snr(sources[c], estimates[perm[c]]) for c in range(len(sources)))
        if total > best_total:
            best_perm, best_total = perm, total
    return best_perm, best_total


def upit_loss(sources, estimates) -> float:
    """Negative mean Si-SNR over the better assignment: -(1/C) * best total."""
    _, total = best_assignment(sources, estimates)
    return -total / len(sources)


def si_snr_improvement(mixture, sources, estimates) -> float:
    """Mean over sources of Si-SNR(est) - Si-SNR(mixture), best-aligned."""
    perm, _ = best_assignment(sources, estimates)
    gains = [si_snr(s, estimates[perm[c]]) - si_snr(s, mixture)
             for c, s in enumerate(sources)]
    return sum(gains) / len(gains)


def central_difference(f, eps: float) -> float:
    """(f(+eps) - f(-eps)) / (2 eps) for a scalar function of a step size."""
    return (f(eps) - f(-eps)) / (2.0 * eps)


def relative_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0
