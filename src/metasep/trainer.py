"""Joint, MAML, and FOMAML training loops plus one-shot adaptation.

The meta objective is the sum over a task batch of each task's query loss
evaluated at parameters adapted by exactly one inner gradient step on that
task's support mixture. FOMAML takes the query gradient at the adapted
parameters, treating the adaptation as constant; MAML is FOMAML plus one
Hessian-vector product through the support gradient, which makes it the
exact gradient through the adaptation; joint training skips adaptation
entirely, pooling support and query mixtures as ordinary supervised data.
All three go through :func:`meta_gradient`, which differentiates each
mixture's loss before building the next one's graph.

Threads belong to ``autodiff``, and the bits are those of one. A meta
task's query mixtures at the adapted parameters, and the forwards of each
query score, run as items of ``autodiff.in_order`` on ``autodiff.WORKERS``
threads. Every other walk runs alone and takes the engine's helper threads:
the support walks of :func:`_meta_task_gradient` and :func:`prepare_adapt`,
MAML's Hessian-vector product and joint's pooled terms. No walk of a map's
item takes one, so at most WORKERS threads run and at most two query graphs
are alive at once.

Anything with a ``support_loss`` method and a ``query_terms`` list of query
losses over parameter tensors can be trained; separation tasks are one such
adapter, and the test suite uses scalar quadratic tasks to pin the
meta-gradient algebra against closed forms.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from . import autodiff as ad
from . import dsp
from . import model as model_mod
from . import taskgen
from .autodiff import ParamVector, Tensor
from .model import SeparatorConfig

MODES = ("joint", "maml", "fomaml")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    pass


LossFn = Callable[[Mapping[str, Tensor]], Tensor]


class TaskLoss(Protocol):
    def support_loss(self, params: Mapping[str, Tensor]) -> Tensor: ...

    def query_terms(self) -> list[LossFn]: ...


@dataclass
class TrainConfig:
    mode: str = "fomaml"
    inner_lr: float = 0.01
    outer_lr: float = 0.001
    epochs: int = 100
    meta_batch: int = 4
    weight_decay: float = 1e-5
    noise: bool = False
    seed: int = 0
    outer_optimizer: str = "adam"   # "sgd" keeps the outer update linear in the
                                    # gradient for finite-difference checks
    dev_eval_tasks: int = 8         # cap on dev tasks scored per epoch

    def __post_init__(self):
        for name in ("inner_lr", "outer_lr", "weight_decay"):
            dsp.require_finite(name, getattr(self, name))
        for name in ("inner_lr", "outer_lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be at least 0, got {self.weight_decay}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.outer_optimizer not in ("adam", "sgd"):
            raise ValueError(f"outer_optimizer must be adam or sgd, got {self.outer_optimizer!r}")
        if not isinstance(self.noise, bool):
            raise ValueError(f"noise must be true or false, got {self.noise!r}")
        for name, least in (("epochs", 1), ("meta_batch", 1), ("dev_eval_tasks", 0),
                            ("seed", 0)):
            dsp.require_int(name, getattr(self, name), least)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, dim: int) -> "AdamState":
        return cls(m=np.zeros(dim), v=np.zeros(dim), step=0)


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """`values`, or TrainingDiverged when any of them is not finite."""
    if not np.all(np.isfinite(values)):
        raise TrainingDiverged(f"non-finite {what}")
    return values


def adam_update(theta: ParamVector, grad_vec: ParamVector, state: AdamState,
                lr: float, weight_decay: float = 0.0) -> tuple[ParamVector, AdamState]:
    """Bias-corrected Adam with weight decay decoupled from the moments."""
    g = _finite(grad_vec.values, "gradient passed to the optimizer")
    step = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1 ** step)
    v_hat = v / (1.0 - ADAM_BETA2 ** step)
    new_values = theta.values - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS) \
        - lr * weight_decay * theta.values
    return (theta.replace(_finite(new_values, "parameters after the optimizer step")),
            AdamState(m=m, v=v, step=step))


def sgd_update(theta: ParamVector, grad_vec: ParamVector, lr: float,
               weight_decay: float = 0.0) -> ParamVector:
    g = _finite(grad_vec.values, "gradient passed to the optimizer")
    new_values = theta.values - lr * g - lr * weight_decay * theta.values
    return theta.replace(_finite(new_values, "parameters after the optimizer step"))


# ---------------------------------------------------------------------------
# separation tasks as trainable losses


class SeparationTask:
    """Loss adapter over one meta task: uPIT losses and Si-SNRi scores of the
    separator. It keeps no mixture; each loss or score builds its own."""

    def __init__(self, task: taskgen.MetaTask, config: SeparatorConfig,
                 noisy: bool = False):
        self.task = task
        self.config = config
        self.noisy = noisy
        self.name = f"{task.accent}/{'+'.join(task.speakers)}"

    def _mixture_loss(self, index: int, params: Mapping[str, Tensor]) -> Tensor:
        return model_mod.mixture_loss_tensors(self.task.mixture(index, noisy=self.noisy),
                                              params, self.config)

    def support_loss(self, params: Mapping[str, Tensor]) -> Tensor:
        return self._mixture_loss(self.task.support_index, params)

    def query_terms(self) -> list[LossFn]:
        """One uPIT loss per query mixture."""
        return [functools.partial(self._mixture_loss, k) for k in self.task.query_indices]

    def query_loss(self, params: Mapping[str, Tensor]) -> Tensor:
        """Mean uPIT loss over the query mixtures, as one graph."""
        terms = self.query_terms()
        total = functools.reduce(ad.add, (f(params) for f in terms))
        return ad.scalar_mul(1.0 / len(terms), total)

    def query_si_snri(self, params: ParamVector) -> float:
        return float(np.mean(ad.in_order(
            lambda k: model_mod.evaluate_si_snri(self.task.mixture(k, noisy=self.noisy),
                                                 params, self.config),
            self.task.query_indices, ad.WORKERS)))


def _check_finite(loss: Tensor, task, phase: str) -> None:
    if not np.isfinite(loss.data):
        name = getattr(task, "name", task.__class__.__name__)
        raise TrainingDiverged(f"{phase} loss is non-finite for task {name}")


# ---------------------------------------------------------------------------
# inner loop and meta gradients


@dataclass
class AdaptedParams:
    """One-step-adapted parameters, the leaves they were derived from, and
    the support loss at those leaves."""

    prime: "OrderedDict[str, Tensor]"
    leaves: "OrderedDict[str, Tensor]"
    support_loss: float

    def to_vector(self, like: ParamVector) -> ParamVector:
        return like.flatten_named({n: t.data for n, t in self.prime.items()})


def inner_adapt(theta: ParamVector, task: TaskLoss, alpha: float,
                create_graph: bool = True) -> AdaptedParams:
    """One support gradient step; the result stays differentiable in theta,
    through the support gradient too when create_graph is set (the
    second-order path)."""
    leaves = theta.to_leaves()
    loss = task.support_loss(leaves)
    _check_finite(loss, task, "support")
    grads = ad.grad(loss, list(leaves.values()), create_graph=create_graph)
    prime = OrderedDict((n, ad.sub(leaf, ad.scalar_mul(alpha, g)))  # theta - alpha * g
                        for (n, leaf), g in zip(leaves.items(), grads))
    return AdaptedParams(prime=prime, leaves=leaves, support_loss=loss.item())


def _flat_grad(theta: ParamVector, output: Tensor, leaves: Mapping[str, Tensor]) -> np.ndarray:
    grads = ad.grad(output, list(leaves.values()))
    return theta.flatten_named({n: g.data for n, g in zip(leaves, grads)}).values


def _term_gradient(theta: ParamVector, task: TaskLoss, phase: str,
                   loss_fn: LossFn) -> tuple[np.ndarray, float]:
    """Gradient and value at theta of one loss term, named `phase` in errors;
    its graph is built at fresh leaves and consumed by its backward."""
    leaves = theta.to_leaves()
    loss = loss_fn(leaves)
    _check_finite(loss, task, phase)
    return _flat_grad(theta, loss, leaves), loss.item()


def _mean_gradient(theta: ParamVector, task: TaskLoss, terms: Sequence[LossFn],
                   phase: str, workers: int = 1) -> tuple[np.ndarray, float]:
    """Gradient and value at theta of the mean of the task's loss terms, named
    `phase` in errors. Each term's graph is differentiated and dropped by the
    thread that built it, and `workers` terms run at a time; the results are
    summed in term order, so the bits do not depend on the schedule."""
    total, value = np.zeros_like(theta.values), 0.0
    for g, term_value in ad.in_order(functools.partial(_term_gradient, theta, task, phase),
                                     terms, workers):
        total += g
        value += term_value
    return total / len(terms), value / len(terms)


def _meta_task_gradient(theta: ParamVector, task: TaskLoss, alpha: float,
                        mode: str) -> tuple[np.ndarray, float]:
    """One task's meta-gradient and loss. fomaml is the query gradient g_q at
    theta' = theta - alpha g_s, built at fresh leaves; maml is the exact
    (I - alpha H_s) g_q (Finn et al. 2017), the gradient of <theta'(theta), g_q>
    through the differentiated support graph: one Hessian-vector product
    (Pearlmutter 1994).

    The passes run in this order:

    1. a first-order support backward gives theta' and consumes the support
       graph (both modes);
    2. the query passes at theta' run on autodiff.WORKERS threads, so at most
       two query graphs are alive at once (both modes);
    3. maml builds the support forward again at fresh leaves and takes its
       create-graph backward, which runs the same VJPs as the first-order one
       and so gives theta' the same bits;
    4. maml's Hessian-vector product, a first-order backward, consumes both
       support graphs as it walks them, and is where the peak is.

    The walks of passes 1, 3 and 4 run alone, so they run their VJPs on up
    to WORKERS threads, with the cotangents summed in the one-thread order,
    so the bits are the same. joint's pooled terms run one at a time, each
    walk on those threads: at small separators the GIL sets the pace, and a
    second graph would only raise the peak."""
    if mode == "joint":
        return _mean_gradient(theta, task, [task.support_loss] + task.query_terms(), "pooled")
    theta_prime = inner_adapt(theta, task, alpha, create_graph=False).to_vector(theta)
    g_q, q_loss = _mean_gradient(theta_prime, task, task.query_terms(), "query", ad.WORKERS)
    if mode == "maml":
        adapted = inner_adapt(theta, task, alpha, create_graph=True)
        v = theta.replace(g_q)
        inner = functools.reduce(ad.add, (ad.dot(p, ad.tensor(v.view(n)))
                                          for n, p in adapted.prime.items()))
        g_q = _flat_grad(theta, inner, adapted.leaves)
    return g_q, q_loss


def meta_gradient(theta: ParamVector, tasks: Sequence[TaskLoss], alpha: float,
                  mode: str) -> tuple[ParamVector, float]:
    """Sum of the tasks' meta-gradients under `mode` (joint ignores alpha),
    and the mean task loss."""
    total, losses = np.zeros_like(theta.values), []
    for task in tasks:
        g, loss = _meta_task_gradient(theta, task, alpha, mode)
        total += g
        losses.append(loss)
    return theta.replace(total), float(np.mean(losses))


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    params: ParamVector
    log: list[dict] = field(default_factory=list)
    aborted: bool = False
    reason: str | None = None
    checkpoint_path: Path | None = None


def train(task_sets: Sequence[taskgen.AccentTaskSet], train_config: TrainConfig,
          model_config: SeparatorConfig, dev_sets: Sequence[taskgen.AccentTaskSet] = (),
          out_dir=None, init: ParamVector | None = None) -> TrainResult:
    """Run the configured mode over the training task sets.

    One epoch is ceil(total tasks / meta_batch) sampled batches for every
    mode. Divergence aborts with the last finite parameters. When out_dir is
    given, the checkpoint and a JSON-lines log are written there.
    """
    if not task_sets or not any(ts.tq for ts in task_sets):
        raise ValueError("training needs at least one task")
    cfg = train_config
    theta = init if init is not None else model_mod.init_params(model_config, cfg.seed)
    state = AdamState.zeros(theta.dim)
    total_tasks = sum(ts.tq for ts in task_sets)
    batches_per_epoch = math.ceil(total_tasks / cfg.meta_batch)
    dev_tasks = [SeparationTask(t, model_config, noisy=cfg.noise)
                 for ts in dev_sets for t in ts.tasks][:cfg.dev_eval_tasks]

    log: list[dict] = []
    result = TrainResult(params=theta, log=log)
    for epoch in range(cfg.epochs):
        t_start = time.perf_counter()
        epoch_losses = []
        for b in range(batches_per_epoch):
            batch_seed = int(taskgen._child_rng(cfg.seed, "epoch", epoch, "batch", b)
                             .integers(2 ** 62))
            batch = taskgen.sample_task_batch(
                task_sets, min(cfg.meta_batch, total_tasks), seed=batch_seed)
            tasks = [SeparationTask(t, model_config, noisy=cfg.noise) for t in batch]
            try:
                grad_vec, batch_loss = meta_gradient(theta, tasks, cfg.inner_lr, cfg.mode)
                if cfg.outer_optimizer == "adam":
                    theta, state = adam_update(theta, grad_vec, state, cfg.outer_lr,
                                               cfg.weight_decay)
                else:
                    theta = sgd_update(theta, grad_vec, cfg.outer_lr, cfg.weight_decay)
            except TrainingDiverged as err:
                result.aborted = True
                result.reason = f"epoch {epoch} batch {b}: {err}"
                result.params = theta
                _write_outputs(result, cfg, model_config, task_sets, out_dir)
                return result
            epoch_losses.append(batch_loss)

        dev_score = None
        if dev_tasks:
            dev_score = float(np.mean([t.query_si_snri(theta) for t in dev_tasks]))
        log.append({
            "epoch": epoch,
            "mode": cfg.mode,
            "train_loss": float(np.mean(epoch_losses)),
            "dev_si_snri": dev_score,
            "wall_seconds": time.perf_counter() - t_start,
        })
        result.params = theta

    _write_outputs(result, cfg, model_config, task_sets, out_dir)
    return result


def _write_outputs(result: TrainResult, cfg: TrainConfig,
                   model_config: SeparatorConfig,
                   task_sets, out_dir) -> None:
    if out_dir is None:
        return
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    extra = {
        "mode": cfg.mode,
        "train_config": cfg.to_dict(),
        "train_accents": sorted(ts.accent for ts in task_sets),
        "config_hash": model_mod.config_hash(model_config, cfg.to_dict()),
        "aborted": result.aborted,
    }
    ckpt = out_dir / "checkpoint.msep"
    model_mod.save_checkpoint(ckpt, result.params, model_config, extra)
    result.checkpoint_path = ckpt
    with dsp.atomic_open(out_dir / "train_log.jsonl") as f:
        for row in result.log:
            f.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# one-shot adaptation (meta testing inner step)


@dataclass
class PreparedAdapt:
    """The rate-independent part of one-shot adaptation on one task: the
    support gradient and the scores at theta. :meth:`score` scores any rate."""

    theta: ParamVector
    sep: SeparationTask
    support_grad: np.ndarray
    support_loss_pre: float
    query_si_snri_pre: float

    def adapted(self, beta_ft: float) -> ParamVector:
        return self.theta.replace(self.theta.values - beta_ft * self.support_grad)

    def score(self, beta_ft: float, support_loss: bool = False) -> dict:
        """The query Si-SNRi after one step at rate beta_ft, and the support
        loss after it when asked, keyed as ``finetune`` reports them. A
        non-finite result raises ValueError naming the task and the rate."""
        # an overflowing step is reported by the check below, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            adapted = self.adapted(beta_ft)
            post = {"query_si_snri_post": self.sep.query_si_snri(adapted)}
            if support_loss:
                with ad.no_grad():
                    post["support_loss_post"] = self.sep.support_loss(
                        adapted.to_constants()).item()
        if not all(map(math.isfinite, post.values())):
            loss = f" and support loss {post['support_loss_post']}" if support_loss else ""
            raise ValueError(f"task {self.sep.name} scores {post['query_si_snri_post']} dB "
                             f"Si-SNRi{loss} after one step at rate {beta_ft!r}")
        return post


def prepare_adapt(theta: ParamVector, task: taskgen.MetaTask, config: SeparatorConfig,
                  noisy: bool = False) -> PreparedAdapt:
    """Support gradient, support loss and query Si-SNRi at theta, computed
    once per task however many rates are scored."""
    sep = SeparationTask(task, config, noisy=noisy)
    g, value = _mean_gradient(theta, sep, [sep.support_loss], "support")
    return PreparedAdapt(theta=theta, sep=sep, support_grad=g, support_loss_pre=value,
                         query_si_snri_pre=sep.query_si_snri(theta))


def finetune_adapt(theta: ParamVector, task: taskgen.MetaTask, beta_ft: float,
                   model_config: SeparatorConfig, noisy: bool = False) -> dict:
    """One plain gradient step on the support mixture: the support loss and
    query Si-SNRi before and after it, refused as :meth:`PreparedAdapt.score`
    refuses them."""
    dsp.require_finite("beta_ft", beta_ft)
    prep = prepare_adapt(theta, task, model_config, noisy=noisy)
    return {"support_loss_pre": prep.support_loss_pre,
            "query_si_snri_pre": prep.query_si_snri_pre,
            **prep.score(beta_ft, support_loss=True)}
