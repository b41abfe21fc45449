"""Span tracer for the traced benchmark run.

The tracer wraps module attributes of the installed ``metasep`` package:
the autodiff primitives and ``grad``, and the public functions and methods
of ``model``, ``trainer``, ``taskgen``, ``dsp`` and ``evalcli``. Every call
through a wrapper records one span ``[name, start, end, parent, flags,
out_bytes]`` in memory. ``flags`` has bit 1 set when the span opened inside a
``grad`` call and bit 2 when it opened inside the VJP of a node that a
``grad(create_graph=True)`` recorded (the second-order share of the
backward pass). Nothing in ``src/`` changes: the wrappers are installed with
``setattr`` for the traced operations only and removed afterwards.

Self time is a span's duration minus the durations of its direct children,
so the self times of every span under a root add up to the root's duration.
"""

from __future__ import annotations

import statistics
import time
import weakref

import numpy as np

# Primitives that build one graph node each. ``mean_all``, ``dot`` and
# ``sq_norm`` are compositions of these and are not wrapped, so every node is
# counted once.
CONV_OPS = ("conv1d", "conv1d_input_grad", "conv1d_weight_grad")
ELEMENTWISE_OPS = ("add", "sub", "mul", "div", "neg", "scalar_mul", "add_constant",
                   "scale", "relu", "clamp_min", "sigmoid", "sqrt", "log10",
                   "expand_time", "expand_scalar")
SHAPE_OPS = ("sum_all", "sum_time", "reshape", "slice_channels", "pad_channels")
PRIMITIVES = CONV_OPS + ELEMENTWISE_OPS + SHAPE_OPS
REPORTED_OPS = ("conv1d", "conv1d_input_grad", "conv1d_weight_grad", "add", "sub",
                "mul", "neg", "scale", "relu", "expand_time", "sigmoid")

# (module, function) pairs wrapped under the span name "<module>.<function>".
FUNCTIONS = (
    ("model", "forward_separate_tensors"), ("model", "encode_tensors"),
    ("model", "separate_mask_tensors"), ("model", "decode_tensors"),
    ("model", "upit_loss"), ("model", "forward_separate"),
    ("model", "evaluate_si_snri"), ("model", "save_checkpoint"),
    ("model", "load_checkpoint"),
    ("trainer", "train"), ("trainer", "inner_adapt"), ("trainer", "adam_update"),
    ("trainer", "finetune_adapt"),
    ("taskgen", "synth_corpus"), ("taskgen", "ingest"),
    ("taskgen", "build_accent_task_sets"), ("taskgen", "write_task_archive"),
    ("taskgen", "load_task_archive"),
    ("dsp", "mix_at_snr"), ("dsp", "si_snr"), ("dsp", "si_snr_graph"),
    ("dsp", "write_wav"), ("dsp", "read_raw"),
    ("evalcli", "meta_test"), ("evalcli", "beta_sweep"),
)
# (module, class, method, span name)
METHODS = (
    ("trainer", "SeparationTask", "__init__", "trainer.task_init"),
    ("trainer", "SeparationTask", "query_loss", "trainer.query_loss"),
    ("taskgen", "MetaTask", "mixture", "taskgen.mixture"),
)
MODULES = ("autodiff", "model", "dsp", "taskgen", "trainer", "evalcli")

IN_GRAD = 1
IN_SECOND_ORDER = 2

# span record fields
NAME, START, END, PARENT, FLAGS, BYTES = range(6)


class Tracer:
    """Records spans around calls into ``metasep`` while installed."""

    def __init__(self, package):
        self.pkg = package
        self.spans: list[list] = []
        self.mixture_keys: list[tuple[int, tuple]] = []  # (span index, key)
        self._stack = [-1]
        self._grad_depth = 0
        self._create_graph_depth = 0
        self._second_order_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        self._live: dict = {}
        self.live_bytes = 0
        self.live_peak = 0

    # -- span recording ---------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.spans)
        flags = ((IN_GRAD if self._grad_depth else 0)
                 | (IN_SECOND_ORDER if self._second_order_depth else 0))
        rec = [name, 0.0, 0.0, self._stack[-1], flags, 0]
        self.spans.append(rec)
        self._stack.append(i)
        rec[START] = time.perf_counter()
        return i

    def close(self, i: int) -> None:
        self.spans[i][END] = time.perf_counter()
        self._stack.pop()

    def _release(self, ref) -> None:
        self.live_bytes -= self._live.pop(ref, 0)

    def _account(self, i: int, out) -> None:
        nbytes = out.data.nbytes
        self.spans[i][BYTES] = nbytes
        ref = weakref.ref(out, self._release)
        self._live[ref] = nbytes
        self.live_bytes += nbytes
        if self.live_bytes > self.live_peak:
            self.live_peak = self.live_bytes
        if self._create_graph_depth and out._vjp is not None:
            out._vjp = self._second_order_vjp(out._vjp)

    def _second_order_vjp(self, vjp):
        def traced_vjp(g):
            self._second_order_depth += 1
            try:
                return vjp(g)
            finally:
                self._second_order_depth -= 1
        return traced_vjp

    # -- wrappers ---------------------------------------------------------

    def _wrap_primitive(self, fn, name):
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
                self._account(i, out)
            finally:
                self.close(i)
            return out
        return traced

    def _wrap_grad(self, fn):
        def traced(output, wrt, create_graph=False):
            cg = 1 if create_graph else 0
            i = self.open("autodiff.grad")
            self._grad_depth += 1
            self._create_graph_depth += cg
            try:
                return fn(output, wrt, create_graph=create_graph)
            finally:
                self._grad_depth -= 1
                self._create_graph_depth -= cg
                self.close(i)
        return traced

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return traced

    def _wrap_mixture(self, fn):
        def traced(task, index, noisy=False):
            i = self.open("taskgen.mixture")
            self.mixture_keys.append((i, (id(task), int(index), bool(noisy))))
            try:
                return fn(task, index, noisy)
            finally:
                self.close(i)
        return traced

    def _patch_everywhere(self, original, wrapper) -> None:
        """Replace ``original`` in every metasep namespace that binds it."""
        for mod_name in ("",) + MODULES:
            mod = getattr(self.pkg, mod_name) if mod_name else self.pkg
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        ad = self.pkg.autodiff
        for op in PRIMITIVES:
            self._patch_everywhere(getattr(ad, op),
                                   self._wrap_primitive(getattr(ad, op), "autodiff." + op))
        self._patch_everywhere(ad.grad, self._wrap_grad(ad.grad))
        for mod_name, fn_name in FUNCTIONS:
            fn = getattr(getattr(self.pkg, mod_name), fn_name)
            self._patch_everywhere(fn, self._wrap(fn, f"{mod_name}.{fn_name}"))
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(getattr(self.pkg, mod_name), cls_name)
            fn = vars(cls)[meth]
            wrapper = self._wrap_mixture(fn) if name == "taskgen.mixture" \
                else self._wrap(fn, name)
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """Write every recorded span to an ``.npz`` file (names + columns)."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        np.savez(path,
                 names=np.array(names),
                 name=np.array([index[s[NAME]] for s in self.spans], dtype=np.int32),
                 start=np.array([s[START] for s in self.spans]),
                 end=np.array([s[END] for s in self.spans]),
                 parent=np.array([s[PARENT] for s in self.spans], dtype=np.int64),
                 flags=np.array([s[FLAGS] for s in self.spans], dtype=np.int8),
                 out_bytes=np.array([s[BYTES] for s in self.spans], dtype=np.int64))


# ---------------------------------------------------------------------------
# span arithmetic (pure functions over span records)


def self_times(spans, lo: int, hi: int) -> list[float]:
    """Self time of spans[lo:hi]: duration minus the direct children's.

    spans[lo] must be the root of the range: every other span in it has its
    parent inside the range.
    """
    child = [0.0] * (hi - lo)
    for i in range(lo + 1, hi):
        s = spans[i]
        child[s[PARENT] - lo] += s[END] - s[START]
    return [spans[i][END] - spans[i][START] - child[i - lo] for i in range(lo, hi)]


def inclusive_by_name(spans, lo: int, hi: int) -> tuple[dict, dict]:
    """Call counts and summed durations per span name over spans[lo:hi]."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    for i in range(lo, hi):
        s = spans[i]
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        total[s[NAME]] = total.get(s[NAME], 0.0) + (s[END] - s[START])
    return calls, total


def has_ancestor(spans, i: int, name: str, lo: int) -> bool:
    p = spans[i][PARENT]
    while p >= lo:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def op_metrics(tracer: Tracer, lo: int, hi: int, wall: float, live_peak: int) -> dict:
    """Per-operation layer metrics from the spans of one traced operation.

    spans[lo] is the operation's root span; ``wall`` is its wall time as
    measured around the root by the harness.
    """
    spans = tracer.spans
    selfs = self_times(spans, lo, hi)
    calls, total = inclusive_by_name(spans, lo, hi)
    m: dict[str, float] = {}

    prim_self: dict[str, float] = {}
    prim_bytes: dict[str, int] = {}
    fwd = bwd = bwd2 = 0.0
    module_self = {mod: 0.0 for mod in MODULES}
    for k, i in enumerate(range(lo, hi)):
        s = spans[i]
        mod, _, op = s[NAME].partition(".")
        if mod in module_self:
            module_self[mod] += selfs[k]
        if mod == "autodiff" and op != "grad":
            prim_self[op] = prim_self.get(op, 0.0) + selfs[k]
            prim_bytes[op] = prim_bytes.get(op, 0) + s[BYTES]
            if s[FLAGS] & IN_GRAD:
                bwd += selfs[k]
            else:
                fwd += selfs[k]
            if s[FLAGS] & IN_SECOND_ORDER:
                bwd2 += selfs[k]

    def prim_calls(op):
        return calls.get("autodiff." + op, 0)

    grad_self = sum(selfs[i - lo] for i in range(lo, hi)
                    if spans[i][NAME] == "autodiff.grad")
    m["autodiff.grad.calls"] = calls.get("autodiff.grad", 0)
    m["autodiff.grad.self_s"] = grad_self
    m["autodiff.fwd.self_s"] = fwd
    m["autodiff.bwd.self_s"] = bwd
    m["autodiff.bwd2.self_s"] = bwd2
    m["autodiff.conv.calls"] = sum(prim_calls(op) for op in CONV_OPS)
    m["autodiff.conv.self_s"] = sum(prim_self.get(op, 0.0) for op in CONV_OPS)
    m["autodiff.elementwise.calls"] = sum(prim_calls(op) for op in ELEMENTWISE_OPS)
    m["autodiff.elementwise.self_s"] = sum(prim_self.get(op, 0.0) for op in ELEMENTWISE_OPS)
    for op in REPORTED_OPS:
        m[f"autodiff.{op}.calls"] = prim_calls(op)
        m[f"autodiff.{op}.self_s"] = prim_self.get(op, 0.0)
        m[f"autodiff.{op}.out_bytes"] = prim_bytes.get(op, 0)
    m["autodiff.nodes"] = sum(prim_calls(op) for op in PRIMITIVES)
    m["autodiff.out_bytes"] = sum(prim_bytes.values())
    m["autodiff.live_bytes_peak"] = live_peak

    for name in ("forward_separate_tensors", "encode_tensors", "separate_mask_tensors",
                 "decode_tensors", "upit_loss", "forward_separate"):
        m[f"model.{name}.s"] = total.get("model." + name, 0.0)
    m["model.forward_separate.calls"] = calls.get("model.forward_separate", 0)
    m["model.evaluate_si_snri.calls"] = calls.get("model.evaluate_si_snri", 0)

    for name in ("inner_adapt", "finetune_adapt"):
        m[f"trainer.{name}.calls"] = calls.get("trainer." + name, 0)
        m[f"trainer.{name}.s"] = total.get("trainer." + name, 0.0)
    for name in ("query_loss", "adam_update", "task_init"):
        m[f"trainer.{name}.s"] = total.get("trainer." + name, 0.0)
    m["trainer.outer_grad.s"] = sum(
        spans[i][END] - spans[i][START] for i in range(lo, hi)
        if spans[i][NAME] == "autodiff.grad"
        and not has_ancestor(spans, i, "trainer.inner_adapt", lo))

    builds = [key for i, key in tracer.mixture_keys if lo <= i < hi]
    m["taskgen.mixture.calls"] = len(builds)
    m["taskgen.mixture.s"] = total.get("taskgen.mixture", 0.0)
    m["taskgen.mixture.useful_ratio"] = len(set(builds)) / len(builds) if builds else 1.0

    for name in ("mix_at_snr", "si_snr", "si_snr_graph"):
        m[f"dsp.{name}.calls"] = calls.get("dsp." + name, 0)
        m[f"dsp.{name}.s"] = total.get("dsp." + name, 0.0)

    m["evalcli.meta_test.calls"] = calls.get("evalcli.meta_test", 0)
    m["evalcli.meta_test.s"] = total.get("evalcli.meta_test", 0.0)
    m["evalcli.beta_sweep.s"] = total.get("evalcli.beta_sweep", 0.0)

    for mod in MODULES:
        m[f"layer.{mod}.self_s"] = module_self[mod]
    m["trace.unattributed_s"] = selfs[0]
    m["trace.self_gap_s"] = abs(wall - sum(selfs))
    return m


SETUP_SPANS = ("taskgen.synth_corpus", "taskgen.ingest", "taskgen.build_accent_task_sets",
               "taskgen.write_task_archive", "taskgen.load_task_archive",
               "dsp.write_wav", "dsp.read_raw", "model.save_checkpoint",
               "model.load_checkpoint")


def setup_metrics(tracer: Tracer, reps: list[list[tuple[int, int]]]) -> dict:
    """Median over set-up repetitions of each set-up function's time; each
    repetition is a list of root span ranges."""
    per_rep = []
    for roots in reps:
        totals: dict[str, float] = {}
        for lo, hi in roots:
            for name, t in inclusive_by_name(tracer.spans, lo, hi)[1].items():
                totals[name] = totals.get(name, 0.0) + t
        per_rep.append(totals)
    return {name + ".s": statistics.median(t.get(name, 0.0) for t in per_rep)
            for name in SETUP_SPANS}
