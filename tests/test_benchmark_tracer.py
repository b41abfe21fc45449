"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps package
functions by name. This installs its tracer on the package, so renaming or
deleting a function it wraps fails here, not only in the benchmark."""

import importlib.util
from pathlib import Path

import numpy as np

import metasep
from metasep import evalcli, model, trainer  # noqa: F401 - the tracer patches every module
from test_trainer import MICRO, make_task

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces(tracing):
    mods = [metasep] + [getattr(metasep, name) for name in tracing.MODULES]
    return {mod.__name__: dict(vars(mod)) for mod in mods}


def test_tracer_installs_and_uninstalls_on_the_package():
    tracing = _load_tracer()
    before = _namespaces(tracing)
    task_methods = dict(vars(metasep.trainer.SeparationTask))
    tracer = tracing.Tracer(metasep)
    tracer.install()
    try:
        assert metasep.model.forward_separate is not before["metasep.model"]["forward_separate"]
        pair = make_task(0).support_pair()
        model.forward_separate(pair.mixture, model.init_params(MICRO, seed=0), MICRO)
    finally:
        tracer.uninstall()
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"model.forward_separate", "model.encode_tensors", "autodiff.conv1d"} <= names
    after = _namespaces(tracing)
    for mod, attrs in before.items():
        assert all(after[mod][k] is v for k, v in attrs.items()), mod
    assert dict(vars(metasep.trainer.SeparationTask)) == task_methods


def test_traced_maml_step_flags_second_order_spans_and_keeps_its_bits():
    """The tracer wraps the VJPs that a create-graph backward records, to
    flag the second-order share of a MAML step. The traced meta-gradient must
    still be the untraced one, bit for bit."""
    tracing = _load_tracer()
    theta = model.init_params(MICRO, seed=0)
    tasks = [trainer.SeparationTask(make_task(70 + k), MICRO) for k in range(2)]
    want, want_loss = trainer.meta_gradient(theta, tasks, 0.01, "maml")
    tracer = tracing.Tracer(metasep)
    with tracer:
        got, got_loss = metasep.trainer.meta_gradient(theta, tasks, 0.01, "maml")
    assert any(span[tracing.FLAGS] & tracing.IN_SECOND_ORDER for span in tracer.spans)
    assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))
    assert got_loss == want_loss
