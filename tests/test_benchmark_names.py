"""Every hareid name the benchmark looks up still resolves.

``perfbench/`` sits outside the test paths, and its traced run
(``perfbench/run.py --trace 1``) finds the functions it times by name, so a
rename or a deletion in the package would break it with every test here
still passing.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import hareid
from hareid.model import Model, ModelConfig
from hareid.retrieval import RetrievalIndex

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hareid_namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "hareid" or name.startswith("hareid."))}


def test_traced_tables_resolve():
    tracing = load_tracing()
    names = ([("autodiff", fn) for fn in tracing.OPS.values()]
             + list(tracing.BLOCKS.values()) + list(tracing.CALLS.values())
             + [(mod, fn) for mod, fn, _ in tracing.FILE_CALLS.values()]
             + [("autodiff", "backward"), ("optim", "train"), ("retrieval", "rank_items")])
    missing = [f"{mod}.{fn}" for mod, fn in names
               if not callable(getattr(getattr(hareid, mod, None), fn, None))]
    assert not missing
    for owner, method in ((Model, "extract_feature"), (Model, "forward"), (Model, "loss"),
                          (RetrievalIndex, "build")):
        assert method in vars(owner), f"{owner.__name__}.{method}"


def test_instrumentation_installs_and_leaves_no_trace():
    tracing = load_tracing()
    before = hareid_namespaces()
    methods = {name: vars(Model)[name] for name in ("extract_feature", "forward", "loss")}
    instrumentation = tracing.Instrumentation(tracing.Tracer())
    try:
        instrumentation.__enter__()
    finally:
        instrumentation.__exit__(None, None, None)
    after = hareid_namespaces()
    assert all(after[mod][attr] is value for mod, names in before.items()
               for attr, value in names.items())
    assert all(vars(Model)[name] is fn for name, fn in methods.items())


def test_extracted_feature_fields():
    model = Model(ModelConfig(num_models=2, num_vehicles=2, d=3, hidden=4))
    feature = model.extract_feature(np.ones((2, 2, 3)))
    assert feature.values.shape == (4,)
    assert feature.normalized
