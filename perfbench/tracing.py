"""Span tracing for the traced benchmark run.

``Instrumentation`` swaps hareid's public functions for span-recording
wrappers in every ``hareid`` module namespace that holds them, so a call
made through any imported name is timed, and puts the originals back on
exit. Spans live in flat in-memory arrays; self times (a span's duration
minus the part its child spans cover) are computed once, at the end.

Every span name carries the phase it ran in: ``train`` inside
``optim.train``, ``extract`` inside ``Model.extract_feature``, ``other``
elsewhere. The backward closure of every node an autodiff op returns is
wrapped too, so backward time is recorded per op and charged to the model
block whose forward created the node.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Op name (as in Tensor.op) -> the autodiff function that creates it.
OPS = {"matmul": "matmul", "add": "add", "sub": "sub", "mul": "mul", "div": "div",
       "sigmoid": "sigmoid", "tanh": "tanh", "softplus": "softplus", "relu": "relu",
       "gap": "global_average_pool", "scale_rows": "scale_rows", "reshape": "reshape",
       "sum": "tsum", "cross_entropy": "softmax_cross_entropy"}

# Block name -> (module, function). model.gap is the pooling that Model.forward
# calls through hareid.model's own name; attention.embed pools again inside it.
BLOCKS = {"gru.step": ("gru", "gru_step"), "gru.classify": ("gru", "classify"),
          "gru.loss": ("gru", "hierarchical_loss"),
          "attention.guidance": ("attention", "guidance_signal"),
          "attention.scores": ("attention", "attention_scores"),
          "attention.normalize": ("attention", "normalize_scores"),
          "attention.attend": ("attention", "attend"),
          "attention.embed": ("attention", "attention_embedding")}

# Span name -> (module, function) for the remaining public entry points.
CALLS = {"optim.rmsprop_step": ("optim", "rmsprop_step"),
         "retrieval.average_precision": ("retrieval", "average_precision"),
         "retrieval.first_hit_rank": ("retrieval", "first_hit_rank"),
         "retrieval.veri": ("retrieval", "veri_protocol"),
         "retrieval.vehicleid": ("retrieval", "vehicleid_protocol"),
         "data.synth_generate": ("data", "synth_generate"),
         "data.training_items": ("data", "training_items"),
         "data.write_synth": ("data", "write_synth"),
         "data.load_manifest": ("data", "load_manifest")}

# Span name -> (module, function, whether the file is read) for calls whose
# first argument is a file path; the file's size is counted as bytes.
FILE_CALLS = {"formats.read_tensor_file": ("formats", "read_tensor_file", True),
              "formats.write_features": ("formats", "write_features", False),
              "formats.load_features": ("formats", "load_features", True),
              "checkpoint.save": ("checkpoint", "save_checkpoint", False),
              "checkpoint.load": ("checkpoint", "load_checkpoint", True)}


class Tracer:
    """Flat span store: name id, parent span, start and end per span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.phase = "other"
        self.block = "none"

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self._t0)
        self._name.append(self.name_id(f"{self.phase}|{name}"))
        self._parent.append(self._stack[-1])
        self._t1.append(0.0)
        self._stack.append(idx)
        self._t0.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self._t1[idx] = time.perf_counter()
        self._stack.pop()

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (count, total seconds, self seconds)."""
        n = len(self._t0)
        if n == 0:
            return {}
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._t1) - np.frombuffer(self._t0)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        k = len(self.names)
        count = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {self.names[i]: (int(count[i]), float(total[i]), float(own[i]))
                for i in range(k) if count[i]}


def count_nodes(roots) -> int:
    """Distinct tensors reachable from ``roots`` through ``.parents``."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t.parents)
    return len(seen)


def _shape(x) -> tuple[int, ...]:
    return np.shape(getattr(x, "data", x))


class Instrumentation:
    """Context manager that installs the span wrappers and removes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapper factories -------------------------------------------------

    def _span(self, name, fn, phase=None, block=None):
        tr = self.tracer

        def wrapper(*args, **kwargs):
            saved = tr.phase, tr.block
            if phase is not None:
                tr.phase = phase
            if block is not None:
                tr.block = block
            idx = tr.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.close(idx)
                tr.phase, tr.block = saved
        return wrapper

    def _file_span(self, name, fn, reads):
        tr = self.tracer

        def wrapper(path, *args, **kwargs):
            if reads:
                tr.counts[f"{name}.bytes"] += os.path.getsize(path)
            idx = tr.open(name)
            try:
                out = fn(path, *args, **kwargs)
            finally:
                tr.close(idx)
            if not reads:
                tr.counts[f"{name}.bytes"] += os.path.getsize(path)
            return out
        return wrapper

    def _op(self, op, fn):
        tr = self.tracer

        def wrapper(*args, **kwargs):
            idx = tr.open(f"op.{op}")
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.close(idx)
            phase = tr.phase
            if op == "matmul":
                a, b = _shape(args[0]), _shape(args[1])
                size = int(np.prod(out.data.shape))
                tr.counts[f"{phase}.matmul.flop"] += 2 * size * a[-1]
                tr.counts[f"{phase}.matmul.bytes"] += 8 * (int(np.prod(a)) + int(np.prod(b))
                                                           + size)
            backward = out._backward
            if backward is not None:
                bwd_name = f"bwd.{op}|{tr.block}"

                def timed_backward(g):
                    i = tr.open(bwd_name)
                    try:
                        backward(g)
                    finally:
                        tr.close(i)
                    if op == "matmul":
                        # The two gradient products of a matrix product:
                        # twice the forward flop, each reading and writing
                        # as much as the forward product.
                        tr.counts[f"{tr.phase}.matmul.flop"] += 2 * size * a[-1]
                        tr.counts[f"{tr.phase}.matmul.bytes"] += 16 * (
                            int(np.prod(a)) + int(np.prod(b)) + size)
                out._backward = timed_backward
            return out
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, orig, make) -> None:
        """Replace ``orig`` by ``make(module_name)`` in every hareid module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hareid" or mod_name.startswith("hareid.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, make(mod_name))
                    self._undo.append((mod, attr, orig))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> Tracer:
        from hareid import autodiff, model, optim, retrieval

        mods = {name: sys.modules[f"hareid.{name}"] for name in
                ("attention", "autodiff", "checkpoint", "data", "formats", "gru",
                 "model", "optim", "retrieval")}
        tr = self.tracer

        for op, fn_name in OPS.items():
            orig = getattr(autodiff, fn_name)
            op_wrapper = self._op(op, orig)
            gap_block = self._span("blk.model.gap", op_wrapper, block="model.gap")
            self._replace(orig, lambda mod_name, w=op_wrapper, g=gap_block, o=op:
                          g if (o == "gap" and mod_name == "hareid.model") else w)

        for block, (mod, fn_name) in BLOCKS.items():
            wrapped = self._span(f"blk.{block}", getattr(mods[mod], fn_name), block=block)
            self._replace(getattr(mods[mod], fn_name), lambda _m, w=wrapped: w)
        for name, (mod, fn_name) in CALLS.items():
            wrapped = self._span(name, getattr(mods[mod], fn_name))
            self._replace(getattr(mods[mod], fn_name), lambda _m, w=wrapped: w)
        for name, (mod, fn_name, reads) in FILE_CALLS.items():
            wrapped = self._file_span(name, getattr(mods[mod], fn_name), reads)
            self._replace(getattr(mods[mod], fn_name), lambda _m, w=wrapped: w)

        orig_backward = autodiff.backward

        def backward(loss):
            idx = tr.open("trace.count_nodes")
            tr.counts[f"{tr.phase}.nodes"] += count_nodes([loss])
            tr.close(idx)
            idx = tr.open("autodiff.backward")
            try:
                return orig_backward(loss)
            finally:
                tr.close(idx)
        self._replace(orig_backward, lambda _m: backward)

        orig_train = optim.train
        train_span = self._span("optim.train", orig_train, phase="train")

        def train(model_, items, schedule, seed, start_epoch=0, **kwargs):
            epochs = max(0, schedule.epochs - start_epoch)
            tr.counts["train.samples"] += len(items) * epochs
            tr.counts["train.batches"] += -(-len(items) // schedule.batch_size) * epochs
            return train_span(model_, items, schedule, seed, start_epoch=start_epoch, **kwargs)
        self._replace(orig_train, lambda _m: train)

        extract_span = self._span("model.extract_feature", model.Model.extract_feature,
                                  phase="extract")

        def extract_feature(self_, inp):
            tr.counts["extract.images"] += 1
            return extract_span(self_, inp)
        self._set(model.Model, "extract_feature", extract_feature)
        self._set(model.Model, "forward", self._span("model.forward", model.Model.forward))
        self._set(model.Model, "loss", self._span("model.loss", model.Model.loss))
        build = retrieval.RetrievalIndex.__dict__["build"].__func__
        self._set(retrieval.RetrievalIndex, "build",
                  classmethod(self._span("retrieval.index_build", build)))

        orig_rank = retrieval.rank_items
        rank_span = self._span("retrieval.rank_items", orig_rank)

        def rank_items(similarities):
            order = rank_span(similarities)
            tr.counts["retrieval.items_ranked"] += len(order)
            return order
        self._replace(orig_rank, lambda _m: rank_items)
        return tr

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
