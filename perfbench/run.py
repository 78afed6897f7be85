#!/usr/bin/env python3
"""hareid benchmark: synth -> train -> extract -> eval through the package API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train_h64 --seed 1 --seconds 15 --trace 0

The workload's inputs come from ``--seed``. Every workload is a batch job:
one process, a closed loop, no arrival rate, BLAS threads at most the number
of usable cores. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run (see ``tracing.py``). Metric names and units
are declared in ``BENCHMARK.json``; the lines before the last one record the
environment and the raw timings. The benchmark exits with code 2, printing
no result, when the checkout has no ``src/hareid`` to import.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))


def _blas_threads() -> int:
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    return min(int(requested), NPROC) if requested.isdigit() and int(requested) > 0 else NPROC


# BLAS reads its thread count once, when numpy loads: cap it at the usable
# cores first.
BLAS_THREADS = _blas_threads()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from layers import layer_metrics  # noqa: E402
from speed import Meter, Probed, rate  # noqa: E402
from tracing import Instrumentation, Tracer  # noqa: E402

BATCH = 64
VID_REPEATS = 10      # repeated-gallery protocol repeats
VERI_SAMPLE = 32      # image-to-track queries recomputed by the gate
# quality.vehicleid.cmc1 comes from an untimed run of the protocol with
# 16-vehicle galleries: with every test vehicle in the gallery, CMC@1 of
# a partly trained model swings by 10-20% from one seed's data to another's.
QUALITY_GALLERY = 16
# Every unit is timed in host-speed-scaled seconds (speed.py). Evaluation
# units are short, a fraction of a second, so that the calibration kernel
# runs right before and after them see the host's speed during the unit;
# training calls are sampled inside as well. The units of every stage are
# spread over the whole run (round robin).
EXTRACT_CHUNK = 32    # images per timed extraction unit
VERI_CHUNK = 64       # queries per timed veri_protocol call
EVAL_ROUNDS = 10      # rounds over which eval_gallery spreads one evaluation
STAGES = ("extract", "veri", "vid")
PROBE_EVERY = 16      # samples (trained or extracted) between kernel runs inside a unit


@dataclass(frozen=True)
class Workload:
    synth: dict                       # SynthConfig overrides
    hidden: int
    timed: str                        # "train": time training calls; "eval": evaluation
    train_stride: int = 1             # train on every n-th training image
    call_items: int | None = BATCH    # images per optim.train call; None: all, one epoch
    setup_epochs: int = 0             # epochs trained inside set-up
    setup_reps: int = 9               # set-ups per run; setup_s is their median
    warmup_calls: int = 0             # untimed training calls before the timed ones
    min_passes: int = 0               # timed training calls every run completes
    eval_units: int = 1               # train workloads: units per evaluation stage per round
    kernel: str = "small"             # calibration kernel (speed.KERNELS)
    reference: str | None = None      # key into reference.json
    tiny: dict = field(default_factory=dict)  # overrides for --tiny


_TINY_SYNTH = dict(models=2, vehicles_per_model=2, images_per_vehicle=8, grid=3, d=4)

WORKLOADS = {
    # Acceptance-scale training at H=64: per-node interpreter overhead in
    # autodiff dominates. Each timed call trains one full epoch; the first
    # epoch is the warm-up, and quality is scored after four more epochs.
    "train_h64": Workload(synth={}, hidden=64, timed="train", call_items=None,
                          warmup_calls=1, min_passes=4, eval_units=8,
                          reference="train_h64",
                          tiny=dict(synth=_TINY_SYNTH, hidden=8, min_passes=2,
                                    eval_units=1)),
    # CLI-default H=1024 on 256 training images, four per training vehicle:
    # H x H matrix-vector products and their outer-product backward
    # dominate, and RMSprop over 3 H^2 weights shows. Each timed call
    # trains one 64-image batch holding one image of every vehicle; a call
    # takes seconds, so each round also runs five units of every
    # evaluation stage.
    "train_h1024": Workload(synth={}, hidden=1024, timed="train", train_stride=5,
                            warmup_calls=1, min_passes=6, eval_units=5,
                            kernel="large", reference="train_h1024",
                            tiny=dict(synth=_TINY_SYNTH, hidden=16, train_stride=2,
                                      call_items=8, min_passes=2)),
    # A 5120-image gallery (1024 tracks, 256 vehicles): retrieval cost grows
    # with the square of the gallery and dominates; set-up trains one epoch.
    "eval_gallery": Workload(synth=dict(models=16, vehicles_per_model=16), hidden=64,
                             timed="eval", call_items=None, setup_epochs=1, setup_reps=2,
                             tiny=dict(synth=_TINY_SYNTH, hidden=8)),
}


def _import_hareid():
    src = ROOT / "src"
    if not (src / "hareid" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import hareid
    import hareid.checkpoint  # noqa: F401 - submodules used through the package
    if not Path(hareid.__file__).resolve().is_relative_to(src.resolve()):
        return None
    return hareid


@dataclass
class Setup:
    split: object
    maps: object
    items: list
    model: object
    seconds: float
    train_units: list = field(default_factory=list)  # (images, Timing) per set-up call
    train_loss: float = 0.0


def _attempted(report) -> int:
    """Queries a protocol report attempted, answered or skipped."""
    if report.protocol == "veri":
        return report.counts["queries"] + report.counts["skipped"]
    return report.counts["queries_total"] + sum(r["skipped"] for r in report.repeats)


class Evaluation:
    """extract -> FEAT1 -> RetrievalIndex -> veri_protocol -> vehicleid_protocol
    for one model, as timed units that can run in any interleaving.

    ``prepare`` extracts every test image, writes and reads the FEAT1 file
    and builds the index; ``step`` then runs the next unit of a stage: a
    chunk of images extracted again, a chunk of image-to-track queries, or
    one repeat of the repeated-gallery protocol (ten single-repeat calls,
    seeds ``10 * seed + r``, make its ten repeats). Throughput comes from the
    ``step`` units; a unit repeated after the first cycle must reproduce it.
    """

    def __init__(self, bench: "Bench", model, split, maps):
        self.b, self.model, self.test, self.maps = bench, model, split.test, maps
        n = len(self.test)
        self.features = np.zeros((n, model.config.hidden))
        self.normalized = np.zeros(n, dtype=bool)
        self.chunks = {"extract": [range(lo, min(lo + EXTRACT_CHUNK, n))
                                   for lo in range(0, n, EXTRACT_CHUNK)],
                       "veri": [range(lo, min(lo + VERI_CHUNK, n))
                                for lo in range(0, n, VERI_CHUNK)],
                       "vid": list(range(VID_REPEATS))}
        self.done = dict.fromkeys(STAGES, 0)
        self.units: dict[str, list[tuple[int, float]]] = {s: [] for s in STAGES}
        self.reports: dict[str, list] = {"veri": [], "vid": []}
        self.gallery = len({s.vehicle_id for s in self.test})

    def _extract(self, rows) -> np.ndarray:
        out = np.zeros((len(rows), self.model.config.hidden))
        every = self.b.probe_every
        for j, i in enumerate(rows):
            if every and j and j % every == 0:
                self.b.meter.probe()
            fv = self.model.extract_feature(self.b.h.data.sample_input(self.test[i], self.maps))
            out[j] = fv.values
            self.normalized[i] = fv.normalized
        return out

    def _files(self):
        h = self.b.h
        path = self.b.tmp / "features.feat"
        h.formats.write_features(path, self.written)
        loaded = h.formats.load_features(path)
        return loaded, h.retrieval.RetrievalIndex.build(loaded, self.test)

    def prepare(self) -> None:
        for rows in self.chunks["extract"]:
            self.features[rows.start:rows.stop] = self._extract(rows)
        self.written = self.features.copy()
        if self.b.inject == "corrupt_feature":
            self.written[len(self.test) // 2] *= 2.0
        (self.loaded, self.index), timing = self.b.meter.time(self._files)
        self.files_s = timing.seconds

    def step(self, stage: str) -> None:
        h, k = self.b.h, self.done[stage] % len(self.chunks[stage])
        first = self.done[stage] < len(self.chunks[stage])
        timed = self.b.meter.time
        if stage == "extract":
            rows = self.chunks["extract"][k]
            out, timing = timed(self._extract, rows)
            self.b.gate.check("extract deterministic",
                              np.array_equal(out, self.features[rows.start:rows.stop]))
            self.units[stage].append((len(rows), timing))
        else:
            if stage == "veri":
                report, timing = timed(h.retrieval.veri_protocol, self.index,
                                        self.chunks["veri"][k], "max")
            else:
                report, timing = timed(h.retrieval.vehicleid_protocol, self.index,
                                        self.gallery, 1, self.b.seed * VID_REPEATS + k)
            if first:
                self.reports[stage].append(report)
            else:
                self.b.gate.check(f"{stage} deterministic",
                                  report.as_dict() == self.reports[stage][k].as_dict())
            self.units[stage].append((_attempted(report), timing))
        self.done[stage] += 1

    def full_round(self) -> float:
        """prepare() and one cycle of every retrieval unit; returns its
        scaled seconds."""
        def cycle():
            self.prepare()
            for stage in ("veri", "vid"):
                for _ in self.chunks[stage]:
                    self.step(stage)
        return self.b.meter.time(cycle)[1].seconds

    def complete(self) -> bool:
        """Every retrieval unit has run once (``prepare`` extracted everything)."""
        return all(self.done[s] >= len(self.chunks[s]) for s in ("veri", "vid"))

    @property
    def queries(self) -> int:
        return sum(_attempted(r) for r in self.reports["veri"] + self.reports["vid"])

    @property
    def skipped(self) -> int:
        return (sum(r.counts["skipped"] for r in self.reports["veri"])
                + sum(rep["skipped"] for r in self.reports["vid"] for rep in r.repeats))

    @property
    def seconds(self) -> float:
        """Scaled seconds of one evaluation, every stage at its rate."""
        per_cycle = {"extract": len(self.test), "veri": len(self.test),
                     "vid": sum(_attempted(r) for r in self.reports["vid"])}
        return self.files_s + sum(per_cycle[s] / rate(self.units[s]) for s in STAGES)

    def check(self) -> None:
        """The full gate on this evaluation's outputs."""
        b, gate = self.b, self.b.gate
        checks.check_features(gate, self.written, self.normalized)
        gate.run("FEAT1 file", checks.check_float32_round_trip, "FEAT1", self.written,
                 self.loaded)
        n = len(self.index)
        gate.check("veri query count", sum(_attempted(r) for r in self.reports["veri"]) == n)
        sample = sorted({int(i) for i in np.linspace(0, n - 1, min(VERI_SAMPLE, n))})
        gate.run("veri queries", checks.check_veri_queries, b.h, self.index, sample)
        gate.run("vehicleid repeat", checks.check_vehicleid_repeat, self.index,
                 self.reports["vid"][0], 0)

    def quality(self) -> dict[str, float]:
        veri = [(r, r.counts["queries"]) for r in self.reports["veri"]]
        answered = max(sum(q for _, q in veri), 1)
        vid = self.b.h.retrieval.vehicleid_protocol(
            self.index, gallery_size=min(QUALITY_GALLERY, self.gallery),
            repeats=VID_REPEATS, seed=self.b.seed)
        return {"quality.veri.map": sum(r.map * q for r, q in veri) / answered,
                "quality.veri.cmc1": sum(r.cmc[1] * q for r, q in veri) / answered,
                "quality.vehicleid.cmc1": vid.cmc[1]}


class Bench:
    def __init__(self, hareid, spec: Workload, args, tmp: Path):
        self.h = hareid
        self.spec = spec
        self.seed = args.seed
        self.seconds = args.seconds
        self.inject = args.inject
        self.tmp = tmp
        self.gate = checks.Gate()
        self.meter = Meter(spec.kernel)
        self.probe_every = PROBE_EVERY
        self.detail: dict = {}

    # -- stages --------------------------------------------------------------

    def _load_data(self):
        h, spec = self.h, self.spec
        ds = h.data.synth_generate(h.data.SynthConfig(**spec.synth), seed=self.seed)
        paths = h.data.write_synth(ds, self.tmp / "data")
        split = h.data.load_manifest(paths["manifest"])
        maps = h.formats.read_tensor_file(paths["descriptors"])
        items = h.data.training_items(split, maps)
        config = h.model.ModelConfig(num_models=split.num_models,
                                     num_vehicles=split.num_vehicles, d=maps.shape[-1],
                                     hidden=spec.hidden, seed=self.seed)
        return ds, Setup(split, maps, items, h.model.Model(config), 0.0)

    def setup(self) -> Setup:
        """Data files, training items and model; for eval_gallery also
        ``setup_epochs`` epochs of training and a checkpoint round trip.
        ``seconds`` sums the scaled times."""
        (ds, st), timing = self.meter.time(self._load_data)
        st.seconds = timing.seconds
        if self.spec.setup_epochs:
            state, losses = None, []
            for epoch in range(self.spec.setup_epochs * self._cycle(st)):
                images, timing, result = self.train_pass(st.model, st, epoch, state)
                state = result.state
                st.train_units.append((images, timing))
                st.seconds += timing.seconds
                losses.append(result.trace[-1][1].total)
            st.train_loss = statistics.mean(losses[-self._cycle(st):])
            st.model, timing = self.meter.time(self._checkpoint, st.model, state, epoch + 1,
                                               "setup")
            st.seconds += timing.seconds
        self.gate.run("descriptor file", checks.check_float32_round_trip, "DESC1", ds.maps,
                      st.maps)
        return st

    def _schedule(self, st: Setup, epochs: int):
        """Each call is one 'epoch' of optim.train over its images; the rate
        drops after the default number of real epochs over the images."""
        default = self.h.optim.TrainSchedule()
        return self.h.optim.TrainSchedule(batch_size=BATCH, epochs=epochs,
                                          drop_epoch=default.drop_epoch * self._cycle(st))

    def _checkpoint(self, model, state, next_epoch: int, name: str):
        """Save a checkpoint, gate its round trip, and return the reloaded model."""
        h = self.h
        path = self.tmp / f"{name}.ckpt"
        h.checkpoint.save_checkpoint(path, model.config, model.params(), state, next_epoch,
                                     self.seed)
        ckpt = h.checkpoint.load_checkpoint(path)
        loaded = h.model.Model(ckpt.config)
        loaded.load_state(ckpt.params)
        self.gate.run("checkpoint", checks.check_checkpoint, h, path, model.config,
                      model.params(), state, next_epoch, self.seed)
        return loaded

    def train_pass(self, model, st: Setup, epoch: int, state):
        """One timed optim.train call: call ``epoch`` over its images."""
        items = self._call_items(st, epoch)
        probed = Probed(items, self.meter, self.probe_every) if self.probe_every else items
        result, timing = self.meter.time(self.h.optim.train, model, probed,
                                         self._schedule(st, epoch + 1), self.seed,
                                         start_epoch=epoch, state=state)
        checks.check_losses_finite(self.gate, result.trace)
        return len(items), timing, result

    def check_reference(self) -> None:
        if self.spec.reference is None:
            return
        scale = 1.001 if self.inject == "bad_reference" else 1.0
        self.gate.run("reference trace", checks.check_reference, self.h,
                      checks.load_reference(self.spec.reference), scale)

    # -- runs ----------------------------------------------------------------

    def _cycle(self, st: Setup) -> int:
        """Calls per epoch over the training images."""
        if self.spec.call_items is None:
            return 1
        return len(st.items[::self.spec.train_stride]) // self.spec.call_items

    def _call_items(self, st: Setup, epoch: int):
        """Images of the optim.train call ``epoch``: the ``epoch``-th of the
        interleaved slices of the training images, one batch each, or all of
        them when ``call_items`` is None."""
        k = self._cycle(st)
        return st.items[::self.spec.train_stride][epoch % k::k]

    def _warm_up(self, st: Setup):
        """The untimed calls 0 .. warmup_calls - 1; timed calls follow."""
        t0 = time.perf_counter()
        state = None
        for epoch in range(self.spec.warmup_calls):
            state = self.train_pass(st.model, st, epoch, state)[2].state
        self.detail["warmup"] = {"calls": self.spec.warmup_calls,
                                 "images": self.spec.warmup_calls * len(self._call_items(st, 0)),
                                 "seconds": time.perf_counter() - t0}
        return state

    def _fingerprint(self, model) -> bytes:
        return b"".join(t.data.tobytes() for t in model.params().values())

    def run(self) -> dict:
        spec = self.spec
        setups = []
        for _ in range(spec.setup_reps):
            st = self.setup()
            setups.append((st.seconds, st.train_units, st.train_loss, self._fingerprint(st.model)))
        self.gate.check("set-up deterministic", len({s[3] for s in setups}) == 1)
        setup_s = [s[0] for s in setups]
        self.detail["setup_s"] = setup_s
        # eval_gallery's training throughput comes from its set-up calls.
        train_units = [u for s in setups for u in s[1]]
        if spec.timed == "train":
            # Evaluation units are timed on the model after warm-up, in the
            # same rounds as the training calls; quality is scored untimed
            # on the model checkpointed after min_passes calls.
            state = self._warm_up(st)
            ev = Evaluation(self, self._checkpoint(st.model, state, spec.warmup_calls, "warm"),
                            st.split, st.maps)
            rounds = spec.min_passes
            per_round = dict.fromkeys(STAGES, spec.eval_units)
            losses = []
        else:
            ev = Evaluation(self, st.model, st.split, st.maps)
            rounds = EVAL_ROUNDS
            # One full cycle of both protocols ends with the last round;
            # extraction units keep pace with the query chunks.
            veri = math.ceil(len(ev.chunks["veri"]) / rounds)
            per_round = {"extract": veri, "veri": veri,
                         "vid": math.ceil(len(ev.chunks["vid"]) / rounds)}
        ev.prepare()
        round_s: list[float] = []
        started = time.perf_counter()
        n = 0
        while (n < rounds or not ev.complete()
               or time.perf_counter() - started + statistics.median(round_s) <= self.seconds):
            t0 = time.perf_counter()
            n += 1
            if spec.timed == "train":
                epoch = spec.warmup_calls + n - 1
                images, timing, result = self.train_pass(st.model, st, epoch, state)
                train_units.append((images, timing))
                losses.append(result.trace[-1][1].total)
                if n == spec.min_passes:
                    # The last `cycle` calls make one epoch over every
                    # training image: their mean is its loss.
                    quality_loss = statistics.mean(losses[-self._cycle(st):])
                    trained = self._checkpoint(st.model, state, epoch + 1, "trained")
            for stage in STAGES:
                for _ in range(per_round[stage]):
                    ev.step(stage)
            round_s.append(time.perf_counter() - t0)
        train_rate = rate(train_units)
        if spec.timed == "train":
            scored = Evaluation(self, trained, st.split, st.maps)
            scored.full_round()
            self.check_reference()
            # One epoch over the training images at the training rate.
            wall_s = len(st.items[::spec.train_stride]) / train_rate
        else:
            scored = ev
            quality_loss = setups[-1][2]
            wall_s = ev.seconds
        scored.check()
        self.detail.update(rounds=n, round_s=round_s, speed=self.meter.summary(),
                           train_units_s=[t.seconds for _, t in train_units],
                           quality_after_calls=spec.min_passes,
                           eval_units_s={s: [t.seconds for _, t in ev.units[s]] for s in STAGES},
                           images=len(ev.test), queries=ev.queries)
        return {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "train.samples_per_s": train_rate,
            "extract.images_per_s": rate(ev.units["extract"]),
            "eval.veri.queries_per_s": rate(ev.units["veri"]),
            "eval.vehicleid.queries_per_s": rate(ev.units["vid"]),
            "quality.loss": quality_loss,
            **scored.quality(),
        }

    def run_traced(self) -> dict:
        """An untraced unit, then the same unit traced; set-up and (train
        workloads) one evaluation are traced as well. Counts are exact;
        times carry the tracing overhead, reported as ``trace.overhead_s``.
        No kernel runs inside training calls here, so none lands in a span."""
        self.probe_every = 0
        tracer = Tracer()
        with Instrumentation(tracer):
            st = self.setup()
        if self.spec.timed == "train":
            state = self._warm_up(st)
            w = self.spec.warmup_calls
            untraced = self.train_pass(st.model, st, w, state)[1].seconds
            with Instrumentation(tracer):
                traced = self.train_pass(st.model, st, w + 1, state)[1].seconds
                ev = Evaluation(self, self._checkpoint(st.model, state, w + 2, "trained"),
                                st.split, st.maps)
                ev.full_round()
            ev.check()
            self.check_reference()
        else:
            first = Evaluation(self, st.model, st.split, st.maps)
            untraced = first.full_round()
            first.check()
            ev = Evaluation(self, st.model, st.split, st.maps)
            with Instrumentation(tracer):
                traced = ev.full_round()
            self.gate.check("extract deterministic", np.array_equal(ev.features, first.features))
        self.detail.update(untraced_unit_s=untraced, traced_unit_s=traced)
        metrics = layer_metrics(tracer, queries=ev.queries, skipped=ev.skipped)
        metrics["trace.overhead_s"] = traced - untraced
        metrics["trace.overhead_ratio"] = traced / untraced
        return metrics


def _environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "nproc": NPROC,
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name, "blas_threads": BLAS_THREADS}


def _declared(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to seconds; for the benchmark's own tests")
    parser.add_argument("--inject", choices=("corrupt_feature", "bad_reference"),
                        help="plant a fault the gate must report; for the benchmark's own tests")
    args = parser.parse_args(argv)

    hareid = _import_hareid()
    if hareid is None:
        print(f"error: no hareid package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    if args.tiny:
        spec = replace(spec, **spec.tiny)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(hareid, spec, args, tmp)
        values = bench.run_traced() if args.trace else bench.run()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    declared = _declared(args.trace)
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        print(f"error: metrics computed and declared differ: {sorted(missing)}", file=sys.stderr)
        return 3
    gate = bench.gate
    env = _environment(args)
    env["warmup"] = bench.detail.get("warmup", "none: the timed units do not train")
    print(json.dumps({"environment": env}))
    print(json.dumps({"detail": bench.detail, "failures": gate.failures[:20]}))
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed,
                      "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                                  for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
