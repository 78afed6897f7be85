"""Command-line entry point.

Commands: synth, train, extract, eval, gradcheck, attmap, ablate.
A flat key=value config file can seed any command's flags (CLI flags win),
and the HAR_SEED environment variable overrides every seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import backbone, data, formats
from .autodiff import grad_check_groups
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .errors import ConfigError, HareidError, NumericError
from .model import VARIANTS, Model, ModelConfig, check_seed
from .optim import RmspropState, TrainSchedule, rng_for, train
from .retrieval import (EvaluationReport, RetrievalIndex, check_repeated_gallery,
                        vehicleid_protocol, veri_protocol)


# ---------------------------------------------------------------------------
# Shared plumbing


def _load_split_and_maps(args) -> tuple[data.DatasetSplit, np.ndarray | None]:
    split = data.load_manifest(args.manifest)
    maps = None
    if getattr(args, "descriptors", None):
        maps = formats.read_tensor_file(args.descriptors)
    return split, maps


def _model_from_checkpoint(path) -> tuple[Model, Checkpoint]:
    ckpt = load_checkpoint(path)
    model = Model(ckpt.config)
    model.load_state(ckpt.params)
    return model, ckpt


EXTRACT_STACK = 64  # the most inputs ``_features`` passes to one Model.extract_features call


def _input_stacks(samples, maps: np.ndarray | None, image_root=None):
    """(index of the first sample, stacked inputs) for each run of consecutive
    samples whose inputs have one shape, at most EXTRACT_STACK long."""
    stack, first = [], 0
    for i, s in enumerate(samples):
        try:
            inp = data.sample_input(s, maps, image_root)
        except (HareidError, OSError):
            if stack:  # the earlier samples' stack is extracted, and may fail, first
                yield first, np.stack(stack)
            raise
        if stack and (len(stack) == EXTRACT_STACK or inp.shape != stack[0].shape):
            yield first, np.stack(stack)
            stack, first = [], i
        stack.append(inp)
    if stack:
        yield first, np.stack(stack)


def _features(model: Model, samples, maps: np.ndarray | None, image_root=None) -> np.ndarray:
    """One l2-normalized step-2 feature row per sample, extracted in the
    stacks of ``_input_stacks``; every row has the bits of the sample's own
    extraction."""
    rows = []
    for first, stack in _input_stacks(samples, maps, image_root):
        try:
            rows.append(model.extract_features(stack)[0])
        except NumericError as exc:
            if exc.row is None:
                raise
            bad = first + exc.row
            raise NumericError(f"sample {bad} ({samples[bad].source}) has a non-finite "
                               f"feature") from None
    return np.concatenate(rows)


def _int_list(text: str, flag: str) -> list[int]:
    """The integers, at least one, of a comma-separated flag value; empty items are skipped."""
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise ConfigError(f"{flag} must be comma-separated integers, got {text!r}")
    return values


def _write_loss_rows(path, rows, append: bool) -> None:
    mode = "a" if append and Path(path).exists() else "w"
    with open(path, mode, newline="") as f:
        writer = csv.writer(f)
        if mode == "w":
            writer.writerow(["epoch", "mean_total", "mean_model", "mean_vehicle"])
        for epoch, report in rows:
            writer.writerow([epoch, repr(report.total), repr(report.model),
                             repr(report.vehicle)])


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args) -> int:
    config = data.SynthConfig(models=args.models, vehicles_per_model=args.vehicles,
                              images_per_vehicle=args.images, grid=args.grid,
                              d=args.dim, cameras=args.cameras,
                              noise_sigma=args.noise,
                              view_amplitude=args.view_amplitude)
    ds = data.synth_generate(config, seed=args.seed)
    paths = data.write_synth(ds, args.out)
    print(f"wrote {len(ds.split.train)} train / {len(ds.split.test)} test samples")
    for key, path in paths.items():
        print(f"  {key}: {path}")
    return 0


def _schedule_from_args(args) -> TrainSchedule:
    return TrainSchedule(batch_size=args.batch_size, epochs=args.epochs)


# The model flags of ``train`` and what a fresh run uses for those not given.
_MODEL_FLAG_DEFAULTS = {"variant": ModelConfig.variant, "backbone": "ingested",
                       "hidden": ModelConfig.hidden,
                       "conv_layers": backbone.ConvStackConfig.layers,
                       "conv_kernel": backbone.ConvStackConfig.kernel,
                       "conv_channels": backbone.ConvStackConfig.channels}


def _given_model_flags(args) -> dict[str, object]:
    """The model flags given on the command line or in --config (None otherwise).
    Each is read as ``args.<flag>``, the form the flag-read lint recognises;
    test_cli checks that the keys are those of ``_MODEL_FLAG_DEFAULTS``."""
    flags = {"variant": args.variant, "backbone": args.backbone, "hidden": args.hidden,
             "conv_layers": args.conv_layers, "conv_kernel": args.conv_kernel,
             "conv_channels": args.conv_channels}
    return {key: value for key, value in flags.items() if value is not None}


def _check_resume_flags(given: dict[str, object], config: ModelConfig) -> None:
    """A resume keeps the checkpoint's model: a given model flag that disagrees
    with it is an error. Conv flags only describe a conv-backbone checkpoint."""
    saved = {"variant": config.variant, "backbone": config.backbone, "hidden": config.hidden}
    if config.conv is not None:
        saved.update(conv_layers=config.conv.layers, conv_kernel=config.conv.kernel,
                     conv_channels=config.conv.channels)
    for key, value in given.items():
        if key in saved and value != saved[key]:
            raise ConfigError(f"--{key.replace('_', '-')} {value} disagrees with the "
                              f"checkpoint's {key}={saved[key]}; a resume keeps the "
                              f"checkpoint's model")


def cmd_train(args) -> int:
    split, maps = _load_split_and_maps(args)
    schedule = _schedule_from_args(args)
    given = _given_model_flags(args)
    items = data.training_items(split, maps, image_root=args.image_root)

    if args.resume:
        model, ckpt = _model_from_checkpoint(args.resume)
        config = ckpt.config
        _check_resume_flags(given, config)
        state = ckpt.opt
        start_epoch = ckpt.epoch
        seed = ckpt.seed
    else:
        flags = {**_MODEL_FLAG_DEFAULTS, **given}
        if flags["backbone"] == "conv":
            # The images set the input channels; train() refuses an empty set.
            conv = backbone.ConvStackConfig(layers=flags["conv_layers"],
                                            kernel=flags["conv_kernel"],
                                            channels=flags["conv_channels"],
                                            in_channels=items[0][0].shape[-1] if items else 1)
            d = conv.channels
        else:
            conv = None
            if maps is None:
                raise ConfigError("ingested backbone needs --descriptors")
            d = maps.shape[-1]
        config = ModelConfig(num_models=split.num_models, num_vehicles=split.num_vehicles,
                             variant=flags["variant"], d=d, hidden=flags["hidden"],
                             seed=args.seed, conv=conv)
        model = Model(config)
        state = None
        start_epoch = 0
        seed = args.seed

    if config.num_models != split.num_models or config.num_vehicles != split.num_vehicles:
        raise ConfigError(f"checkpoint expects {config.num_models}/{config.num_vehicles} "
                          f"classes, manifest has {split.num_models}/{split.num_vehicles}")

    if state is None:
        state = RmspropState.init(model.params())
    # Created only once the run's inputs are read and checked, so a refused
    # run leaves no directory behind.
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    loss_path, ckpt_path = out_dir / "loss.csv", out_dir / "checkpoint.ckpt"
    if not args.resume:
        _write_loss_rows(loss_path, [], append=False)

    def on_epoch(epoch, report) -> None:
        # Every finished epoch is on disk before the next starts, so an
        # interrupted run resumes from its last epoch.
        save_checkpoint(ckpt_path, config, model.params(), state, epoch + 1, seed)
        _write_loss_rows(loss_path, [(epoch, report)], append=True)
        print(f"epoch {epoch}: total={report.total:.6f} model={report.model:.6f} "
              f"vehicle={report.vehicle:.6f}", flush=True)

    result = train(model, items, schedule, seed, start_epoch=start_epoch, state=state,
                   on_epoch=on_epoch)
    if not result.trace:
        save_checkpoint(ckpt_path, config, model.params(), state, schedule.epochs, seed)
    print(f"checkpoint: {ckpt_path}")
    return 0


def cmd_extract(args) -> int:
    model, ckpt = _model_from_checkpoint(args.checkpoint)
    split, maps = _load_split_and_maps(args)
    samples = getattr(split, args.split)
    if not samples:
        raise ConfigError(f"split {args.split!r} is empty")
    formats.write_features(args.out, _features(model, samples, maps, args.image_root))
    print(f"wrote {len(samples)} features of dim {ckpt.config.hidden} to {args.out}")
    return 0


def cmd_eval(args) -> int:
    split, _ = _load_split_and_maps(args)
    samples = getattr(split, args.split)
    index = RetrievalIndex.build(formats.load_features(args.features), samples)
    if args.protocol == "veri":
        report = veri_protocol(index, track_agg=args.track_agg)
    else:
        gallery_size = args.gallery_size or len({s.vehicle_id for s in samples})
        report = vehicleid_protocol(index, gallery_size=gallery_size,
                                    repeats=args.repeats, seed=args.seed)
    text = report.to_json()
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


GRADCHECK_TOL = 1e-4  # a parameter group passes below this max relative error


def cmd_gradcheck(args) -> int:
    """Check each variant's gradients on one problem: a 2x2x4 map, H=8, 3/6 classes."""
    rng = rng_for(args.seed)
    amap = rng.uniform(-1.0, 1.0, size=(2, 2, 4))
    y_model = int(rng.integers(3))
    y_vehicle = int(rng.integers(6))
    failures = 0
    for variant in VARIANTS:
        model = Model(ModelConfig(num_models=3, num_vehicles=6, variant=variant, d=4,
                                  hidden=8, seed=args.seed))

        def f():
            total, _, _ = model.loss(amap, y_model, y_vehicle)
            return total

        errors = grad_check_groups(f, model.params())
        for name, err in errors.items():
            ok = err < GRADCHECK_TOL
            failures += 0 if ok else 1
            print(f"{variant:20s} {name:20s} {err:.3e} {'PASS' if ok else 'FAIL'}")
    print(f"gradcheck: {'all groups passed' if failures == 0 else f'{failures} failures'} "
          f"(tol {GRADCHECK_TOL:g})")
    return 0 if failures == 0 else 1


def cmd_attmap(args) -> int:
    model, ckpt = _model_from_checkpoint(args.checkpoint)
    if model.attn is None:
        raise ConfigError(f"variant {ckpt.config.variant!r} has no attention module")
    split, maps = _load_split_and_maps(args)
    samples = getattr(split, args.split)
    weights_of = []  # (sample id, attention weights), in --samples order
    for i in _int_list(args.samples, "--samples"):
        if not 0 <= i < len(samples):
            raise IndexError(f"sample id {i} out of range for split of {len(samples)}")
        inp = data.sample_input(samples[i], maps, image_root=args.image_root)
        weights = model.forward(inp).attention
        if not np.isfinite(weights.a).all():
            raise NumericError(f"sample {i} ({samples[i].source}) has a non-finite attention map")
        weights_of.append((i, weights))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, weights in weights_of:
        formats.write_pgm(out_dir / f"attmap_{i}.pgm",
                          formats.attention_to_pixels(weights.a[0]))
        with open(out_dir / f"attmap_{i}.csv", "w", newline="") as f:
            writer = csv.writer(f)
            for row in weights.a[0]:
                writer.writerow([repr(float(v)) for v in row])
        print(f"sample {i}: argmax cell {weights.argmax_cell()}")
    return 0


def run_variant(split: data.DatasetSplit, maps: np.ndarray, variant: str, seed: int,
                hidden: int, schedule: TrainSchedule, gallery_size: int, repeats: int,
                eval_seed: int) -> tuple[Model, EvaluationReport]:
    """Train one variant from ``seed`` on the train split, extract the test
    split's features and score them under the repeated-gallery protocol."""
    model = Model(ModelConfig(num_models=split.num_models, num_vehicles=split.num_vehicles,
                              variant=variant, d=maps.shape[-1], hidden=hidden, seed=seed))
    train(model, data.training_items(split, maps), schedule, seed)
    index = RetrievalIndex.build(_features(model, split.test, maps), split.test)
    return model, vehicleid_protocol(index, gallery_size=gallery_size, repeats=repeats,
                                     seed=eval_seed)


def cmd_ablate(args) -> int:
    split, maps = _load_split_and_maps(args)
    schedule = _schedule_from_args(args)
    seeds = _int_list(args.seeds, "--seeds")
    repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
    if repeated is not None:
        raise ConfigError(f"--seeds lists seed {repeated} more than once; "
                          f"each seed trains once")
    vehicles = len({s.vehicle_id for s in split.test})
    gallery_size = args.gallery_size or vehicles
    # Every run's settings are checked before the first one trains.
    check_repeated_gallery(vehicles, gallery_size, args.repeats)
    ModelConfig(num_models=split.num_models, num_vehicles=split.num_vehicles,
                d=maps.shape[-1], hidden=args.hidden)
    results: dict[str, dict] = {}
    for variant in VARIANTS:
        per_seed = []
        for seed in seeds:
            _, report = run_variant(split, maps, variant, seed, args.hidden, schedule,
                                    gallery_size, args.repeats, args.eval_seed)
            per_seed.append({"seed": seed, "map": report.map,
                             "cmc1": report.cmc[1], "cmc5": report.cmc[5]})
        means = {key: float(np.mean([r[key] for r in per_seed])) for key in ("map", "cmc1", "cmc5")}
        results[variant] = {"per_seed": per_seed, **means}

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "ablation.json").write_text(json.dumps(results, sort_keys=True, indent=2))
    print(f"{'variant':22s} {'mAP':>8s} {'CMC@1':>8s} {'CMC@5':>8s}   (seeds {seeds})")
    for variant in VARIANTS:
        r = results[variant]
        print(f"{variant:22s} {r['map']:8.4f} {r['cmc1']:8.4f} {r['cmc5']:8.4f}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="hareid",
                                     description="Coarse-to-fine hierarchical attention "
                                                 "re-identification engine")
    sub = parser.add_subparsers(dest="command", required=True)
    subcommands: list[argparse.ArgumentParser] = []

    def add_common(p):
        p.add_argument("--config", help="flat key=value file; CLI flags take precedence")
        subcommands.append(p)

    def add_schedule(p):
        p.add_argument("--epochs", type=int, default=TrainSchedule.epochs)
        p.add_argument("--batch-size", type=int, default=TrainSchedule.batch_size)

    p = sub.add_parser("synth", help="generate the synthetic dataset")
    add_common(p)
    p.add_argument("--out", required=True)
    synth = data.SynthConfig
    p.add_argument("--models", type=int, default=synth.models)
    p.add_argument("--vehicles", type=int, default=synth.vehicles_per_model,
                   help="vehicles per model, per split")
    p.add_argument("--images", type=int, default=synth.images_per_vehicle)
    p.add_argument("--grid", type=int, default=synth.grid)
    p.add_argument("--dim", type=int, default=synth.d)
    p.add_argument("--cameras", type=int, default=synth.cameras)
    p.add_argument("--noise", type=float, default=synth.noise_sigma)
    p.add_argument("--view-amplitude", type=float, default=synth.view_amplitude)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model variant")
    add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--descriptors")
    p.add_argument("--image-root")
    p.add_argument("--out-dir", required=True)
    # Model flags default to None, so a resume can tell a given flag from a
    # default; a fresh run fills in _MODEL_FLAG_DEFAULTS.
    default = {key: f"default {value}" for key, value in _MODEL_FLAG_DEFAULTS.items()}
    p.add_argument("--variant", choices=VARIANTS, help=default["variant"])
    p.add_argument("--backbone", choices=("ingested", "conv"), help=default["backbone"])
    p.add_argument("--conv-layers", type=int, help=default["conv_layers"])
    p.add_argument("--conv-kernel", type=int, help=default["conv_kernel"])
    p.add_argument("--conv-channels", type=int, help=default["conv_channels"])
    p.add_argument("--hidden", type=int, help=default["hidden"])
    add_schedule(p)
    p.add_argument("--seed", type=int, default=ModelConfig.seed)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract", help="write l2-normalized features for a split")
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--descriptors")
    p.add_argument("--image-root")
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("eval", help="evaluate a feature file")
    add_common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--protocol", choices=("veri", "vehicleid"), required=True)
    p.add_argument("--gallery-size", type=int, default=0,
                   help="0 = all test vehicles")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--track-agg", choices=("max", "mean"), default="max")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of every variant")
    add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("attmap", help="export attention maps as PGM + CSV")
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--descriptors")
    p.add_argument("--image-root")
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--samples", required=True, help="comma-separated split indices")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_attmap)

    p = sub.add_parser("ablate", help="train+extract+eval all three variants")
    add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--descriptors", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--hidden", type=int, default=64)
    add_schedule(p)
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--gallery-size", type=int, default=0)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--eval-seed", type=int, default=0)
    p.set_defaults(func=cmd_ablate)

    return parser, {sp.prog.split()[-1]: sp for sp in subcommands}


def _config_defaults(path, command: argparse.ArgumentParser) -> dict[str, object]:
    """A config file's values, typed like the command's own flags."""
    actions = {a.dest: a for a in command._actions}  # noqa: SLF001
    defaults: dict[str, object] = {}
    for lineno, line in enumerate(formats.text_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        if key not in actions:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r} "
                              f"for command {command.prog.split()[-1]}")
        action = actions[key]
        try:
            defaults[key] = action.type(value) if action.type else value
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
        # argparse checks choices only on the command line.
        if action.choices is not None and defaults[key] not in action.choices:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r} is not one "
                              f"of {', '.join(map(repr, action.choices))}")
    return defaults


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The file's values become the command's defaults, so any flag
            # argparse recognises on the command line, a prefix included, wins.
            command = commands[args.command]
            command.set_defaults(**_config_defaults(args.config, command))
            args = parser.parse_args(argv)
        if "HAR_SEED" in os.environ and (hasattr(args, "seed") or hasattr(args, "seeds")):
            try:
                seed = int(os.environ["HAR_SEED"])
            except ValueError:
                raise ConfigError(f"HAR_SEED must be an integer, got "
                                  f"{os.environ['HAR_SEED']!r}") from None
            if hasattr(args, "seeds"):  # ablate: train and evaluate with the one seed
                args.seeds, args.eval_seed = str(seed), seed
            else:
                args.seed = seed
        # Every seed is checked before the command reads or writes anything.
        seeds = [getattr(args, key) for key in ("seed", "eval_seed") if hasattr(args, key)]
        for seed in seeds + (_int_list(args.seeds, "--seeds") if hasattr(args, "seeds") else []):
            check_seed(seed)
        return args.func(args)
    except (HareidError, IndexError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
