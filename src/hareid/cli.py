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
from .errors import ConfigError, HareidError
from .model import VARIANTS, Model, ModelConfig
from .optim import TrainSchedule, rng_for, train
from .retrieval import EvaluationReport, RetrievalIndex, vehicleid_protocol, veri_protocol


# ---------------------------------------------------------------------------
# Shared plumbing


def _load_split_and_maps(args) -> tuple[data.DatasetSplit, np.ndarray | None]:
    split = data.load_manifest(args.manifest)
    maps = None
    if getattr(args, "descriptors", None):
        maps = formats.read_tensor_file(args.descriptors)
    return split, maps


def _samples_for(split: data.DatasetSplit, name: str) -> list[data.LabeledSample]:
    if name == "train":
        return split.train
    if name == "test":
        return split.test
    raise ConfigError(f"unknown split {name!r}")


def _model_from_checkpoint(path) -> tuple[Model, Checkpoint]:
    ckpt = load_checkpoint(path)
    model = Model(ckpt.config)
    model.load_state(ckpt.params)
    return model, ckpt


def _features(model: Model, samples, maps: np.ndarray | None, image_root=None) -> np.ndarray:
    """One l2-normalized step-2 feature row per sample."""
    return np.stack([model.extract_feature(data.sample_input(s, maps, image_root)).values
                     for s in samples])


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
                              view_amplitude=args.view_amplitude,
                              signature_jitter=args.signature_jitter,
                              signature_cone=args.signature_cone)
    ds = data.synth_generate(config, seed=args.seed)
    paths = data.write_synth(ds, args.out)
    print(f"wrote {len(ds.split.train)} train / {len(ds.split.test)} test samples")
    for key, path in paths.items():
        print(f"  {key}: {path}")
    return 0


def _schedule_from_args(args) -> TrainSchedule:
    return TrainSchedule(initial_lr=args.lr, drop_epoch=args.drop_epoch,
                         dropped_lr=args.dropped_lr, batch_size=args.batch_size,
                         epochs=args.epochs)


def cmd_train(args) -> int:
    split, maps = _load_split_and_maps(args)
    schedule = _schedule_from_args(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.resume:
        model, ckpt = _model_from_checkpoint(args.resume)
        config = ckpt.config
        state = ckpt.opt
        start_epoch = ckpt.epoch
        seed = ckpt.seed
    else:
        if args.backbone == "conv":
            conv = backbone.ConvStackConfig(layers=args.conv_layers,
                                            kernel=args.conv_kernel,
                                            channels=args.conv_channels,
                                            in_channels=args.conv_in_channels)
            d = conv.channels
        else:
            conv = None
            if maps is None:
                raise ConfigError("ingested backbone needs --descriptors")
            d = maps.shape[-1]
        config = ModelConfig(num_models=split.num_models, num_vehicles=split.num_vehicles,
                             variant=args.variant, d=d, hidden=args.hidden,
                             attn_hidden=args.attn_hidden, backbone=args.backbone,
                             seed=args.seed, conv=conv)
        model = Model(config)
        state = None
        start_epoch = 0
        seed = args.seed

    if config.num_models != split.num_models or config.num_vehicles != split.num_vehicles:
        raise ConfigError(f"checkpoint expects {config.num_models}/{config.num_vehicles} "
                          f"classes, manifest has {split.num_models}/{split.num_vehicles}")

    items = data.training_items(split, maps, image_root=args.image_root)
    result = train(model, items, schedule, seed, start_epoch=start_epoch, state=state)
    _write_loss_rows(out_dir / "loss.csv", result.trace, append=bool(args.resume))
    save_checkpoint(out_dir / "checkpoint.ckpt", config, model.params(),
                    result.state, result.next_epoch, seed)
    for epoch, report in result.trace:
        print(f"epoch {epoch}: total={report.total:.6f} model={report.model:.6f} "
              f"vehicle={report.vehicle:.6f}")
    print(f"checkpoint: {out_dir / 'checkpoint.ckpt'}")
    return 0


def cmd_extract(args) -> int:
    model, ckpt = _model_from_checkpoint(args.checkpoint)
    split, maps = _load_split_and_maps(args)
    samples = _samples_for(split, args.split)
    if not samples:
        raise ConfigError(f"split {args.split!r} is empty")
    formats.write_features(args.out, _features(model, samples, maps, args.image_root))
    print(f"wrote {len(samples)} features of dim {ckpt.config.hidden} to {args.out}")
    return 0


def cmd_eval(args) -> int:
    split, _ = _load_split_and_maps(args)
    samples = _samples_for(split, args.split)
    index = RetrievalIndex.build(formats.load_features(args.features), samples)
    if args.protocol == "veri":
        report = veri_protocol(index, track_agg=args.track_agg)
    else:
        gallery_size = args.gallery_size
        if gallery_size == 0:
            gallery_size = len({s.vehicle_id for s in samples})
        report = vehicleid_protocol(index, gallery_size=gallery_size,
                                    repeats=args.repeats, seed=args.seed)
    text = report.to_json()
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


def cmd_gradcheck(args) -> int:
    rng = rng_for(args.seed)
    amap = rng.uniform(-1.0, 1.0, size=(args.grid, args.grid, args.dim))
    y_model = int(rng.integers(args.num_models))
    y_vehicle = int(rng.integers(args.num_vehicles))
    failures = 0
    for variant in VARIANTS:
        model = Model(ModelConfig(num_models=args.num_models,
                                  num_vehicles=args.num_vehicles, variant=variant,
                                  d=args.dim, hidden=args.hidden,
                                  attn_hidden=args.attn_hidden, seed=args.seed))

        def f():
            total, _, _ = model.loss(amap, y_model, y_vehicle)
            return total

        errors = grad_check_groups(f, model.params(), step=args.step)
        for name, err in errors.items():
            ok = err < args.tol
            failures += 0 if ok else 1
            print(f"{variant:20s} {name:20s} {err:.3e} {'PASS' if ok else 'FAIL'}")
    print(f"gradcheck: {'all groups passed' if failures == 0 else f'{failures} failures'} "
          f"(tol {args.tol:g})")
    return 0 if failures == 0 else 1


def cmd_attmap(args) -> int:
    model, ckpt = _model_from_checkpoint(args.checkpoint)
    if model.attn is None:
        raise ConfigError(f"variant {ckpt.config.variant!r} has no attention module")
    split, maps = _load_split_and_maps(args)
    samples = _samples_for(split, args.split)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ids = [int(tok) for tok in args.samples.split(",") if tok.strip() != ""]
    for i in ids:
        if not 0 <= i < len(samples):
            raise IndexError(f"sample id {i} out of range for split of {len(samples)}")
        inp = data.sample_input(samples[i], maps, image_root=args.image_root)
        weights = model.forward(inp).attention
        formats.write_pgm(out_dir / f"attmap_{i}.pgm",
                          formats.attention_to_pixels(weights.a))
        with open(out_dir / f"attmap_{i}.csv", "w", newline="") as f:
            writer = csv.writer(f)
            for row in weights.a:
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
    seeds = [int(tok) for tok in args.seeds.split(",") if tok.strip() != ""]
    gallery_size = args.gallery_size or len({s.vehicle_id for s in split.test})
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


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, dict]]:
    parser = argparse.ArgumentParser(prog="hareid",
                                     description="Coarse-to-fine hierarchical attention "
                                                 "re-identification engine")
    sub = parser.add_subparsers(dest="command", required=True)
    subcommands: list[argparse.ArgumentParser] = []

    def add_common(p):
        p.add_argument("--config", help="flat key=value file; CLI flags take precedence")
        subcommands.append(p)

    def add_schedule(p):
        p.add_argument("--epochs", type=int, default=20)
        p.add_argument("--batch-size", type=int, default=64)
        p.add_argument("--lr", type=float, default=0.001)
        p.add_argument("--drop-epoch", type=int, default=5)
        p.add_argument("--dropped-lr", type=float, default=0.0001)

    p = sub.add_parser("synth", help="generate the synthetic dataset")
    add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--models", type=int, default=8)
    p.add_argument("--vehicles", type=int, default=8,
                   help="vehicles per model, per split")
    p.add_argument("--images", type=int, default=20)
    p.add_argument("--grid", type=int, default=6)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--cameras", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--view-amplitude", type=float, default=0.5)
    p.add_argument("--signature-jitter", type=float, default=0.1)
    p.add_argument("--signature-cone", type=float, default=0.6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model variant")
    add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--descriptors")
    p.add_argument("--image-root")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--variant", choices=VARIANTS, default="rnn_ha")
    p.add_argument("--backbone", choices=("ingested", "conv"), default="ingested")
    p.add_argument("--conv-layers", type=int, default=3)
    p.add_argument("--conv-kernel", type=int, default=2)
    p.add_argument("--conv-channels", type=int, default=32)
    p.add_argument("--conv-in-channels", type=int, default=1)
    p.add_argument("--hidden", type=int, default=1024)
    p.add_argument("--attn-hidden", type=int, default=0, help="0 = hidden // 2")
    add_schedule(p)
    p.add_argument("--seed", type=int, default=0)
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
    p.set_defaults(func=cmd_eval, descriptors=None)

    p = sub.add_parser("gradcheck", help="finite-difference check of every variant")
    add_common(p)
    p.add_argument("--grid", type=int, default=2)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--attn-hidden", type=int, default=0)
    p.add_argument("--num-models", type=int, default=3)
    p.add_argument("--num-vehicles", type=int, default=6)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
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
    p.set_defaults(func=cmd_ablate, seed=0)

    command_actions = {sp.prog.split()[-1]: {a.dest: a for a in sp._actions}  # noqa: SLF001
                       for sp in subcommands}
    return parser, command_actions


def _apply_config_file(command_actions: dict[str, dict], args: argparse.Namespace,
                       argv: list[str]) -> None:
    if not getattr(args, "config", None):
        return
    text = Path(args.config).read_text()
    actions = command_actions[args.command]
    explicit = {tok.split("=", 1)[0].lstrip("-").replace("-", "_")
                for tok in argv if tok.startswith("--")}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not sep:
            raise ConfigError(f"{args.config}:{lineno}: expected key=value")
        if key not in actions:
            raise ConfigError(f"{args.config}:{lineno}: unknown option {key!r} "
                              f"for command {args.command}")
        if key in explicit:
            continue
        action = actions[key]
        try:
            setattr(args, key, action.type(value.strip()) if action.type else value.strip())
        except ValueError as exc:
            raise ConfigError(f"{args.config}:{lineno}: bad value for {key!r}: {exc}") from None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, command_actions = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(command_actions, args, argv)
        if "HAR_SEED" in os.environ and hasattr(args, "seed"):
            try:
                args.seed = int(os.environ["HAR_SEED"])
            except ValueError:
                raise ConfigError(f"HAR_SEED must be an integer, got "
                                  f"{os.environ['HAR_SEED']!r}") from None
        return args.func(args)
    except (HareidError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
