import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bruteforce import bf_metrics
from conftest import scale_sigmoid_backward
from hareid import cli, formats
from hareid.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from hareid.data import (DatasetSplit, LabeledSample, SynthConfig, load_manifest,
                         sample_input, write_manifest)
from hareid.errors import ConfigError
from hareid.model import Model, ModelConfig
from hareid.optim import ALPHA, DELTA, TrainSchedule


def run(argv):
    return cli.main(argv)


def with_config(raw: bytes, old: bytes, new: bytes) -> bytes:
    """Checkpoint bytes with ``old`` replaced by ``new`` in the length-prefixed
    config block."""
    at = len(MAGIC) + 4
    (length,) = struct.unpack_from("<I", raw, at)
    config = raw[at + 4:at + 4 + length]
    assert config.count(old) == 1
    config = config.replace(old, new)
    return raw[:at] + struct.pack("<I", len(config)) + config + raw[at + 4 + length:]


def conv_checkpoint(tmp_path) -> tuple[bytes, list[str]]:
    """The bytes of an untrained conv-backbone checkpoint (with optimizer
    state) and the manifest arguments that go with it."""
    formats.write_pgm(tmp_path / "a.pgm", np.zeros((8, 8), dtype=np.uint8))
    (tmp_path / "manifest.csv").write_text(
        "split,source,vehicle_id,model_id\ntrain,a.pgm,v0,m0\ntest,a.pgm,t0,m0\n")
    common = ["--manifest", str(tmp_path / "manifest.csv"), "--image-root", str(tmp_path)]
    assert run(["train", *common, "--conv-layers", "2", "--conv-channels", "4",
                "--out-dir", str(tmp_path / "run"), "--hidden", "6", "--epochs", "0"]) == 0
    return (tmp_path / "run" / "checkpoint.ckpt").read_bytes(), common


def per_image_features(checkpoint, samples, maps=None, image_root=None) -> np.ndarray:
    """The features of ``samples`` extracted one at a time, in manifest order."""
    ckpt = load_checkpoint(checkpoint)
    model = Model(ckpt.config)
    model.load_state(ckpt.params)
    return np.stack([model.extract_feature(sample_input(s, maps, image_root)).values
                     for s in samples])


@pytest.fixture(scope="module")
def tiny_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    assert run(["synth", "--out", str(out), "--models", "3", "--vehicles", "2",
                "--images", "4", "--grid", "3", "--dim", "6", "--cameras", "2",
                "--seed", "7"]) == 0
    return out


@pytest.fixture(scope="module")
def tiny_run(tiny_set, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert run(["train", "--manifest", str(tiny_set / "manifest.csv"),
                "--descriptors", str(tiny_set / "descriptors.desc"),
                "--out-dir", str(out), "--hidden", "8", "--epochs", "2",
                "--batch-size", "8", "--seed", "1"]) == 0
    return out


class TestSynth:
    def test_default_counts(self, tmp_path, capsys):
        assert run(["synth", "--out", str(tmp_path)]) == 0
        split = load_manifest(tmp_path / "manifest.csv")
        assert len(split.train) == 1280
        assert len(split.test) == 1280

    def test_deterministic_files(self, tmp_path):
        args = ["--models", "2", "--vehicles", "2", "--images", "2", "--grid", "3",
                "--dim", "4", "--seed", "5"]
        run(["synth", "--out", str(tmp_path / "a"), *args])
        run(["synth", "--out", str(tmp_path / "b"), *args])
        for name in ("manifest.csv", "descriptors.desc", "signatures.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_bad_grid_config(self, tmp_path, capsys):
        assert run(["synth", "--out", str(tmp_path), "--vehicles", "8",
                    "--grid", "3"]) == 1
        assert "too small" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--noise", "-0.5", "noise_sigma must be >= 0, got -0.5"),
        ("--view-amplitude", "nan", "view_amplitude must be finite, got nan"),
        # Finite, but beyond the float32 that DESC1 stores.
        ("--noise", "1e39", "beyond float32's range"),
        ("--view-amplitude", "1e39", "beyond float32's range"),
    ])
    def test_bad_noise_settings(self, tmp_path, capsys, flag, value, message):
        assert run(["synth", "--out", str(tmp_path), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert list(tmp_path.iterdir()) == []
        # A refused run makes no directory, its parents included.
        assert run(["synth", "--out", str(tmp_path / "s1" / "out"), flag, value]) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_har_seed_overrides_flag(self, tmp_path, monkeypatch):
        args = ["--models", "2", "--vehicles", "2", "--images", "2", "--grid", "3",
                "--dim", "4"]
        run(["synth", "--out", str(tmp_path / "envless"), *args, "--seed", "3"])
        monkeypatch.setenv("HAR_SEED", "3")
        run(["synth", "--out", str(tmp_path / "env"), *args, "--seed", "9"])
        assert ((tmp_path / "envless" / "descriptors.desc").read_bytes()
                == (tmp_path / "env" / "descriptors.desc").read_bytes())

    def test_non_integer_har_seed_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HAR_SEED", "abc")
        assert run(["synth", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "HAR_SEED" in err and "'abc'" in err


class TestTrain:
    def test_zero_epochs_checkpoint_equals_init(self, tiny_set, tmp_path):
        assert run(["train", "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out-dir", str(tmp_path), "--hidden", "8", "--epochs", "0",
                    "--seed", "4"]) == 0
        ckpt = load_checkpoint(tmp_path / "checkpoint.ckpt")
        fresh = Model(ckpt.config)
        for name, tensor in fresh.params().items():
            np.testing.assert_array_equal(ckpt.params[name], tensor.data)

    def test_variant_without_attention_parameters(self, tiny_set, tmp_path):
        assert run(["train", "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out-dir", str(tmp_path), "--hidden", "8", "--epochs", "1",
                    "--variant", "rnn_h_no_attention", "--batch-size", "8"]) == 0
        ckpt = load_checkpoint(tmp_path / "checkpoint.ckpt")
        assert not any(name.startswith("attn") for name in ckpt.params)

    def test_resume_matches_uninterrupted(self, tiny_set, tmp_path):
        base = ["--manifest", str(tiny_set / "manifest.csv"),
                "--descriptors", str(tiny_set / "descriptors.desc"),
                "--hidden", "8", "--batch-size", "8", "--seed", "2"]
        full_dir = tmp_path / "full"
        assert run(["train", *base, "--out-dir", str(full_dir), "--epochs", "4"]) == 0
        part_dir = tmp_path / "part"
        assert run(["train", *base, "--out-dir", str(part_dir), "--epochs", "2"]) == 0
        assert run(["train", *base, "--out-dir", str(part_dir), "--epochs", "4",
                    "--resume", str(part_dir / "checkpoint.ckpt")]) == 0
        assert ((full_dir / "loss.csv").read_text()
                == (part_dir / "loss.csv").read_text())
        assert ((full_dir / "checkpoint.ckpt").read_bytes()
                == (part_dir / "checkpoint.ckpt").read_bytes())

    @pytest.mark.parametrize("held", [b"", b"epoch,mean_to"], ids=["empty", "cut header"])
    def test_resume_onto_a_loss_csv_without_a_whole_header_writes_one(self, tiny_set,
                                                                      tmp_path, held):
        base = ["--manifest", str(tiny_set / "manifest.csv"),
                "--descriptors", str(tiny_set / "descriptors.desc"),
                "--hidden", "8", "--batch-size", "8", "--seed", "2"]
        full_dir = tmp_path / "full"
        assert run(["train", *base, "--out-dir", str(full_dir), "--epochs", "4"]) == 0
        part_dir = tmp_path / "part"
        assert run(["train", *base, "--out-dir", str(part_dir), "--epochs", "2"]) == 0
        (part_dir / "loss.csv").write_bytes(held)
        assert run(["train", *base, "--out-dir", str(part_dir), "--epochs", "4",
                    "--resume", str(part_dir / "checkpoint.ckpt")]) == 0
        # The header, then the rows of the epochs this run trained.
        full = (full_dir / "loss.csv").read_bytes().split(b"\r\n")
        assert (part_dir / "loss.csv").read_bytes().split(b"\r\n") == [full[0], *full[3:]]

    def test_resume_cannot_rewind_the_checkpoint(self, tiny_set, tmp_path, capsys):
        base = ["train", "--manifest", str(tiny_set / "manifest.csv"),
                "--descriptors", str(tiny_set / "descriptors.desc"), "--out-dir", str(tmp_path),
                "--hidden", "8", "--batch-size", "8", "--seed", "2"]
        assert run([*base, "--epochs", "4"]) == 0
        ckpt, loss = tmp_path / "checkpoint.ckpt", tmp_path / "loss.csv"
        with open(loss, "ab") as f:  # a stray byte, which a rewrite would drop
            f.write(b"9")
        before = ckpt.read_bytes(), loss.read_bytes()
        capsys.readouterr()
        assert run([*base, "--epochs", "2", "--resume", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "epochs=2" in err and "(4)" in err
        assert (ckpt.read_bytes(), loss.read_bytes()) == before

    @pytest.mark.parametrize("flags, named", [
        (["--variant", "fc_ha"], "--variant fc_ha"),
        (["--hidden", "32"], "--hidden 32"),
        (["--hid", "32"], "--hidden 32"),
        ("config", "--variant rnn_h_no_attention"),
        ("manifest", "checkpoint expects 3/6 classes, manifest has 2/4"),
    ], ids=["variant", "hidden", "prefix", "config", "class counts"])
    def test_resume_refuses_a_disagreeing_model_flag(self, tiny_set, tmp_path, capsys,
                                                     flags, named):
        base = ["train", "--manifest", str(tiny_set / "manifest.csv"),
                "--descriptors", str(tiny_set / "descriptors.desc"), "--out-dir", str(tmp_path),
                "--batch-size", "8", "--seed", "2", "--epochs", "2"]
        assert run([*base, "--hidden", "8"]) == 0
        ckpt, loss = tmp_path / "checkpoint.ckpt", tmp_path / "loss.csv"
        before = ckpt.read_bytes(), loss.read_bytes()
        if flags == "config":
            (tmp_path / "run.cfg").write_text("variant=rnn_h_no_attention\n")
            flags = ["--config", str(tmp_path / "run.cfg")]
        elif flags == "manifest":  # the train rows of two of the three car models
            split = load_manifest(tiny_set / "manifest.csv")
            kept = sorted({s.model_id for s in split.train})[:2]
            write_manifest(tmp_path / "fewer.csv", DatasetSplit(
                train=[s for s in split.train if s.model_id in kept], test=split.test))
            flags = ["--manifest", str(tmp_path / "fewer.csv")]
        capsys.readouterr()
        assert run([*base, "--epochs", "3", *flags, "--resume", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err and "checkpoint" in err
        assert (ckpt.read_bytes(), loss.read_bytes()) == before

    def test_resume_keeps_the_checkpoint_model_for_flags_not_given(self, tiny_set, tmp_path):
        base = ["train", "--manifest", str(tiny_set / "manifest.csv"),
                "--descriptors", str(tiny_set / "descriptors.desc"), "--out-dir", str(tmp_path),
                "--batch-size", "8", "--seed", "2"]
        assert run([*base, "--variant", "fc_ha", "--hidden", "8", "--epochs", "1"]) == 0
        ckpt = tmp_path / "checkpoint.ckpt"
        # Agreeing flags, and conv flags on an ingested checkpoint, are accepted.
        assert run([*base, "--epochs", "2", "--hidden", "8", "--conv-layers", "5",
                    "--resume", str(ckpt)]) == 0
        config = load_checkpoint(ckpt).config
        assert (config.variant, config.hidden, config.backbone) == ("fc_ha", 8, "ingested")

    def test_model_flags_are_the_defaults_keys(self):
        _, commands = cli.build_parser()
        argv = ["--manifest", "m", "--out-dir", "o"]
        for key, value in cli._MODEL_FLAG_DEFAULTS.items():  # noqa: SLF001
            argv += [f"--{key.replace('_', '-')}", str(value)]
        args = commands["train"].parse_args(argv)
        assert cli._given_model_flags(args) == cli._MODEL_FLAG_DEFAULTS  # noqa: SLF001
        assert cli._given_model_flags(commands["train"].parse_args(argv[:4])) == {}  # noqa: SLF001

    @pytest.mark.parametrize("command", ["synth", "train", "ablate"])
    def test_unset_flags_give_the_dataclass_defaults(self, tmp_path, monkeypatch, command):
        if command == "synth":
            seen = []

            def capture(config, seed):
                seen.append(config)
                raise ConfigError("captured")

            monkeypatch.setattr(cli.data, "synth_generate", capture)
            assert run(["synth", "--out", str(tmp_path)]) == 1
            assert seen == [SynthConfig()]
        else:
            _, commands = cli.build_parser()
            args = commands[command].parse_args(["--manifest", "m", "--descriptors", "d",
                                                 "--out-dir", "o"])
            assert cli._schedule_from_args(args) == TrainSchedule()  # noqa: SLF001
            if command == "train":
                assert args.seed == ModelConfig(num_models=1, num_vehicles=1).seed

    def test_resume_refuses_a_disagreeing_conv_flag(self, tmp_path, capsys):
        raw, common = conv_checkpoint(tmp_path)
        ckpt = tmp_path / "run" / "checkpoint.ckpt"
        base = ["train", *common, "--out-dir", str(tmp_path / "run"), "--epochs", "1",
                "--resume", str(ckpt)]
        capsys.readouterr()
        assert run([*base, "--conv-channels", "8"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --conv-channels 8 disagrees") and err.count("\n") == 1
        assert ckpt.read_bytes() == raw
        assert run([*base, "--conv-layers", "2", "--conv-channels", "4"]) == 0

    @pytest.mark.parametrize("flags, named", [
        (["--conv-layers", "9", "--conv-channels", "3"], "--conv-layers 9, --conv-channels 3"),
        (["--conv-kernel", "2"], "--conv-kernel 2"),
        ("config", "--conv-channels 16"),
    ], ids=["layers and channels", "kernel at its default", "config"])
    def test_a_descriptor_run_refuses_conv_flags_before_training(self, tiny_set, tmp_path,
                                                                 monkeypatch, capsys, flags,
                                                                 named):
        if flags == "config":
            (tmp_path / "run.cfg").write_text("conv_channels=16\n")
            flags = ["--config", str(tmp_path / "run.cfg")]
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("train was called"))
        capsys.readouterr()
        assert run(["train", "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out-dir", str(tmp_path / "run"), "--hidden", "8", "--epochs", "2",
                    *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}: a run on --descriptors") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("case", ["ancestor is a file", "loss.csv is a fifo",
                                      "checkpoint is a directory"])
    def test_an_out_dir_save_cannot_write_is_refused_before_training(self, tiny_set, tmp_path,
                                                                     monkeypatch, capsys, case):
        out_dir = tmp_path / "out"
        if case == "ancestor is a file":
            (tmp_path / "notadir").write_text("kept")
            out_dir = tmp_path / "notadir" / "run"
            named = f"{out_dir / 'loss.csv'}: {tmp_path / 'notadir'} is not a directory"
        elif case == "loss.csv is a fifo":
            out_dir.mkdir()
            os.mkfifo(out_dir / "loss.csv")
            named = f"{out_dir / 'loss.csv'}: not a regular file"
        else:
            (out_dir / "checkpoint.ckpt").mkdir(parents=True)
            named = f"{out_dir / 'checkpoint.ckpt'}: not a regular file"
        before = sorted(tmp_path.rglob("*"))
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("train was called"))
        capsys.readouterr()
        assert run(["train", "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out-dir", str(out_dir), "--hidden", "8", "--epochs", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    def test_interrupted_run_resumes_from_last_epoch(self, tiny_set, tmp_path, monkeypatch):
        base = ["--manifest", str(tiny_set / "manifest.csv"),
                "--descriptors", str(tiny_set / "descriptors.desc"),
                "--hidden", "8", "--batch-size", "8", "--seed", "2", "--epochs", "4"]
        full_dir = tmp_path / "full"
        assert run(["train", *base, "--out-dir", str(full_dir)]) == 0
        real_train = cli.train

        def killed_after_epoch_1(*args, on_epoch, **kwargs):
            def hook(epoch, report):
                on_epoch(epoch, report)
                if epoch == 1:
                    raise KeyboardInterrupt
            return real_train(*args, on_epoch=hook, **kwargs)

        monkeypatch.setattr(cli, "train", killed_after_epoch_1)
        part_dir = tmp_path / "part"
        with pytest.raises(KeyboardInterrupt):
            run(["train", *base, "--out-dir", str(part_dir)])
        monkeypatch.undo()
        assert load_checkpoint(part_dir / "checkpoint.ckpt").epoch == 2
        assert len((part_dir / "loss.csv").read_text().splitlines()) == 3  # header + 2
        assert run(["train", *base, "--out-dir", str(part_dir),
                    "--resume", str(part_dir / "checkpoint.ckpt")]) == 0
        assert ((full_dir / "loss.csv").read_bytes()
                == (part_dir / "loss.csv").read_bytes())
        assert ((full_dir / "checkpoint.ckpt").read_bytes()
                == (part_dir / "checkpoint.ckpt").read_bytes())

    @pytest.mark.parametrize("stop_at", ["row", "loss", "checkpoint"])
    def test_stop_while_an_epoch_is_written_resumes_to_the_same_files(self, tiny_set, tmp_path,
                                                                      monkeypatch, stop_at):
        # Stop once while epoch 10 is written: inside its loss.csv write, which
        # leaves the file as it was, or after that write and before the
        # checkpoint for epoch 11. "row" stops inside the write too, then
        # appends the first byte of epoch 10's row, which reads as epoch 1: a
        # file written by appending rows in place can still end in one.
        base = ["--manifest", str(tiny_set / "manifest.csv"),
                "--descriptors", str(tiny_set / "descriptors.desc"),
                "--hidden", "8", "--batch-size", "8", "--seed", "2", "--epochs", "12"]
        full_dir = tmp_path / "full"
        assert run(["train", *base, "--out-dir", str(full_dir)]) == 0
        real_csv, real_save = formats.write_csv, cli.save_checkpoint

        def stopped_csv(path, rows):
            if rows[-1][0] != 10:
                return real_csv(path, rows)
            with formats.written_whole(path) as f:
                f.write("epoch,")
                raise KeyboardInterrupt

        def stopped_save(path, config, params, state, epoch, seed):
            if epoch == 11:
                raise KeyboardInterrupt
            return real_save(path, config, params, state, epoch, seed)

        if stop_at == "checkpoint":
            monkeypatch.setattr(cli, "save_checkpoint", stopped_save)
        else:
            monkeypatch.setattr(formats, "write_csv", stopped_csv)
        part_dir = tmp_path / "part"
        with pytest.raises(KeyboardInterrupt):
            run(["train", *base, "--out-dir", str(part_dir)])
        monkeypatch.undo()
        assert load_checkpoint(part_dir / "checkpoint.ckpt").epoch == 10
        if stop_at == "row":
            with open(part_dir / "loss.csv", "ab") as f:
                f.write(b"1")
        rows = (part_dir / "loss.csv").read_bytes().split(b"\r\n")
        if stop_at == "checkpoint":
            assert rows[11].startswith(b"10,")
        else:
            assert rows[11] == (b"1" if stop_at == "row" else b"")
        assert run(["train", *base, "--out-dir", str(part_dir),
                    "--resume", str(part_dir / "checkpoint.ckpt")]) == 0
        assert ((full_dir / "loss.csv").read_bytes()
                == (part_dir / "loss.csv").read_bytes())
        assert ((full_dir / "checkpoint.ckpt").read_bytes()
                == (part_dir / "checkpoint.ckpt").read_bytes())

    def test_config_file_with_cli_precedence(self, tiny_set, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hidden=8\nepochs=0\nbatch-size=8\n")
        out = tmp_path / "out"
        assert run(["train", "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out-dir", str(out), "--config", str(cfg), "--seed", "6"]) == 0
        ckpt = load_checkpoint(out / "checkpoint.ckpt")
        assert ckpt.config.hidden == 8
        assert ckpt.epoch == 0  # config epochs=0 applied
        cfg2 = tmp_path / "run2.cfg"
        cfg2.write_text("hidden=16\nepochs=0\nbatch-size=8\n")
        out2 = tmp_path / "out2"
        assert run(["train", "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out-dir", str(out2), "--config", str(cfg2),
                    "--hidden", "8", "--seed", "6"]) == 0
        assert load_checkpoint(out2 / "checkpoint.ckpt").config.hidden == 8
        # A flag given as a prefix of its name is as explicit as the full name.
        out3 = tmp_path / "out3"
        assert run(["train", "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out-dir", str(out3), "--config", str(cfg2),
                    "--hid", "8", "--epoch", "1", "--seed", "6"]) == 0
        ckpt = load_checkpoint(out3 / "checkpoint.ckpt")
        assert (ckpt.config.hidden, ckpt.epoch) == (8, 1)

    def test_unknown_config_key(self, tiny_set, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_flag=1\n")
        assert run(["train", "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out-dir", str(tmp_path), "--config", str(cfg)]) == 1
        assert "no_such_flag" in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["flag", "env", "config"])
    def test_negative_seed_is_config_error(self, tiny_set, tmp_path, monkeypatch, capsys, how):
        # A seed is an unsigned 64-bit key: one below 0 or from 2**64 up is
        # refused before training and before --out-dir exists.
        out = tmp_path / "out"
        for seed in ("-1", str(2**64)):
            argv = ["train", "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out-dir", str(out), "--hidden", "8", "--epochs", "1"]
            if how == "flag":
                argv += ["--seed", seed]
            elif how == "env":
                monkeypatch.setenv("HAR_SEED", seed)
            else:
                (tmp_path / "run.cfg").write_text(f"seed={seed}\n")
                argv += ["--config", str(tmp_path / "run.cfg")]
            assert run(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "seed" in err and seed in err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "eval", "gradcheck", "ablate-eval-seed"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_refused(self, tiny_set, tmp_path, capsys, monkeypatch,
                                             command, seed):
        # No seed wraps onto another: each command refuses it before it
        # trains, draws or writes anything.
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: trained.append(args))
        out = tmp_path / "out"
        data = ["--manifest", str(tiny_set / "manifest.csv")]
        argv = {
            "synth": ["synth", "--out", str(out), "--seed", str(seed)],
            "eval": ["eval", "--features", str(tmp_path / "none.feat"), *data,
                     "--protocol", "vehicleid", "--out", str(out), "--seed", str(seed)],
            "gradcheck": ["gradcheck", "--seed", str(seed)],
            "ablate-eval-seed": ["ablate", *data, "--descriptors",
                                 str(tiny_set / "descriptors.desc"), "--out-dir", str(out),
                                 "--hidden", "8", "--epochs", "1", "--seeds", "0",
                                 "--eval-seed", str(seed)],
        }[command]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: seed must be {'>= 0' if seed < 0 else '< 2**64'}, " \
                               f"got {seed}\n"
        assert captured.out == "" and trained == [] and not out.exists()

    def test_negative_epochs_is_config_error(self, tiny_set, tmp_path, capsys):
        assert run(["train", "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out-dir", str(tmp_path), "--hidden", "8", "--epochs", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "epochs" in err
        assert not (tmp_path / "checkpoint.ckpt").exists()

    def test_non_finite_item_is_named(self, tiny_set, tmp_path, capsys):
        split = load_manifest(tiny_set / "manifest.csv")
        maps = formats.read_tensor_file(tiny_set / "descriptors.desc")
        maps[int(split.train[3].source)][0, 0, 0] = np.nan
        formats.write_tensor_file(tmp_path / "nan.desc", maps)
        assert run(["train", "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tmp_path / "nan.desc"),
                    "--out-dir", str(tmp_path), "--hidden", "8", "--epochs", "1",
                    "--batch-size", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: epoch 0, batch ") and err.count("\n") == 1
        assert err.rstrip().endswith("item 3")

    def test_config_value_of_wrong_type(self, tiny_set, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("hidden=8\nepochs=abc\n")
        assert run(["train", "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out-dir", str(tmp_path), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:2: ") and err.count("\n") == 1
        assert "'epochs'" in err

    def test_conv_backbone_on_images(self, tmp_path):
        # The test images come in two sizes: extraction stacks each run of one
        # size and writes the bytes of a one-image-at-a-time loop.
        rng = np.random.default_rng(0)
        lines = ["split,source,vehicle_id,model_id"]
        for v in range(2):
            for i in range(2):
                name = f"img_{v}_{i}.pgm"
                formats.write_pgm(tmp_path / name,
                                  rng.integers(0, 256, size=(8, 8)).astype(np.uint8))
                lines.append(f"train,{name},v{v},m0")
                lines.append(f"test,{name.replace('.pgm', '_t.pgm')},tv{v},m0")
                size = 10 if (v, i) == (1, 0) else 8
                formats.write_pgm(tmp_path / name.replace(".pgm", "_t.pgm"),
                                  rng.integers(0, 256, size=(size, size)).astype(np.uint8))
        (tmp_path / "manifest.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert run(["train", "--manifest", str(tmp_path / "manifest.csv"),
                    "--image-root", str(tmp_path), "--conv-layers", "2",
                    "--conv-channels", "4", "--out-dir", str(out), "--hidden", "6",
                    "--epochs", "1", "--batch-size", "4"]) == 0
        feat = tmp_path / "feats.feat"
        assert run(["extract", "--checkpoint", str(out / "checkpoint.ckpt"),
                    "--manifest", str(tmp_path / "manifest.csv"),
                    "--image-root", str(tmp_path), "--out", str(feat)]) == 0
        assert formats.load_features(feat).shape == (4, 6)
        formats.write_features(tmp_path / "loop.feat", per_image_features(
            out / "checkpoint.ckpt", load_manifest(tmp_path / "manifest.csv").test,
            image_root=tmp_path))
        assert feat.read_bytes() == (tmp_path / "loop.feat").read_bytes()

    def test_conv_backbone_reads_channels_from_colour_images(self, tmp_path):
        rng = np.random.default_rng(1)
        lines = ["split,source,vehicle_id,model_id"]
        for i, split in enumerate(["train", "train", "test", "test"]):
            pixels = rng.integers(0, 256, size=8 * 8 * 3).astype(np.uint8).tobytes()
            (tmp_path / f"{i}.ppm").write_bytes(b"P6\n8 8\n255\n" + pixels)
            lines.append(f"{split},{i}.ppm,{split[:2]}{i},m0")
        (tmp_path / "manifest.csv").write_text("\n".join(lines) + "\n")
        common = ["--manifest", str(tmp_path / "manifest.csv"), "--image-root", str(tmp_path)]
        out = tmp_path / "run"
        assert run(["train", *common, "--conv-layers", "2", "--conv-channels", "4",
                    "--out-dir", str(out), "--hidden", "6", "--epochs", "1",
                    "--batch-size", "2"]) == 0
        assert load_checkpoint(out / "checkpoint.ckpt").config.to_text().endswith(
            "\nconv=2,2,4,3,1,1\n")
        assert run(["extract", "--checkpoint", str(out / "checkpoint.ckpt"), *common,
                    "--out", str(tmp_path / "f.feat")]) == 0
        assert formats.load_features(tmp_path / "f.feat").shape == (2, 6)

    @staticmethod
    def train_conv_error(tmp_path, capsys, bad_image: bytes | None = None,
                         flags=(), first_image: bytes | None = None) -> str:
        """`train` on images that fails on one bad training image (after
        ``first_image``, or an 8x8 PGM) or on ``flags``; its one error line.
        No checkpoint is written."""
        if first_image is None:
            formats.write_pgm(tmp_path / "good.pgm", np.zeros((8, 8), dtype=np.uint8))
        else:
            (tmp_path / "good.pgm").write_bytes(first_image)
        second = "good.pgm"
        if bad_image is not None:
            (tmp_path / "bad.pgm").write_bytes(bad_image)
            second = "bad.pgm"
        (tmp_path / "manifest.csv").write_text(
            "split,source,vehicle_id,model_id\ntrain,good.pgm,v0,m0\n"
            f"train,{second},v1,m0\ntest,good.pgm,t0,m0\n")
        assert run(["train", "--manifest", str(tmp_path / "manifest.csv"),
                    "--image-root", str(tmp_path), "--conv-layers", "2", "--conv-channels", "4",
                    *flags, "--out-dir", str(tmp_path / "run"), "--hidden", "6",
                    "--epochs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "run" / "checkpoint.ckpt").exists()
        return err

    def test_non_numeric_image_header_is_format_error(self, tmp_path, capsys):
        assert "x8" in self.train_conv_error(tmp_path, capsys,
                                             b"P2\n8 x8\n255\n" + b"0 " * 64)

    def test_image_sample_above_maxval_is_format_error(self, tmp_path, capsys):
        err = self.train_conv_error(tmp_path, capsys, b"P5\n8 8\n10\n" + bytes([200] * 64))
        assert "above maxval 10" in err

    @pytest.mark.parametrize("flag, value, name", [
        ("--conv-kernel", "0", "kernel"), ("--conv-kernel", "-1", "kernel"),
        ("--conv-layers", "0", "layers"), ("--conv-channels", "0", "channels")])
    def test_conv_setting_below_one_is_config_error(self, tmp_path, capsys, flag, value, name):
        err = self.train_conv_error(tmp_path, capsys, flags=(flag, value))
        assert f"conv stack {name} must be at least 1, got {value}" in err

    @pytest.mark.parametrize("first, second, shapes", [
        (None, b"P5\n8 6\n255\n" + bytes(48), "(6, 8, 1), sample 0 has (8, 8, 1)"),
        (b"P6\n8 8\n255\n" + bytes(192), b"P5\n8 8\n255\n" + bytes(64),
         "(8, 8, 1), sample 0 has (8, 8, 3)"),
    ], ids=["two sizes", "P5 after P6"])
    def test_training_images_of_two_shapes_are_shape_error(self, tmp_path, capsys, first,
                                                           second, shapes):
        err = self.train_conv_error(tmp_path, capsys, second, first_image=first)
        assert f"training sample 1 (bad.pgm) has input shape {shapes}" in err


@pytest.mark.parametrize("case", ["samples", "no samples", "seeds", "no seeds", "manifest",
                                  "empty manifest", "short row", "empty split", "config",
                                  "removed train key", "removed gradcheck key",
                                  "removed lr key", "removed synth key",
                                  "removed backbone key"])
def test_bad_input_is_one_error_line(tiny_set, tiny_run, tmp_path, capsys, case):
    manifest, desc = str(tiny_set / "manifest.csv"), str(tiny_set / "descriptors.desc")
    if case in ("samples", "no samples"):
        samples = "0,x" if case == "samples" else ","
        argv = ["attmap", "--checkpoint", str(tiny_run / "checkpoint.ckpt"),
                "--manifest", manifest, "--descriptors", desc, "--samples", samples,
                "--out-dir", str(tmp_path)]
        names = ("--samples", repr(samples))
    elif case in ("seeds", "no seeds"):
        seeds = "0,y" if case == "seeds" else ""
        argv = ["ablate", "--manifest", manifest, "--descriptors", desc,
                "--out-dir", str(tmp_path), "--seeds", seeds]
        names = ("--seeds", repr(seeds))
    elif case.startswith("removed"):
        # Keys of flags that are gone: the attention width, the gradient
        # check's pass bound, the learning rates and the sticker settings
        # are constants, and train's inputs choose the backbone.
        command, key, value = {"removed train key": ("train", "attn_hidden", 8),
                               "removed gradcheck key": ("gradcheck", "tol", 1),
                               "removed lr key": ("train", "lr", 0.01),
                               "removed synth key": ("synth", "signature-cone", 0.5),
                               "removed backbone key": ("train", "backbone", "conv")}[case]
        cfg = tmp_path / "removed.cfg"
        cfg.write_text(f"{key}={value}\n")
        argv = [command, "--config", str(cfg)]
        if command == "train":
            argv += ["--manifest", manifest, "--descriptors", desc, "--out-dir", str(tmp_path)]
        elif command == "synth":
            argv += ["--out", str(tmp_path)]
        names = (f"unknown option {key.replace('-', '_')!r} for command {command}",)
    elif case == "manifest":
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes((tiny_set / "manifest.csv").read_bytes().replace(b"m0", b"m\xe9"))
        argv = ["train", "--manifest", str(latin1), "--descriptors", desc,
                "--out-dir", str(tmp_path)]
        names = (str(latin1), "UTF-8")
    elif case in ("empty manifest", "short row"):
        bad = tmp_path / "bad.csv"
        bad.write_text("" if case == "empty manifest"
                       else "split,source,vehicle_id,model_id\ntrain,0,v0\n")
        argv = ["train", "--manifest", str(bad), "--descriptors", desc,
                "--out-dir", str(tmp_path / "run")]
        names = (f"{bad}: empty manifest" if case == "empty manifest"
                 else f"{bad}:2: expected 4-6 fields, got 3",)
    elif case == "empty split":
        lines = (tiny_set / "manifest.csv").read_text().splitlines(keepends=True)
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(line for line in lines if not line.startswith("train,")))
        argv = ["extract", "--checkpoint", str(tiny_run / "checkpoint.ckpt"), "--manifest",
                str(bad), "--descriptors", desc, "--split", "train",
                "--out", str(tmp_path / "train.feat")]
        names = ("split 'train' is empty",)
    else:
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# caf\xe9\nhidden=8\n")
        argv = ["train", "--manifest", manifest, "--descriptors", desc,
                "--out-dir", str(tmp_path), "--config", str(cfg)]
        names = (str(cfg), "UTF-8")
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(name in err for name in names), err
    inputs = {"removed.cfg", "latin1.csv", "latin1.cfg", "bad.csv"}
    assert {p.name for p in tmp_path.iterdir()} <= inputs


def test_index_error_inside_a_command_propagates(tmp_path, monkeypatch):
    # A bug is a traceback, not an error: line.
    def broken(args):
        return [][0]

    monkeypatch.setattr(cli, "cmd_synth", broken)
    with pytest.raises(IndexError):
        run(["synth", "--out", str(tmp_path)])


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_descriptors_from_a_pipe_are_one_error_line(tiny_set, tiny_run, tmp_path, capsys):
    # The readers check the claimed size against the file's, so they need a
    # regular file, as the checkpoint reader does; the error line names the pipe.
    raw = (tiny_set / "descriptors.desc").read_bytes()
    read_end, write_end = os.pipe()
    try:
        os.set_blocking(write_end, False)  # a file too large for the pipe fails, not hangs
        assert os.write(write_end, raw) == len(raw)
        os.close(write_end)
        assert run(["extract", "--checkpoint", str(tiny_run / "checkpoint.ckpt"),
                    "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", f"/dev/fd/{read_end}",
                    "--out", str(tmp_path / "out.feat")]) == 1
    finally:
        os.close(read_end)
    err = capsys.readouterr().err
    assert err == f"error: /dev/fd/{read_end}: not a regular file; pass a file, not a pipe\n"
    assert not (tmp_path / "out.feat").exists()


def required_flags_file(command, tiny_set, tiny_run, tmp_path):
    """A config file giving every required flag of ``command`` (and the
    descriptors it reads), and the file its run writes."""
    manifest, desc = tiny_set / "manifest.csv", tiny_set / "descriptors.desc"
    features = tmp_path / "test.feat"
    if command == "eval":
        assert run(["extract", "--checkpoint", str(tiny_run / "checkpoint.ckpt"),
                    "--manifest", str(manifest), "--descriptors", str(desc),
                    "--out", str(features)]) == 0
    lines, written = {
        "train": ([f"manifest={manifest}", f"descriptors={desc}",
                   f"out_dir={tmp_path / 'run'}", "epochs=1", "hidden=8"],
                  tmp_path / "run" / "checkpoint.ckpt"),
        "extract": ([f"checkpoint={tiny_run / 'checkpoint.ckpt'}", f"manifest={manifest}",
                     f"descriptors={desc}", f"out={tmp_path / 'out.feat'}"],
                    tmp_path / "out.feat"),
        "eval": ([f"features={features}", f"manifest={manifest}", "protocol=veri",
                  f"out={tmp_path / 'report.json'}"], tmp_path / "report.json"),
    }[command]
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    return cfg, written


@pytest.mark.parametrize("command", ["train", "extract", "eval"])
def test_config_file_supplies_required_flags(tiny_set, tiny_run, tmp_path, command):
    cfg, written = required_flags_file(command, tiny_set, tiny_run, tmp_path)
    assert run([command, "--config", str(cfg)]) == 0
    # The same run with every flag on the command line writes the same bytes.
    argv, out = [command], tmp_path / "flags"
    for line in cfg.read_text().splitlines():
        key, value = line.split("=", 1)
        argv += [f"--{key.replace('_', '-')}", str(out) if key in ("out", "out_dir") else value]
    assert run(argv) == 0
    assert written.read_bytes() == (out / written.name if command == "train" else out).read_bytes()


@pytest.mark.parametrize("command, flag", [("train", "out_dir"), ("extract", "checkpoint"),
                                           ("eval", "protocol")])
def test_required_flag_missing_from_file_and_command_line(tiny_set, tiny_run, tmp_path, capsys,
                                                          command, flag):
    cfg, written = required_flags_file(command, tiny_set, tiny_run, tmp_path)
    lines = cfg.read_text().splitlines()
    cfg.write_text("".join(f"{line}\n" for line in lines if not line.startswith(f"{flag}=")))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([command, "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: hareid {command} ")
    assert err.endswith(f"error: the following arguments are required: "
                        f"--{flag.replace('_', '-')}\n")
    assert not written.exists()


@pytest.mark.parametrize("command", ["train", "extract", "eval"])
def test_command_line_required_flag_wins_over_the_file(tiny_set, tiny_run, tmp_path, command):
    cfg, written = required_flags_file(command, tiny_set, tiny_run, tmp_path)
    flag = "--out-dir" if command == "train" else "--out"
    assert run([command, "--config", str(cfg), flag, str(tmp_path / "cli")]) == 0
    assert (tmp_path / "cli").exists() and not written.exists()


@pytest.mark.parametrize("command, key, value", [
    ("train", "variant", "rnn"), ("extract", "split", "bogus"), ("eval", "split", "bogus"),
    ("attmap", "split", "bogus"), ("eval", "track_agg", "median"),
])
def test_config_value_outside_the_flags_choices_is_refused(tiny_set, tiny_run, tmp_path,
                                                           capsys, monkeypatch, command, key,
                                                           value):
    # argparse checks choices only on the command line; a config file's value
    # meets the same choices, and the error names the file and line.
    manifest, desc = str(tiny_set / "manifest.csv"), str(tiny_set / "descriptors.desc")
    ckpt = str(tiny_run / "checkpoint.ckpt")
    features = tmp_path / "test.feat"
    assert run(["extract", "--checkpoint", ckpt, "--manifest", manifest,
                "--descriptors", desc, "--out", str(features)]) == 0
    trained = []
    monkeypatch.setattr(cli, "train", lambda *a, **k: trained.append(a))
    cfg = tmp_path / "choice.cfg"
    cfg.write_text(f"# {key} from a file\n{key}={value}\n")
    out = tmp_path / "out"
    argv = {"train": ["--descriptors", desc, "--out-dir", str(out)],
            "extract": ["--checkpoint", ckpt, "--descriptors", desc, "--out", str(out)],
            "eval": ["--features", str(features), "--protocol", "veri", "--out", str(out)],
            "attmap": ["--checkpoint", ckpt, "--descriptors", desc, "--samples", "0",
                       "--out-dir", str(out)]}[command]
    capsys.readouterr()
    assert run([command, "--manifest", manifest, "--config", str(cfg), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {cfg}:2: bad value for {key!r}: {value!r} "
                                   f"is not one of ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists() and trained == []


@pytest.mark.parametrize("command, lines, first, again", [
    ("train", ["hidden=8", "# H", "hidden=9"], 1, 3),
    ("train", ["out-dir={out}", "out_dir={out}2"], 1, 2),
    ("eval", ["split=test", "repeats=2", "split=train"], 1, 3),
], ids=["train", "train dash and underscore", "eval"])
def test_config_key_set_twice_is_refused(tiny_set, tiny_run, tmp_path, capsys, command, lines,
                                         first, again):
    # The last value used to win without a word; "-" and "_" spell one key.
    manifest, desc = str(tiny_set / "manifest.csv"), str(tiny_set / "descriptors.desc")
    out = tmp_path / "out"
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("".join(line.format(out=out) + "\n" for line in lines))
    if command == "train":
        argv = ["--descriptors", desc, "--epochs", "0"]
        argv += [] if "out" in lines[0] else ["--out-dir", str(out)]
    else:
        features = tmp_path / "test.feat"
        assert run(["extract", "--checkpoint", str(tiny_run / "checkpoint.ckpt"),
                    "--manifest", manifest, "--descriptors", desc, "--out", str(features)]) == 0
        argv = ["--features", str(features), "--protocol", "veri", "--out", str(out)]
    capsys.readouterr()
    assert run([command, "--manifest", manifest, "--config", str(cfg), *argv]) == 1
    key = lines[first - 1].partition("=")[0].replace("-", "_")
    assert capsys.readouterr() == ("", f"error: {cfg}:{again}: {key!r} is set twice, "
                                       f"first on line {first}\n")
    assert not out.exists() and not Path(f"{out}2").exists()


@pytest.mark.parametrize("line", ["help=yes", "config=nonexistent.cfg"])
def test_config_file_cannot_set_help_or_config(tmp_path, capsys, line):
    # Both are dests of every command's parser, and used to be accepted and
    # ignored; the nested file is never read.
    cfg = tmp_path / "odd.cfg"
    cfg.write_text(f"seed=1\n{line}\n")
    capsys.readouterr()
    assert run(["gradcheck", "--config", str(cfg)]) == 1
    key = line.partition("=")[0]
    assert capsys.readouterr() == ("", f"error: {cfg}:2: unknown option {key!r} "
                                       f"for command gradcheck\n")


@pytest.mark.parametrize("argv", [
    ["synth", "--images", str(2**45)],
    ["train", "--hidden", str(2**50)],
    ["train", "--hidden", str(2**62)],
], ids=["synth images 2**45", "train hidden 2**50", "train hidden 2**62"])
def test_setting_too_large_to_allocate_is_one_error_line(tiny_set, tmp_path, capsys, argv):
    # Each setting's first array needs at least 2**48 bytes, past a 47-bit
    # address space, so no allocator can grant it.
    out = tmp_path / "out"
    if argv[0] == "synth":
        argv = [*argv, "--out", str(out)]
    else:
        argv = [*argv, "--manifest", str(tiny_set / "manifest.csv"),
                "--descriptors", str(tiny_set / "descriptors.desc"), "--out-dir", str(out)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["extract", "ablate", "attmap"])
def test_non_finite_test_sample_is_named(tiny_set, tiny_run, tmp_path, capsys, monkeypatch,
                                         command):
    # A NaN in one test descriptor makes that sample's feature and attention
    # map NaN; the error names the sample, not a row of its stack: sample 4
    # is row 1 of the second stack of three.
    monkeypatch.setattr(cli, "EXTRACT_STACK", 3)
    split = load_manifest(tiny_set / "manifest.csv")
    maps = formats.read_tensor_file(tiny_set / "descriptors.desc")
    maps[int(split.test[4].source)][0, 0, 0] = np.nan
    formats.write_tensor_file(tmp_path / "nan.desc", maps)
    common = ["--manifest", str(tiny_set / "manifest.csv"),
              "--descriptors", str(tmp_path / "nan.desc")]
    ckpt = ["--checkpoint", str(tiny_run / "checkpoint.ckpt")]
    argv = {"extract": ["extract", *ckpt, *common, "--out", str(tmp_path / "f.feat")],
            "ablate": ["ablate", *common, "--out-dir", str(tmp_path), "--hidden", "8",
                       "--epochs", "1", "--batch-size", "8", "--seeds", "0",
                       "--repeats", "2"],
            "attmap": ["attmap", *ckpt, *common, "--samples", "4",
                       "--out-dir", str(tmp_path)]}[command]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    what = "attention map" if command == "attmap" else "feature"
    assert f"sample 4 ({split.test[4].source}) has a non-finite {what}" in captured.err
    assert "argmax" not in captured.out
    assert not list(tmp_path.glob("attmap_4.*")) and not (tmp_path / "f.feat").exists()
    assert not (tmp_path / "ablation.json").exists()


@pytest.mark.parametrize("command", ["extract", "train", "attmap"])
def test_descriptor_index_past_the_file_is_named(tiny_set, tiny_run, tmp_path, capsys,
                                                 command):
    split = load_manifest(tiny_set / "manifest.csv")
    samples = split.train if command == "train" else split.test
    samples[1] = dataclasses.replace(samples[1], source="99999")
    write_manifest(tmp_path / "bad.csv", split)
    rows = len(formats.read_tensor_file(tiny_set / "descriptors.desc"))
    common = ["--manifest", str(tmp_path / "bad.csv"),
              "--descriptors", str(tiny_set / "descriptors.desc")]
    ckpt = ["--checkpoint", str(tiny_run / "checkpoint.ckpt")]
    out = tmp_path / "out"
    argv = {"extract": ["extract", *ckpt, *common, "--out", str(out)],
            "train": ["train", *common, "--out-dir", str(out), "--hidden", "8",
                      "--epochs", "1"],
            "attmap": ["attmap", *ckpt, *common, "--samples", "0,1", "--out-dir", str(out)]}
    assert run(argv[command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (f"sample {samples[1].vehicle_id} references descriptor 99999 but the "
            f"descriptor file has {rows} rows") in err
    # Nothing is written, not even the attention map of the good sample 0.
    assert not out.exists()


@pytest.mark.parametrize("source", ["\u00b2", "\u0663"])
def test_non_ascii_digits_are_not_a_descriptor_index(tiny_set, tmp_path, capsys, source):
    # str.isdigit() holds for a superscript two and for an Arabic-Indic three;
    # only ASCII digits index the descriptor file, so either is an image path.
    lines = (tiny_set / "manifest.csv").read_text(encoding="utf-8").splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("train,"))
    fields = lines[row].split(",")
    fields[1] = source
    lines[row] = ",".join(fields)
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["train", "--manifest", str(tmp_path / "bad.csv"),
                "--descriptors", str(tiny_set / "descriptors.desc"),
                "--out-dir", str(out), "--hidden", "8", "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert source in err
    assert not out.exists()


class TestExtract:
    def test_stacks_write_the_per_image_bytes(self, tiny_set, tiny_run, tmp_path,
                                              monkeypatch):
        # 24 test samples in stacks of five: four full stacks and a short one.
        monkeypatch.setattr(cli, "EXTRACT_STACK", 5)
        out = tmp_path / "stacked.feat"
        assert run(["extract", "--checkpoint", str(tiny_run / "checkpoint.ckpt"),
                    "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out", str(out)]) == 0
        split = load_manifest(tiny_set / "manifest.csv")
        assert len(split.test) == 24
        maps = formats.read_tensor_file(tiny_set / "descriptors.desc")
        formats.write_features(tmp_path / "loop.feat", per_image_features(
            tiny_run / "checkpoint.ckpt", split.test, maps))
        assert out.read_bytes() == (tmp_path / "loop.feat").read_bytes()

    def test_earlier_non_finite_sample_is_named_before_a_later_bad_index(
            self, tiny_set, tiny_run, tmp_path, capsys):
        # Sample 10's index fails to load while sample 4 waits in the stack;
        # the error is sample 4's, as in manifest order.
        split = load_manifest(tiny_set / "manifest.csv")
        maps = formats.read_tensor_file(tiny_set / "descriptors.desc")
        maps[int(split.test[4].source)][0, 0, 0] = np.nan
        formats.write_tensor_file(tmp_path / "nan.desc", maps)
        split.test[10] = dataclasses.replace(split.test[10], source="99999")
        write_manifest(tmp_path / "bad.csv", split)
        assert run(["extract", "--checkpoint", str(tiny_run / "checkpoint.ckpt"),
                    "--manifest", str(tmp_path / "bad.csv"),
                    "--descriptors", str(tmp_path / "nan.desc"),
                    "--out", str(tmp_path / "f.feat")]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: sample 4 ({split.test[4].source}) has a non-finite "
                       f"feature\n")
        assert not (tmp_path / "f.feat").exists()

    def test_feature_file_header_and_norms(self, tiny_set, tiny_run, tmp_path):
        out = tmp_path / "f.feat"
        assert run(["extract", "--checkpoint", str(tiny_run / "checkpoint.ckpt"),
                    "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert raw[:6] == b"FEAT1\n"
        n, h, w, d = struct.unpack("<4I", raw[6:22])
        split = load_manifest(tiny_set / "manifest.csv")
        assert (n, h, w, d) == (len(split.test), 1, 1, 8)
        feats = formats.load_features(out)
        np.testing.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-6)

    def test_deterministic_across_runs(self, tiny_set, tiny_run, tmp_path):
        outs = []
        for name in ("a.feat", "b.feat"):
            out = tmp_path / name
            assert run(["extract", "--checkpoint", str(tiny_run / "checkpoint.ckpt"),
                        "--manifest", str(tiny_set / "manifest.csv"),
                        "--descriptors", str(tiny_set / "descriptors.desc"),
                        "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_checkpoint_config_missing_key(self, tiny_set, tiny_run, tmp_path, capsys):
        ckpt = tmp_path / "no_seed.ckpt"
        ckpt.write_bytes(with_config((tiny_run / "checkpoint.ckpt").read_bytes(),
                                     b"\nseed=1\n", b"\n"))
        assert run(["extract", "--checkpoint", str(ckpt),
                    "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out", str(tmp_path / "f.feat")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'seed'" in err


    def test_checkpoint_conv_stride_zero_is_format_error(self, tmp_path, capsys):
        raw, common = conv_checkpoint(tmp_path)
        assert raw.count(b"\nconv=2,2,4,1,1,1\n") == 1
        ckpt = tmp_path / "stride0.ckpt"
        ckpt.write_bytes(raw.replace(b"\nconv=2,2,4,1,1,1\n", b"\nconv=2,2,4,1,0,1\n"))
        assert run(["extract", "--checkpoint", str(ckpt), *common,
                    "--out", str(tmp_path / "f.feat")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'conv'" in err

    @pytest.mark.parametrize("old, new, names", [
        # A checkpoint written with another attention width; the patch keeps
        # the config block's length.
        (b"\nattn_hidden=0\n", b"\nattn_hidden=5\n", "'attn_hidden' must be 0, got '5'"),
        (b"\nepsilon=0.1\n", b"\nepsilon=0.25\n", "'epsilon' must be 0.1, got '0.25'"),
        (b"\ninput_gain=8.0\n", b"\ninput_gain=1.0\n", "'input_gain' must be 8.0, got '1.0'"),
        (b"\nconv=2,2,4,1,1,1\n", b"\nconv=2,2,4,1,2,1\n", "'conv' has bad value '2,2,4,1,2,1'"),
        (b"\nconv=2,2,4,1,1,1\n", b"\nconv=2,2,4,1,1,0\n", "'conv' has bad value '2,2,4,1,1,0'"),
        (struct.pack("<dd", ALPHA, DELTA), struct.pack("<dd", 0.9, DELTA),
         "optimizer alpha, delta are 0.9, 1e-08"),
        (struct.pack("<dd", ALPHA, DELTA), struct.pack("<dd", ALPHA, 1e-7),
         "optimizer alpha, delta are 0.99, 1e-07"),
        (struct.pack("<dd", ALPHA, DELTA), struct.pack("<dd", np.nan, DELTA),
         "optimizer alpha, delta are nan, 1e-08"),
    ], ids=["attn_hidden", "epsilon", "input_gain", "stride", "pool", "alpha", "delta", "alpha nan"])
    def test_checkpoint_constant_of_another_value_is_refused(self, tmp_path, capsys, old, new,
                                                             names):
        raw, common = conv_checkpoint(tmp_path)
        if old.startswith(b"\n"):
            raw = with_config(raw, old, new)
        else:
            assert raw.count(old) == 1
            raw = raw.replace(old, new)
        ckpt = tmp_path / "patched.ckpt"
        ckpt.write_bytes(raw)
        assert run(["extract", "--checkpoint", str(ckpt), *common,
                    "--out", str(tmp_path / "f.feat")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert names in err
        assert not (tmp_path / "f.feat").exists()

    @pytest.mark.parametrize("corrupt, named", [
        ("config_byte", "UTF-8"),
        ("tensor_rank", "truncated"),
        ("tensor_name", "parameter names disagree with checkpoint "
                        "(missing ['attn.w1'], unexpected ['attn.w9'])"),
    ], ids=["config_byte", "tensor_rank", "tensor_name"])
    def test_corrupt_checkpoint_is_format_error(self, tiny_set, tiny_run, tmp_path, capsys,
                                                corrupt, named):
        raw = bytearray((tiny_run / "checkpoint.ckpt").read_bytes())
        at = len(MAGIC) + 4
        (length,) = struct.unpack_from("<I", raw, at)
        config_end = at + 4 + length
        if corrupt == "config_byte":
            raw[config_end - 2] = 0xFF  # not UTF-8
        elif corrupt == "tensor_name":  # renamed in the parameter and optimizer records
            assert raw.count(b"attn.w1") == 2
            raw = raw.replace(b"attn.w1", b"attn.w9")
        else:
            # The first tensor record follows seed, epoch and the tensor count.
            name_at = config_end + 12 + 4
            (name_len,) = struct.unpack_from("<I", raw, name_at)
            struct.pack_into("<I", raw, name_at + 4 + name_len, 0x7FFFFFFF)
        ckpt = tmp_path / "corrupt.ckpt"
        ckpt.write_bytes(bytes(raw))
        assert run(["extract", "--checkpoint", str(ckpt),
                    "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out", str(tmp_path / "f.feat")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err


class TestEval:
    def _write_perfect_features(self, tiny_set, path):
        split = load_manifest(tiny_set / "manifest.csv")
        vehicles = sorted({s.vehicle_id for s in split.test})
        feats = np.zeros((len(split.test), len(vehicles)))
        for i, s in enumerate(split.test):
            feats[i, vehicles.index(s.vehicle_id)] = 1.0
        formats.write_features(path, feats)
        return split

    def test_perfect_features_score_one(self, tiny_set, tmp_path, capsys):
        feat = tmp_path / "perfect.feat"
        self._write_perfect_features(tiny_set, feat)
        assert run(["eval", "--features", str(feat),
                    "--manifest", str(tiny_set / "manifest.csv"),
                    "--protocol", "vehicleid", "--repeats", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["map"] == 1.0
        assert report["cmc"]["1"] == 1.0

    def test_veri_protocol_runs_and_writes_report(self, tiny_set, tmp_path, capsys):
        feat = tmp_path / "perfect.feat"
        self._write_perfect_features(tiny_set, feat)
        out = tmp_path / "report.json"
        assert run(["eval", "--features", str(feat),
                    "--manifest", str(tiny_set / "manifest.csv"),
                    "--protocol", "veri", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["protocol"] == "veri"
        assert report["map"] == 1.0

    def test_fixture_matches_brute_force(self, tmp_path, capsys):
        # 3 queries, 4 gallery items, hand-planted features.
        lines = ["split,source,vehicle_id,model_id"]
        rng = np.random.default_rng(8)
        labels = ["a", "a", "b", "c", "b", "a", "c"]
        for i, vehicle in enumerate(labels):
            lines.append(f"test,{i},{vehicle},m0")
        (tmp_path / "manifest.csv").write_text("\n".join(lines) + "\n")
        feats = rng.normal(size=(7, 3))
        formats.write_features(tmp_path / "f.feat", feats)
        assert run(["eval", "--features", str(tmp_path / "f.feat"),
                    "--manifest", str(tmp_path / "manifest.csv"),
                    "--protocol", "vehicleid", "--gallery-size", "3",
                    "--repeats", "2", "--seed", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        for repeat in report["repeats"]:
            gallery = repeat["gallery"]
            queries = [i for i in range(7)
                       if i not in gallery and labels[i] in {labels[g] for g in gallery}]
            bf_map, bf_cmc, _ = bf_metrics(feats[queries], [labels[q] for q in queries],
                                           feats[gallery], [labels[g] for g in gallery])
            assert repeat["map"] == bf_map
            assert repeat["cmc"]["1"] == bf_cmc[1]

    def test_unknown_protocol_is_usage_error(self, tiny_set, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--features", "x", "--manifest", "y", "--protocol", "market"])
        assert exc.value.code != 0

    @pytest.mark.parametrize("protocol", ["veri", "vehicleid"])
    def test_non_finite_feature_row_is_named(self, tiny_set, tmp_path, capsys, protocol):
        split = load_manifest(tiny_set / "manifest.csv")
        feats = np.ones((len(split.test), 4))
        feats[3, 1] = np.nan
        formats.write_features(tmp_path / "f.feat", feats)
        assert run(["eval", "--features", str(tmp_path / "f.feat"),
                    "--manifest", str(tiny_set / "manifest.csv"),
                    "--protocol", protocol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "row 3 " in captured.err

    def test_feature_count_mismatch(self, tiny_set, tmp_path, capsys):
        formats.write_features(tmp_path / "f.feat", np.ones((3, 4)))
        assert run(["eval", "--features", str(tmp_path / "f.feat"),
                    "--manifest", str(tiny_set / "manifest.csv"),
                    "--protocol", "vehicleid"]) == 1
        assert "features" in capsys.readouterr().err

    def test_report_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """A VeRi-sized gallery, 11,579 images at dim 64, whose one product per
        query OpenBLAS would split across its threads. Its 48 distinct feature
        rows, shared across vehicles, tie exactly, so a similarity that moved
        by an ulp with the thread count would reorder the ranking."""
        rng = np.random.default_rng(0)
        vehicles = rng.integers(200, size=11579)
        tracks = vehicles * 4 + rng.integers(4, size=len(vehicles))
        looks = (vehicles + 7 * rng.integers(3, size=len(vehicles))) % 48
        rows = rng.normal(size=(48, 64))[looks]
        formats.write_features(tmp_path / "test.feat", rows)
        write_manifest(tmp_path / "manifest.csv", DatasetSplit(train=[], test=[
            LabeledSample(source=str(i), vehicle_id=f"v{v}", model_id=f"m{v % 10}",
                          camera_id=f"c{t % 5}", track_id=f"t{t}")
            for i, (v, t) in enumerate(zip(vehicles, tracks))]))
        path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        for protocol, extra in (("veri", []), ("vehicleid", ["--repeats", "2"])):
            reports = []
            for threads in ("1", "2"):
                out = tmp_path / f"{protocol}_{threads}.json"
                env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                       "PYTHONPATH": os.pathsep.join(filter(None, path))}
                proc = subprocess.run(
                    [sys.executable, "-m", "hareid.cli", "eval",
                     "--features", str(tmp_path / "test.feat"),
                     "--manifest", str(tmp_path / "manifest.csv"),
                     "--protocol", protocol, "--out", str(out), *extra],
                    env=env, capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, proc.stderr
                reports.append(out.read_bytes())
            assert reports[0] == reports[1], protocol


class TestGradcheck:
    def test_default_config_passes(self, capsys):
        assert run(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "all groups passed" in out

    def test_reports_each_group_once_per_variant(self, capsys):
        assert run(["gradcheck"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "PASS" in l]
        for variant in ("rnn_ha", "fc_ha", "rnn_h_no_attention"):
            names = [l.split()[1] for l in lines if l.startswith(variant + " ")]
            assert len(names) == len(set(names)) > 0

    def test_injected_wrong_backward_fails(self, capsys, monkeypatch):
        scale_sigmoid_backward(monkeypatch, 1.5)
        assert run(["gradcheck"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestAttmap:
    def test_uniform_attention_renders_flat(self, tiny_set, tmp_path, capsys):
        # Zero attention parameters give w = 0: every score is ln 2 and the
        # normalized map is exactly uniform.
        split = load_manifest(tiny_set / "manifest.csv")
        config = ModelConfig(num_models=split.num_models, num_vehicles=split.num_vehicles,
                             d=6, hidden=8, seed=0)
        model = Model(config)
        for name, t in model.params().items():
            if name.startswith("attn"):
                t.data[:] = 0.0
        ckpt_path = tmp_path / "zero_attn.ckpt"
        save_checkpoint(ckpt_path, config, model.params(), None, epoch=0, seed=0)
        out = tmp_path / "maps"
        assert run(["attmap", "--checkpoint", str(ckpt_path),
                    "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--samples", "0,3", "--out-dir", str(out)]) == 0
        img = formats.read_image(out / "attmap_0.pgm")
        assert img.shape == (3, 3, 1)
        np.testing.assert_array_equal(img, np.full((3, 3, 1), 1.0))
        rows = (out / "attmap_0.csv").read_text().strip().splitlines()
        values = [float(v) for row in rows for v in row.split(",")]
        assert sum(values) == pytest.approx(1.0, abs=1e-9)

    def test_single_cell_grid_renders_255(self, tmp_path):
        lines = ["split,source,vehicle_id,model_id", "test,0,v0,m0", "train,1,v1,m0"]
        (tmp_path / "manifest.csv").write_text("\n".join(lines) + "\n")
        maps = np.stack([np.full((1, 1, 4), 0.5), np.full((1, 1, 4), 1.5)])
        formats.write_tensor_file(tmp_path / "d.desc", maps)
        config = ModelConfig(num_models=1, num_vehicles=1, d=4, hidden=4, seed=0)
        model = Model(config)
        save_checkpoint(tmp_path / "c.ckpt", config, model.params(), None, 0, 0)
        out = tmp_path / "maps"
        assert run(["attmap", "--checkpoint", str(tmp_path / "c.ckpt"),
                    "--manifest", str(tmp_path / "manifest.csv"),
                    "--descriptors", str(tmp_path / "d.desc"),
                    "--samples", "0", "--out-dir", str(out)]) == 0
        assert (out / "attmap_0.pgm").read_text().splitlines()[-1] == "255"

    def test_sample_id_out_of_range(self, tiny_set, tiny_run, tmp_path, capsys):
        assert run(["attmap", "--checkpoint", str(tiny_run / "checkpoint.ckpt"),
                    "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--samples", "99999", "--out-dir", str(tmp_path)]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_no_attention_variant_rejected(self, tiny_set, tmp_path, capsys):
        split = load_manifest(tiny_set / "manifest.csv")
        config = ModelConfig(num_models=split.num_models, num_vehicles=split.num_vehicles,
                             d=6, hidden=8, seed=0, variant="rnn_h_no_attention")
        model = Model(config)
        save_checkpoint(tmp_path / "c.ckpt", config, model.params(), None, 0, 0)
        assert run(["attmap", "--checkpoint", str(tmp_path / "c.ckpt"),
                    "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--samples", "0", "--out-dir", str(tmp_path)]) == 1
        assert "attention" in capsys.readouterr().err


class TestAblate:
    def test_har_seed_sets_the_seed_and_eval_seed(self, tiny_set, tmp_path, monkeypatch):
        # HAR_SEED=2 runs exactly what --seeds 2 --eval-seed 2 runs.
        def ablate(out, *flags):
            assert run(["ablate", "--manifest", str(tiny_set / "manifest.csv"),
                        "--descriptors", str(tiny_set / "descriptors.desc"),
                        "--out-dir", str(out), "--hidden", "8", "--epochs", "1",
                        "--batch-size", "8", "--repeats", "2", *flags]) == 0
            return (out / "ablation.json").read_bytes()

        explicit = ablate(tmp_path / "explicit", "--seeds", "2", "--eval-seed", "2")
        monkeypatch.setenv("HAR_SEED", "2")
        from_env = ablate(tmp_path / "env", "--seeds", "0,1", "--eval-seed", "0")
        assert from_env == explicit
        results = json.loads(from_env)
        assert all([r["seed"] for r in results[v]["per_seed"]] == [2] for v in results)

    def test_repeated_seed_is_config_error(self, tiny_set, tmp_path, capsys):
        assert run(["ablate", "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out-dir", str(tmp_path), "--hidden", "8", "--epochs", "1",
                    "--batch-size", "8", "--seeds", "1,0,1", "--repeats", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--seeds" in err and "seed 1" in err
        assert not (tmp_path / "ablation.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (("--repeats", "0"), "repeats must be >= 1, got 0"),
        (("--gallery-size", "999"), "gallery_size 999 not in [1, 6]"),
        (("--seeds", "0,-1"), "seed must be >= 0, got -1"),
    ], ids=["repeats", "gallery-size", "seeds"])
    def test_bad_eval_flag_is_refused_before_training(self, tiny_set, tmp_path, capsys,
                                                      monkeypatch, flags, message):
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: trained.append(args))
        assert run(["ablate", "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out-dir", str(tmp_path), "--hidden", "8", "--epochs", "1",
                    "--batch-size", "8", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert trained == []
        assert not (tmp_path / "ablation.json").exists()

    def test_an_out_dir_under_a_file_is_refused_before_training(self, tiny_set, tmp_path,
                                                                capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: trained.append(args))
        (tmp_path / "notadir").write_text("kept")
        out_dir = tmp_path / "notadir" / "ablation"
        assert run(["ablate", "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out-dir", str(out_dir), "--hidden", "8", "--epochs", "1",
                    "--batch-size", "8", "--seeds", "0", "--repeats", "2"]) == 1
        assert capsys.readouterr().err == (f"error: {out_dir / 'ablation.json'}: "
                                           f"{tmp_path / 'notadir'} is not a directory\n")
        assert trained == []
        assert [p.name for p in tmp_path.iterdir()] == ["notadir"]

    def test_tiny_ablation_table(self, tiny_set, tmp_path, capsys):
        out = tmp_path / "ablate"
        assert run(["ablate", "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out-dir", str(out), "--hidden", "8", "--epochs", "1",
                    "--batch-size", "8", "--seeds", "0", "--repeats", "2"]) == 0
        table = capsys.readouterr().out
        results = json.loads((out / "ablation.json").read_text())
        for variant in ("rnn_ha", "fc_ha", "rnn_h_no_attention"):
            assert variant in table
            assert 0.0 <= results[variant]["cmc1"] <= 1.0
