import json
import struct

import numpy as np
import pytest

from bruteforce import bf_metrics
from conftest import scale_sigmoid_backward
from hareid import cli, formats
from hareid.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from hareid.data import load_manifest
from hareid.model import Model, ModelConfig


def run(argv):
    return cli.main(argv)


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

    def test_unknown_config_key(self, tiny_set, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_flag=1\n")
        assert run(["train", "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out-dir", str(tmp_path), "--config", str(cfg)]) == 1
        assert "no_such_flag" in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["flag", "env", "config"])
    def test_negative_seed_is_config_error(self, tiny_set, tmp_path, monkeypatch, capsys, how):
        argv = ["train", "--manifest", str(tiny_set / "manifest.csv"),
                "--descriptors", str(tiny_set / "descriptors.desc"),
                "--out-dir", str(tmp_path), "--hidden", "8", "--epochs", "1"]
        if how == "flag":
            argv += ["--seed", "-1"]
        elif how == "env":
            monkeypatch.setenv("HAR_SEED", "-1")
        else:
            (tmp_path / "run.cfg").write_text("seed=-1\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "seed" in err

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
        formats.write_tensor_file(tmp_path / "nan.desc", list(maps))
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
        rng = np.random.default_rng(0)
        lines = ["split,source,vehicle_id,model_id"]
        for v in range(2):
            for i in range(2):
                name = f"img_{v}_{i}.pgm"
                formats.write_pgm(tmp_path / name,
                                  rng.integers(0, 256, size=(8, 8)).astype(np.uint8))
                lines.append(f"train,{name},v{v},m0")
                lines.append(f"test,{name.replace('.pgm', '_t.pgm')},tv{v},m0")
                formats.write_pgm(tmp_path / name.replace(".pgm", "_t.pgm"),
                                  rng.integers(0, 256, size=(8, 8)).astype(np.uint8))
        (tmp_path / "manifest.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert run(["train", "--manifest", str(tmp_path / "manifest.csv"),
                    "--image-root", str(tmp_path), "--backbone", "conv",
                    "--conv-layers", "2", "--conv-channels", "4",
                    "--out-dir", str(out), "--hidden", "6", "--epochs", "1",
                    "--batch-size", "4"]) == 0
        feat = tmp_path / "feats.feat"
        assert run(["extract", "--checkpoint", str(out / "checkpoint.ckpt"),
                    "--manifest", str(tmp_path / "manifest.csv"),
                    "--image-root", str(tmp_path), "--out", str(feat)]) == 0
        assert formats.load_features(feat).shape == (4, 6)


    def test_non_numeric_image_header_is_format_error(self, tmp_path, capsys):
        formats.write_pgm(tmp_path / "good.pgm", np.zeros((8, 8), dtype=np.uint8))
        (tmp_path / "bad.pgm").write_bytes(b"P2\n8 x8\n255\n" + b"0 " * 64)
        (tmp_path / "manifest.csv").write_text(
            "split,source,vehicle_id,model_id\ntrain,good.pgm,v0,m0\n"
            "train,bad.pgm,v1,m0\ntest,good.pgm,t0,m0\n")
        assert run(["train", "--manifest", str(tmp_path / "manifest.csv"),
                    "--image-root", str(tmp_path), "--backbone", "conv",
                    "--conv-layers", "2", "--conv-channels", "4",
                    "--out-dir", str(tmp_path / "run"), "--hidden", "6", "--epochs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "x8" in err


class TestExtract:
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
        # Rewrite the length-prefixed config block without its seed line.
        raw = (tiny_run / "checkpoint.ckpt").read_bytes()
        at = len(MAGIC) + 4
        (length,) = struct.unpack_from("<I", raw, at)
        config = raw[at + 4:at + 4 + length]
        assert b"\nseed=1\n" in config
        config = config.replace(b"\nseed=1\n", b"\n")
        ckpt = tmp_path / "no_seed.ckpt"
        ckpt.write_bytes(raw[:at] + struct.pack("<I", len(config)) + config
                         + raw[at + 4 + length:])
        assert run(["extract", "--checkpoint", str(ckpt),
                    "--manifest", str(tiny_set / "manifest.csv"),
                    "--descriptors", str(tiny_set / "descriptors.desc"),
                    "--out", str(tmp_path / "f.feat")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'seed'" in err


    @pytest.mark.parametrize("corrupt", ["config_byte", "tensor_rank"])
    def test_corrupt_checkpoint_is_format_error(self, tiny_set, tiny_run, tmp_path, capsys,
                                                corrupt):
        raw = bytearray((tiny_run / "checkpoint.ckpt").read_bytes())
        at = len(MAGIC) + 4
        (length,) = struct.unpack_from("<I", raw, at)
        config_end = at + 4 + length
        if corrupt == "config_byte":
            raw[config_end - 2] = 0xFF  # not UTF-8
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
        assert ("UTF-8" if corrupt == "config_byte" else "truncated") in err


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

    def test_zero_step_is_config_error(self, capsys):
        assert run(["gradcheck", "--step", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "step" in err

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
        formats.write_tensor_file(tmp_path / "d.desc", list(maps))
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
