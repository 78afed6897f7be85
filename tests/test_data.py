import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hareid import data as dat
from hareid.errors import ConfigError, FormatError, ShapeError, ValidationError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


HEADER = "split,source,vehicle_id,model_id,camera_id,track_id"


class TestManifest:
    def test_small_manifest(self, tmp_path):
        path = write_lines(tmp_path / "m.csv", [
            HEADER,
            "train,0,v1,m1,c0,t0",
            "train,1,v1,m1,c1,t1",
            "train,2,v2,m1,c0,t2",
            "test,3,v3,m1,c0,t3",
        ])
        split = dat.load_manifest(path)
        assert split.num_models == 1
        assert split.num_vehicles == 2
        assert len(split.train) == 3 and len(split.test) == 1
        assert split.labels(split.train[2]) == (0, 1)

    def test_header_required(self, tmp_path):
        path = write_lines(tmp_path / "m.csv", ["train,0,v1,m1"])
        with pytest.raises(ValidationError, match="header"):
            dat.load_manifest(path)

    def test_vehicle_under_two_models(self, tmp_path):
        path = write_lines(tmp_path / "m.csv", [
            HEADER, "train,0,v1,m1,,", "train,1,v1,m2,,",
        ])
        with pytest.raises(ValidationError, match="v1"):
            dat.load_manifest(path)

    def test_vehicle_in_both_splits(self, tmp_path):
        path = write_lines(tmp_path / "m.csv", [
            HEADER, "train,0,v1,m1,,", "test,1,v1,m1,,",
        ])
        with pytest.raises(ValidationError, match="both splits"):
            dat.load_manifest(path)

    def test_unknown_split(self, tmp_path):
        path = write_lines(tmp_path / "m.csv", [HEADER, "validation,0,v1,m1,,"])
        with pytest.raises(ValidationError, match="validation"):
            dat.load_manifest(path)

    def test_short_header_without_optional_columns(self, tmp_path):
        path = write_lines(tmp_path / "m.csv", [
            "split,source,vehicle_id,model_id", "train,0,v1,m1",
        ])
        split = dat.load_manifest(path)
        assert split.train[0].camera_id is None

    def test_round_trip(self, tmp_path):
        ds = dat.synth_generate(dat.SynthConfig(models=2, vehicles_per_model=2,
                                                images_per_vehicle=3, grid=3, d=4), seed=1)
        path = tmp_path / "m.csv"
        dat.write_manifest(path, ds.split)
        loaded = dat.load_manifest(path)
        assert [s.vehicle_id for s in loaded.train] == [s.vehicle_id for s in ds.split.train]
        assert [s.track_id for s in loaded.test] == [s.track_id for s in ds.split.test]
        assert loaded.vehicle_index == ds.split.vehicle_index

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_hierarchy_consistency_property(self, tmp_path_factory, data):
        # Random manifests load iff no vehicle sits under two models and no
        # vehicle appears in both splits; loaded splits are always consistent.
        n_vehicles = data.draw(st.integers(2, 8))
        n_models = data.draw(st.integers(1, 4))
        model_of = {v: data.draw(st.integers(0, n_models - 1), label=f"model_v{v}")
                    for v in range(n_vehicles)}
        split_of = {v: data.draw(st.sampled_from(["train", "test"]), label=f"split_v{v}")
                    for v in range(n_vehicles)}
        rows = []
        for i in range(data.draw(st.integers(n_vehicles, 20))):
            v = i % n_vehicles
            rows.append(f"{split_of[v]},{i},v{v},m{model_of[v]}")
        violation = data.draw(st.sampled_from(["none", "two_models", "both_splits"]))
        if violation == "two_models":
            rows.append(f"{split_of[0]},x,v0,m{(model_of[0] + 1) % (n_models + 1)}")
        elif violation == "both_splits":
            other = "test" if split_of[0] == "train" else "train"
            rows.append(f"{other},y,v0,m{model_of[0]}")
        path = tmp_path_factory.mktemp("prop") / "m.csv"
        path.write_text("split,source,vehicle_id,model_id\n" + "\n".join(rows) + "\n")
        if violation == "none":
            split = dat.load_manifest(path)
            seen = {}
            for s in split.train + split.test:
                assert seen.setdefault(s.vehicle_id, s.model_id) == s.model_id
            assert not ({s.vehicle_id for s in split.train}
                        & {s.vehicle_id for s in split.test})
        else:
            with pytest.raises(ValidationError):
                dat.load_manifest(path)


def per_image_synth(config, seed):
    """The generator as a loop over images, one noise draw per image: the
    reference for the per-vehicle blocks of ``synth_generate``."""
    rng = dat.rng_for(seed)
    g, d = config.grid, config.d
    per_model = 2 * config.vehicles_per_model
    patterns = np.stack([dat._unit(rng.normal(size=d)) for _ in range(config.models)])
    cone = np.ones(d) / np.sqrt(d)
    bank = np.stack([dat._unit(dat.SIGNATURE_CONE * cone + np.eye(d)[k % d])
                     for k in range(per_model)])
    cells = np.stack([rng.choice(g * g, size=per_model, replace=False)
                      for _ in range(config.models)])
    views = rng.normal(size=(config.cameras, g, g, d)) * (config.view_amplitude / np.sqrt(d))
    views -= views.mean(axis=(1, 2), keepdims=True)
    maps, cameras = [], []
    for split_idx in range(2):
        for m in range(config.models):
            for i in range(config.vehicles_per_model):
                slot = split_idx * config.vehicles_per_model + i
                sig = dat._unit(bank[slot] + dat.SIGNATURE_JITTER * rng.normal(size=d))
                sig = sig * dat.SIGNATURE_AMPLITUDE
                row, col = divmod(int(cells[m, slot]), g)
                for j in range(config.images_per_vehicle):
                    cam = j % config.cameras
                    arr = np.tile(patterns[m], (g, g, 1)) + views[cam]
                    if config.noise_sigma > 0:
                        arr += rng.normal(size=(g, g, d)) * config.noise_sigma
                    arr[row, col] += sig
                    maps.append(arr)
                    cameras.append(f"c{cam}")
    return np.stack(maps), cameras


class TestSynthGenerate:
    def test_declared_counts(self):
        cfg = dat.SynthConfig()
        ds = dat.synth_generate(cfg, seed=0)
        assert len(ds.split.train) == 8 * 8 * 20 == 1280
        assert len(ds.split.test) == 1280
        assert ds.split.num_models == 8
        assert ds.split.num_vehicles == 64
        assert ds.maps.shape == (2560, 6, 6, 16)

    @pytest.mark.parametrize("config", [
        dat.SynthConfig(),
        dat.SynthConfig(models=3, vehicles_per_model=2, images_per_vehicle=5, grid=3, d=6,
                        cameras=3, noise_sigma=0.0),
    ])
    def test_vehicle_blocks_equal_per_image_draws(self, config):
        ds = dat.synth_generate(config, seed=11)
        maps, cameras = per_image_synth(config, seed=11)
        assert np.array_equal(ds.maps, maps)
        samples = ds.split.train + ds.split.test
        assert [int(s.source) for s in samples] == list(range(len(maps)))
        assert [s.camera_id for s in samples] == cameras

    def test_determinism_bytes(self, tmp_path):
        cfg = dat.SynthConfig(models=2, vehicles_per_model=2, images_per_vehicle=3,
                              grid=3, d=4)
        files = []
        for name in ("a", "b"):
            ds = dat.synth_generate(cfg, seed=5)
            paths = dat.write_synth(ds, tmp_path / name)
            files.append(paths)
        for key in ("manifest", "descriptors", "signatures"):
            assert files[0][key].read_bytes() == files[1][key].read_bytes()

    def test_zero_noise_zero_view_makes_same_vehicle_identical(self):
        cfg = dat.SynthConfig(models=2, vehicles_per_model=2, images_per_vehicle=4,
                              grid=3, d=4, noise_sigma=0.0, view_amplitude=0.0)
        ds = dat.synth_generate(cfg, seed=2)
        by_vehicle = {}
        for s in ds.split.train:
            by_vehicle.setdefault(s.vehicle_id, []).append(int(s.source))
        for indices in by_vehicle.values():
            base = ds.maps[indices[0]]
            for i in indices[1:]:
                np.testing.assert_array_equal(ds.maps[i], base)

    def test_grid_too_small(self):
        with pytest.raises(ConfigError, match="too small"):
            dat.SynthConfig(models=2, vehicles_per_model=8, grid=3)

    @pytest.mark.parametrize("name", ["noise_sigma", "view_amplitude"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_setting(self, name, bad):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            dat.SynthConfig(**{name: bad})

    def test_negative_noise(self):
        with pytest.raises(ConfigError, match="noise_sigma must be >= 0"):
            dat.SynthConfig(noise_sigma=-1e-9)

    def test_signature_cells_distinct_within_model(self):
        ds = dat.synth_generate(dat.SynthConfig(models=3, vehicles_per_model=4,
                                                images_per_vehicle=1), seed=3)
        by_model: dict[str, list] = {}
        for s in ds.split.train + ds.split.test:
            by_model.setdefault(s.model_id, []).append(ds.signature_cells[s.vehicle_id])
        for cells in by_model.values():
            assert len(set(cells)) == len(set([c for c in cells]))
            unique_vehicles = set(cells)
            assert len(unique_vehicles) == 8  # 4 train + 4 test vehicles

    def test_signature_energy_attenuated_by_pooling(self):
        # The constructed reason attention helps: the sticker survives at
        # full strength in its own cell but is divided by h*w in the pooled
        # embedding, while the model pattern passes through pooling intact.
        cfg = dat.SynthConfig(models=2, vehicles_per_model=2, images_per_vehicle=1,
                              grid=4, d=8, noise_sigma=0.0, view_amplitude=0.0)
        ds = dat.synth_generate(cfg, seed=4)
        sample = ds.split.train[0]
        amap = ds.maps[int(sample.source)]
        row, col = ds.signature_cells[sample.vehicle_id]
        # Without noise or view fields every other cell holds the model pattern.
        pattern = amap[(row + 1) % cfg.grid, col]
        assert np.linalg.norm(pattern) == pytest.approx(1.0, abs=1e-12)
        cell_energy = np.linalg.norm(amap[row, col] - pattern)
        pooled = amap.reshape(-1, cfg.d).mean(axis=0)
        pooled_energy = np.linalg.norm(pooled - pattern)
        assert cell_energy == pytest.approx(dat.SIGNATURE_AMPLITUDE, abs=1e-9)
        assert pooled_energy == pytest.approx(cell_energy / (cfg.grid ** 2), rel=1e-9)

    def test_coarse_labels_decidable_from_pooled_embedding(self):
        cfg = dat.SynthConfig(models=4, vehicles_per_model=2, images_per_vehicle=4,
                              grid=4, d=8)
        ds = dat.synth_generate(cfg, seed=6)
        pooled = ds.maps.reshape(len(ds.maps), -1, cfg.d).mean(axis=1)
        # Each model's centroid over the train split decides every image of
        # both splits, the test split's unseen vehicles too.
        models = [int(s.model_id.removeprefix("mod")) for s in ds.split.train]
        train_rows = pooled[[int(s.source) for s in ds.split.train]]
        centroids = np.stack([train_rows[np.equal(models, m)].mean(axis=0)
                              for m in range(cfg.models)])
        for s in ds.split.train + ds.split.test:
            distances = np.linalg.norm(centroids - pooled[int(s.source)], axis=1)
            assert np.argmin(distances) == int(s.model_id.removeprefix("mod"))

    def test_view_fields_have_zero_spatial_mean(self):
        cfg = dat.SynthConfig(models=1, vehicles_per_model=1, images_per_vehicle=4,
                              grid=3, d=4, noise_sigma=0.0, view_amplitude=2.0)
        ds = dat.synth_generate(cfg, seed=7)
        # Same vehicle, different cameras: cells differ but pooled embeddings agree.
        a, b = ds.maps[0], ds.maps[1]
        assert np.any(a != b)
        np.testing.assert_allclose(a.mean(axis=(0, 1)), b.mean(axis=(0, 1)), atol=1e-12)

    def test_sidecar_round_trip(self, tmp_path):
        ds = dat.synth_generate(dat.SynthConfig(models=2, vehicles_per_model=2,
                                                images_per_vehicle=1), seed=8)
        paths = dat.write_synth(ds, tmp_path)
        assert dat.load_signature_cells(paths["signatures"]) == ds.signature_cells

    @pytest.mark.parametrize("row, message", [
        ("v1,3", "expected 3 fields, got 2"),
        ("v1,3,4,5", "expected 3 fields, got 4"),
        ("v1,a,2", "signature cell ('a', '2') is not two integers"),
        ("v1,2,2.5", "signature cell ('2', '2.5') is not two integers"),
        # int() would read each of these cells.
        ("v1,1_0,2", "signature cell ('1_0', '2') is not two integers"),
        ("v1,+1, 2", "signature cell ('+1', ' 2') is not two integers"),
        ("v1,\u0663,2", "signature cell ('\u0663', '2') is not two integers"),
        ("v0,3,4", "a second row for vehicle 'v0'"),
    ])
    def test_malformed_sidecar_row_names_its_line(self, tmp_path, row, message):
        path = write_lines(tmp_path / "s.csv", ["vehicle_id,signature_row,signature_col",
                                                "v0,0,1", row])
        with pytest.raises(ValidationError) as err:
            dat.load_signature_cells(path)
        assert str(err.value) == f"{path}:3: {message}"

    def test_sidecar_cell_may_be_negative(self, tmp_path):
        # The grid bound is the caller's, which knows the grid.
        path = write_lines(tmp_path / "s.csv", ["vehicle_id,signature_row,signature_col",
                                                "v0,-4,99"])
        assert dat.load_signature_cells(path) == {"v0": (-4, 99)}

    def test_sidecar_that_is_not_utf8_is_format_error(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"vehicle_id,signature_row,signature_col\nv\xff,0,1\n")
        with pytest.raises(FormatError, match="not UTF-8"):
            dat.load_signature_cells(path)


class TestSampleInput:
    def test_descriptor_index(self):
        maps = np.arange(24.0).reshape(2, 2, 2, 3)
        s = dat.LabeledSample(source="1", vehicle_id="v", model_id="m")
        np.testing.assert_array_equal(dat.sample_input(s, maps), maps[1])

    def test_missing_descriptor_store(self):
        s = dat.LabeledSample(source="0", vehicle_id="v", model_id="m")
        with pytest.raises(ConfigError):
            dat.sample_input(s, None)

    def test_image_path(self, tmp_path):
        from hareid import formats
        img = tmp_path / "x.pgm"
        formats.write_pgm(img, np.array([[255, 0]], dtype=np.uint8))
        s = dat.LabeledSample(source="x.pgm", vehicle_id="v", model_id="m")
        out = dat.sample_input(s, None, image_root=tmp_path)
        assert out.shape == (1, 2, 1)

    def test_training_input_of_another_shape_is_named(self, tmp_path):
        from hareid import formats
        train = []
        for i, size in enumerate([(2, 2), (2, 2), (3, 2), (2, 3)]):
            formats.write_pgm(tmp_path / f"{i}.pgm", np.zeros(size, dtype=np.uint8))
            train.append(dat.LabeledSample(source=f"{i}.pgm", vehicle_id=f"v{i}", model_id="m"))
        split = dat.DatasetSplit(train=train, test=[])
        with pytest.raises(ShapeError, match=r"sample 2 \(2.pgm\) has input shape \(3, 2, 1\), "
                                             r"sample 0 has \(2, 2, 1\)"):
            dat.training_items(split, image_root=tmp_path)
        assert dat.training_items(dat.DatasetSplit(train=[], test=[])) == []
