"""Every output file is written whole, through ``formats.written_whole``: a
stop at any write leaves each output with its previous bytes or complete new
ones, and no temporary file."""

import itertools
import os
import stat

import pytest

from hareid import cli, formats
from hareid.errors import FormatError


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A tiny synthetic set, a model trained on it and its test features."""
    root = tmp_path_factory.mktemp("inputs")
    assert cli.main(["synth", "--out", str(root / "set"), "--models", "3", "--vehicles", "2",
                     "--images", "4", "--grid", "3", "--dim", "6", "--cameras", "2",
                     "--seed", "7"]) == 0
    manifest = str(root / "set" / "manifest.csv")
    data = ["--manifest", manifest, "--descriptors", str(root / "set" / "descriptors.desc")]
    assert cli.main(["train", *data, "--out-dir", str(root / "run"), "--hidden", "8",
                     "--epochs", "1", "--batch-size", "8", "--seed", "1"]) == 0
    checkpoint = str(root / "run" / "checkpoint.ckpt")
    assert cli.main(["extract", "--checkpoint", checkpoint, *data,
                     "--out", str(root / "test.feat")]) == 0
    return {"data": data, "manifest": manifest, "checkpoint": checkpoint,
            "features": str(root / "test.feat")}


def command(name: str, inputs, root) -> list[str]:
    """The argv of one run of ``name`` that writes its outputs under ``root``."""
    return {
        "synth": ["synth", "--out", str(root / "set"), "--models", "2", "--vehicles", "2",
                  "--images", "2", "--grid", "3", "--dim", "4", "--seed", "5"],
        "train": ["train", *inputs["data"], "--out-dir", str(root / "run"), "--hidden", "8",
                  "--epochs", "2", "--batch-size", "8", "--seed", "2"],
        "extract": ["extract", "--checkpoint", inputs["checkpoint"], *inputs["data"],
                    "--out", str(root / "feats" / "test.feat")],
        "eval": ["eval", "--features", inputs["features"], "--manifest", inputs["manifest"],
                 "--protocol", "veri", "--out", str(root / "veri.json")],
        "attmap": ["attmap", "--checkpoint", inputs["checkpoint"], *inputs["data"],
                   "--samples", "0,3", "--out-dir", str(root / "maps")],
        "ablate": ["ablate", *inputs["data"], "--out-dir", str(root / "ablation"),
                   "--hidden", "8", "--epochs", "1", "--batch-size", "8", "--seeds", "0",
                   "--repeats", "2"],
    }[name]


def snapshot(root) -> dict[str, bytes]:
    """Every file under ``root``, by relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def holding(root, files: dict[str, bytes]):
    """``root``, with ``files`` (relative path: bytes) written under it."""
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


WRITES = {"synth": 3, "train": 4, "extract": 1, "eval": 1, "attmap": 4, "ablate": 1}


@pytest.mark.parametrize("name", sorted(WRITES))
def test_a_stop_at_any_write_leaves_whole_files(name, inputs, tmp_path, monkeypatch, capsys):
    # A first run names the command's outputs; every later run starts with
    # each of them holding "previous" bytes.
    assert cli.main(command(name, inputs, tmp_path / "first")) == 0
    previous = {rel: b"previous " + rel.encode() for rel in snapshot(tmp_path / "first")}
    real_replace = os.replace

    # The reference run records its outputs just before each write lands, and
    # each complete version a write puts in place.
    reference = holding(tmp_path / "reference", previous)
    before_write, versions = [], {rel: {data} for rel, data in previous.items()}

    def recording_replace(src, dst):
        before_write.append({rel: data for rel, data in snapshot(reference).items()
                             if not rel.endswith(".tmp")})
        with open(src, "rb") as f:
            versions[os.path.relpath(dst, reference)].add(f.read())
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    assert cli.main(command(name, inputs, reference)) == 0
    final = snapshot(reference)
    assert len(before_write) == WRITES[name]
    assert final.keys() == previous.keys()

    for k in range(len(before_write)):
        calls = []

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == k + 1:
                raise OSError("injected write failure")
            real_replace(src, dst)

        root = holding(tmp_path / f"stop{k}", previous)
        monkeypatch.setattr(os, "replace", failing_replace)
        capsys.readouterr()
        assert cli.main(command(name, inputs, root)) == 1
        out, err = capsys.readouterr()
        assert err == "error: injected write failure\n"
        if name == "eval":
            assert out == ""  # the report is printed only once it is written
        stopped = snapshot(root)
        assert stopped == before_write[k]  # the failed write changed nothing
        assert not list(root.rglob("*.tmp"))
        for rel, data in stopped.items():
            assert data in versions[rel], rel
        if name == "train" and stopped["run/checkpoint.ckpt"] != previous["run/checkpoint.ckpt"]:
            # A resume from the last whole checkpoint ends with the files of
            # the run that was not stopped.
            monkeypatch.setattr(os, "replace", real_replace)
            assert cli.main([*command(name, inputs, root), "--resume",
                             str(root / "run" / "checkpoint.ckpt")]) == 0
            assert snapshot(root) == final


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_resume_onto_a_fifo_loss_csv_ends_in_one_error_line(inputs, tmp_path, capsys):
    argv = command("train", inputs, tmp_path)
    at = argv.index("--epochs") + 1
    assert cli.main([*argv[:at], "1", *argv[at + 1:]]) == 0
    loss = tmp_path / "run" / "loss.csv"
    loss.unlink()
    os.mkfifo(loss)
    capsys.readouterr()
    assert cli.main([*argv, "--resume", str(tmp_path / "run" / "checkpoint.ckpt")]) == 1
    assert capsys.readouterr().err == (f"error: {loss}: not a regular file; an output must "
                                       "be a file or a new path\n")
    assert stat.S_ISFIFO(loss.stat().st_mode)
    assert not list(tmp_path.rglob("*.tmp"))


def test_interleaved_writers_of_one_target_each_leave_it_whole(tmp_path):
    target = tmp_path / "out.txt"
    (tmp_path / "plain.txt").write_text("")  # the mode a new file gets
    with formats.written_whole(target) as a:
        a.write("A" * 8)
        with formats.written_whole(target) as b:
            b.write("BBB")
        assert target.read_text() == "BBB"
        a.write("a")
    assert target.read_text() == "A" * 8 + "a"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "plain.txt"]
    assert target.stat().st_mode == (tmp_path / "plain.txt").stat().st_mode


def test_a_temporary_left_by_a_killed_writer_of_this_pid_is_stepped_over(tmp_path,
                                                                          monkeypatch):
    monkeypatch.setattr(formats, "_TEMPORARY_SERIALS", itertools.count())
    stale = tmp_path / f"out.txt.{os.getpid()}.0.tmp"
    stale.write_text("stale")
    with formats.written_whole(tmp_path / "out.txt") as f:
        f.write("new")
    assert (tmp_path / "out.txt").read_text() == "new"
    assert stale.read_text() == "stale"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", stale.name]


def test_writer_creates_parents_and_writes_utf8_without_newline_translation(tmp_path):
    with formats.written_whole(tmp_path / "a" / "b" / "out.txt") as f:
        f.write("é\r\nx\n")
    assert (tmp_path / "a" / "b" / "out.txt").read_bytes() == "é\r\nx\n".encode()


@pytest.mark.parametrize("stop", [OSError, KeyboardInterrupt])
def test_a_stop_inside_the_block_keeps_the_previous_bytes(tmp_path, stop):
    target = tmp_path / "out.bin"
    target.write_bytes(b"previous")
    with pytest.raises(stop):
        with formats.written_whole(target, "wb") as f:
            f.write(b"part of the new file")
            raise stop
    assert target.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_a_symlink_is_written_through(tmp_path):
    (tmp_path / "real").mkdir()
    (tmp_path / "real" / "out.txt").write_text("previous")
    (tmp_path / "links").mkdir()
    link = tmp_path / "links" / "out.txt"
    link.symlink_to(os.path.join("..", "real", "out.txt"))
    with formats.written_whole(link) as f:
        f.write("new")
    assert link.is_symlink()
    assert (tmp_path / "real" / "out.txt").read_text() == "new"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["links", "out.txt", "out.txt", "real"]


def test_a_symlinked_eval_out_is_written_through(inputs, tmp_path, capsys):
    (tmp_path / "report.json").write_text("previous")
    (tmp_path / "link.json").symlink_to("report.json")
    capsys.readouterr()
    assert cli.main(command("eval", inputs, tmp_path)[:-1] + [str(tmp_path / "link.json")]) == 0
    assert (tmp_path / "link.json").is_symlink()
    assert (tmp_path / "report.json").read_text() == capsys.readouterr().out


@pytest.mark.parametrize("make", [os.mkfifo, os.mkdir], ids=["fifo", "directory"])
def test_a_target_that_is_not_a_regular_file_is_refused_before_anything_is_made(tmp_path,
                                                                                 make):
    target = tmp_path / "out"
    make(target)
    with pytest.raises(FormatError) as err:
        with formats.written_whole(target):
            pass
    assert str(err.value) == (f"{target}: not a regular file; an output must be a file "
                              "or a new path")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_a_target_under_a_file_is_refused_before_anything_is_made(tmp_path):
    (tmp_path / "notadir").write_text("kept")
    target = tmp_path / "notadir" / "run" / "out"
    with pytest.raises(FormatError) as err:
        with formats.written_whole(target):
            pass
    assert str(err.value) == f"{target}: {tmp_path / 'notadir'} is not a directory"
    assert [p.name for p in tmp_path.iterdir()] == ["notadir"]
    assert (tmp_path / "notadir").read_text() == "kept"


@pytest.mark.parametrize("name, output", [("eval", "veri.json"), ("extract", "feats/test.feat"),
                                          ("synth", "set/manifest.csv")])
def test_a_fifo_output_ends_in_one_error_line(name, output, inputs, tmp_path, capsys):
    fifo = tmp_path / output
    fifo.parent.mkdir(exist_ok=True)
    os.mkfifo(fifo)
    capsys.readouterr()
    assert cli.main(command(name, inputs, tmp_path)) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {fifo}: not a regular file; an output must be a file or a new path\n"
    if name == "eval":
        assert out == ""  # a failed eval prints no report
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert not list(tmp_path.rglob("*.tmp"))
