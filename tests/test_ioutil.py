"""Tests for crash-safe artifact writing (temp file + ``os.replace``)."""

import pytest

from repro.ioutil import atomic_write_text


def test_writes_and_returns_path(tmp_path):
    path = tmp_path / "out.txt"
    assert atomic_write_text(path, "hello\n") == path
    assert path.read_text() == "hello\n"


def test_replaces_existing_content_completely(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "a much longer first version\n")
    atomic_write_text(path, "v2\n")
    assert path.read_text() == "v2\n"


def test_leaves_no_temp_files_behind(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "x")
    atomic_write_text(path, "y", fsync=False)
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_failed_write_preserves_old_content_and_cleans_up(
        tmp_path, monkeypatch):
    """A writer that dies before the rename must leave the previous
    complete file, never a prefix or a stray temp file."""
    import os

    path = tmp_path / "out.txt"
    atomic_write_text(path, "the good version\n")

    class Boom(RuntimeError):
        pass

    def exploding_replace(src, dst):
        raise Boom()

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(Boom):
        atomic_write_text(path, "torn")
    monkeypatch.undo()
    assert path.read_text() == "the good version\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_an_interrupt_just_after_the_temp_file_exists_orphans_nothing(
        tmp_path, monkeypatch):
    """A cell deadline's timer can raise at any bytecode; one that lands
    right after the temp file is created must not leave it behind."""
    from repro import ioutil

    def interrupted_open(name, *args, **kwargs):
        open(name, *args, **kwargs).close()
        raise KeyboardInterrupt

    monkeypatch.setattr(ioutil, "open", interrupted_open, raising=False)
    for write, payload in ((ioutil.atomic_write_text, "x"),
                           (ioutil.atomic_write_bytes, b"x")):
        with pytest.raises(KeyboardInterrupt):
            write(tmp_path / "out", payload)
    assert list(tmp_path.iterdir()) == []


def test_temp_files_carry_recognizable_tmp_suffix(tmp_path,
                                                  monkeypatch):
    """Orphaned temps must end in `.tmp` so the store litter sweep and
    `store doctor` can recognize them (satellite of PR 9)."""
    import os

    seen = []
    real_replace = os.replace

    def spying_replace(src, dst):
        seen.append(str(src))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", spying_replace)
    atomic_write_text(tmp_path / "out.txt", "x")
    assert seen and all(s.endswith(".tmp") for s in seen)
    assert all("out.txt." in s for s in seen)  # next to the target


def test_guarded_reads_round_trip(tmp_path):
    from repro.ioutil import atomic_write_bytes, read_bytes, read_text
    path = tmp_path / "blob.bin"
    atomic_write_bytes(path, b"\x00\x01binary")
    assert read_bytes(path) == b"\x00\x01binary"
    atomic_write_text(path, "text\n")
    assert read_text(path) == "text\n"
    with pytest.raises(FileNotFoundError):
        read_text(tmp_path / "missing.txt")


def test_retry_backoff_is_exponential_and_bounded(tmp_path):
    """An op that keeps failing retries DEFAULT_IO_RETRIES times with
    doubling backoff, then surfaces the error."""
    from repro import faultfs
    from repro.ioutil import DEFAULT_IO_RETRIES, IO_BACKOFF_S, read_text

    path = tmp_path / "f.txt"
    path.write_text("x")
    faultfs.install_plan(faultfs.FaultPlan(["io_error@0x0"]))
    naps = []
    try:
        with pytest.raises(OSError):
            read_text(path, sleep=naps.append)
    finally:
        faultfs.clear_plan()
    assert naps == [IO_BACKOFF_S * (2 ** a)
                    for a in range(DEFAULT_IO_RETRIES)]
