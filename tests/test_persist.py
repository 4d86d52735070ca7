"""Tests for the atomic file writers."""

import os
import stat

import pytest

from qubitfeedback.persist import atomic_write_bytes, atomic_write_text


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_atomic_write_honours_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        atomic_write_bytes(tmp_path / "a.bin", b"\x00\x01")
        atomic_write_text(tmp_path / "b.txt", "text\n")
    finally:
        os.umask(old)
    for name in ("a.bin", "b.txt"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode
    assert (tmp_path / "a.bin").read_bytes() == b"\x00\x01"
    assert (tmp_path / "b.txt").read_text() == "text\n"
    assert sorted(os.listdir(tmp_path)) == ["a.bin", "b.txt"]  # no temp left behind


def test_a_failed_write_names_the_callers_path(tmp_path):
    missing = tmp_path / "no" / "x.bin"
    with pytest.raises(FileNotFoundError) as info:
        atomic_write_bytes(missing, b"x")
    assert info.value.filename == str(missing)
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "f").write_bytes(b"")
    with pytest.raises(OSError) as info:  # replacing a non-empty directory fails
        atomic_write_text(tmp_path / "d", "x")
    assert info.value.filename == str(tmp_path / "d")
    assert sorted(os.listdir(tmp_path)) == ["d"]  # no temp left behind
