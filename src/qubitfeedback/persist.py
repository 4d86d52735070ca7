"""Atomic file writing helpers: write to a sibling temp file, then rename."""

from __future__ import annotations

import os

_CREATE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def atomic_write_bytes(path, data: bytes) -> None:
    """Write data to path atomically; an OSError names path, not the temp file."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    try:
        # created with mode 0o666 minus the umask, as open() creates a new
        # file; tempfile.mkstemp would leave every written file at 0o600
        fd = os.open(tmp, _CREATE_FLAGS, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
