"""Atomic file writes: a reader finds either the old file or the whole new one."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Yield a file opened with ``mode`` in place of ``path``.

    The data goes to a temporary file in the same directory, which replaces
    ``path`` (``os.replace``) once the block ends. If the block or the write
    raises, the temporary file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
