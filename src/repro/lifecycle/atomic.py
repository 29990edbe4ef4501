"""Atomic file replacement: the one write path for durable state.

The result cache, the run journal, the run records and the service's
job store all publish files that readers may open at any moment, so
every write goes through :func:`write_atomic`: the bytes land in a uniquely named temp
file next to the target, then ``os.replace`` swaps it in.  A reader
sees the old file or the new one, never a torn one.

Temp names come from ``tempfile.mkstemp``, not from the pid: ``repro
serve`` runs jobs on threads of one process, and two threads writing
one path through a pid-named temp file rename each other's files away.
Every temp name matches ``*.tmp.*``, the pattern
:meth:`repro.engine.cache.ResultCache.clear` sweeps after a crash.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union


def write_atomic(path: Path, data: Union[bytes, str]) -> Path:
    """Replace ``path`` with ``data`` (str is UTF-8 encoded); returns ``path``."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temporary = tempfile.mkstemp(prefix=f"{path.name}.tmp.", dir=path.parent)
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        os.replace(temporary, path)
    except BaseException:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise
    return path
