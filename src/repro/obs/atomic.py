"""Atomic artifact writes: serialise fully, write a temp file, ``os.replace``.

Every JSON (and npz) artifact this package produces — ``manifest.json``,
``metrics.json`` and ``probes.npz`` — goes through the helpers here, so a
crash, OOM kill or signal can never leave a truncated or half-written
file at the destination path: readers observe either the previous
complete artifact or the new complete artifact, nothing in between.

The sequence is the standard one:

1. serialise the whole document in memory first (a serialisation error
   therefore touches *no* file at all);
2. write it to a uniquely named temp file in the destination's directory
   (same filesystem, so the final rename cannot degrade into a copy);
3. flush + fsync the temp file;
4. ``os.replace`` it over the destination — atomic on POSIX and Windows.

On any failure after step 1 the temp file is removed, so interrupted
writes leave no ``*.tmp`` litter next to real artifacts.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Optional, Union

__all__ = ["atomic_write_bytes", "atomic_write_json", "atomic_write_text"]

PathLike = Union[str, Path]

#: Suffix of the uniquely named temporaries (``<name>.<random>.tmp``) the
#: helpers stage content in before the final rename.
TMP_SUFFIX = ".tmp"


def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    """Atomically replace ``path``'s content with ``data``."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=TMP_SUFFIX
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


def atomic_write_text(path: PathLike, text: str, encoding: str = "utf-8") -> Path:
    """Atomically replace ``path``'s content with ``text``."""
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(
    path: PathLike,
    document: Any,
    indent: Optional[int] = 2,
    default: Optional[Callable[[Any], Any]] = str,
) -> Path:
    """Atomically write ``document`` as JSON (trailing newline included).

    Serialisation happens before any file is touched, so an
    unserialisable document raises with the destination — and its
    directory — completely unchanged.
    """
    text = json.dumps(document, indent=indent, default=default) + "\n"
    return atomic_write_text(path, text)
