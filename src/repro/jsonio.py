"""Canonical JSON and atomic JSON file writes, shared by every on-disk cache.

:func:`dumps_canonical` is the one canonical encoding: sorted keys, no
whitespace.  Cache keys, request digests, claim notes and trace logs hash
or compare it, and every cache file stores it, so files are in canonical
compact form.  It calls :func:`json.dumps`, never :func:`json.dump`:
``json.dump`` to a stream always takes the pure-Python ``iterencode``
path, and any ``indent`` rules out CPython's C encoder too, while a
compact ``dumps`` of the whole entry is C-encoded.  Readers parse JSON,
so files written in an indented layout stay readable.

:func:`loads` is the one reader: :func:`json.loads`, except that a
document nested past the interpreter's recursion limit raises the
:class:`ValueError` every other malformed document raises, not a
:class:`RecursionError` that the daemon, the cache readers and the trace
parser would let through.

:func:`atomic_write_json` is the one implementation of the temp-file +
:func:`os.replace` dance (used by the sweep result/exploration caches and
the transposition store), so a future durability fix — fsync, replace
semantics on exotic filesystems, temp naming — lands everywhere at once.
Readers of these files never observe a torn entry: the rename is atomic
on POSIX filesystems (and on NFS, which the shared-directory distributed
mode relies on).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict

#: Prefix of the atomic writer's temp files.  A crashed writer leaves one
#: behind; ``repro cache gc`` (via :func:`repro.storage.sweep_aged`)
#: recognizes and removes aged ``.tmp-*`` debris by exactly this name.
TEMP_PREFIX = ".tmp-"


def dumps_canonical(payload: object) -> str:
    """The canonical JSON the fabric hashes, compares and stores."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def loads(text: str, **hooks) -> object:
    """:func:`json.loads` that reports too-deep nesting as a ValueError."""
    try:
        return json.loads(text, **hooks)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def atomic_write_json(directory: Path, path: Path,
                      entry: Dict[str, object]) -> Path:
    """Write ``entry`` to ``path`` atomically (temp file + rename).

    The file holds :func:`dumps_canonical` of ``entry``, with no trailing
    newline.  The temp file is created in ``directory`` (which must be on
    the same filesystem as ``path`` for the rename to stay atomic) with
    the :data:`TEMP_PREFIX`, so crashed writers leave only recognizable
    debris — which :meth:`repro.runner.cache.ResultCache.gc` sweeps once
    it is old enough to be certainly dead.
    """
    text = dumps_canonical(entry)
    handle, temp_name = tempfile.mkstemp(
        dir=str(directory), prefix=TEMP_PREFIX, suffix=".json"
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return path
