"""The one file writer for every artifact the lab leaves on disk."""

from __future__ import annotations

import os
from pathlib import Path


def write_whole(path, text: str) -> Path:
    """Write `text` to `path` whole or not at all: a temp file, then a rename; on
    any failure the temp file is removed."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
