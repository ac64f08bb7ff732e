"""On-disk cache for Gram matrices.

One file per (c, h, level) key.  Files are content-addressed by a
stable hash of the operation name and the exact parameters; rationals
are serialized as "numerator/denominator" strings so nothing ever
passes through floating point.  Writes go to a temporary file in the
same directory followed by an atomic rename, so concurrent writers are
safe and a cache entry is either absent or complete.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .serialize import frac_str, parse_frac
from .verma import GramMatrix, VermaParams

SCHEMA_VERSION = 1


class GramCache:
    """Directory-backed store of exact Gram matrices."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, params: VermaParams, level: int) -> Path:
        key = json.dumps(
            ["gram", frac_str(params.c), frac_str(params.h), level],
            separators=(",", ":"),
        )
        digest = hashlib.sha256(key.encode()).hexdigest()[:32]
        return self.directory / f"gram-{digest}.json"

    def load(self, params: VermaParams, level: int) -> GramMatrix | None:
        path = self._path(params, level)
        if not path.exists():
            return None
        data = json.loads(path.read_text())
        if data.get("schema_version") != SCHEMA_VERSION:
            return None
        basis = tuple(tuple(parts) for parts in data["basis"])
        entries = tuple(
            tuple(parse_frac(s) for s in row) for row in data["entries"]
        )
        return GramMatrix(params=params, level=level, basis=basis, entries=entries)

    def store(self, gram: GramMatrix) -> None:
        path = self._path(gram.params, gram.level)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "operation": "gram",
            "c": frac_str(gram.params.c),
            "h": frac_str(gram.params.h),
            "level": gram.level,
            "basis": [list(parts) for parts in gram.basis],
            "entries": [[frac_str(x) for x in row] for row in gram.entries],
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
