"""On-disk cache of Gram matrices and Kac determinants, read and written
by `verma.kac_determinant(params, level, cache)` only.

One file per (c, h, level) key and record kind: `gram-<digest>.json`
holds a Gram matrix, `kacdet-<digest>.json` its determinant.  The
determinant comes from the Kac product formula and costs far less than
the matrix, but a cold one still writes the Gram record.  Files are
content-addressed by a stable hash of the operation name and the exact
parameters; rationals are serialized as "numerator/denominator"
strings so nothing ever passes through floating point.  A record whose
schema_version differs, or that does not parse, is a miss, and the
recomputed value replaces it.  Writes go to a temporary file in the
same directory followed by an atomic rename, so concurrent writers are
safe and a cache entry is either absent or complete.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path

from .serialize import frac_str, parse_frac
from .verma import GramMatrix, VermaParams

SCHEMA_VERSION = 1


class GramCache:
    """Directory-backed store of exact Gram matrices and determinants."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, operation: str, params: VermaParams, level: int) -> Path:
        key = json.dumps(
            [operation, frac_str(params.c), frac_str(params.h), level],
            separators=(",", ":"),
        )
        digest = hashlib.sha256(key.encode()).hexdigest()[:32]
        return self.directory / f"{operation}-{digest}.json"

    def _read(self, operation: str, params: VermaParams, level: int, parse):
        """parse(record), or None for an absent, outdated or corrupt record."""
        try:
            data = json.loads(self._path(operation, params, level).read_text())
            if data.get("schema_version") != SCHEMA_VERSION:
                return None
            return parse(data)
        except (FileNotFoundError, ValueError, KeyError, TypeError, AttributeError,
                ZeroDivisionError):
            return None

    def _write(self, operation: str, params: VermaParams, level: int, record: dict) -> None:
        path = self._path(operation, params, level)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "operation": operation,
            "c": frac_str(params.c),
            "h": frac_str(params.h),
            "level": level,
            **record,
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(payload))  # the C encoder; json.dump streams in Python
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def load(self, params: VermaParams, level: int) -> GramMatrix | None:
        def parse(data):
            basis = tuple(tuple(parts) for parts in data["basis"])
            entries = tuple(tuple(parse_frac(s) for s in row) for row in data["entries"])
            return GramMatrix(params=params, level=level, basis=basis, entries=entries)

        return self._read("gram", params, level, parse)

    def store(self, gram: GramMatrix) -> None:
        entries = gram.entries
        text: list[list[str]] = []
        for i, row in enumerate(entries):  # an entry held at (j, i) too is written once
            text.append([
                text[j][i] if j < i and x is entries[j][i] else frac_str(x)
                for j, x in enumerate(row)
            ])
        self._write("gram", gram.params, gram.level, {
            "basis": [list(parts) for parts in gram.basis],
            "entries": text,
        })

    def load_determinant(self, params: VermaParams, level: int) -> Fraction | None:
        return self._read("kacdet", params, level, lambda data: parse_frac(data["determinant"]))

    def store_determinant(self, params: VermaParams, level: int, value: Fraction) -> None:
        self._write("kacdet", params, level, {"determinant": frac_str(value)})
