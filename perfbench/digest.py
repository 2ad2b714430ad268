"""Output digests: CRC-32 and byte count.

Enough to tell two outputs of one job apart, and computable in the small
process that spawns the timed jobs without loading OpenSSL, which would
add about 3.5 MB to it (see ``run.py`` on why that process must stay small).
"""

from __future__ import annotations

import zlib
from pathlib import Path


def of_bytes(data: bytes) -> str:
    return f"{zlib.crc32(data):08x}-{len(data)}"


def of_file(path: Path) -> str:
    crc, size = 0, 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 16):
            crc = zlib.crc32(chunk, crc)
            size += len(chunk)
    return f"{crc:08x}-{size}"
