"""The text ``json.dumps(obj, indent=2)`` gives, written in pieces.

CPython's indenting encoder is pure Python and joins every chunk. So a
payload's large sections stand in it as ``null`` slots, and ``write_payload``
writes each slot's value as its fill writes it. A record list goes out
through ``write_list`` in blocks of ``BLOCK`` characters or more, so a
stream that writes straight through makes a few large writes, not one per
record. The records come from a ``%`` template per record shape: strings
quoted by ``json``'s ASCII encoder, and numbers by ``%s``, which gives
``json``'s text for a finite int or float.
"""

from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii as quote
from typing import Iterable, Sequence

# the fewest characters ``write_list`` hands ``write`` at once, but for
# the block that closes the list
BLOCK = 1 << 16


@lru_cache(maxsize=256)
def pad(depth: int) -> str:
    """The line break and indent that start a line ``depth`` levels in."""
    return "\n" + "  " * depth


@lru_cache(maxsize=256)
def template(depth: int, *keys: str) -> str:
    """An object ``depth`` levels in with these keys, a ``%s`` for each value."""
    return "{" + ",".join(f'{pad(depth + 1)}"{key}": %s' for key in keys) + pad(depth) + "}"


def names(labels: Sequence[str], depth: int):
    """``name(ids)``, the JSON list ``depth`` levels in of the ids' labels,
    sorted by label. The distinct labels are ranked and quoted once, so a
    list sorts the ids' ranks as ints."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    # the inverse permutation: id -> its label's rank
    rank = sorted(range(len(order)), key=order.__getitem__).__getitem__
    quoted = [quote(labels[i]) for i in order].__getitem__
    head, sep, tail = "[" + pad(depth + 1), "," + pad(depth + 1), pad(depth) + "]"
    return lambda ids: head + sep.join(map(quoted, sorted(map(rank, ids)))) + tail if ids else "[]"


def array(texts: Sequence[str], depth: int) -> str:
    """A list ``depth`` levels in of values already in JSON text."""
    inner = pad(depth + 1)
    return "[" + inner + ("," + inner).join(texts) + pad(depth) + "]" if texts else "[]"


def write_list(texts: Iterable[str], depth: int, write, end: str = "") -> None:
    """Write ``array`` of the texts and then ``end`` in blocks: each ``write``
    call but the last, which closes the list and holds ``end``, gets at
    least ``BLOCK`` characters, and at most one value and its separator more."""
    head, sep = "[" + pad(depth + 1), "," + pad(depth + 1)
    block, size = [], 0
    for text in texts:
        block.append(text)
        # head and sep are one length, so size is the length of the block's text
        size += len(sep) + len(text)
        if size >= BLOCK:
            write(head + sep.join(block))
            head, block, size = sep, [], 0
    if block:
        write(head + sep.join(block) + pad(depth) + "]" + end)
    else:
        write((pad(depth) + "]" if head is sep else "[]") + end)


def write_payload(payload: dict, fills, write) -> None:
    """Write ``json.dumps(payload, indent=2)`` and a newline, each ``"key":
    null`` slot's value by ``fill(write, depth)`` at the key's depth, for
    each ``(key, fill)`` of ``fills`` in text order. A ``"`` in a string is
    escaped, so with fixed key names a slot's text occurs only as its key."""
    text = json.dumps(payload, indent=2)
    for key, fill in fills:
        slot = '"' + key + '": '
        head, _, text = text.partition(slot + "null")
        write(head + slot)
        fill(write, (len(head) - 1 - head.rindex("\n")) // 2)
    write(text + "\n")
