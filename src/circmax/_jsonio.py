"""JSON reading and writing on the stdlib codec.

Output is compact (no indentation, no spaces after separators), which
keeps CPython on its C encoder.  Floats are written as their shortest
round-trip repr, so 64-bit values survive a write/read round trip
bit-exactly; non-finite floats raise ValueError.

A stack of blocks is stored as one flat row per block: ``rows_of`` writes
it and ``blocks_of`` reads it back; ``ints_of`` reads the sizes m, n, N, T.
"""

import json

import numpy as np

from .errors import DimensionError


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n"


def dump(obj, path) -> None:
    text = dumps(obj)  # encode first: a ValueError must not truncate path
    with open(path, "w") as fh:
        fh.write(text)


def load(path):
    with open(path) as fh:
        return json.load(fh)


def ints_of(d: dict, *keys: str) -> tuple:
    """The values of d at keys; one that is not a JSON integer raises ValueError."""
    for k in keys:
        if type(d[k]) is not int:  # not isinstance: bool is an int subclass
            raise ValueError(f"{k} must be a JSON integer, got {d[k]!r}")
    return tuple(d[k] for k in keys)


def rows_of(blocks: np.ndarray) -> list:
    """Each block of a stack as one flat list of floats."""
    return blocks.reshape(len(blocks), -1).tolist()


def blocks_of(rows, count: int, shape: tuple, what: str) -> np.ndarray:
    """Stack of count blocks of the given shape from rows_of's lists.

    A wrong number of rows raises DimensionError; a ragged row or one of
    the wrong length raises ValueError.
    """
    if len(rows) != count:
        raise DimensionError(f"expected {count} {what}, got {len(rows)}")
    return np.asarray(rows, dtype=float).reshape(count, *shape)
