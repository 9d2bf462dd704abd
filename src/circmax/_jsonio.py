"""JSON reading and writing on the stdlib codec.

Output is compact (no indentation, no spaces after separators), which
keeps CPython on its C encoder.  Floats are written as their shortest
round-trip repr, so 64-bit values survive a write/read round trip
bit-exactly; non-finite floats raise ValueError.
"""

import json


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n"


def dump(obj, path) -> None:
    text = dumps(obj)  # encode first: a ValueError must not truncate path
    with open(path, "w") as fh:
        fh.write(text)


def load(path):
    with open(path) as fh:
        return json.load(fh)
