"""JSON reading and writing on the stdlib codec.

Floats are written as their shortest round-trip repr, so 64-bit values
survive a write/read round trip bit-exactly; non-finite floats raise
ValueError.
"""

import json


def dumps(obj, indent=2) -> str:
    return json.dumps(obj, indent=indent, allow_nan=False) + "\n"


def dump(obj, path, indent=2) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj, indent))


def load(path):
    with open(path) as fh:
        return json.load(fh)
