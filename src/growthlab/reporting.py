"""Canonical serialization helpers shared by reports, configs and the CLI.

Canonical JSON (sorted keys, compact separators, shortest-roundtrip floats)
makes report bytes reproducible, so configs can be hashed and re-runs can be
compared byte for byte.  JSON output is strict: a NaN or infinity fails with
NON_FINITE before any byte is written.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable, Sequence

from .errors import fail


def _dumps(obj, **kwargs) -> str:
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError as e:
        fail("NON_FINITE", f"JSON output holds a NaN or infinity ({e})")


def canonical_json(obj) -> str:
    return _dumps(obj, separators=(",", ":"), ensure_ascii=False)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_hash(obj) -> str:
    return sha256_hex(canonical_json(obj).encode("utf-8"))


def write_json(path, obj, indent=2):
    text = _dumps(obj, indent=indent)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        f.write(text + "\n")


def format_csv(header: Sequence[str], rows: Iterable[Sequence], comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows, comments=()):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        f.write(format_csv(header, rows, comments))


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)
