"""Canonical serialization helpers shared by reports, configs and the CLI.

Canonical JSON (sorted keys, compact separators, shortest-roundtrip floats)
makes report bytes reproducible, so configs can be hashed and re-runs can be
compared byte for byte.  JSON and CSV output are strict: a NaN or infinity
fails with NON_FINITE before the file is opened.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import astuple, fields, is_dataclass
from typing import Iterable, Sequence

from .errors import fail


def _dumps(obj, **kwargs) -> str:
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError as e:
        fail("NON_FINITE", f"JSON output holds a NaN or infinity ({e})")


def canonical_json(obj) -> str:
    return _dumps(obj, separators=(",", ":"), ensure_ascii=False)


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def write_text(path, text: str):
    """Write text to path, creating its directory; callers format first, so
    a failed check leaves no file behind."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)


JSON_INDENT = 2     # the indent of every JSON file written


def write_json(path, obj):
    write_text(path, _dumps(obj, indent=JSON_INDENT) + "\n")


def format_csv(header: Sequence[str], rows: Iterable[Sequence], comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows, comments=()):
    write_text(path, format_csv(header, rows, comments))


def write_records(path, record_type, rows, comments=()):
    """CSV of dataclass rows: the field names are the header, one astuple per row."""
    write_csv(path, [f.name for f in fields(record_type)], map(astuple, rows), comments)


def record_json(record) -> dict:
    """The compare=True fields of a dataclass, tuples as lists and records as
    their own record_json: its JSON form."""
    return {f.name: _plain(getattr(record, f.name)) for f in fields(record) if f.compare}


def _plain(v):
    if is_dataclass(v):
        return record_json(v)
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    return [_plain(x) for x in v] if isinstance(v, (tuple, list)) else v


def _cell(v) -> str:
    if isinstance(v, float):
        if not math.isfinite(v):
            fail("NON_FINITE", f"CSV output holds a NaN or infinity ({v!r})")
        return repr(float(v))      # numpy 2 scalars repr as np.float64(...)
    return str(v)
