"""Deterministic JSON reports.

The standard json module formats floats with repr, whose digit count depends
on the value; reports here always use 17 significant digits, sort object keys,
and map non-finite floats to the strings "inf", "-inf", "nan" (plain JSON has
no spelling for them).  Identical data therefore serializes to identical
bytes, which is what makes rerun-comparison tests meaningful.  Strings are
written by ``json.dumps(s, ensure_ascii=False)``: non-ASCII text as is, and
backspace, tab, newline, form feed and carriage return as short escapes.
"""

from __future__ import annotations

import datetime
import json
from pathlib import Path

import numpy as np

__all__ = ["dumps_report", "write_report", "format_float"]


def format_float(x: float) -> str:
    x = float(x)
    if np.isnan(x):
        return '"nan"'
    if np.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _dump(obj, parts: list, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        parts.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        keys = sorted(obj, key=str)
        for k, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            parts.append(f"{pad}  {json.dumps(key, ensure_ascii=False)}: ")
            _dump(obj[key], parts, indent + 1)
            parts.append(",\n" if k + 1 < len(keys) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            parts.append("[]")
            return
        parts.append("[\n")
        for k, item in enumerate(items):
            parts.append(pad + "  ")
            _dump(item, parts, indent + 1)
            parts.append(",\n" if k + 1 < len(items) else "\n")
        parts.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dumps_report(data: dict, timestamp: bool = True) -> str:
    """Serialize ``data`` to canonical JSON text (trailing newline included)."""
    if timestamp:
        data = dict(data)
        data["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    parts: list = []
    _dump(data, parts, 0)
    parts.append("\n")
    return "".join(parts)


def write_report(path, data: dict, timestamp: bool = True) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_report(data, timestamp=timestamp))
    return path
