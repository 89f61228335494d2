"""Frozen copy of the report writer before it escaped strings with ``json``.

``report.dumps_report`` must write the same bytes for every string free of
the five control characters with short JSON escapes (backspace, tab,
newline, form feed, carriage return), which this writer spelled \\u00XX.
The old bodies are kept here verbatim as the reference, timestamp aside.
"""

import numpy as np

from dpkit.report import format_float


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


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
        parts.append(f'"{_escape(obj)}"')
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        keys = sorted(obj, key=str)
        for k, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            parts.append(f'{pad}  "{_escape(key)}": ')
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


def dumps_report(data: dict) -> str:
    """The old canonical JSON text of ``data``, without a timestamp."""
    parts: list = []
    _dump(data, parts, 0)
    parts.append("\n")
    return "".join(parts)
