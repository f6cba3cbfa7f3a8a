"""Deterministic output writers: JSON, CSV, SVG; atomic file replacement.

Identical inputs must produce byte-identical files: no timestamps, sorted
keys, repr-based float formatting.  Integers beyond 2^53 are serialized as
decimal strings so JSON consumers with double-precision numbers never see
rounded values.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from fractions import Fraction

_BIG = 2 ** 53


def _normalize(obj):
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _BIG else obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return obj
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_normalize(obj), sort_keys=True,
                      separators=(",", ":"))


def pretty_json(obj) -> str:
    return json.dumps(_normalize(obj), sort_keys=True, indent=2) + "\n"


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header: list[str], rows, meta: dict | None = None) -> str:
    lines = []
    if meta:
        pairs = ",".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"# {pairs}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row))
    return "\n".join(lines) + "\n"


def svg_segments(segments, meta: dict | None = None) -> str:
    """Line-art 480 x 480 SVG of segments ((x0, y0), (x1, y1), css_class)."""
    if segments:
        xs = [p for s in segments for p in (s[0][0], s[1][0])]
        ys = [p for s in segments for p in (s[0][1], s[1][1])]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
    else:
        x0 = y0 = 0.0
        x1 = y1 = 1.0
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0
    size, pad = 480.0, 10.0

    def sx(x):
        return pad + (x - x0) / dx * (size - 2 * pad)

    def sy(y):
        return size - pad - (y - y0) / dy * (size - 2 * pad)

    out = ['<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{size:g}" height="{size:g}">']
    if meta:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        out.append(f"<!-- {pairs} -->")
    out.append('<style>.A{stroke:#c22;}.C{stroke:#26c;}.D{stroke:#222;}'
               'line{stroke-width:1.5;}</style>')
    for (p, q, cls) in segments:
        out.append(f'<line class="{cls}" x1="{sx(p[0]):.3f}" '
                   f'y1="{sy(p[1]):.3f}" x2="{sx(q[0]):.3f}" '
                   f'y2="{sy(q[1]):.3f}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
