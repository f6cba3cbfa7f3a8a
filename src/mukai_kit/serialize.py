"""Deterministic output writers: JSON, CSV, SVG; atomic file replacement.

Identical inputs must produce byte-identical files: no timestamps, sorted
keys, repr-based float formatting.  Integers beyond 2^53 and Fractions are
serialized as decimal strings so JSON consumers with double-precision
numbers never see rounded values.  Keys go through str(); floats are
float.__repr__ with json's NaN and Infinity; what json rejects raises
TypeError.  Rectangular nests of plain numbers, and lists of same-keyed
records of them, take one str.format.  Digests use CPython's built-in
SHA-256 module, as ``random`` does for SHA-512, so OpenSSL is never loaded.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

try:
    from _sha2 import sha256 as _sha256    # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

_BIG = 2 ** 53
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _plain(values) -> bool:
    """All exact ints within +-2^53, or all finite exact floats."""
    types = set(map(type, values))
    if types == {int}:
        return -_BIG <= min(values) and max(values) <= _BIG
    return types == {float} and all(map(math.isfinite, values))


def _shape(level, ok=_plain):
    """(dims, cells) of a list of equal-shape nests of lists or tuples (dims
    empty for numbers) whose cells, in order, pass ``ok``; else None."""
    dims = []
    while {list, tuple}.issuperset(map(type, level)):
        lens = set(map(len, level))
        if len(lens) != 1 or 0 in lens:
            return None
        dims.append(lens.pop())
        level = list(itertools.chain.from_iterable(level))
    return (dims, level) if ok(level) else None


def _nest(dims, nl: str, step: str) -> str:
    """str.format template of a nest of shape ``dims`` at indent ``nl``."""
    if not dims:
        return "{}"
    inner = nl + step
    return "[" + inner + ("," + inner).join(
        [_nest(dims[1:], inner, step)] * dims[0]) + nl + "]"


def _records(rows, nl: str, step: str, colon: str) -> str | None:
    """``rows``, dicts with the same str keys whose values, key by key, are
    plain nests of one shape, as one str.format template; else None."""
    keys = rows[0].keys() if type(rows[0]) is dict else ()
    if not (keys and all(type(k) is str for k in keys) and all(
            type(r) is dict and r.keys() == keys for r in rows)):
        return None
    inner, fields, cols = nl + step, [], []
    for k in sorted(keys):
        shape = _shape([r[k] for r in rows])
        if shape is None:
            return None
        dims, cells = shape
        fields.append(_quote(k).replace("{", "{{").replace("}", "}}")
                      + colon + _nest(dims, inner, step))
        cols.append(zip(*[iter(cells)] * (len(cells) // len(rows))))
    row = "{{" + inner + ("," + inner).join(fields) + nl + "}}"
    flat = itertools.chain.from_iterable
    return ("," + nl).join([row] * len(rows)).format(*flat(flat(zip(*cols))))


def _json(obj, nl: str, step: str, colon: str) -> str:
    """JSON text of ``obj`` whose lines break and indent as ``nl``."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or isinstance(obj, bool):
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return int.__repr__(obj) if -_BIG <= obj <= _BIG else _quote(str(obj))
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NONFINITE.get(text, text)
    if isinstance(obj, Fraction):
        return _quote(str(obj))
    inner = nl + step
    sep = "," + inner
    if isinstance(obj, dict) and obj:
        items = sorted({str(k): v for k, v in obj.items()}.items())
        return "{" + inner + sep.join(_quote(k) + colon + _json(
            v, inner, step, colon) for k, v in items) + nl + "}"
    if isinstance(obj, (list, tuple)) and obj:
        shape = _shape([obj])
        if shape:
            return _nest(shape[0], nl, step).format(*shape[1])
        return "[" + inner + (_records(obj, inner, step, colon) or sep.join(
            _json(v, inner, step, colon) for v in obj)) + nl + "]"
    if isinstance(obj, (dict, list, tuple)):
        return "{}" if isinstance(obj, dict) else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} "
                    "is not JSON serializable")


def canonical_json(obj) -> str:
    return _json(obj, "", "", ":")


def pretty_json(obj) -> str:
    return _json(obj, "\n", "  ", ": ") + "\n"


def digest(data: bytes) -> str:
    """The first 16 hex digits of the SHA-256 of ``data``."""
    return _sha256(data).hexdigest()[:16]


def config_hash(config: dict) -> str:
    return digest(canonical_json(config).encode())


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
    rows = list(rows)
    shape = _shape(rows, lambda cells: {int, float, str}.issuperset(
        map(type, cells)))
    lines.extend(["\n".join([",".join(["{}"] * shape[0][0])] * len(rows))
                  .format(*shape[1])] if shape and len(shape[0]) == 1 else (
        ",".join(float.__repr__(x) if isinstance(x, float) else str(x)
                 for x in row) for row in rows))
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
