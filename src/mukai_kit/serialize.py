"""Deterministic output writers: JSON, CSV, SVG; atomic file replacement.

Identical inputs must produce byte-identical files: no timestamps, sorted
keys, repr-based float formatting.  Integers beyond 2^53 and Fractions are
serialized as decimal strings so JSON consumers with double-precision
numbers never see rounded values.  Keys go through str(); floats are
float.__repr__ with json's NaN and Infinity; what json rejects raises
TypeError.  A :class:`Table` (a 2-d int or float array) spells each cell
once for ``csv_text`` and the JSON writers alike; lists of same-keyed
records whose values are rectangular nests of plain numbers, or of strings
and Nones, go out in one str.join.  Digests use CPython's built-in SHA-256
module, as ``random`` does for SHA-512, so OpenSSL is never loaded.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

try:
    from _sha2 import sha256 as _sha256    # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

_BIG = 2 ** 53
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_SPELL = {int: int.__repr__, float: float.__repr__, str: _quote,
          type(None): lambda _: "null"}


def _texts(cells: list) -> list[str] | None:
    """The JSON text of each cell when the cells are all ints within
    +-2^53, all finite floats, or all strs and Nones; else None."""
    types = set(map(type, cells))
    if types == {int}:
        if not (-_BIG <= min(cells) and max(cells) <= _BIG):
            return None
    elif types == {float}:
        if not all(map(math.isfinite, cells)):
            return None
    elif not {str, type(None)}.issuperset(types):
        return None
    if len(types) == 1:
        return list(map(_SPELL[types.pop()], cells))
    return [_SPELL[type(x)](x) for x in cells]


def _shape(level):
    """(dims, cells) of a list of equal-shape nests of lists or tuples: the
    dims of one nest (empty for scalars) and every cell, in order; None for
    ragged or empty nests."""
    dims = []
    while {list, tuple}.issuperset(map(type, level)):
        lens = set(map(len, level))
        if len(lens) != 1 or 0 in lens:
            return None
        dims.append(lens.pop())
        level = list(itertools.chain.from_iterable(level))
    return dims, level


def _weave(head: str, gaps: list[str], tail: str, texts: list[str]) -> str:
    """``head``, the ``texts`` with ``gaps[i]`` between texts i and i + 1,
    then ``tail``: one str.join."""
    parts = [head] * (2 * len(texts) + 1)
    parts[1::2] = texts
    parts[2:-1:2] = gaps
    parts[-1] = tail
    return "".join(parts)


def _list_frame(elem, count: int, nl: str, step: str):
    """(head, gaps, tail) of a JSON list at indent ``nl`` of ``count``
    elements that each have the frame ``elem`` at indent nl + step."""
    head, gaps, tail = elem
    inner = nl + step
    return ("[" + inner + head,
            ((gaps + [tail + "," + inner + head]) * count)[:-1],
            tail + nl + "]")


def _nest(dims, nl: str, step: str):
    """(head, gaps, tail) of a nest of shape ``dims`` at indent ``nl``."""
    if not dims:
        return "", [], ""
    return _list_frame(_nest(dims[1:], nl + step, step), dims[0], nl, step)


def _records(rows, nl: str, step: str, colon: str):
    """(head, gaps, tail, texts) of the JSON list at indent ``nl`` of
    ``rows``, dicts with the same str keys whose values, key by key, are
    nests of one shape whose cells ``_texts`` spells; else None."""
    keys = rows[0].keys() if type(rows[0]) is dict else ()
    if not (keys and all(type(k) is str for k in keys) and all(
            type(r) is dict and r.keys() == keys for r in rows)):
        return None
    field = nl + step + step
    seps, cols = ["{"], []      # the text before each cell, then after all
    for k in sorted(keys):
        shape = _shape([r[k] for r in rows])
        texts = shape and _texts(shape[1])
        if texts is None:
            return None
        v_head, v_gaps, v_tail = _nest(shape[0], field, step)
        seps[-1] += field + _quote(k) + colon + v_head
        seps += v_gaps + [v_tail + ","]
        cols.append(zip(*[iter(texts)] * (len(texts) // len(rows))))
    head, *gaps, tail = seps
    flat = itertools.chain.from_iterable
    return (*_list_frame((head, gaps, tail[:-1] + nl + step + "}"),
                         len(rows), nl, step), list(flat(flat(zip(*cols)))))


class Table:
    """A 2-d int or float array that ``csv_text`` and the JSON writers
    write alike.  When every cell is an int within +-2^53 or a finite
    float, CSV and JSON spell it the same way, so ``texts`` turns each cell
    into text once, for both; otherwise ``texts`` is None and the writers
    read ``values.tolist()`` as they read any list."""

    def __init__(self, values: np.ndarray):
        self.values = values

    @cached_property
    def texts(self) -> list[str] | None:
        a = self.values
        if not a.size:
            return None
        if a.dtype.kind == "i":
            lo, hi = int(a.min()), int(a.max())
            if -_BIG <= lo and hi <= _BIG and hi - lo < a.size:
                # one lookup of str(lo ... hi)
                spelled = np.array(list(map(str, range(lo, hi + 1))),
                                   dtype=object)
                return spelled[(a - lo).ravel()].tolist()
        cells = a.ravel().tolist()
        return _texts(cells) if {int, float}.issuperset(
            map(type, cells)) else None


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
    if isinstance(obj, Table):
        if obj.texts is None:
            return _json(obj.values.tolist(), nl, step, colon)
        return _weave(*_nest(obj.values.shape, nl, step), obj.texts)
    inner = nl + step
    sep = "," + inner
    if isinstance(obj, dict) and obj:
        items = sorted({str(k): v for k, v in obj.items()}.items())
        return "{" + inner + sep.join(_quote(k) + colon + _json(
            v, inner, step, colon) for k, v in items) + nl + "}"
    if isinstance(obj, (list, tuple)) and obj:
        records = _records(obj, nl, step, colon)
        if records:
            return _weave(*records)
        return "[" + inner + sep.join(
            _json(v, inner, step, colon) for v in obj) + nl + "]"
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
    """CSV of ``rows``, a Table or an iterable of rows: a cell is
    float.__repr__ of a float and str of anything else."""
    lines = []
    if meta:
        pairs = ",".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"# {pairs}")
    lines.append(",".join(header))
    if isinstance(rows, Table) and rows.texts is not None:
        width, texts = rows.values.shape[1], rows.texts
        gaps = [","] * (width - 1) + ["\n"]
        lines.append(_weave("", (gaps * (len(texts) // width))[:-1], "",
                            texts))
    else:
        # str of a float, numpy floats included, is float.__repr__
        rows = rows.values.tolist() if isinstance(rows, Table) else rows
        lines.extend(",".join(map(str, row)) for row in rows)
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
