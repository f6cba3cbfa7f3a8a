import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from json.encoder import encode_basestring_ascii as _quote

from mukai_kit import serialize

_BIG = 2 ** 53


# -- oracle writers: json.dumps over a normalised copy, Tables as lists -----

def _normalize(obj):
    if isinstance(obj, serialize.Table):
        return _normalize(obj.values.tolist())
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
    return obj


def oracle_canonical_json(obj) -> str:
    return json.dumps(_normalize(obj), sort_keys=True, separators=(",", ":"))


def oracle_pretty_json(obj) -> str:
    return json.dumps(_normalize(obj), sort_keys=True, indent=2) + "\n"


def oracle_csv_text(header, rows, meta=None) -> str:
    lines = []
    if meta:
        pairs = ",".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"# {pairs}")
    lines.append(",".join(header))
    if isinstance(rows, serialize.Table):
        rows = rows.values.tolist()
    for row in rows:
        lines.append(",".join(float.__repr__(x) if isinstance(x, float)
                              else str(x) for x in row))
    return "\n".join(lines) + "\n"


# -- the pre-Table writer: one str.format template per plain nest ------------

def _pre_plain(values) -> bool:
    types = set(map(type, values))
    if types == {int}:
        return -_BIG <= min(values) and max(values) <= _BIG
    return types == {float} and all(map(math.isfinite, values))


def _pre_shape(level, ok=_pre_plain):
    dims = []
    while {list, tuple}.issuperset(map(type, level)):
        lens = set(map(len, level))
        if len(lens) != 1 or 0 in lens:
            return None
        dims.append(lens.pop())
        level = list(itertools.chain.from_iterable(level))
    return (dims, level) if ok(level) else None


def _pre_nest(dims, nl, step):
    if not dims:
        return "{}"
    inner = nl + step
    return "[" + inner + ("," + inner).join(
        [_pre_nest(dims[1:], inner, step)] * dims[0]) + nl + "]"


def _pre_records(rows, nl, step, colon):
    keys = rows[0].keys() if type(rows[0]) is dict else ()
    if not (keys and all(type(k) is str for k in keys) and all(
            type(r) is dict and r.keys() == keys for r in rows)):
        return None
    inner, fields, cols = nl + step, [], []
    for k in sorted(keys):
        shape = _pre_shape([r[k] for r in rows])
        if shape is None:
            return None
        dims, cells = shape
        fields.append(_quote(k).replace("{", "{{").replace("}", "}}")
                      + colon + _pre_nest(dims, inner, step))
        cols.append(zip(*[iter(cells)] * (len(cells) // len(rows))))
    row = "{{" + inner + ("," + inner).join(fields) + nl + "}}"
    flat = itertools.chain.from_iterable
    return ("," + nl).join([row] * len(rows)).format(*flat(flat(zip(*cols))))


def _pre_json(obj, nl, step, colon):
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or isinstance(obj, bool):
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return int.__repr__(obj) if -_BIG <= obj <= _BIG else _quote(str(obj))
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(
            text, text)
    if isinstance(obj, Fraction):
        return _quote(str(obj))
    inner = nl + step
    sep = "," + inner
    if isinstance(obj, dict) and obj:
        items = sorted({str(k): v for k, v in obj.items()}.items())
        return "{" + inner + sep.join(_quote(k) + colon + _pre_json(
            v, inner, step, colon) for k, v in items) + nl + "}"
    if isinstance(obj, (list, tuple)) and obj:
        shape = _pre_shape([obj])
        if shape:
            return _pre_nest(shape[0], nl, step).format(*shape[1])
        return "[" + inner + (_pre_records(obj, inner, step, colon) or sep.join(
            _pre_json(v, inner, step, colon) for v in obj)) + nl + "]"
    if isinstance(obj, (dict, list, tuple)):
        return "{}" if isinstance(obj, dict) else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} "
                    "is not JSON serializable")


def prechange_canonical_json(obj) -> str:
    return _pre_json(obj, "", "", ":")


def prechange_pretty_json(obj) -> str:
    return _pre_json(obj, "\n", "  ", ": ") + "\n"


def prechange_csv_text(header, rows, meta=None) -> str:
    lines = []
    if meta:
        pairs = ",".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"# {pairs}")
    lines.append(",".join(header))
    rows = list(rows)
    shape = _pre_shape(rows, lambda cells: {int, float, str}.issuperset(
        map(type, cells)))
    lines.extend(["\n".join([",".join(["{}"] * shape[0][0])] * len(rows))
                  .format(*shape[1])] if shape and len(shape[0]) == 1 else (
        ",".join(float.__repr__(x) if isinstance(x, float) else str(x)
                 for x in row) for row in rows))
    return "\n".join(lines) + "\n"


def _outcome(fn, obj):
    try:
        return fn(obj)
    except TypeError:
        return TypeError


_EDGE_INTS = st.sampled_from([_BIG, -_BIG, _BIG + 1, -_BIG - 1, 0])
_INTS = st.one_of(st.integers(-2 ** 60, 2 ** 60), _EDGE_INTS)
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, float("nan"), float("inf"),
                     float("-inf")]),
    st.floats(allow_nan=True).map(np.float64))
_KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(),
                  st.sampled_from(["1", "-1", "True", "False", "0"]))
_LEAVES = st.one_of(
    _INTS, st.booleans(), st.none(), _FLOATS,
    st.fractions(max_denominator=50), st.text(max_size=6),
    st.text(st.characters(max_codepoint=0x1F), max_size=4),
    st.text(st.characters(min_codepoint=0x80), max_size=4))


def _matrices(cells):
    return st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(cells, min_size=n, max_size=n).map(tuple)
        | st.lists(cells, min_size=n, max_size=n), min_size=1, max_size=5))


_NUMBERS = st.one_of(_INTS, _FLOATS)


def _values(leaves):
    return st.recursive(
        st.one_of(leaves, st.lists(_INTS, max_size=6),
                  st.lists(st.floats(allow_nan=False), max_size=6),
                  _matrices(st.integers(-_BIG - 2, _BIG + 2)),
                  _matrices(st.floats(allow_nan=True)),
                  _matrices(_NUMBERS),
                  st.lists(st.lists(_INTS, max_size=3), max_size=4),
                  st.lists(st.lists(_FLOATS, max_size=3), max_size=4)),
        lambda kids: st.one_of(
            st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
            st.dictionaries(_KEYS, kids, max_size=4)),
        max_leaves=30)


def test_big_ints_become_strings():
    text = serialize.pretty_json({"big": 2**60, "small": 7,
                                  "neg": -(2**80)})
    data = json.loads(text)
    assert data["big"] == str(2**60)
    assert data["small"] == 7
    assert data["neg"] == str(-(2**80))


def test_fractions_serialized_exactly():
    text = serialize.canonical_json({"q": Fraction(-3, 7)})
    assert json.loads(text)["q"] == "-3/7"


def test_config_hash_stable_and_order_free():
    h1 = serialize.config_hash({"a": 1, "b": [1, 2]})
    h2 = serialize.config_hash({"b": [1, 2], "a": 1})
    assert h1 == h2
    assert h1 != serialize.config_hash({"a": 2, "b": [1, 2]})


@given(st.binary(max_size=300))
def test_digest_is_sha256_prefix(data):
    import hashlib
    assert serialize.digest(data) == hashlib.sha256(data).hexdigest()[:16]


def test_atomic_write_and_csv(tmp_path):
    out = tmp_path / "x.csv"
    text = serialize.csv_text(["t", "v"], [(0.1, 2), (0.25, -3)],
                              meta={"k": "z"})
    serialize.atomic_write(str(out), text)
    lines = out.read_text().splitlines()
    assert lines[0] == "# k=z"
    assert lines[1] == "t,v"
    assert lines[2] == "0.1,2"


def test_svg_smoke():
    svg = serialize.svg_segments([((0.0, 0.0), (1.0, 2.0), "A")],
                                 meta={"m": 1})
    assert svg.startswith("<svg") and "line" in svg and "</svg>" in svg


@settings(max_examples=400, deadline=None)
@given(_values(_LEAVES))
def test_writers_match_json_oracle(obj):
    assert serialize.pretty_json(obj) == oracle_pretty_json(obj)
    assert serialize.canonical_json(obj) == oracle_canonical_json(obj)


@settings(max_examples=100, deadline=None)
@given(_values(st.one_of(_LEAVES, st.integers(-3, 3).map(np.int64))))
def test_writers_match_json_oracle_or_both_reject(obj):
    # np.int64 is not an int: json rejects it, and so must the writer
    for write, oracle in ((serialize.pretty_json, oracle_pretty_json),
                          (serialize.canonical_json, oracle_canonical_json)):
        assert _outcome(write, obj) == _outcome(oracle, obj)


@pytest.mark.parametrize("obj", [
    {"roots": [[1, -2, 3], [0, 0, _BIG + 1]], "x": [1.5, float("nan")]},
    {1: "a", "1": "b", True: [], "": {}, "e": ()},
    [[0.1, np.float64(0.2)], [-0.0, 5e-324]],
    {"q": [Fraction(1, 3), Fraction(-7)], "s": "\u00e9\x00\n\"\\"},
])
def test_writers_match_json_oracle_examples(obj):
    assert serialize.pretty_json(obj) == oracle_pretty_json(obj)
    assert serialize.canonical_json(obj) == oracle_canonical_json(obj)


@pytest.mark.parametrize("obj", [np.int64(3), [np.int64(3)],
                                 [[1, 2], [3, np.int64(4)]],
                                 {"a": {"b": np.int64(1)}}, np.bool_(True)])
def test_writers_reject_what_json_rejects(obj):
    for write in (serialize.pretty_json, serialize.canonical_json):
        with pytest.raises(TypeError, match="not JSON serializable"):
            write(obj)
    with pytest.raises(TypeError):
        oracle_pretty_json(obj)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_matrices(_NUMBERS),
                 st.lists(st.lists(st.one_of(_NUMBERS, st.booleans(),
                                             st.text(max_size=3)),
                                   max_size=3), max_size=4)))
def test_csv_matches_oracle(rows):
    assert (serialize.csv_text(["a", "b"], rows, meta={"k": 1})
            == oracle_csv_text(["a", "b"], rows, meta={"k": 1}))


def test_csv_numpy_scalars_read_as_numbers():
    text = serialize.csv_text(["t", "v"], [(np.float64(0.1), np.int64(3))])
    assert text == "t,v\n0.1,3\n"
    assert math.isclose(float(text.splitlines()[1].split(",")[0]), 0.1)


# -- Tables: each cell spelled once for CSV and JSON -------------------------

_TEXT = st.text(st.sampled_from(list(',"\n\\ aZ{}\u00e9\u2603\U0001f600')),
                max_size=5)
_TABLE_CELLS = {
    "int64": (np.int64, st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1),
                                  _EDGE_INTS)),
    "small": (np.int64, st.integers(-3, 3)),
    "python_int": (object, st.one_of(st.integers(-2 ** 70, 2 ** 70),
                                     _EDGE_INTS)),
    "float": (float, st.one_of(_FLOATS, st.sampled_from([1e300, -1e300,
                                                         2.2e-308]))),
    "text": (object, st.one_of(st.none(), _TEXT)),
}


@st.composite
def _tables(draw):
    """A 2-d array of 0 to 5 rows and 0 to 4 columns: int64 (wide or small
    range), Python ints, floats, or strs and Nones."""
    dtype, cells = _TABLE_CELLS[draw(st.sampled_from(sorted(_TABLE_CELLS)))]
    a = np.empty((draw(st.integers(0, 5)), draw(st.integers(0, 4))),
                 dtype=dtype)
    for i, j in np.ndindex(a.shape):
        a[i, j] = draw(cells)
    return a


@settings(max_examples=400, deadline=None)
@given(_tables())
def test_table_matches_prechange_writer(a):
    table, rows = serialize.Table(a), a.tolist()
    header = [f"c{i}" for i in range(a.shape[1])]
    for meta in (None, {"k": 1}):
        assert serialize.csv_text(header, table, meta) == \
            prechange_csv_text(header, rows, meta)
        assert serialize.csv_text(header, rows, meta) == \
            prechange_csv_text(header, rows, meta)
    for obj, plain in ((table, rows), ({"t": table, "n": [table]},
                                       {"t": rows, "n": [rows]})):
        assert serialize.pretty_json(obj) == prechange_pretty_json(plain)
        assert serialize.canonical_json(obj) == \
            prechange_canonical_json(plain)
        assert serialize.pretty_json(plain) == prechange_pretty_json(plain)


def test_table_spells_each_cell_once():
    # small int ranges go through one lookup, and CSV and JSON share it
    table = serialize.Table(np.array([[-2, 0, 1], [1, 1, -2]]))
    assert table.texts == ["-2", "0", "1", "1", "1", "-2"]
    assert serialize.csv_text(["a", "b", "c"], table) == \
        "a,b,c\n-2,0,1\n1,1,-2\n"
    assert serialize.canonical_json(table) == "[[-2,0,1],[1,1,-2]]"
    for a in (np.array([[1.0, float("nan")]]), np.array([[2 ** 53 + 1]]),
              np.array([["x"]], dtype=object), np.zeros((0, 3))):
        assert serialize.Table(a).texts is None


# -- lists of same-keyed records: one template, or the generic path ----------

_SPOILS = [None, "int", "nan", "big", "str", "key", "shape"]


def _first_leaf(value, new):
    """``value`` with its first number replaced by ``new``."""
    if not isinstance(value, (list, tuple)):
        return new
    return [_first_leaf(value[0], new)] + list(value[1:])


@st.composite
def _record_lists(draw):
    """(records, spoil): same-shaped dicts, one of them maybe spoiled."""
    keys = draw(st.lists(st.sampled_from(["t", "T", "phi", "{", "}", "{0}",
                                          "a}{b", "{{}}"]),
                         min_size=1, max_size=4, unique=True))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    texts = st.one_of(st.none(), _TEXT)
    cols = {k: (draw(st.lists(st.integers(1, 3), max_size=2)),
                draw(st.sampled_from([floats, st.integers(-_BIG, _BIG),
                                      texts])))
            for k in keys}

    def value(dims, cells):
        if not dims:
            return draw(cells)
        seq = [value(dims[1:], cells) for _ in range(dims[0])]
        return tuple(seq) if draw(st.booleans()) else seq

    spoil = draw(st.sampled_from(_SPOILS))
    # a spoiled row is told apart from at least one clean row
    rows = [{k: value(*cols[k]) for k in keys}
            for _ in range(draw(st.integers(2 if spoil else 1, 5)))]
    if spoil:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        k = draw(st.sampled_from(keys))
        dims, cells = cols[k]
        if spoil == "key":
            row["zz{"] = row.pop(k)
        elif spoil == "shape":
            row[k] = ([row[k]] if not dims
                      else list(row[k]) + [value(dims[1:], cells)])
        else:
            int_col = cells is not floats
            row[k] = _first_leaf(row[k], {
                "int": 1.0 if int_col else 1, "nan": float("nan"),
                "big": _BIG + 1,
                "str": 1.5 if cells is texts else "x"}[spoil])
    return rows, spoil


@settings(max_examples=300, deadline=None)
@given(_record_lists())
def test_record_template_matches_json_oracle(case):
    rows, spoil = case
    # the template is taken exactly when nothing is spoiled
    fast = serialize._records(rows, "\n  ", "  ", ": ")
    assert (fast is None) == bool(spoil)
    for obj in (rows, {"trace": rows, "n": len(rows)}):
        assert serialize.pretty_json(obj) == oracle_pretty_json(obj) == \
            prechange_pretty_json(obj)
        assert serialize.canonical_json(obj) == oracle_canonical_json(obj)


def test_records_of_strings_and_nulls_take_the_template():
    # threshold certificates: a str column, and one of strs and Nones
    certs = [{"candidate": [1, -2, 3], "branch": "quadratic", "n_min": 2,
              "bound": "7/2"},
             {"candidate": [2, 0, -1], "branch": "higher_slope", "n_min": 1,
              "bound": None}]
    assert serialize._records(certs, "\n  ", "  ", ": ") is not None
    for obj in (certs, {"certificates": certs}):
        assert serialize.pretty_json(obj) == oracle_pretty_json(obj)
        assert serialize.canonical_json(obj) == oracle_canonical_json(obj)
