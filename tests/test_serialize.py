import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mukai_kit import serialize

_BIG = 2 ** 53


# -- oracle writers: json.dumps over a normalised copy -----------------------

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
    for row in rows:
        lines.append(",".join(float.__repr__(x) if isinstance(x, float)
                              else str(x) for x in row))
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
    cols = {k: (draw(st.lists(st.integers(1, 3), max_size=2)),
                draw(st.sampled_from([floats, st.integers(-_BIG, _BIG)])))
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
                "big": _BIG + 1, "str": "x"}[spoil])
    return rows, spoil


@settings(max_examples=300, deadline=None)
@given(_record_lists())
def test_record_template_matches_json_oracle(case):
    rows, spoil = case
    # the template is taken exactly when nothing is spoiled
    fast = serialize._records(rows, "\n  ", "  ", ": ")
    assert (fast is None) == bool(spoil)
    for obj in (rows, {"trace": rows, "n": len(rows)}):
        assert serialize.pretty_json(obj) == oracle_pretty_json(obj)
        assert serialize.canonical_json(obj) == oracle_canonical_json(obj)
