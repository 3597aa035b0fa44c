"""The report writer and the one-pass number lists of the CLI.

``report_json`` must print exactly ``json.dumps(jsonify(obj),
sort_keys=True, indent=2)``, and raise what that raises.  ``nums`` and
``_flat_numbers`` must agree with ``num`` token by token, on the value and
on any message raised.
"""

import json
import math
from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from mospaces import ConfigError
from mospaces.cli import _flat_numbers, _write_list, jsonify, num, nums, report_json
from mospaces.grid import MeasureGrid, StepFunction
from mospaces.reports import VerificationRecord

INF = math.inf


@dataclass
class _Pair:
    first: Any
    second: Any


def _reference(obj) -> str:
    return json.dumps(jsonify(obj), sort_keys=True, indent=2)


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except Exception as exc:  # the type and message are what must agree
        return type(exc).__name__, str(exc)


_SPECIAL_FLOATS = [INF, -INF, math.nan, 0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 1.7976931348623157e308]
_floats = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
_ints = st.integers() | st.sampled_from([2**63, -(2**64) - 1, 10**300, 2**1100])
_texts = st.text(max_size=6) | st.sampled_from(["", ", ", "inf", "-inf", "Infinity", "NaN", "\x00\n\t\"\\", "é☃\U0001f600"])
_leaves = _floats | _ints | st.booleans() | st.none() | _texts
_keys = _texts | st.integers(-3, 3) | st.booleans() | st.none() | st.sampled_from([1.0, -0.0, INF])
_finite = st.floats(allow_nan=False, allow_infinity=False)


def _step_functions(values):
    return StepFunction(MeasureGrid((1.0,) * len(values)), tuple(values))


def _children(inner):
    return (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_keys, inner, max_size=4)
        | st.builds(_Pair, inner, inner)
    )


_trees = st.recursive(
    _leaves
    | st.lists(_floats, max_size=6)  # all-float lists: the encoder's one-call path
    | st.lists(_floats, max_size=6).map(tuple)
    | st.lists(_finite, min_size=1, max_size=5).map(_step_functions)
    | st.frozensets(_keys, max_size=4)
    | st.sets(_keys, max_size=4),
    _children,
    max_leaves=24,
)


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(_trees)
def test_the_writer_prints_the_encoders_bytes(obj):
    assert report_json(obj) == _reference(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        set(),
        {"x": [], "y": {}, "z": [[]], "w": [{}]},
        [1.0, INF, -INF, math.nan, -0.0, 5e-324, 1e16],
        {1: "int key", "1": "str key wins"},  # jsonify's str(k) collision: the last value wins
        {True: 1, None: 2, 1.5: 3, "a": {"b": [1, 2.0, "c", None, False]}},
        _Pair(StepFunction(MeasureGrid((1.0, 2.0)), (1.5, -0.0)), frozenset({3, "a", None})),
        VerificationRecord(10, 9, 0.9, 2.0, INF, 0, 3, worst_point=(0.5, -INF)),
    ],
)
def test_the_writer_prints_the_encoders_bytes_on_edge_cases(obj):
    assert report_json(obj) == _reference(obj)


@pytest.mark.parametrize("obj", [{"a": [1.0, object()]}, [complex(1, 2)], {"big": 10**5000}])
def test_the_writer_raises_what_the_encoder_raises(obj):
    want = _outcome(_reference, obj)
    assert want[0] != "ok"
    assert _outcome(report_json, obj) == want


# -- number lists -------------------------------------------------------------

_tokens = (
    _floats
    | st.integers(-(2**1100), 2**1100)  # some beyond the float range
    | st.booleans()
    | st.none()
    | st.sampled_from(["inf", "-inf", "1.5", "nan", "Infinity", ""])
    | st.lists(_finite, max_size=2)
)
_token_lists = st.tuples(st.lists(_tokens, max_size=6), st.booleans()).map(
    lambda t: t[0] + ["inf"] if t[1] else t[0]
)
_plain_lists = st.tuples(
    st.lists(_floats | st.integers(-(2**1100), 2**1100), max_size=6), st.booleans()
).map(lambda t: t[0] + ["inf"] if t[1] else t[0])


def _per_token(tokens):
    return tuple(num(t) for t in tokens)


def _is_plain(tokens) -> bool:
    """Plain ints and floats, perhaps ending in "inf"."""
    body = tokens[:-1] if tokens and tokens[-1] == "inf" else tokens
    return all(type(t) in (int, float) for t in body)


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(_token_lists | _plain_lists)
def test_nums_agree_with_num_token_by_token(tokens):
    assert repr(_outcome(nums, tokens)) == repr(_outcome(_per_token, tokens))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(_token_lists | _plain_lists, max_size=5))
def test_flat_numbers_agree_with_num_token_by_token(lists):
    flat = _flat_numbers(lists)
    plain = all(map(_is_plain, lists))
    assert (flat is not None) == plain
    if plain:
        want = _outcome(lambda: sum(map(_per_token, lists), ()))
        got = _outcome(lambda: tuple(map(float, flat)))
        if want[0] == "ok":
            assert repr(got) == repr(want)
        else:  # an int beyond the float range: num refuses it, float overflows
            assert want == ("ConfigError", "expected a number or 'inf', got an integer out of float range")
            assert got[0] == "OverflowError"


@pytest.mark.parametrize(
    "tokens",
    [
        [1.0, True],
        [1.0, "2.5"],
        [1.0, "inf", 2.0],
        [1.0, "-inf"],
        [1.0, 10**400],
        [1.0, [2.0]],
        ["inf", "inf"],
        [None],
    ],
)
def test_other_tokens_take_the_per_token_path(tokens):
    assert _flat_numbers([tokens]) is None or 10**400 in tokens
    want = _outcome(_per_token, tokens)
    assert repr(_outcome(nums, tokens)) == repr(want)
    if want[0] != "ok":  # a mid-list "inf" and "-inf" are numbers to num
        with pytest.raises(ConfigError):
            nums(tokens)


def test_flat_numbers_read_each_lists_trailing_inf_only():
    assert _flat_numbers([[0, 1.5, "inf"], [], [2], ["inf"]]) == [0, 1.5, INF, 2, INF]
    assert _flat_numbers([[], ["inf"]]) == [INF]
    assert _flat_numbers([["inf"], []]) == [INF]
    assert _flat_numbers([[1.0, "inf", 2.0]]) is None
    assert _flat_numbers([[1.0, "-inf"]]) is None
    assert _flat_numbers([(1.0, 2.0)]) is None  # a JSON list is a list


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(_texts, max_size=8) | st.frozensets(_texts, max_size=8))
def test_the_writer_prints_string_lists_in_one_call(items):
    assert report_json({"ids": items}) == _reference({"ids": items})
    calls = []
    _write_list(list(items), "\n", calls.append)
    assert len(calls) == 1


class _Text(str):
    pass


@pytest.mark.parametrize("items", [["a, b", ", ", "c"], ["x", _Text("y, z")], ["☃", "", "\n"]])
def test_the_writer_prints_string_lists_with_separators_inside(items):
    assert report_json(items) == _reference(items)
