"""The report layer: the one-line JSON writer and pre-rendered record lists."""
import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomorph import report as rpt
from geomorph.features import ParadigmCell


# JSON's structural characters, escapes, non-ASCII and astral code points
awkward = st.sampled_from(list('{}[],:"\\\n\t ') + ["é", " ", "\x00", "𝄞"])
strings = st.text(alphabet=st.one_of(awkward, st.characters()), max_size=8)
ints = st.one_of(st.integers(-(2**70), 2**70), st.integers(2**64, 2**200))
floats = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
)
scalars = st.one_of(strings, ints, floats, st.booleans(), st.none())
# string keys only: json.loads turns any other key into a string
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(strings, children, max_size=5),
    ),
    max_leaves=30,
)


@given(values)
@settings(max_examples=200, deadline=None)
def test_dumps_writes_one_line_that_round_trips(value):
    text = rpt.dumps(value)
    assert text.endswith("\n") and "\n" not in text[:-1]
    assert rpt.dumps(json.loads(text)) == text


@given(values)
@settings(max_examples=200, deadline=None)
def test_dumps_writes_what_json_dumps_writes(value):
    assert rpt.dumps(value) == json.dumps(value, sort_keys=True, ensure_ascii=False) + "\n"


def as_rows(columns: dict) -> list[dict]:
    """The dict form of the records that `rpt.records(columns)` writes."""
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


# values whose JSON text a hand-rolled writer may get wrong: signed zero, the least
# subnormal, exponent forms, an inexact sum, ints past 2**63 and 2**64, json's
# NaN and Infinity, and bools, which are ints to Python but true and false to JSON
AWKWARD_NUMBERS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1 + 0.2, 1.7976931348623157e308,
                   2**63, -(2**64) - 1, 10**30, math.nan, math.inf, -math.inf, True, False]


@pytest.mark.parametrize(
    "columns",
    [
        {"i": [0, 2**70, -3], "j": [1, 4, 5], "theta": [-0.0, 5e-324, 1e16]},
        {"x": AWKWARD_NUMBERS, "y": list(reversed(AWKWARD_NUMBERS))},
        # one kind a column: floats with a non-finite one, bools, ints with a bool
        {"nan": [0.5, math.nan], "inf": [-math.inf, 1.5], "bool": [True, False],
         "int": [1, True]},
        {"i": [], "j": [], "theta": []},
        {},
        # class labels with quotes, escapes, ", " and non-ASCII; a key needing escapes
        {"class": ['A"B', "C, D", "ŋɔ́", "𝄞", "tab\there", "50%"], "k%s\"": [1, 2, 3, 4, 5, 6]},
        {"nested": [[1, 2], {"b": 1, "a": [None, 0.5]}, "s", None]},
    ],
    ids=["plan-columns", "awkward-numbers", "one-kind-columns", "empty-plan", "no-columns", "labels", "nested"],
)
def test_records_write_what_json_dumps_writes_for_the_dicts(columns):
    text = rpt.records(columns).text
    assert text == json.dumps(as_rows(columns), sort_keys=True, ensure_ascii=False)


@given(st.integers(0, 4).flatmap(lambda n: st.dictionaries(
    strings, st.lists(values, min_size=n, max_size=n), max_size=4)))
@settings(max_examples=200, deadline=None)
def test_records_match_json_dumps_for_any_columns(columns):
    text = rpt.records(columns).text
    assert text == json.dumps(as_rows(columns), sort_keys=True, ensure_ascii=False)


# columns of one kind, as the learners write them: bools (`converged`), ints, floats
@given(st.integers(0, 20).flatmap(lambda n: st.dictionaries(strings, st.one_of(
    *(st.lists(kind, min_size=n, max_size=n) for kind in (st.booleans(), ints, floats))),
    max_size=4)))
@settings(max_examples=200, deadline=None)
def test_records_match_json_dumps_for_one_kind_columns(columns):
    text = rpt.records(columns).text
    assert text == json.dumps(as_rows(columns), sort_keys=True, ensure_ascii=False)


def test_rendered_sections_splice_into_the_report_bytes():
    plans = {
        "class": ["I", 'q"uote', "ŋ"],
        "converged": [True, False, True],
        "rotations": [rpt.records({"i": [0, 1], "j": [2, 0], "theta": [-0.0, 0.1 + 0.2]}),
                      rpt.records({}),
                      rpt.records({"i": [3], "j": [4], "theta": [5e-324]})],
    }
    report = rpt.build_report("rotate", {"seed": 1}, base_class="I", plans=rpt.records(plans))
    value = loaded(report)
    assert value["plans"][0]["rotations"][0] == {"i": 0, "j": 2, "theta": -0.0}
    assert value["plans"][1] == {"class": 'q"uote', "converged": False, "rotations": []}
    text = rpt.dumps(report)
    assert text == json.dumps(value, sort_keys=True, ensure_ascii=False) + "\n"
    assert rpt.dumps(rpt.loads(text)) == text
    assert rpt.to_tsv(report) == rpt.to_tsv(value)


def test_records_need_equal_columns():
    with pytest.raises(ValueError):
        rpt.records({"i": [0, 1], "theta": [0.5]})


@pytest.mark.parametrize(
    "value",
    [
        {"a": [1, np.int64(2)]},
        [{"rows": [{"i": 0}]}, object()],
        {"a": {(1, 2): "tuple keys are not JSON"}},
        # labeled_matrix writes its labels as they are: it takes strings
        {"m": rpt.labeled_matrix([ParadigmCell((("number", "sg"),))], ["s"], np.zeros((1, 1)))},
    ],
    ids=["numpy-int", "object", "tuple-key", "label-object"],
)
def test_dumps_raises_type_error_where_json_does(value):
    with pytest.raises(TypeError):
        json.dumps(value)
    with pytest.raises(TypeError):
        rpt.dumps(value)


def test_dumps_rejects_circular_reference():
    loop = [1]
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular"):
        json.dumps(loop)
    with pytest.raises(ValueError, match="Circular"):
        rpt.dumps(loop)
    with pytest.raises(ValueError, match="Circular"):
        rpt.dumps({"rows": [{"a": 1}], "loop": loop})


def test_dumps_leaves_no_cyclic_garbage():
    report = {"schema": 1, "rows": [{"a": 1.5}, {"a": 2.5}], "nested": {"m": [[1, 2], [3]]}}
    gc.collect()
    rpt.dumps(report)
    assert gc.collect() == 0


def loaded(report: dict) -> dict:
    """`report` with each pre-rendered section replaced by the value its text holds."""
    return {key: json.loads(value.text) if type(value) is rpt.Rendered else value
            for key, value in report.items()}


def built_in(value) -> bool:
    """Exact built-in JSON types all the way down, string keys only."""
    if type(value) is dict:
        return all(type(k) is str and built_in(v) for k, v in value.items())
    if type(value) is list:
        return all(map(built_in, value))
    return type(value) in (str, int, float, bool, type(None))
