"""The report layer: the one-line JSON writer."""
import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomorph import report as rpt


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


@pytest.mark.parametrize(
    "value",
    [
        {"a": [1, np.int64(2)]},
        [{"rows": [{"i": 0}]}, object()],
        {"a": {(1, 2): "tuple keys are not JSON"}},
    ],
    ids=["numpy-int", "object", "tuple-key"],
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


def built_in(value) -> bool:
    """Exact built-in JSON types all the way down, string keys only."""
    if type(value) is dict:
        return all(type(k) is str and built_in(v) for k, v in value.items())
    if type(value) is list:
        return all(map(built_in, value))
    return type(value) in (str, int, float, bool, type(None))
