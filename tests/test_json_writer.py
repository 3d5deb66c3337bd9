"""The CLI's JSON writer against the standard library encoder it replaces.

``reference_rounded`` is the float-rounding copy the CLI made before its
writer existed; ``json.dumps(reference_rounded(x), sort_keys=True, indent=2)``
plus a newline is the byte-for-byte reference.
"""

import json
import math

import numpy as np
import pytest

from omnirelay.cli import _json_text


def reference_rounded(value):
    """Recursively round floats for stable, readable output."""
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return str(value)
        return round(value, 6)
    if isinstance(value, dict):
        return {k: reference_rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_rounded(v) for v in value]
    return value


def reference_text(value) -> str:
    return json.dumps(reference_rounded(value), sort_keys=True, indent=2) + "\n"


def assert_same_text(value):
    # numpy's round overflows to inf near the float maximum, and warns.
    with np.errstate(over="ignore"):
        assert _json_text(value) == reference_text(value)


EDGE_FLOATS = [
    math.inf, -math.inf, math.nan, -0.0, 0.0, 1e300, -1e300, 5e-324, 1.7976931348623157e308,
    0.1234565, 2.5e-7, 1e16, 123456.7890125,
]


def test_writer_matches_the_reference_on_edge_values():
    payload = {
        "edge": EDGE_FLOATS,
        "numpy": [np.float64(x) for x in EDGE_FLOATS],
        "ints": [0, -1, 2**70, -(2**64) + 1],
        "not only ints": [1, True, 2, False, None],
        "nested": {"tuple": (1, (2, 3), ()), "empty": {}, "list": [[], [[]], {}]},
        'quote " back \\ slash': "tab\tnewline\n bell\x07 é ☃ \U0001f600",
        "über": {"": "", "\x00": None},
        "top": True,
    }
    assert_same_text(payload)
    for scalar in (None, True, 7, "s", 1.25, math.nan, [], {}, ()):
        assert_same_text(scalar)


@pytest.mark.parametrize(
    "payload",
    [{1: "int key"}, {"a": {None: 1}}, {"a": {1.5: 1}}, {"a": {(1, 2): 1}}, {"a": {1, 2}},
     [np.float32(1.5)], {"a": object()}],
    ids=["int-key", "none-key", "float-key", "tuple-key", "set", "float32", "object"],
)
def test_writer_rejects_what_it_cannot_write(payload):
    with pytest.raises(TypeError):
        _json_text(payload)


def test_writer_matches_the_reference_on_random_payloads():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    keys = st.text(max_size=8) | st.sampled_from(['"', "\\", "\n", "\x1f", "é", "\U0001f600"])
    floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
    scalars = (
        st.none()
        | st.booleans()
        | st.integers(-(2**80), 2**80)
        | floats
        | floats.map(np.float64)
        | st.text(max_size=8)
    )
    payloads = st.recursive(
        scalars | st.lists(st.integers(-(2**80), 2**80), max_size=5),
        lambda children: (
            st.lists(children, max_size=5)
            | st.lists(children, max_size=5).map(tuple)
            | st.dictionaries(keys, children, max_size=5)
        ),
        max_leaves=30,
    )

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(payloads)
    def check(payload):
        assert_same_text(payload)

    check()
