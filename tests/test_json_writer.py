"""The CLI's JSON writer against the standard library encoder it replaces.

``reference_rounded`` is the float-rounding copy the CLI made before its
writer existed; ``json.dumps(reference_rounded(x), sort_keys=True, indent=2)``
plus a newline is the byte-for-byte reference.
"""

import json
import math
from dataclasses import asdict, dataclass, is_dataclass, make_dataclass

import numpy as np
import pytest

from omnirelay import cli
from omnirelay.cli import _default_one_hop, _json_pieces, _json_text
from omnirelay.protocol_sim import run_distance_regulated
from omnirelay.rate_analysis import allcast_rate_bound
from omnirelay.topology import power_law, ring


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


INT_LISTS = {
    "pairs": [[0, 1], [2, 3], [5, 300]],
    "mixed lengths": [[1], [2, 3, 4], [-5, 6], [7, 8, 9, 10, 11]],
    "tuples of tuples": ((1, 2), (3, 4), (5,)),
    "True in a pair": [[1, 2], [True, 3]],
    "empty inner list": [[1, 2], [], [3, 4]],
    "big ints": [[2**70, -(2**70)], [-(2**70), 0]],
    "nested in dicts": {"a": {"b": [[1, 2], [3, 4]], "c": [{"d": [[5, 6]]}]}, "e": [[7, 8]]},
}


def int_lists(value):
    """The lists or tuples in ``value``, at any depth, that are non-empty and
    hold only lists or tuples of exact ints, empty ones included."""
    if isinstance(value, dict):
        return [found for item in value.values() for found in int_lists(item)]
    if not isinstance(value, (list, tuple)):
        return []
    hit = bool(value) and all(
        type(item) in (list, tuple) and all(type(x) is int for x in item) for item in value
    )
    return [value] * hit + [found for item in value for found in int_lists(item)]


@pytest.fixture
def columns(monkeypatch):
    """Each column offered to ``_column``, with whether it was taken: a list
    the writer writes and, inside a record list, each field's values."""
    calls = []
    column = cli._column

    def spy(values, indent):
        found = column(values, indent)
        calls.append((values, found is not None))
        return found

    monkeypatch.setattr(cli, "_column", spy)
    return calls


def offered_alone(columns, lists):
    """The items of ``lists`` that were offered to ``_column`` on their own."""
    offered = {id(values) for values, _ in columns}
    return [item for items in lists for item in items if id(item) in offered]


@pytest.mark.parametrize("payload", INT_LISTS.values(), ids=INT_LISTS.keys())
def test_writer_matches_the_reference_on_int_lists(payload, columns):
    assert_same_text(payload)
    lists = int_lists(payload)
    # Each list of int lists is written whole, one ``%`` per int list, so
    # none of its items is offered on its own.  A bool in an int list sends
    # the lists that hold it item by item.
    assert offered_alone(columns, lists) == []
    assert bool(lists) != (payload is INT_LISTS["True in a pair"])
    assert any(not taken for _, taken in columns) == (payload is INT_LISTS["True in a pair"])


def ring_trace_payload():
    # The ring-long shape: ring-6 just under the bound, shorter.
    topology = ring(6, 1.0, power_law(2.0), 10.0, 1.0)
    rate = 0.999 * allcast_rate_bound(topology)
    trace = run_distance_regulated(topology, _default_one_hop(topology, None), rate, 40)
    return {"trace": trace.to_dict()}


def test_a_trace_writes_its_message_lists_in_one_format_each(columns):
    payload = ring_trace_payload()
    assert_same_text(payload)
    lists = int_lists(payload)
    # targets, decoded and bundle lists, non-empty on a successful run, all
    # of message pairs: each goes whole into its record's template, so
    # neither a list nor one of its pairs is offered on its own.
    assert len(lists) >= 2 * 6 * 40
    assert {len(pair) for items in lists for pair in items} == {2}
    assert offered_alone(columns, [lists, *lists]) == []
    assert all(taken for _, taken in columns)


def record_pieces(pieces):
    """The records of the text: each is one piece, which parses to the
    record after its separator."""
    return [json.loads(piece[1:]) for piece in pieces if piece[1:].lstrip()[:1] == "{"]


def test_a_trace_writes_its_record_lists_one_record_each(monkeypatch, tmp_path):
    payload = ring_trace_payload()
    trace = payload["trace"]
    records = record_pieces(_json_pieces(payload))
    assert records == json.loads(json.dumps(trace["decodes"] + trace["transmissions"]))
    assert len(records) == len(trace["decodes"]) + len(trace["transmissions"]) > 0
    # The CLI writes the same run from the trace's records, each one piece
    # too; its interference reports come first, in key order.
    written = []
    pieces = cli._json_pieces

    def spy(value):
        written.append(pieces(value))
        return written[-1]

    monkeypatch.setattr(cli, "_json_pieces", spy)
    argv = ["simulate", "--preset", "ring", "--n", "6", "--power", "10", "--blocks", "40"]
    assert cli.main([*argv, "--out", str(tmp_path / "ring.json")]) == 0
    (cli_pieces,) = written
    interference = json.loads("".join(cli_pieces))["interference"]
    assert len(interference) == 6
    assert record_pieces(cli_pieces) == interference + records


@pytest.mark.parametrize(
    "payload",
    [{1: "int key"}, {"a": {None: 1}}, {"a": {1.5: 1}}, {"a": {(1, 2): 1}}, {"a": {1, 2}},
     [np.float32(1.5)], {"a": object()},
     [{"a": 1, 2: "b"}, {"a": 3, 2: "d"}], [{2: "b"}, {2: "d"}],
     [{"a": np.float32(1.5)}, {"a": np.float32(2.5)}]],
    ids=["int-key", "none-key", "float-key", "tuple-key", "set", "float32", "object",
         "record-int-key", "record-only-int-key", "record-float32"],
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
        scalars
        | st.lists(st.integers(-(2**80), 2**80), max_size=5)
        | st.lists(st.lists(st.integers(-(2**80), 2**80), min_size=1, max_size=3), max_size=4),
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


def test_writer_matches_the_reference_on_record_lists(columns):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    keys = st.text(max_size=4) | st.sampled_from(["%", "%d", "%s", '"', "é", "node", "block"])
    floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
    pairs = st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=3)
    odd_pairs = (
        st.lists(st.integers(0, 3) | st.booleans(), min_size=1, max_size=2) | st.integers(0, 3)
    )
    # Same-keyed dicts, a nested one among their fields: a column of columns.
    nested = st.fixed_dictionaries({"b": st.booleans(), "%s": st.lists(pairs, max_size=2)})
    same_keyed = st.fixed_dictionaries({"a": st.integers(0, 9), "n": nested, "f": floats})
    fields = {
        "int": st.integers(-(2**70), 2**70),
        "bool": st.booleans(),
        "none": st.none(),
        "str": st.text(max_size=4) | st.sampled_from(["%", "%s%%", "\n"]),
        "float": floats | floats.map(np.float64),
        "int lists": st.lists(pairs | pairs.map(tuple), max_size=3),
        "int lists with an empty one": st.lists(pairs | st.just([]), min_size=1, max_size=3),
        "flat int list": st.lists(st.integers(-(2**70), 2**70), max_size=4),
        "same-keyed dict": same_keyed,
        "odd int lists": st.lists(pairs | odd_pairs, max_size=3),
        "int list tuples": st.lists(pairs, max_size=3).map(tuple),
        "dict": st.dictionaries(keys, st.integers(0, 9) | pairs, max_size=2),
        "tuple": st.tuples(st.integers(0, 9), floats),
    }

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        names = data.draw(st.lists(keys, max_size=5, unique=True))
        kinds = [data.draw(st.sampled_from(sorted(fields))) for _ in names]
        shuffled = data.draw(st.booleans())
        mixed = data.draw(st.booleans())
        records = []
        for _ in range(data.draw(st.integers(1, 5))):
            order = data.draw(st.permutations(names)) if shuffled else names
            record = {}
            for name in order:
                values = fields[kinds[names.index(name)]]
                record[name] = data.draw(values | fields["int"] if mixed else values)
            records.append(record)
        where = data.draw(st.sampled_from(["list", "field", "item"]))
        assert_same_text({"list": records, "field": {"r": records}, "item": [records, 1]}[where])

    check()
    # Both paths were exercised: record lists taken and record lists
    # written item by item.
    dict_lists = [taken for values, taken in columns if {type(v) for v in values} == {dict}]
    assert set(dict_lists) == {True, False}


def record_dict(record):
    """``record`` as the dict of its fields, a frozenset field sorted."""
    return {k: sorted(v) if isinstance(v, frozenset) else v for k, v in asdict(record).items()}


def as_dicts(value):
    """``value`` with every record in it replaced by its dict."""
    if isinstance(value, dict):
        return {key: as_dicts(item) for key, item in value.items()}
    if isinstance(value, list):
        return [as_dicts(item) for item in value]
    return record_dict(value) if is_dataclass(value) else value


def test_writer_matches_the_reference_on_dataclass_records(columns):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    ints = st.integers(-(2**70), 2**70)
    pairs = st.tuples(ints, ints)
    floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
    kinds = {
        "int": ints,
        "bool": st.booleans(),
        "float": floats | floats.map(np.float64),
        "str": st.text(max_size=4) | st.sampled_from(["%", "%s%%", '"', "\n", "é"]),
        "pair tuple": st.lists(pairs, max_size=3).map(tuple),
        "pair frozenset": st.frozensets(pairs, max_size=4),
    }
    names = ["node", "block", "bundle", "skipped", "a", "Z", "x_1", "_y", "success"]

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        chosen = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=6, unique=True))
        field_kinds = [data.draw(st.sampled_from(sorted(kinds))) for _ in chosen]
        record = make_dataclass("Record", chosen, frozen=True)
        draw = st.tuples(*(kinds[kind] for kind in field_kinds)).map(lambda v: record(*v))
        records = data.draw(st.lists(draw, min_size=1, max_size=5))
        where = data.draw(st.sampled_from(["list", "field", "item", "two"]))
        payload = {
            "list": records,
            "field": {"r": records, "s": 1.5},
            "item": [records, 1, {"q": records}],
            "two": {"r": records, "t": [records[::-1]]},
        }[where]
        with np.errstate(over="ignore"):
            assert _json_text(payload) == reference_text(as_dicts(payload))

    check()
    # Every record list was written as a column.
    record_lists = [taken for values, taken in columns if is_dataclass(values[0])]
    assert record_lists and all(record_lists)


@dataclass(frozen=True)
class Maybe:
    value: int | None


@pytest.mark.parametrize(
    "payload",
    [[Maybe(1), Maybe(None)], [Maybe(1), {"value": 1}], [{"a": Maybe(1)}, {"a": Maybe(2)}, {"a": 3}],
     {"one": Maybe(1)}, [Maybe(1), 1], [frozenset({1})]],
    ids=["mixed-field", "with-a-dict", "mixed-nested", "alone", "with-an-int", "bare-frozenset"],
)
def test_records_the_column_cannot_take_are_not_written(payload):
    # A record is written only as an item of a column of its type, and a
    # frozenset only as a field of such records.
    with pytest.raises(TypeError):
        _json_text(payload)
