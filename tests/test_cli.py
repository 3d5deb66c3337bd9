"""Command-line interface: outputs, determinism and error codes."""

import hashlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

import omnirelay
from omnirelay import cli
from omnirelay.cli import main
from omnirelay.protocol_sim import SimulationTrace, interference_accounting
from omnirelay.topology import (
    arc,
    general_line,
    power_law,
    regular_line,
    ring,
    topology_from_distances,
)
from test_decode_reference import CASES, simulated


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    src = pathlib.Path(omnirelay.__file__).resolve().parent.parent
    return dict(os.environ, PYTHONPATH=str(src))


def run_out_of_process(*argv):
    """Run the CLI in a child process: pytest would capture a numpy
    RuntimeWarning instead of letting it reach stderr."""
    return subprocess.run(
        [sys.executable, "-m", "omnirelay.cli", *argv],
        capture_output=True, text=True, env=child_env(), check=False,
    )


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert err == ""
    return json.loads(out)


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


def test_analyze_regular_line(capsys):
    data = run_json(
        capsys, "analyze", "--preset", "regular-line", "--n", "4",
        "--gain", "pl:2", "--power", "10",
    )
    assert data["format_version"] == 1
    assert data["command"] == "analyze"
    assert data["nodes"] == 4
    assert data["ordering"] == [0, 1, 2, 3]
    assert data["achievable"] is True
    assert data["regular_line_verified"] is True
    assert data["rate"] == pytest.approx(0.999 * data["rate_bound"], rel=1e-4)
    assert data["max_rate"] == pytest.approx(data["rate_bound"], abs=1e-4)
    assert len(data["topology_hash"]) == 12
    int(data["topology_hash"], 16)


def test_analyze_explicit_rate(capsys):
    data = run_json(
        capsys, "analyze", "--preset", "regular-line", "--n", "3",
        "--power", "10", "--rate", "0.25",
    )
    assert data["rate"] == 0.25
    assert data["achievable"] is True
    over = run_json(
        capsys, "analyze", "--preset", "regular-line", "--n", "3",
        "--power", "10", "--rate", "5.0",
    )
    assert over["achievable"] is False


def test_analyze_uneven_line_skips_the_verifier(capsys):
    data = run_json(
        capsys, "analyze", "--preset", "line", "--spacings", "1,2.5",
        "--power", "10",
    )
    assert data["nodes"] == 3
    assert data["regular_line_verified"] is None
    assert data["ordering"] == [0, 1, 2]


def test_analyze_ignores_the_seed(capsys):
    # The verifier reads the line table at 0.999 * bound only, so no seed
    # can pick a rate that decides the verdict.
    argv = ("analyze", "--preset", "regular-line", "--n", "30", "--power", "0.001",
            "--gain", "exp:3")
    code, out, err = run(capsys, *argv, "--seed", "0")
    assert (code, err) == (0, "")
    assert run(capsys, *argv, "--seed", "15") == (0, out, "")
    assert json.loads(out)["regular_line_verified"] is True


@pytest.mark.parametrize(
    "argv, coordinates",
    [
        (("--preset", "regular-line", "--n", "12"), [float(x) for x in range(12)]),
        # Uneven: the verifier asks for the ordering, then rejects the spacing.
        (("--preset", "line", "--spacings", "1,2.5,1"), [0.0, 1.0, 3.5, 4.5]),
    ],
    ids=["regular-line", "uneven-line"],
)
def test_analyze_checks_the_distance_ordering_once(capsys, monkeypatch, argv, coordinates):
    # The CLI, the line table and the verifier each ask for the ordering;
    # the topology keeps the answer of the first check.
    from omnirelay import topology

    orders = []
    is_ordered = topology._is_distance_ordered

    def counting(dist, labelings):
        orders.extend(tuple(row) for row in labelings.tolist())
        return is_ordered(dist, labelings)

    monkeypatch.setattr(topology, "_is_distance_ordered", counting)
    data = run_json(capsys, "analyze", *argv, "--power", "10")
    in_one_call = orders[:]
    orders.clear()
    topology.distance_ordering_check(
        topology.general_line(coordinates, topology.power_law(2.0), 10.0, 1.0)
    )
    assert data["ordering"] is not None
    assert in_one_call == orders != []


def test_simulate_ring(capsys):
    data = run_json(
        capsys, "simulate", "--preset", "ring", "--n", "5",
        "--gain", "pl:2", "--power", "10", "--blocks", "6",
    )
    assert data["command"] == "simulate"
    trace = data["trace"]
    assert trace["all_success"] is True
    assert trace["completion_block"] == [2, 2, 2, 2, 2]
    assert all(r["undecoded"] == [] for r in data["interference"])


def test_csv_output_checks_payload_sizes_without_the_replay(capsys, monkeypatch):
    argv = ("simulate", "--preset", "ring", "--n", "4", "--power", "10", "--format", "csv")
    plain = run(capsys, *argv)
    assert plain[0] == 0

    def no_replay(*args, **kwargs):
        raise AssertionError("CSV output prints no replay")

    monkeypatch.setattr(cli, "payload_demo", no_replay)
    assert run(capsys, *argv, "--payload-sizes", "3") == plain
    # Bad sizes exit as they do under JSON, where the replay checks them.
    for sizes in ("3,3", "3,0,3,3"):
        failed = run(capsys, *argv, "--payload-sizes", sizes)
        assert failed[:2] == (1, "") and failed[2].startswith("E_PRECONDITION: ")
        assert run(capsys, *argv[:-2], "--payload-sizes", sizes) == failed


def test_simulate_with_payload_replay(capsys):
    data = run_json(
        capsys, "simulate", "--preset", "regular-line", "--n", "3",
        "--power", "10", "--blocks", "5", "--payload-sizes", "4,4,4",
    )
    assert [r["complete"] for r in data["payload"]] == [True, True, True]
    assert [r["recovered"] for r in data["payload"]] == [9, 10, 9]


@pytest.mark.parametrize("kind, n, share", CASES)
def test_simulate_writes_what_to_dict_gives(capsys, monkeypatch, kind, n, share):
    # Every trace of the decode reference grid, hand-built schedules too,
    # goes through the CLI's writer in place of the CLI's own run.
    trace = simulated(kind, n, share)
    monkeypatch.setattr(cli, "run_distance_regulated", lambda *args: trace)
    data = run_json(capsys, "simulate", "--preset", "regular-line", "--n", str(trace.topology.n))
    assert data["trace"] == dict(trace.to_dict(), rate=round(trace.rate, 6))
    assert data["interference"] == [
        {"node": r.node, "undecoded": list(r.undecoded), "power": round(r.power, 6)}
        for r in interference_accounting(trace)
    ]


def test_the_reference_grid_has_missing_and_skipped_messages():
    traces = [simulated(*case).to_dict() for case in CASES]
    assert any(rec["missing"] for trace in traces for rec in trace["decodes"])
    assert any(tx["skipped"] for trace in traces for tx in trace["transmissions"])


def test_simulate_never_builds_the_trace_dict(capsys, monkeypatch):
    calls = []
    to_dict = SimulationTrace.to_dict

    def spy(trace):
        calls.append(trace)
        return to_dict(trace)

    monkeypatch.setattr(SimulationTrace, "to_dict", spy)
    data = run_json(
        capsys, "simulate", "--preset", "ring", "--n", "5", "--power", "10",
        "--blocks", "6", "--payload-sizes", "3",
    )
    assert calls == []
    assert len(data["trace"]["decodes"]) == len(data["trace"]["transmissions"]) == 5 * 6


def test_sweep_table(capsys):
    data = run_json(
        capsys, "sweep", "--preset", "regular-line", "--sweep-n", "2,3",
        "--sweep-gain", "pl:2,const", "--power", "10", "--blocks", "4",
    )
    rows = data["results"]
    assert [(r["gain"], r["nodes"]) for r in rows] == [
        ("pl:2", 2), ("pl:2", 3), ("const", 2), ("const", 3),
    ]
    assert all(r["all_success"] for r in rows)
    assert rows[1]["max_completion"] == 2
    assert rows[0]["rate_bound"] == pytest.approx(3.459432, abs=1e-6)


def test_sweep_of_a_line_reports_its_node_count(capsys):
    # The line preset's size comes from --spacings, not from --n.
    code, out, err = run(
        capsys, "sweep", "--preset", "line", "--spacings", "1,2", "--power", "10",
        "--format", "csv",
    )
    assert (code, err) == (0, "")
    header, row = out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["nodes"] == "3"
    data = run_json(capsys, "sweep", "--preset", "line", "--spacings", "1,2,0.5", "--n", "9")
    assert [r["nodes"] for r in data["results"]] == [4]


def test_sweep_of_a_line_refuses_sizes(capsys):
    # Every --sweep-n value would build the same line from --spacings.
    assert run(
        capsys, "sweep", "--preset", "line", "--spacings", "1,2", "--sweep-n", "3,7",
        "--power", "10",
    ) == (1, "", "E_VALUE: the line preset takes its size from --spacings; "
          "--sweep-n is not supported\n")


def test_bin_demo(capsys):
    data = run_json(capsys, "bin-demo", "--sizes", "3,5", "--values", "2,4")
    assert data["bin_count"] == 5
    assert data["bin_index"] == 1
    assert data["single_slot_decodable"] is True
    assert [r["recovered"] for r in data["recoveries"]] == [2, 4]


def test_topology_file_input(capsys, tmp_path):
    text = (
        "nodes 3\ngain pl 2.0\npower 10.0\nnoise 1.0\n"
        "pos 1 0.0\npos 2 1.0\npos 3 2.0\n"
    )
    path = tmp_path / "net.txt"
    path.write_text(text, encoding="utf-8")
    data = run_json(capsys, "analyze", "--topology", str(path))
    assert data["nodes"] == 3
    assert data["rate_bound"] == pytest.approx(1.877444, abs=1e-6)


def test_csv_output(capsys):
    code, out, err = run(
        capsys, "analyze", "--preset", "regular-line", "--n", "3",
        "--power", "10", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert lines[1] == "nodes,3"
    assert any(line.startswith("rate_bound,") for line in lines)


def test_out_flag_writes_a_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(
        capsys, "analyze", "--preset", "regular-line", "--n", "3",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["nodes"] == 3
    # The file holds exactly the bytes the same command prints.
    argv = ("simulate", "--preset", "ring", "--n", "6", "--power", "10", "--blocks", "40",
            "--payload-sizes", "4")
    code, printed, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == printed.encode("utf-8")


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--preset", "regular-line", "--n", "5", "--power", "10"),
        ("simulate", "--preset", "regular-line", "--n", "4", "--power", "10",
         "--blocks", "8"),
        ("sweep", "--preset", "regular-line", "--sweep-n", "2,4",
         "--sweep-gain", "pl:2,exp:0.5", "--blocks", "6"),
        ("bin-demo", "--sizes", "4,6,2", "--values", "3,5,1"),
    ],
)
def test_repeated_runs_are_byte_identical(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == 0


def test_one_parser_serves_every_call_of_a_process(capsys):
    # The parser is built once per process; no call may leave state in it
    # that changes a later call's output, exit code or error line.
    calls = [
        ("simulate", "--preset", "ring", "--n", "4", "--power", "10", "--blocks", "6",
         "--payload-sizes", "4"),
        ("analyze", "--preset", "regular-line", "--n", "4", "--power", "10"),
        ("simulate", "--preset", "ring", "--n", "abc"),
        ("sweep", "--preset", "regular-line", "--sweep-n", "2,3", "--power", "10",
         "--blocks", "4"),
        ("bin-demo", "--sizes", "3,5", "--values", "2,4"),
    ]
    calls.append(calls[0])
    alone = []
    for argv in calls:
        done = run_out_of_process(*argv)
        alone.append((done.returncode, done.stdout, done.stderr))
    cli.build_parser.cache_clear()
    in_one_process = [run(capsys, *argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    assert in_one_process == alone
    assert [code for code, _, _ in alone] == [0, 0, 1, 0, 0, 0]
    assert alone[2][2] == "E_VALUE: argument --n: invalid int value: 'abc'\n"


def reference_one_hop(topology, radius):
    """The scalar loop ``cli._default_one_hop`` ran before it read the
    distance matrix; the reference its sets must equal."""
    n = topology.n
    if radius is None:
        radius = max(
            min(topology.distances[i][j] for j in range(n) if j != i) for i in range(n)
        )
    cutoff = radius * (1.0 + 1e-9)
    return tuple(
        frozenset(j for j in range(n) if j != i and topology.distances[i][j] <= cutoff)
        for i in range(n)
    )


def radius_with_cutoff_at(distance):
    """A radius whose cutoff ``radius * (1.0 + 1e-9)`` is ``distance`` exactly, or None."""
    radius = distance / (1.0 + 1e-9)
    for _ in range(4):
        cutoff = radius * (1.0 + 1e-9)
        if cutoff == distance:
            return radius
        radius = math.nextafter(radius, distance if cutoff < distance else 0.0)
    return None


def one_hop_topologies():
    gain = power_law(2.0)
    rng = random.Random(7)
    yield regular_line(2, 1.0, gain, 10.0, 1.0)
    yield regular_line(7, 0.3, gain, 10.0, 1.0)
    yield general_line([0.0, 1.0, 3.5, 4.5, 10.0], gain, 10.0, 1.0)
    for size in (3, 6, 11):
        coordinates = [0.0]
        for _ in range(size - 1):
            coordinates.append(coordinates[-1] + rng.uniform(0.1, 3.0))
        yield general_line(coordinates, gain, 10.0, 1.0)
    yield ring(3, 1.0, gain, 10.0, 1.0)
    yield ring(8, 2.5, gain, 10.0, 1.0)
    yield arc(5, 1.0, 3.0, gain, 10.0, 1.0)
    yield arc(6, 0.7, 1.2, gain, 10.0, 1.0)
    yield topology_from_distances(
        [[0, 1, 2, 3], [1, 0, 1.5, 2], [2, 1.5, 0, 1], [3, 2, 1, 0]], gain, 10.0, 1.0
    )
    yield topology_from_distances(
        [[0, 2.0, 0.5], [2.0, 0, 1.75], [0.5, 1.75, 0]], gain, 10.0, 1.0
    )


@pytest.mark.parametrize("topology", list(one_hop_topologies()), ids=lambda t: f"n{t.n}")
def test_default_one_hop_matches_the_scalar_loop(topology):
    n = topology.n
    pair = topology.distances[0][n - 1]
    nearest = min(topology.distances[0][1:])
    at_cutoff = [
        r for r in map(radius_with_cutoff_at, topology.distances[0][1:]) if r is not None
    ]
    assert at_cutoff
    # Radii: the default; explicit ones at a pair distance exactly, just
    # inside and outside the relative slack of 1e-9, with a cutoff of exactly
    # a pair distance, between distances, and 0.
    for radius in (None, pair, nearest, pair * (1 - 5e-10), pair * (1 - 2e-9), *at_cutoff,
                   1.3 * nearest, 0.0, 1e300):
        got = cli._default_one_hop(topology, radius)
        assert got == reference_one_hop(topology, radius), radius
        assert all(type(j) is int for hop in got for j in hop)


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------


def assert_fails(capsys, argv, code_prefix):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(code_prefix + ":")
    assert err.count("\n") == 1  # a single line on stderr


def test_error_codes(capsys, tmp_path):
    assert_fails(
        capsys,
        ["analyze", "--topology", str(tmp_path / "missing.txt")],
        "E_IO",
    )
    assert_fails(
        capsys,
        ["analyze", "--preset", "regular-line", "--n", "3", "--out", str(tmp_path / "no" / "x")],
        "E_IO",
    )
    assert_fails(
        capsys,
        ["analyze", "--preset", "line", "--spacings", "1,0,2"],
        "E_VALUE",
    )
    assert_fails(
        capsys,
        ["bin-demo", "--sizes", "2,2", "--values", "9,0"],
        "E_PRECONDITION",
    )
    assert run(capsys, "bin-demo", "--sizes", ",", "--values", ",") == (
        1, "", "E_VALUE: a bundle needs at least one slot\n"
    )
    assert_fails(capsys, ["analyze"], "E_VALUE")  # neither file nor preset
    assert_fails(
        capsys,
        ["sweep", "--topology", "whatever.txt", "--preset", "regular-line"],
        "E_VALUE",
    )
    broken = tmp_path / "broken.txt"
    broken.write_text("nodes 2\ngain wat\n", encoding="utf-8")
    assert_fails(capsys, ["analyze", "--topology", str(broken)], "E_TOPOLOGY")
    for flag, value in (("--power", "nan"), ("--noise", "inf")):
        assert_fails(
            capsys,
            ["analyze", "--preset", "regular-line", "--n", "5", flag, value],
            "E_VALUE",
        )
    non_finite = tmp_path / "non_finite.txt"
    non_finite.write_text(
        "nodes 2\ngain const\npower nan\nnoise 1\npos 1 0\npos 2 1\n", encoding="utf-8"
    )
    assert_fails(capsys, ["analyze", "--topology", str(non_finite)], "E_TOPOLOGY")
    two_hop_rows = tmp_path / "two_hop_rows.txt"
    two_hop_rows.write_text(
        "nodes 2\ngain const\npower 1\nnoise 1\npos 1 0\npos 2 1\nhop 1 2\nhop 2 1\nhop 1 2\n",
        encoding="utf-8",
    )
    assert run(capsys, "analyze", "--topology", str(two_hop_rows)) == (
        1, "", "E_TOPOLOGY: line 9: duplicate hop row for node 1\n"
    )
    two_power_rows = tmp_path / "two_power_rows.txt"
    two_power_rows.write_text(
        "nodes 2\ngain const\npower 10\npower 20\nnoise 1\npos 1 0\npos 2 1\n", encoding="utf-8"
    )
    assert run(capsys, "analyze", "--topology", str(two_power_rows)) == (
        1, "", "E_TOPOLOGY: line 4: duplicate 'power' row\n"
    )
    coinciding = tmp_path / "coinciding.txt"
    coinciding.write_text(
        "nodes 2\ngain const\npower 1\nnoise 1\npos 1 0\npos 2 0\n", encoding="utf-8"
    )
    assert run(capsys, "analyze", "--topology", str(coinciding)) == (
        1, "", "E_TOPOLOGY: line 6: nodes 1 and 2 coincide\n"
    )
    mixed_dimensions = tmp_path / "mixed_dimensions.txt"
    mixed_dimensions.write_text(
        "nodes 3\ngain const\npower 1\nnoise 1\npos 1 0\npos 2 1\npos 3 2 1\n", encoding="utf-8"
    )
    assert run(capsys, "analyze", "--topology", str(mixed_dimensions)) == (
        1, "", "E_TOPOLOGY: line 7: pos rows must share one dimension\n"
    )
    for flag, value in (("--rate", "nan"), ("--rate", "inf"), ("--power", "-inf"), ("--n", "abc")):
        assert_fails(
            capsys,
            ["analyze", "--preset", "regular-line", "--n", "5", "--power", "10", flag, value],
            "E_VALUE",
        )
    # Fewer than two nodes, also where an empty position list reaches numpy.
    assert_fails(capsys, ["simulate", "--preset", "regular-line", "--n", "0"], "E_VALUE")
    assert_fails(
        capsys, ["sweep", "--preset", "regular-line", "--sweep-n", "2,0"], "E_VALUE"
    )
    for command in ("simulate", "sweep"):
        for value in ("nan", "inf", "-1"):
            assert_fails(
                capsys,
                [command, "--preset", "regular-line", "--n", "4", "--hop-radius", value],
                "E_VALUE",
            )


HOP_RADIUS_ERROR = "hop radius must be finite and nonnegative"
SPACINGS_ERROR = "spacings must be finite"
GAP_SIGN_ERROR = "spacings must be positive"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("simulate --preset regular-line --n 0 --hop-radius -1 --payload-sizes x",
         HOP_RADIUS_ERROR),
        ("simulate --preset line --spacings 1,x --payload-sizes y", "bad spacing list '1,x'"),
        ("simulate --preset regular-line --n 0 --payload-sizes x",
         "bad payload size list 'x'"),
        ("sweep --preset regular-line --topology f --sweep-n x --hop-radius -1",
         HOP_RADIUS_ERROR),
        ("sweep --topology f --sweep-n x",
         "sweep builds preset topologies; --topology is not supported"),
        # --spacings is parsed even for a preset that ignores it.
        ("sweep --preset regular-line --sweep-n x --spacings y", "bad spacing list 'y'"),
        # --sweep-n is parsed before the line preset asks for --spacings.
        ("sweep --preset line --sweep-n x", "bad sweep size list 'x'"),
        # A non-finite gap is reported before --payload-sizes, for a preset
        # that ignores the gaps too.
        ("simulate --preset regular-line --n 0 --spacings 1,nan --payload-sizes x",
         SPACINGS_ERROR),
        ("sweep --preset ring --sweep-n x --spacings inf", SPACINGS_ERROR),
        ("analyze --preset regular-line --n 4 --spacings nan", SPACINGS_ERROR),
        ("analyze --preset line --spacings 1,inf", SPACINGS_ERROR),
        ("simulate --preset arc --n 4 --arc-radius 10 --spacings 1,-inf", SPACINGS_ERROR),
        # A gap must be positive too, checked after finiteness and before the
        # line preset places its nodes.
        ("analyze --preset regular-line --n 4 --spacings 0", GAP_SIGN_ERROR),
        ("analyze --preset regular-line --n 4 --spacings=-1", GAP_SIGN_ERROR),
        ("analyze --preset line --spacings=-1,-1 --power 10", GAP_SIGN_ERROR),
        ("analyze --preset line --spacings 1,0,2", GAP_SIGN_ERROR),
        ("simulate --preset regular-line --n 0 --spacings=-1,nan --payload-sizes x",
         SPACINGS_ERROR),
        ("sweep --preset ring --sweep-n x --spacings 0", GAP_SIGN_ERROR),
        # Preset arguments, checked when the topology is built.
        ("simulate --preset arc --n 4", "the arc preset needs --arc-radius"),
        ("analyze --preset arc --n 6 --arc-radius 1",
         "arc subtends an angle >= pi; increase radius"),
        ("analyze --preset line --power 10", "the line preset needs --spacings"),
        ("bin-demo --sizes 4,6 --values 1", "need exactly one value per alphabet size"),
    ],
)
def test_first_bad_input_is_the_one_reported(capsys, argv, message):
    # Order: hop radius, --spacings, --payload-sizes, then for sweep the
    # --topology refusal and --sweep-n, then the topology build.
    assert run(capsys, *argv.split()) == (1, "", f"E_VALUE: {message}\n")


@pytest.mark.parametrize(
    "argv, code",
    [
        (("simulate", "--n", "4", "--d0", "inf"), "E_VALUE"),
        # Received power that overflows: in the gain itself, in a receiver's
        # total, and in that total over the noise.
        (("analyze", "--n", "3", "--gain", "pl:1000", "--d0", "0.01"), "E_MODEL"),
        (("simulate", "--n", "3", "--power", "1e308"), "E_MODEL"),
        (("simulate", "--n", "3", "--power", "1e200", "--noise", "1e-200"), "E_MODEL"),
        # A line or ring too long for float positions; with finite
        # positions, neither preset's distances can overflow.
        (("analyze", "--preset", "line", "--spacings", "1e308,1e308", "--power", "10"),
         "E_VALUE"),
        (("simulate", "--preset", "ring", "--n", "4", "--d0", "1e308", "--power", "10"),
         "E_VALUE"),
    ],
    ids=["d0-inf", "gain-overflow", "total-overflow", "snr-overflow", "line-distance-overflow",
         "ring-distance-overflow"],
)
def test_non_finite_spacing_is_one_error_line(argv, code):
    command, *flags = argv
    if "--preset" not in flags:
        flags = ["--preset", "regular-line", *flags]
    done = run_out_of_process(command, *flags)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith(code + ":")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        "analyze --preset line --spacings 1e200 --power 10 --gain const",
        "simulate --preset ring --n 4 --d0 1e200 --power 10 --gain const",
    ],
    ids=["line", "ring"],
)
def test_far_apart_nodes_get_a_float_distance(capsys, argv):
    # Coordinate differences near 1e200 square to inf, so these runs once
    # exited with E_VALUE; under constant gain the distance changes nothing.
    done = run_out_of_process(*argv.split())
    assert (done.returncode, done.stderr) == (0, "")
    near = run_json(capsys, *argv.replace("1e200", "1").split())
    assert json.loads(done.stdout)["rate_bound"] == near["rate_bound"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("simulate --preset regular-line --n 5 --power 10 --rate 5e307",
         "aa328496f1da2900593e3434fb1f91b6013563a93dfa2c18104f8bd4c637d51e"),
        ("sweep --preset regular-line --sweep-n 3,4 --power 10 --rate 1e308",
         "5b71141ad80092faaeb0c0fbaa5fe68de3484b44904cd4b031850d8e555f3f1b"),
    ],
    ids=["simulate", "sweep"],
)
def test_a_rate_near_the_float_maximum_runs_without_a_warning(argv, digest):
    # A region's rate sums overflow to inf, the margin that rejects such a
    # rate.  The digest is the SHA-256 of stdout.
    done = run_out_of_process(*argv.split())
    assert (done.returncode, done.stderr) == (0, "")
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == digest


def test_a_closed_stdout_ends_the_run_quietly():
    # The reader takes one line and closes the pipe, as ``| head -1`` does.
    # The output (about 2.6 MB) outgrows the pipe's buffer, so the write
    # fails: status 1 and nothing on stderr, neither an E_IO line nor an
    # "Exception ignored" from the flush at shutdown.
    argv = ["simulate", "--preset", "ring", "--n", "6", "--power", "10", "--blocks", "300",
            "--payload-sizes", "4"]
    child = subprocess.Popen(
        [sys.executable, "-m", "omnirelay.cli", *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=child_env(),
    )
    assert child.stdout.readline() == "{\n"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=120), err) == (1, "")


def test_a_pipe_closed_after_ten_bytes_ends_the_run_quietly():
    # Without a payload replay the JSON still outgrows the pipe's buffer;
    # the reader takes 10 bytes and closes it.  The failed write points
    # stdout at devnull and the run exits 1 with nothing on stderr.
    argv = ["simulate", "--preset", "ring", "--n", "6", "--power", "10", "--blocks", "300"]
    child = subprocess.Popen(
        [sys.executable, "-m", "omnirelay.cli", *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=child_env(),
    )
    assert child.stdout.read(10) == b'{\n  "comma'
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=120), err) == (1, b"")


def test_a_broken_pipe_on_a_stdout_without_a_descriptor_is_an_io_error(capsys, monkeypatch):
    # Such a stdout has no descriptor to point at devnull.
    class ClosedBuffer(io.StringIO):
        def writelines(self, lines):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedBuffer())
    assert main(["analyze", "--preset", "regular-line", "--n", "3"]) == 1
    assert capsys.readouterr().err == "E_IO: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("rate", ["foo", "nan", "inf", "-1"])
def test_analyze_rejects_a_bad_rate_without_an_ordering(capsys, rate):
    # A ring has no distance ordering, so the line conditions that use the
    # rate are skipped; the rate is still checked.
    assert_fails(
        capsys, ["analyze", "--preset", "ring", "--n", "4", "--power", "10", "--rate", rate],
        "E_VALUE",
    )


def test_analyze_without_an_ordering_ignores_a_valid_rate(capsys):
    ring = ("analyze", "--preset", "ring", "--n", "4", "--power", "10")
    code, out, err = run(capsys, *ring, "--rate", "auto")
    assert (code, err) == (0, "")
    assert json.loads(out)["ordering"] is None
    assert run(capsys, *ring, "--rate", "0.5") == (0, out, "")


def test_bad_gain_spec(capsys):
    assert_fails(
        capsys,
        ["analyze", "--preset", "regular-line", "--gain", "pl"],
        "E_VALUE",
    )


def test_negative_rate_rejected(capsys):
    assert_fails(
        capsys,
        ["simulate", "--preset", "regular-line", "--rate", "-1"],
        "E_VALUE",
    )
