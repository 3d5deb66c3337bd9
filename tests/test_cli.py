"""Command-line interface: outputs, determinism and error codes."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import omnirelay
from omnirelay.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_simulate_with_payload_replay(capsys):
    data = run_json(
        capsys, "simulate", "--preset", "regular-line", "--n", "3",
        "--power", "10", "--blocks", "5", "--payload-sizes", "4,4,4",
    )
    assert [r["complete"] for r in data["payload"]] == [True, True, True]
    assert [r["recovered"] for r in data["payload"]] == [9, 10, 9]


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


@pytest.mark.parametrize(
    "argv, code",
    [
        (("simulate", "--n", "4", "--d0", "inf"), "E_VALUE"),
        # Received power that overflows: in the gain itself, in a receiver's
        # total, and in that total over the noise.
        (("analyze", "--n", "3", "--gain", "pl:1000", "--d0", "0.01"), "E_MODEL"),
        (("simulate", "--n", "3", "--power", "1e308"), "E_MODEL"),
        (("simulate", "--n", "3", "--power", "1e200", "--noise", "1e-200"), "E_MODEL"),
        # Finite positions whose distance overflows.
        (("analyze", "--preset", "line", "--spacings", "1e200", "--power", "10"), "E_VALUE"),
        (("simulate", "--preset", "ring", "--n", "4", "--d0", "1e200", "--power", "10"),
         "E_VALUE"),
    ],
    ids=["d0-inf", "gain-overflow", "total-overflow", "snr-overflow", "line-distance-overflow",
         "ring-distance-overflow"],
)
def test_non_finite_spacing_is_one_error_line(argv, code):
    # Run out of process: pytest would capture a numpy RuntimeWarning
    # instead of letting it reach stderr.
    src = pathlib.Path(omnirelay.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    command, *flags = argv
    if "--preset" not in flags:
        flags = ["--preset", "regular-line", *flags]
    done = subprocess.run(
        [sys.executable, "-m", "omnirelay.cli", command, *flags],
        capture_output=True, text=True, env=env, check=False,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith(code + ":")
    assert done.stderr.count("\n") == 1


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
