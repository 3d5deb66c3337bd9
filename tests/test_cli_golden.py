"""Pinned CLI output: any change to decode verdicts, tie-breaks or float order shows here.

The digests are SHA-256 of the full stdout of ``omnirelay.cli.main``.  A
deliberate output change must update them and say why.
"""

import hashlib

import pytest

from omnirelay.cli import main

GOLDEN = [
    (
        ("simulate", "--preset", "regular-line", "--n", "8", "--power", "10"),
        "a010a3e34844227139a52656335fb41845dde27c1d970ee553026b433ef8974d",
    ),
    (
        # 1.001 times the all-cast bound of this line: decodes fail.
        ("simulate", "--preset", "regular-line", "--n", "8", "--power", "10",
         "--rate", "0.5735155418359434"),
        "adc93b439d77ba98796c28cfbaa3f60387ac328b8d6d6ef7d4671910fb9d0613",
    ),
    (
        ("simulate", "--preset", "ring", "--n", "6", "--power", "10", "--blocks", "40",
         "--payload-sizes", "4"),
        "febd9ed46c3dd46255e44564228dde78c9dd3f3c31f57d905b71c54f76d02392",
    ),
    (
        ("sweep", "--preset", "regular-line", "--power", "10", "--sweep-n", "2,4,8",
         "--sweep-gain", "pl:2,const"),
        "b61f0688832b98efab0c80b8900b988a10c0ce5b2340b1403def10eeb333be44",
    ),
    (
        ("analyze", "--preset", "regular-line", "--n", "40", "--power", "10"),
        "9108619b548b7e9af1a6da70f62626a367cf2499e497b065ff2c370c1da8edce",
    ),
    (
        ("simulate", "--preset", "ring", "--n", "6", "--power", "10", "--blocks", "120",
         "--payload-sizes", "4"),
        "1c9d4146d8101e11574f9f5c2cea87e178638e7efb1a1ca742c5ef2a18348cc3",
    ),
    (
        # 1.02 times the all-cast bound of this ring: every decode fails and
        # the decode window grows with the block index.
        ("simulate", "--preset", "ring", "--n", "6", "--power", "10", "--blocks", "120",
         "--payload-sizes", "4", "--rate", "1.0289210676946254"),
        "e3e3eb169f85ec6b31c30627a826cc92ed62178b446793a1988aa54ea5bfc94c",
    ),
    (
        # The line-analyze benchmark shape (the benchmark adds --rate and --seed).
        ("analyze", "--preset", "regular-line", "--n", "100", "--power", "10"),
        "c33d1922cbe7b384555ae919f8153678e17219fd0ef0ba6f8e7bc60f1dbe8caf",
    ),
    (
        # Uneven line: a far-left entry binds, max_rate (0.591) ends well
        # below the bound (0.7295) and the verifier does not apply.
        ("analyze", "--preset", "line", "--spacings", "1,2,0.5,3,1", "--power", "10"),
        "63f475f306db91c65cdb80f6b6b974fedb75744a3ad5b64d750b5460f96fa6c7",
    ),
    (
        # A rate above this line's bound (0.464).
        ("analyze", "--preset", "line", "--spacings", "1,2,0.5,3,1", "--power", "10",
         "--gain", "exp:0.5", "--rate", "0.5"),
        "17f5af4da0e4d092908d9dd753cd3d78b95befaf358082f19cb836f4b4191c01",
    ),
    (
        ("simulate", "--preset", "ring", "--n", "4", "--power", "10", "--format", "csv",
         "--payload-sizes", "3"),
        "4304dc2f3a074c40bbd6b59724b52bd0eed8432ef3dff6e4223bf732bb7b3d49",
    ),
    (
        # Float cells: the bound and the rate, rounded to six decimals.
        ("sweep", "--preset", "ring", "--sweep-n", "4,5", "--power", "10", "--format", "csv"),
        "0ef8494c774f45e374bc43f6e5cd7d6249b60c4fd454435a71a197e33cb770a4",
    ),
    (
        ("bin-demo", "--sizes", "4,6,2", "--values", "3,5,1"),
        "beaba3b4378a1a57087ad157b752175426bdefd675b612c2fa71afc1c9329735",
    ),
    (
        # A ring has no distance ordering: "ordering" is null.
        ("analyze", "--preset", "ring", "--n", "4", "--power", "10"),
        "73d01e401f5eb720fa162a55e7d5b08fa706998e30e08e49d68436a24466a470",
    ),
    (
        # No one-hop neighbours: warning strings and non-empty "undecoded" lists.
        ("simulate", "--preset", "regular-line", "--n", "3", "--power", "10",
         "--hop-radius", "0"),
        "759c58c5949cf48ba7cce8ba3093f5a1e418f91eccc18cd03302140d83473de7",
    ),
    (
        # No blocks: empty lists and an int 0 interference power.
        ("simulate", "--preset", "regular-line", "--n", "4", "--power", "10", "--blocks", "0"),
        "c13c9b6c8aa0107e48fdb44a05a5aa13b7624e714b8230e58e7dc3739a49a561",
    ),
    (
        # The line-solve benchmark shape (the benchmark adds --rate and --seed).
        ("simulate", "--preset", "regular-line", "--n", "12", "--power", "10", "--blocks", "16"),
        "b972d0b3c6dba7929822a7ca1aff3ee5337cf464a70939031dfba8ffd0e6e215",
    ),
    (
        # 1.2 times the all-cast bound (0.665): 72 of 98 decodes fail, the
        # peels stop part way and senders skip repeats they never decoded.
        ("simulate", "--preset", "regular-line", "--n", "7", "--power", "10", "--blocks", "14",
         "--rate", "0.8"),
        "44df9c650c439f28bd3a18d332cda673c4898c067df663ccc04955e55e93b533",
    ),
    (
        # The 2-unit gap splits the one-hop sets into {0,1,2} and {3,...,6}:
        # every node has its own static interference, and over the bound
        # (0.651) decodes fail.
        ("simulate", "--preset", "line", "--spacings", "1,1,2,1,1,1", "--hop-radius", "1.5",
         "--power", "10", "--blocks", "14", "--rate", "0.8"),
        "92d1c3a5748b90d540a505ae57bc360108e5d25daa3205abf1bd3d6a91ef79e5",
    ),
    (
        # Pools of up to 17 members: past 16 survivors worst_violator runs
        # the submodular search instead of scoring every subset.  The
        # digest dates from a heuristic scan of prefixes and index ranges,
        # which picked the exact violator on every call of this run.
        ("simulate", "--preset", "regular-line", "--n", "18", "--power", "10", "--blocks", "22"),
        "fe6135d01333dba44e633b7af44c8cbdee720bc25b77de1591fd78a911755189",
    ),
    (
        # Pools of up to 23 members, taken with the exact violator: the
        # heuristic scan it replaced gave 10 other decode records here.
        ("simulate", "--preset", "regular-line", "--n", "24", "--power", "10", "--blocks", "28"),
        "c5c481441bd5878a2cb3d3b4a0571cafff30561297a549b874b4191d6c1bf3bc",
    ),
    (
        # The mirror ends 0 and 9 bind with the same margin to six places;
        # the binding receiver is 9 when the table's powers add left to
        # right, as they do on every Python, and 0 under the compensated
        # sum() of Python 3.12.
        ("analyze", "--preset", "regular-line", "--n", "10", "--power", "10", "--gain", "exp:0.5"),
        "799863428c8b8122990aa85e81723df223191e6839cad433ebc55960efa71dc8",
    ),
    (
        # Likewise: receiver 199 binds, and 0 under a compensated sum.
        ("analyze", "--preset", "regular-line", "--n", "200", "--power", "1000", "--gain", "pl:4"),
        "25ad70e6df49fb45d2a0e834f1de0d064273617705f3debde41fdc8b8b446abd",
    ),
    (
        # A shallow arc: nodes in two dimensions, ordered along the arc.
        ("analyze", "--preset", "arc", "--n", "6", "--arc-radius", "20", "--power", "10"),
        "8271bad1312c95d9f9f8aa62f74e48848a429f167e1406dc4a8a8b590232083c",
    ),
]


@pytest.mark.parametrize(
    "argv, digest",
    GOLDEN,
    ids=[
        "line-8",
        "line-8-over-bound",
        "ring-6-payload",
        "sweep",
        "analyze-line-40",
        "ring-6-120-payload",
        "ring-6-120-over-bound",
        "analyze-line-100",
        "analyze-uneven-line",
        "analyze-uneven-line-over-bound",
        "ring-4-payload-csv",
        "sweep-ring-csv",
        "bin-demo",
        "analyze-ring-unordered",
        "line-3-no-neighbours",
        "line-4-no-blocks",
        "line-12-solve",
        "line-7-over-bound",
        "split-line-over-bound",
        "line-18-heuristic-violator",
        "line-24-exact-violator",
        "analyze-line-10-mirror-tie",
        "analyze-line-200-pl4",
        "analyze-arc-6",
    ],
)
def test_cli_output_is_pinned(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# A unit-spaced 6-node line whose one-hop sets come from the file's hop
# rows: node i hears i +- 1 and i +- 2, where the default radius would give
# i +- 1 only.  The digest does not depend on the file's path.
HOP6 = "\n".join(
    ["nodes 6", "gain pl 2.0", "power 10.0", "noise 1.0"]
    + [f"pos {i} {i - 1}" for i in range(1, 7)]
    + ["hop 1 2 3", "hop 2 1 3 4", "hop 3 1 2 4 5", "hop 4 2 3 5 6", "hop 5 3 4 6", "hop 6 4 5"]
) + "\n"


def test_simulate_from_a_file_with_hop_rows_is_pinned(capsys, tmp_path):
    path = tmp_path / "hop6.txt"
    path.write_text(HOP6, encoding="utf-8")
    assert main(["simulate", "--topology", str(path), "--blocks", "8"]) == 0
    out = capsys.readouterr().out
    digest = "cd72332ea1857c5066339b3a908ad421ad83cda1650b656aebab1c804bbedbb9"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
