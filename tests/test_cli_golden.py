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
    ],
)
def test_cli_output_is_pinned(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
