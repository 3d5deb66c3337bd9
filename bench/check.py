"""Correctness check applied to every benchmarked ``cli.main`` call.

Two parts:

* a semantic digest of the output fields that exist at the benchmark's
  first commit, compared with ``reference.json``.  Only named fields (and,
  inside records, named keys) are digested, so a later format version that
  only adds fields still passes.  None of the digested fields depends on
  ``--seed``: the seed only draws payload values and verifier sample rates,
  and neither reaches a digested field (``test_bench.py`` checks this), so
  one reference per workload is the reference at every seed;
* the paper's invariants for each workload.

``check`` returns a list of failure reasons; an empty list means the call
passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

_DECODE_KEYS = ("node", "block", "targets", "decoded", "missing", "success", "sum_rate_ok")
_TX_KEYS = ("sender", "block", "bundle", "skipped")
_PAYLOAD_KEYS = ("node", "recovered", "known", "complete")
_ANALYZE_KEYS = (
    "rate_bound",
    "max_rate",
    "achievable",
    "binding_margin",
    "binding_receiver",
    "binding_kind",
    "regular_line_verified",
)


def _project(records: list[dict], keys: tuple[str, ...]) -> list[dict]:
    return [{k: rec[k] for k in keys} for rec in records]


def semantic_fields(payload: dict) -> dict:
    """The digested fields of one CLI JSON report."""
    if payload["command"] == "simulate":
        trace = payload["trace"]
        return {
            "decodes": _project(trace["decodes"], _DECODE_KEYS),
            "transmissions": _project(trace["transmissions"], _TX_KEYS),
            "completion_block": trace["completion_block"],
            "rate_bound": payload["rate_bound"],
            "payload": _project(payload.get("payload", []), _PAYLOAD_KEYS),
        }
    return {key: payload[key] for key in _ANALYZE_KEYS}


def digest(payload: dict) -> dict[str, str]:
    """Per-field short SHA-256 of the canonical JSON of each digested field."""
    return {
        field: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]
        for field, value in semantic_fields(payload).items()
    }


def _line_solve_invariants(payload: dict, mismatches: int | None) -> list[str]:
    trace = payload["trace"]
    n = trace["nodes"]
    out = []
    if not trace["all_success"]:
        out.append("a decode failed below the bound")
    for node, done in enumerate(trace["completion_block"]):
        # On an equally spaced line with nearest-neighbour hops, node i is
        # max(i, n-1-i) hops from the farthest node.
        hops = max(node, n - 1 - node)
        if done is None or done > hops + 1:
            out.append(f"node {node} completed at {done}, after hop count {hops} + 1")
    return out


def _ring_long_invariants(payload: dict, mismatches: int | None) -> list[str]:
    out = [
        f"payload of node {r['node']} incomplete"
        for r in payload.get("payload", [])
        if not r["complete"]
    ]
    if not payload.get("payload"):
        out.append("no payload reports")
    if mismatches is None:
        out.append("payload_demo was not observed, so mismatches are unknown")
    elif mismatches:
        out.append(f"{mismatches} payload value mismatches")
    return out


def _line_analyze_invariants(payload: dict, mismatches: int | None) -> list[str]:
    out = []
    if payload.get("achievable") is not True:
        out.append("rate 0.999 of the bound not achievable")
    if payload.get("regular_line_verified") is not True:
        out.append("regular-line verifier did not pass")
    if not payload["max_rate"] <= payload["rate_bound"]:
        out.append(f"max_rate {payload['max_rate']} above rate_bound {payload['rate_bound']}")
    return out


_INVARIANTS = {
    "line-solve": _line_solve_invariants,
    "ring-long": _ring_long_invariants,
    "line-analyze": _line_analyze_invariants,
}


def check(workload: str, code: int, stdout: str, stderr: str, mismatches: int | None) -> list[str]:
    """Failure reasons for one call; ``mismatches`` comes from ``payload_demo``."""
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[:200]}"]
    try:
        payload = json.loads(stdout)
        got = digest(payload)
        failures = _INVARIANTS[workload](payload, mismatches)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"output not readable: {type(exc).__name__}: {exc}"]
    want = REFERENCE[workload]
    for field in sorted(set(want) | set(got)):
        if got.get(field) != want.get(field):
            failures.append(f"{field} digest {got.get(field)} != reference {want.get(field)}")
    return failures
