"""The package's exported names: one sorted list, every name importable."""

import importlib

import pytest

import omnirelay

# Names the package no longer exports: the one-round region facade and its
# exhaustive solver (a one-round instance is a MultiBlockInstance with every
# member in round 0), and the received-power wrapper and distance tuples (the
# topology keeps each as one read-only array), and the wrappers around
# schedule rows (k-hop layers are plain rows, and Schedule converts any
# nested iterables itself).
REMOVED = (
    "MacInstance",
    "mac_feasible",
    "self_decodable",
    "peel_decodable_subset",
    "decodable_subset",
    "_one_round",
    "_power_thresholds",
    "PowerMatrix",
    "_distance_tuple",
    "NeighborSets",
    "schedule_from_sets",
    "CheckWitness",
)


def test_all_is_sorted_unique_and_resolves():
    names = omnirelay.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(omnirelay, n)] == []


@pytest.mark.parametrize(
    "module", ["omnirelay", "omnirelay.mac_region", "omnirelay.rate_analysis", "omnirelay.topology"]
)
def test_removed_names_stay_removed(module):
    mod = importlib.import_module(module)
    assert [n for n in REMOVED if hasattr(mod, n)] == []
