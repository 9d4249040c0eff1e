"""The benchmark's oracles against hand values.

Run with: python3 -m pytest benchmarks/test_checks.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402


def test_config_space_betti():
    assert checks.config_space_betti(2, 3) == [1, 3, 2]
    assert checks.config_space_betti(4, 3) == [1, 0, 0, 3, 0, 0, 2]
    assert checks.config_space_betti(5, 2) == [1, 0, 0, 0, 1]
    assert checks.config_space_betti(1, 5) == [120]
    assert checks.config_space_betti(3, 1) == [1]


def test_classifier_objects():
    assert checks.classifier_objects(2, 5) == 1920
    assert checks.classifier_objects(4, 3) == 96
    assert checks.classifier_objects(3, 0) == 1


def test_check_homology_flags_wrong_answers():
    good = {"fvector": [24, 96, 72], "betti": [1, 3, 2], "torsion": [[], [], []],
            "components": 1}
    assert checks.check_homology(good, 2, 3, full=True) == []
    assert checks.check_homology({**good, "betti": [1, 3, None]}, 2, 3, full=True)
    assert checks.check_homology({**good, "betti": [1, 3, None]}, 2, 3, full=False) == []
    assert checks.check_homology({**good, "torsion": [[], [2], []]}, 2, 3, full=True)
    assert checks.check_homology({**good, "components": 2}, 2, 3, full=True)
    assert checks.check_homology({**good, "fvector": [23]}, 2, 3, full=True)


def test_ordinal_maps():
    assert checks.ordinal_maps((2, (0,)), (2, (0,))) == [(0, 0), (0, 1), (1, 1)]
    # a reversal must strictly raise the level
    assert checks.ordinal_maps((2, (0,)), (2, (1,))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert checks.ordinal_maps((2, (1,)), (2, (0,))) == [(0, 0), (1, 1)]
    assert checks.ordinal_maps((0, ()), (1, ())) == [()]
    assert checks.ordinal_maps((1, ()), (0, ())) == []


def test_pair_counts():
    # Ord(1) up to one point: empty -> empty, empty -> point, point -> point
    assert checks.pair_counts(1, 1, lambda m: 1) == (4, 4)
    assert checks.pair_counts(3, 3, lambda m: 1) == (119_690, 119_690)
    assert checks.pair_counts(1, 3, checks.end_component_size(2)) == (428, 4_425_686_186)


def test_end_component_size():
    size = checks.end_component_size(2)
    assert [size(m) for m in range(4)] == [2, 4, 16, 256]


def test_count_monoids():
    assert checks.count_monoids(1, commutative=False) == 1
    assert checks.count_monoids(2, commutative=False) == 4
    assert checks.count_monoids(2, commutative=True) == 4
    assert checks.count_monoids(3, commutative=False) == 33


def test_eckmann_hilton_counts():
    assert checks.eckmann_hilton_counts(1, 3) == {"0": 1, "1": 1, "2": 2, "3": 6}
    assert checks.eckmann_hilton_counts(2, 3) == {"0": 1, "1": 1, "2": 1, "3": 1}


def test_strip_timing():
    a = json.dumps({"command": "x", "data": {"k": 1}, "timing": {"ms": 3.0}})
    b = json.dumps({"timing": {"ms": 9.5}, "data": {"k": 1}, "command": "x"})
    assert checks.strip_timing(a) == checks.strip_timing(b)
    assert checks.strip_timing(a) != checks.strip_timing(a.replace('"k": 1', '"k": 2'))
