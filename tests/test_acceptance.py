"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import math
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from higherop.freeop import (
    Collection,
    check_monad_laws,
    enumerate_trees,
    free_operad,
    insert,
    target,
    tree_cardinality,
    vertices,
)
from higherop.operads import (
    FinBase,
    OperadTable,
    OrdBase,
    associativity_violations,
    base_morphisms,
    check_operad_axioms,
    desymmetrize,
    endomorphism_operad,
    make_ass,
    restrict_suspension,
    tables_equal,
    unit_violations,
)
from higherop.operads import compile_base, composable_pairs
from higherop.ordinals import enumerate_ordinals, ordinal, relations
from higherop.symmetrize import (
    algebra_equivalence,
    check_adjunction,
    symmetrize,
    terminal_class_counts,
)
from higherop.topology import classifier_homology, components

import oracles
from oracles import (
    brute_force_ordinal_structures,
    canonicalize_structure,
    catalan,
    count_commutative_monoids,
    count_monoids,
    fixed_order_profiles,
)


def _line(num, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {extra}" if extra else ""
    print(f"criterion {num:>2} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


def test_criterion_01_ordinal_census():
    t0 = time.perf_counter()
    for n in (1, 2, 3, 4):
        for k in range(1, 7):
            assert len(enumerate_ordinals(n, k)) == n ** (k - 1)
    # independent relation enumeration: full tables through k = 4,
    # level tables over a fixed order (times k! labelings) at k = 5
    for n in (1, 2, 3):
        for k in (2, 3, 4):
            structures = brute_force_ordinal_structures(n, k)
            canonical = {canonicalize_structure(t, k) for t in structures}
            assert canonical == {T.profile for T in enumerate_ordinals(n, k)}
            assert len(structures) == math.factorial(k) * len(canonical)
        assert fixed_order_profiles(n, 5) == {
            T.profile for T in enumerate_ordinals(n, 5)
        }
    elapsed = time.perf_counter() - t0
    _line(1, "ordinal census", elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_02_figure_round_trip():
    got = set(relations(ordinal(2, 1, 0, 1, 1)))
    displayed = {
        (0, 0, 2), (0, 0, 3), (0, 0, 4),
        (1, 0, 2), (1, 0, 3), (1, 0, 4),
        (0, 1, 1), (2, 1, 3), (2, 1, 4), (3, 1, 4),
    }
    _line(2, "five-element example relations", got == displayed)


def test_criterion_03_eckmann_hilton_collapse():
    t0 = time.perf_counter()
    r1 = symmetrize(make_ass(OrdBase(1), 5), 5, build_operad=False)
    ok = r1.class_counts() == {0: 1, 1: 1, 2: 2, 3: 6, 4: 24, 5: 120}
    r2 = symmetrize(make_ass(OrdBase(2), 5), 5, build_operad=False)
    ok = ok and r2.class_counts() == {k: 1 for k in range(6)}
    counts3 = terminal_class_counts(3, 5)
    ok = ok and counts3 == {k: 1 for k in range(6)}
    # the object-level route agrees with the full quotient where both run
    full3 = symmetrize(make_ass(OrdBase(3), 3), 3, build_operad=False)
    ok = ok and all(full3.class_counts()[k] == counts3[k] for k in range(4))
    elapsed = time.perf_counter() - t0
    _line(3, "Eckmann-Hilton collapse", ok and elapsed < 60, f"{elapsed:.1f}s")


def test_criterion_04_classifier_spheres():
    expected = {2: [1, 1], 3: [1, 0, 1], 4: [1, 0, 0, 1]}
    ok = True
    for n, betti in expected.items():
        rep = classifier_homology(n, 2)
        ok = ok and rep["betti"] == betti
        ok = ok and all(t == [] for t in rep["torsion"])
    _line(4, "classifier spheres at arity two", ok)


def test_criterion_05_stable_range_vanishing():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n, k in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        rep = classifier_homology(n, k, dmax=max(n - 1, 1))
        connected = rep["components"] == 1
        vanishing = all(
            rep["betti"][i] == 0 and rep["torsion"][i] == []
            for i in range(1, n - 1)
        )
        ok = ok and connected and vanishing
        details.append(f"({n},{k})")
    elapsed = time.perf_counter() - t0
    _line(5, "stable-range vanishing", ok and elapsed < 300, f"{elapsed:.1f}s")


def test_criterion_06_discrete_components():
    ok = all(components(1, k) == math.factorial(k) for k in range(6))
    _line(6, "level-one classifiers are discrete", ok)


def test_criterion_07_planar_three_points_cross_check():
    rep = classifier_homology(2, 3)
    got = rep["betti"]
    expected = [1, 3, 2]
    if got == expected and all(t == [] for t in rep["torsion"]):
        _line(7, "arity-three planar cross-check", True, f"betti={got}")
    else:
        print(
            "criterion  7 (arity-three planar cross-check): WARNING - "
            f"betti {got} differs from the literature value {expected} "
            "(reported, not gating)"
        )


def test_criterion_08_free_operad_catalan():
    coll = Collection(OrdBase(1), 5, {ordinal(1, 0): ("m",)})
    res = free_operad(coll, vmax=4, kmax=2)
    sizes = [
        len(res.operad.components[ordinal(1, *([0] * (k - 1)))]) for k in range(1, 6)
    ]
    ok = sizes == [1, 1, 2, 5, 14] == [catalan(k) for k in range(5)]
    _line(8, "free-operad Catalan census", ok, f"sizes={sizes}")


def test_criterion_09_monad_laws_and_mutation(monkeypatch):
    ok = True
    for n, vmax, kmax in [(1, 3, 3), (2, 3, 3)]:
        rep = check_monad_laws(n, vmax, kmax)
        ok = ok and rep.ok
    # a graft that forgets to compose the node morphisms must be caught
    from test_freeop import drop_composition

    drop_composition(monkeypatch)
    for n in (1, 2):
        ok = ok and not check_monad_laws(n, 2, 2).ok
    _line(9, "monad laws and mutation test", ok)


@pytest.fixture(scope="module")
def des_end():
    return desymmetrize(endomorphism_operad((0, 1), 3), 1)


def test_criterion_10_operad_axioms_and_fuzz(des_end):
    ok = True
    for n in (1, 2, 3):
        ok = ok and check_operad_axioms(make_ass(OrdBase(n), 3)).ok
    full = check_operad_axioms(des_end)
    ok = ok and full.ok

    # single-entry corruption fuzz with focused rechecking
    A = des_end
    base = A.base
    all_m = list(base_morphisms(base, 3))
    by_src = {}
    for mm in all_m:
        by_src.setdefault(mm.source, []).append(mm)
    all_pairs = [(s, w) for s in all_m for w in by_src.get(s.target, [])]
    containing = {mm: [] for mm in all_m}
    compiled = compile_base(base, 3)
    rows = {tuple(row[:2]): row[2:] for row in composable_pairs(base, 3).tolist()}
    for s, w in all_pairs:
        ids = rows[(compiled.morphism_id[s], compiled.morphism_id[w])]
        for member in {s, w, *(compiled.morphisms[m] for m in ids if m >= 0)}:
            containing[member].append((s, w))

    def cost(pair):
        s, w = pair
        nb = len(A.components[w.target])
        na = int(np.prod([len(A.components[base.fiber(w, i)])
                          for i in range(w.target.size)]) or 1)
        nc = int(np.prod([len(A.components[base.fiber(s, e)])
                          for e in range(s.target.size)]) or 1)
        return nb * na * nc

    for mm in containing:
        containing[mm].sort(key=cost)

    rng = random.Random(20260809)
    sigmas = sorted(A.mult, key=str)
    trials, detected, coincidental = 120, 0, 0
    for _ in range(trials):
        while True:
            s = rng.choice(sigmas)
            tab = A.mult[s]
            if tab.size and len(A.components[s.source]) >= 2:
                break
        flat = rng.randrange(tab.size)
        old = int(tab.flat[flat])
        new = rng.randrange(len(A.components[s.source]) - 1)
        if new >= old:
            new += 1
        mult = dict(A.mult)
        t2 = tab.copy()
        t2.flat[flat] = new
        mult[s] = t2
        corrupt = OperadTable(A.base, A.K, A.components, A.unit, mult, "fuzz")
        found = bool(unit_violations(corrupt))
        if not found:
            for pair in containing[s]:
                if associativity_violations(corrupt, *pair):
                    found = True
                    break
        if found:
            detected += 1
        elif check_operad_axioms(corrupt).ok:
            coincidental += 1  # a genuinely unconstrained entry
    ok = ok and detected + coincidental == trials and detected >= 0.99 * trials
    _line(
        10,
        "operad axioms and corruption fuzz",
        ok,
        f"detected {detected}/{trials}, coincidental {coincidental}",
    )


def test_criterion_11_adjunction_and_algebras():
    end = endomorphism_operad((0, 1), 3)
    adj = check_adjunction(make_ass(OrdBase(1), 3), end)
    monoids = count_monoids(2)
    ok = adj.sym_hom_count == adj.des_hom_count == monoids == 4 and adj.bijection

    alg = algebra_equivalence(make_ass(OrdBase(2), 3), (0, 1))
    comm = count_commutative_monoids(2)
    ok = ok and alg.des_hom_count == alg.sym_hom_count == comm and alg.bijection
    _line(
        11,
        "adjunction and algebra equivalence",
        ok,
        f"monoids {adj.sym_hom_count}={adj.des_hom_count}, "
        f"commutative {alg.des_hom_count}={alg.sym_hom_count} "
        f"(both equal the brute-force oracle)",
    )


def test_criterion_12_strict_triangle_and_cardinality():
    end = endomorphism_operad((0, 1), 3)
    ok = True
    for n in (0, 1, 2):
        des_up = desymmetrize(end, n + 1)
        des_n = desymmetrize(end, n)
        for p in range(n + 1):
            ok = ok and tables_equal(restrict_suspension(des_up, p), des_n)
    term = make_ass(FinBase(), 3)
    for n in (0, 1, 2):
        for p in range(n + 1):
            ok = ok and tables_equal(
                restrict_suspension(desymmetrize(term, n + 1), p),
                desymmetrize(term, n),
            )

    for n, vmax, kmax in [(1, 3, 3), (2, 2, 2)]:
        base = OrdBase(n)
        fin = FinBase()
        for k in range(kmax + 1):
            for T in enumerate_ordinals(n, k):
                for x in enumerate_trees(T, vmax, kmax, True, base):
                    cx = tree_cardinality(x)
                    ok = ok and target(cx) == target(x).size
                    for addr, S_v in vertices(x):
                        for y in enumerate_trees(S_v, vmax - 1, kmax, True, base):
                            # the insertion on ids, against the term insertion
                            left = tree_cardinality(insert(x, addr, y, base))
                            right = oracles.insert(cx, addr, tree_cardinality(y), fin)
                            ok = ok and left == right
    _line(12, "strict triangle and cardinality of trees", ok)


def test_criterion_13_verify_determinism():
    t0 = time.perf_counter()
    env = dict(os.environ)
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "higherop.cli", "--json", "verify", "all"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)

    def strip(text):
        lines = [l for l in text.splitlines() if '"ms"' not in l]
        return "\n".join(lines)

    identical = strip(outs[0]) == strip(outs[1])
    elapsed = time.perf_counter() - t0
    _line(
        13,
        "verify suite determinism",
        identical and elapsed < 600,
        f"two full runs in {elapsed:.0f}s",
    )
