import collections
import itertools
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from higherop import associativity, operads
from higherop.freeop import Collection, free_operad
from higherop.operads import (
    BudgetExceededError,
    FinBase,
    FinSetMorphism,
    OperadMorphism,
    OperadTable,
    OrdBase,
    base_from_json,
    base_morphisms,
    base_to_json,
    cardinality_morphism,
    associativity_violations,
    check_operad_axioms,
    compile_base,
    composable_pairs,
    compose_operad_morphisms,
    desymmetrize,
    endomorphism_operad,
    enumerate_algebras,
    enumerate_operad_morphisms,
    finset_compose,
    finset_fiber_elements,
    finset_restrict,
    is_operad_morphism,
    make_ass,
    operad_from_json,
    operad_to_json,
    restrict_suspension,
    tables_equal,
)
from higherop.ordinals import ordinal, terminal_ordinal

from hypothesis import given, settings, strategies as st

from higherop.symmetrize import symmetrize

from oracles import (
    all_arrows_classes,
    composable_pairs_loop,
    count_monoids,
    end_tables_by_int64_gather,
    is_operad_morphism_by_entries,
    operad_morphisms_by_brute_force,
    distinct_associativity_triples,
    pointwise_associativity,
    unit_diagrams_by_entries,
)


@pytest.fixture(scope="module")
def end2_k3():
    return endomorphism_operad((0, 1), 3)


@pytest.fixture(scope="module")
def des1_end(end2_k3):
    return desymmetrize(end2_k3, 1)


# ---------------------------------------------------------------------------
# finite-set morphisms


def test_finset_morphism_basics():
    f = FinSetMorphism(3, 2, (0, 0, 1))
    assert finset_fiber_elements(f, 0) == (0, 1)
    g = FinSetMorphism(2, 1, (0, 0))
    assert finset_compose(g, f).map == (0, 0, 0)
    with pytest.raises(ValueError):
        FinSetMorphism(2, 1, (0, 1))
    with pytest.raises(ValueError):
        finset_compose(f, g)


def test_finset_restrict():
    sigma = FinSetMorphism(4, 3, (0, 1, 1, 2))
    omega = FinSetMorphism(3, 2, (0, 0, 1))
    rho = finset_restrict(sigma, omega, 0)
    assert (rho.source, rho.target) == (3, 2)
    assert rho.map == (0, 1, 1)


def test_cardinality_morphism():
    f = ordinal(2, 1, 0)
    from higherop.ordinals import OrdinalMorphism

    m = OrdinalMorphism(f, ordinal(2, 0), (0, 0, 1))
    assert cardinality_morphism(m) == FinSetMorphism(3, 2, (0, 0, 1))


# ---------------------------------------------------------------------------
# terminal operads


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ass_components_and_axioms(n):
    A = make_ass(OrdBase(n), 3)
    assert all(len(labs) == 1 for labs in A.components.values())
    assert check_operad_axioms(A).ok


def test_ass_suspension_compatibility():
    for n in (1, 2):
        for p in range(n + 1):
            big = make_ass(OrdBase(n + 1), 3)
            small = make_ass(OrdBase(n), 3)
            assert tables_equal(restrict_suspension(big, p), small)


def test_ass_over_finset_is_terminal_symmetric_operad():
    A = make_ass(FinBase(), 3)
    assert check_operad_axioms(A).ok
    assert [len(A.components[k]) for k in range(4)] == [1, 1, 1, 1]
    pulled = desymmetrize(A, 1)
    assert all(len(labs) == 1 for labs in pulled.components.values())


# ---------------------------------------------------------------------------
# endomorphism operads


def test_end_component_sizes(end2_k3):
    assert len(end2_k3.components[0]) == 2
    assert len(end2_k3.components[1]) == 4
    assert len(end2_k3.components[2]) == 16
    assert len(end2_k3.components[3]) == 256


def test_end_axioms_k2():
    rep = check_operad_axioms(endomorphism_operad((0, 1), 2))
    assert rep.ok, rep.violations


def test_end_unit_is_identity_function(end2_k3):
    assert end2_k3.unit == "01"


def test_end_budget():
    # K=3 is refused from the 3^27 functions of arity 3 alone; K=2 by the byte count of its tables
    for K in (3, 2):
        with pytest.raises(BudgetExceededError):
            endomorphism_operad((0, 1, 2), K)


# the two- and three-point sets at the largest K their tables admit; the
# one-point set's tables at K = 6, and the constant-free three-point set's
# at K = 2, take seconds to build
@pytest.mark.parametrize("X, K, constant_free", [
    ((0,), 5, False), ((0, 1), 3, False), ((0, 1, 2), 1, False),
    ((), 3, True), ((0, 1), 3, True), ((0, 1, 2), 1, True),
])
def test_end_tables_match_the_int64_build(X, K, constant_free):
    end = endomorphism_operad(X, K, constant_free=constant_free)
    want = end_tables_by_int64_gather(X, K, constant_free)
    assert set(end.mult) == set(want)
    for f, table in want.items():
        assert end.mult[f].dtype == np.int32 and np.array_equal(end.mult[f], table), f


def test_end_substitution_semantics(end2_k3):
    # m_f(h; g_0, g_1) for f = id_2 is plain substitution in both slots
    f = FinSetMorphism(2, 2, (0, 1))
    neg = "10"  # negation at arity 1
    and_ = "0001"
    got = end2_k3.value(f, and_, (neg, neg))
    inputs = list(itertools.product((0, 1), repeat=2))
    expected = "".join(str(int(and_[2 * (1 - x) + (1 - y)])) for x, y in inputs)
    assert got == expected


# ---------------------------------------------------------------------------
# desymmetrisation and suspension restriction


def test_des_component_sizes(end2_k3):
    d2 = desymmetrize(end2_k3, 2)
    for T in OrdBase(2).objects(3):
        assert d2.components[T] == end2_k3.components[T.size]
    assert len(d2.components[ordinal(2, 0)]) == 16
    assert len(d2.components[ordinal(2, 1)]) == 16


def test_des_preserves_validity_k2():
    end = endomorphism_operad((0, 1), 2)
    for n in (1, 2):
        rep = check_operad_axioms(desymmetrize(end, n))
        assert rep.ok, rep.violations


@pytest.mark.parametrize("n", [0, 1, 2])
def test_strict_triangle_identity(n, end2_k3):
    des_up = desymmetrize(end2_k3, n + 1)
    des_n = desymmetrize(end2_k3, n)
    for p in range(n + 1):
        assert tables_equal(restrict_suspension(des_up, p), des_n)


def test_restrict_suspension_rejects_bad_p(end2_k3):
    d2 = desymmetrize(end2_k3, 2)
    with pytest.raises(ValueError):
        restrict_suspension(d2, 2)


def test_restrict_suspension_preserves_validity():
    end = endomorphism_operad((0, 1), 2)
    d2 = desymmetrize(end, 2)
    for p in (0, 1):
        rep = check_operad_axioms(restrict_suspension(d2, p))
        assert rep.ok, rep.violations


def test_constant_free_endomorphism_of_empty_set():
    end = endomorphism_operad((), 2, constant_free=True)
    assert all(len(labs) == 1 for labs in end.components.values())
    assert check_operad_axioms(end).ok
    with pytest.raises(ValueError):
        endomorphism_operad((), 2)


# ---------------------------------------------------------------------------
# the axiom checker on corrupted tables


def _corrupted(A, sigma, flat, new_value):
    mult = dict(A.mult)
    tab = mult[sigma].copy()
    tab.flat[flat] = new_value
    mult[sigma] = tab
    return OperadTable(A.base, A.K, A.components, A.unit, mult, A.name + "+corrupt")


def test_unit_diagrams_match_the_entry_loop():
    # several wrong values and holes per column, on the identities and the
    # maps to the terminal object, against the loop over single entries
    rng = random.Random(7)
    for A in (desymmetrize(endomorphism_operad((0, 1), 2), 2), make_ass(FinBase(), 3)):
        u = A.unit_index()
        for _ in range(20):
            mult = dict(A.mult)
            for _ in range(4):
                T = rng.choice(list(A.components))
                labs = len(A.components[T])
                sigma, entry = rng.choice(
                    [(A.base.identity(T), lambda a: (a,) + (u,) * A.base.size(T))]
                    + [(bang, lambda a: (u, a)) for bang in A.base.morphisms(T, A.base.terminal())])
                tab = mult[sigma] = mult[sigma].copy()
                tab[entry(rng.randrange(labs))] = rng.randrange(-1, labs)
            B = OperadTable(A.base, A.K, A.components, A.unit, mult, A.name)
            rep = check_operad_axioms(B, units_only=True)
            assert (rep.violations, rep.unit_instances, rep.skipped_holes) == unit_diagrams_by_entries(B)


def test_corrupted_unit_entry_is_reported():
    A = make_ass(OrdBase(1), 2)
    ident = OrdBase(1).identity(ordinal(1, 0))
    bad = _corrupted(A, ident, 0, 5)  # out of range: singleton component
    rep = check_operad_axioms(bad)
    assert not rep.ok
    assert any("out-of-range" in v or "shape" in v for v in rep.violations)


def test_corrupted_end_unit_diagram_names_the_morphism(des1_end):
    base = des1_end.base
    T = ordinal(1, 0)
    ident = base.identity(T)
    tab = des1_end.mult[ident]
    unit_idx = des1_end.unit_index()
    flat = int(np.ravel_multi_index((3, unit_idx, unit_idx), tab.shape))
    bad = _corrupted(des1_end, ident, flat, 0)
    rep = check_operad_axioms(bad, units_only=True)
    assert not rep.ok
    assert any("unit diagram" in v for v in rep.violations)


def test_missing_unit_is_reported():
    A = make_ass(OrdBase(1), 2)
    broken = OperadTable(A.base, A.K, A.components, "nope", A.mult)
    rep = check_operad_axioms(broken)
    assert not rep.ok and "missing unit" in rep.violations[0]


def test_missing_and_misshapen_tables_stop_before_the_laws(monkeypatch):
    A = make_ass(OrdBase(1), 2)
    C = compile_base(A.base, 2)
    gone, squashed = C.morphisms[-1], C.morphisms[-2]
    mult = dict(A.mult)
    del mult[gone]
    mult[squashed] = mult[squashed].reshape(-1)[:1]
    broken = OperadTable(A.base, A.K, A.components, A.unit, mult, A.name)

    def laws(*args):
        raise AssertionError("a law was checked on an incomplete operad")

    monkeypatch.setattr(operads, "_check_associativity", laws)
    monkeypatch.setattr(operads.CompiledBase, "find", laws)  # the unit diagrams' first step
    rep = check_operad_axioms(broken)
    assert not rep.ok and rep.violations == [
        f"table for {squashed} has shape (1,), want {A.mult[squashed].shape}",
        f"missing table for {gone}",
    ]


def test_single_corruption_fuzz_k2():
    end = endomorphism_operad((0, 1), 2)
    A = desymmetrize(end, 1)
    rng = random.Random(4242)
    sigmas = sorted(A.mult, key=str)
    for _ in range(25):
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
        rep = check_operad_axioms(_corrupted(A, s, flat, new))
        assert not rep.ok


# ---------------------------------------------------------------------------
# the compiled base and the associativity kernel


@pytest.mark.parametrize(
    "base",
    [OrdBase(1), OrdBase(2), OrdBase(2, constant_free=True), FinBase(),
     FinBase(constant_free=True)],
    ids=["Ord1", "Ord2", "Ord0_2", "FinSet", "FinSet0"],
)
def test_compiled_lookups_match_base_operations(base):
    C = compile_base(base, 3)
    assert C.morphisms == base_morphisms(base, 3)
    for m, f in enumerate(C.morphisms):
        r = base.size(f.target)
        assert C.objects[C.source[m]] == f.source and C.objects[C.target[m]] == f.target
        assert C.maps[m].tolist() == list(f.map) + [-1] * (3 - len(f.map))
        assert C.fibers[m].tolist() == [
            C.objects.index(base.fiber(f, i)) for i in range(r)] + [-1] * (3 - r)
        assert C.find(C.source[m], C.target[m], C.code(C.maps[m:m + 1])).tolist() == [m]
    rows = composable_pairs(base, 3)
    seen = set()
    for row in rows.tolist():
        s, w, c = row[:3]
        sigma, omega = C.morphisms[s], C.morphisms[w]
        assert sigma.target == omega.source
        assert C.morphisms[c] == base.compose(omega, sigma)
        r = base.size(omega.target)
        assert [C.morphisms[b] for b in row[3:3 + r]] == [
            base.restrict(sigma, omega, i) for i in range(r)
        ]
        assert row[3 + r:] == [-1] * (3 - r)
        seen.add((s, w))
    # every composable pair appears exactly once
    assert len(seen) == len(rows) == sum(
        1 for f in C.morphisms for g in C.morphisms if f.target == g.source
    )


@pytest.mark.parametrize(
    "base",
    [OrdBase(1), OrdBase(2), OrdBase(3), OrdBase(2, constant_free=True), FinBase(),
     FinBase(constant_free=True)],
    ids=["Ord1", "Ord2", "Ord3", "Ord0_2", "FinSet", "FinSet0"],
)
@pytest.mark.parametrize("K", [1, 2, 3])
def test_composable_pairs_match_the_loop(base, K):
    rows = composable_pairs(base, K)
    assert rows.dtype == np.int64
    assert np.array_equal(rows, composable_pairs_loop(base, compile_base(base, K), K))
    # the count that refuses them comes from hom_count, before any is built
    assert operads._pair_count(base, K) == len(rows)
    objs = base.objects(K)
    assert [[base.hom_count(T, S) for S in objs] for T in objs] == [
        [len(base.morphisms(T, S)) for S in objs] for T in objs]


@pytest.mark.parametrize("base", [FinBase(), FinBase(constant_free=True), OrdBase(1), OrdBase(2)],
                         ids=["FinSet", "FinSet0", "Ord1", "Ord2"])
def test_finset_base_is_counted_before_it_is_built(monkeypatch, base):
    # the uncached function, so the outcome does not depend on earlier calls
    build = base_morphisms.__wrapped__

    def count(K):
        objs = base.objects(K)
        return sum(base.hom_count(T, S) for T in objs for S in objs)

    for K in range(1, 6):
        assert count(K) == len(build(base, K))
    need = count(4) * operads._MORPHISM_BYTES
    monkeypatch.setattr(operads, "_MAX_DENSE_BYTES", need)
    assert len(build(base, 4)) == count(4)

    def boom(*args):
        raise AssertionError("a morphism was built past the ceiling")

    monkeypatch.setattr(operads, "_MAX_DENSE_BYTES", need - 1)
    monkeypatch.setattr(type(base), "morphisms", boom)
    with pytest.raises(BudgetExceededError, match=f"^{count(4)} {base.kind} morphisms at K=4"):
        build(base, 4)


def test_compiled_base_refuses_keys_past_64_bits(monkeypatch):
    # a map of 20 points gives a radix of 21, and 21^20 codes per pair of objects pass 2^63
    monkeypatch.setattr(operads, "base_morphisms",
                        lambda base, K: (FinSetMorphism(20, 1, (0,) * 20),))
    want = rf"^the keys of 1 morphisms' maps reach {4 * 21**20} \(budget {2**63 - 1}\)$"
    with pytest.raises(BudgetExceededError, match=want):
        operads.CompiledBase(FinBase(), 1)


@pytest.mark.parametrize("base", [FinBase(), FinBase(constant_free=True)],
                         ids=["FinSet", "FinSet0"])
def test_finset_pairs_are_counted_in_closed_form(monkeypatch, base):
    counts = []
    for K in range(5):
        C = compile_base(base, K)
        out_of = collections.Counter(m.source for m in C.morphisms)
        counts.append(sum(out_of[m.target] for m in C.morphisms))
        assert counts[-1] == np.bincount(C.source, minlength=len(C.objects))[C.target].sum()

    def boom(*args):
        raise AssertionError("the base was compiled")

    monkeypatch.setattr(operads, "compile_base", boom)
    assert [operads._pair_count(base, K) for K in range(5)] == counts


def test_axiom_check_does_not_import_numpy_ma():
    code = ("import sys\n"
            "from higherop.operads import OrdBase, check_operad_axioms, make_ass\n"
            "assert check_operad_axioms(make_ass(OrdBase(1), 2)).ok\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(operads.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.strip() == "False"


def test_composable_pairs_are_counted_before_they_are_built(monkeypatch):
    # the uncached function, so the outcome does not depend on earlier calls
    build = composable_pairs.__wrapped__
    base, K = OrdBase(1), 3
    rows = build(base, K)
    need = 8 * (3 + K) * len(rows)
    monkeypatch.setattr(operads, "_MAX_DENSE_BYTES", need)
    assert np.array_equal(build(base, K), rows)

    def boom(*args):
        raise AssertionError("a pair was built past the ceiling")

    monkeypatch.setattr(operads, "_MAX_DENSE_BYTES", need - 1)
    monkeypatch.setattr(operads, "_pair_rows", boom)
    with pytest.raises(BudgetExceededError, match=f"{len(rows)} composable pairs"):
        build(base, K)


@pytest.mark.parametrize("build", [lambda K: make_ass(OrdBase(1), K),
                                   lambda K: make_ass(FinBase(), K),
                                   lambda K: endomorphism_operad((0, 1), K)])
def test_tables_need_the_unit_arity(build):
    for K in (0, -1):
        with pytest.raises(ValueError, match="K >= 1"):
            build(K)


def _chain(k):
    return ordinal(1, *([0] * (k - 1)))


def _free_with_holes():
    coll = Collection(OrdBase(1), 2, {terminal_ordinal(1): ("u",), _chain(2): ("m",)})
    return free_operad(coll, vmax=2, kmax=2).operad


# (ok, unit_instances, assoc_pairs, assoc_instances, skipped_holes,
# empty_domains), as reported by the per-pair checker of earlier versions;
# des1_end2_k3 as reported by the instance-by-instance kernel that the
# triple kernel replaced
_COUNTERS = {
    "ass_ord1": (lambda: make_ass(OrdBase(1), 3), (True, 8, 428, 428, 0, 0)),
    "ass_ord2": (lambda: make_ass(OrdBase(2), 3), (True, 16, 13190, 13190, 0, 0)),
    "ass_ord3": (lambda: make_ass(OrdBase(3), 3), (True, 28, 119690, 119690, 0, 0)),
    "ass_ord0_2": (lambda: make_ass(OrdBase(2, constant_free=True), 3),
                   (True, 14, 197, 197, 0, 0)),
    "des1_end2": (lambda: desymmetrize(endomorphism_operad((0, 1), 2), 1),
                  (True, 44, 36, 140458, 0, 0)),
    "des2_end2": (lambda: desymmetrize(endomorphism_operad((0, 1), 2), 2),
                  (True, 76, 148, 956650, 0, 0)),
    "des1_end2_k3": (lambda: desymmetrize(endomorphism_operad((0, 1), 3), 1),
                     (True, 556, 428, 4425686186, 0, 0)),
    "end2_finset": (lambda: endomorphism_operad((0, 1), 2), (True, 44, 47, 191658, 0, 0)),
    "end2_finset0": (lambda: endomorphism_operad((0, 1), 2, constant_free=True),
                     (True, 40, 8, 18752, 0, 0)),
    "end_empty": (lambda: endomorphism_operad((), 3, constant_free=True),
                  (True, 6, 105, 105, 0, 0)),
    "free_holes": (_free_with_holes, (True, 14, 36, 495, 464, 39)),
}


@pytest.mark.parametrize("name", sorted(_COUNTERS))
def test_axiom_report_counters(name):
    make, want = _COUNTERS[name]
    rep = check_operad_axioms(make())
    got = (rep.ok, rep.unit_instances, rep.assoc_pairs, rep.assoc_instances,
           rep.skipped_holes, rep.empty_domains)
    assert got == want, rep.violations


def _signature(A, sigma, omega):
    """What the kernel groups pairs by: three table shapes and omega's fibers."""
    comp = A.base.compose(omega, sigma)
    elems = tuple(tuple(e for e, v in enumerate(omega.map) if v == i)
                  for i in range(len(A.mult[omega].shape) - 1))
    return (A.mult[sigma].shape, A.mult[omega].shape, A.mult[comp].shape, elems)


def _violating_pairs(A, rep):
    names = {str(m): m for m in A.mult}
    out = set()
    for v in rep.violations:
        if not v.startswith("associativity fails for "):
            continue  # a unit diagram
        head = v.split(" at b=")[0].removeprefix("associativity fails for ")
        sigma, omega = head.split(" then ")
        out.add((names[sigma], names[omega]))
    return out


def _with_holes(A, rng, count):
    for sigma in rng.sample(sorted(A.mult, key=str), count):
        A = _corrupted(A, sigma, rng.randrange(A.mult[sigma].size), -1)
    return A


def test_corruption_is_reported_against_its_pair_among_holes(monkeypatch):
    monkeypatch.setattr(operads, "_MAX_VIOLATIONS", 10**6)
    rng = random.Random(31)
    A = _with_holes(
        desymmetrize(endomorphism_operad((0, 1), 2, constant_free=True), 2), rng, 2
    )
    groups = {}
    for s in A.mult:
        for w in A.mult:
            if s.target == w.source:
                groups.setdefault(_signature(A, s, w), []).append((s, w))
    shared = 0
    sigmas = sorted(A.mult, key=str)
    for _ in range(10):
        sigma = rng.choice(sigmas)
        flat = rng.randrange(A.mult[sigma].size)
        n_src = len(A.components[sigma.source])
        B = _corrupted(A, sigma, flat, (int(A.mult[sigma].flat[flat]) + 1) % n_src)
        failing, skipped, instances = pointwise_associativity(B)
        rep = check_operad_axioms(B)
        units = check_operad_axioms(B, units_only=True)
        assert _violating_pairs(B, rep) == failing
        assert rep.skipped_holes - units.skipped_holes == skipped > 0
        assert rep.assoc_instances == instances
        shared += any(len(groups[_signature(B, s, w)]) > 1 for s, w in failing)
    assert shared >= 3


def _morphism(A, source: int, target: int, images: tuple):
    """The morphism of A's base between objects of these sizes with this map."""
    size = A.base.size
    return next(m for m in A.mult
                if (size(m.source), size(m.target), tuple(m.map)) == (source, target, images))


# one table per route by which a hole reaches the kernel, each for a pair of
# sizes 1 -> 2 -> 1 or 0 -> 1 -> 2 whose other tables are whole: the block of
# omega = (0,) over its empty fiber 1 (the identity of the empty object), the
# block of sigma = id over the nonempty fiber of omega = (0, 0), the composite
# 0 -> 2 sliced at that empty fiber, sigma = (1,) and omega = (0, 0) read at v
_ROUTES = {
    "empty-fiber block": (0, 0, ()),
    "nonempty-fiber block": (2, 2, (0, 1)),
    "composite slice": (0, 2, ()),
    "sigma": (1, 2, (1,)),
    "omega value": (2, 1, (0, 0)),
}


def _check_against_oracles(A):
    """The report, uncapped, against the pointwise oracle and the triple count."""
    messages = []
    failing, skipped, instances = pointwise_associativity(A, messages)
    rep = check_operad_axioms(A)
    assert sorted(v for v in rep.violations if v.startswith("associativity")) == sorted(messages)
    assert _violating_pairs(A, rep) == failing
    assert rep.skipped_holes - check_operad_axioms(A, units_only=True).skipped_holes == skipped
    assert rep.assoc_instances == instances
    assert rep.assoc_rows == distinct_associativity_triples(A)
    return rep, failing, skipped


def test_holes_on_every_route_match_the_pointwise_check(monkeypatch):
    monkeypatch.setattr(operads, "_MAX_VIOLATIONS", 10**6)
    A = desymmetrize(endomorphism_operad((0, 1), 2), 1)
    for source, target, images in _ROUTES.values():
        sigma = _morphism(A, source, target, images)
        A = _corrupted(A, sigma, A.mult[sigma].size // 2, -1)
    rep, failing, skipped = _check_against_oracles(A)
    assert rep.ok and not failing and skipped > 0


def test_holes_and_a_wrong_value_in_stacked_groups(monkeypatch):
    # over FinSet the maps of one shape stack, and the empty fibers of the
    # non-surjective maps take the empty-fiber route
    monkeypatch.setattr(operads, "_MAX_VIOLATIONS", 10**6)
    A = endomorphism_operad((0, 1), 2)
    for source, target, images in _ROUTES.values():
        sigma = _morphism(A, source, target, images)
        A = _corrupted(A, sigma, A.mult[sigma].size // 2, -1)
    # wrong values: one beside the hole in the nonempty-fiber block, so a failing
    # cell's other side also has a hole to skip, and one in the swap of 2
    for images, at in (((0, 1), A.mult[_morphism(A, 2, 2, (0, 1))].size // 2 + 1), ((1, 0), 5)):
        sigma = _morphism(A, 2, 2, images)
        A = _corrupted(A, sigma, at, (int(A.mult[sigma].flat[at]) + 1) % 16)
    rep, failing, skipped = _check_against_oracles(A)
    assert failing and skipped > 0
    groups = collections.Counter(_signature(A, s, w) for s in A.mult for w in A.mult
                                 if s.target == w.source)
    assert any(groups[_signature(A, s, w)] > 1 for s, w in failing)


def _synthetic_group(rng, pairs, n_s, nb, a, c, x, top):
    """decide_group's arguments for `pairs` random composable pairs whose
    omega sends point i of its source to point i of its target: sigma of
    shape (n_s, *c) and the composite of shape (nb, *x) take labels in
    [0, top], omega of shape (nb, *a) labels below n_s, and the block over
    point i of shape (a_i, c_i) labels below x_i.  When `top` is 1, sigma
    and the composite also hold holes (-1).  Returns (omega's map, tables,
    rows, shapes): tables is a list in id order, rows has one (sigma,
    omega, composite, blocks...) row of ids per pair."""
    low = [-1, 0, 1] if top == 1 else [0, 1, top]
    roles = [((n_s, *c), low), ((nb, *a), np.arange(n_s)), ((nb, *x), low)]
    roles += [((a_i, c_i), np.arange(x_i)) for a_i, c_i, x_i in zip(a, c, x)]
    tables, shapes = [], {}
    for shape, labels in roles:  # the ids of one role's tables run on from the last role's
        shapes.update((len(tables) + q, shape) for q in range(pairs))
        tables += list(rng.choice(labels, size=(pairs, *shape)).astype(np.int64))
    rows = np.arange(len(roles))[None, :] * pairs + np.arange(pairs)[:, None]
    return np.arange(len(a)), tables, rows, shapes


def _run_kernel(group, dtype, slab=1 << 22, cap=20):
    """decide_group on a synthetic group with its tables flat in `dtype`."""
    omega_map, tables, rows, shapes = group
    off = np.cumsum([0] + [t.size for t in tables])[:-1]
    holes = np.array([t.min() < 0 for t in tables])
    flat = np.concatenate([t.ravel() for t in tables]).astype(dtype)
    return associativity.decide_group(omega_map, flat, off, holes, shapes, rows, slab, {},
                                      cap, {})


def _synthetic_oracle(group, cap=20):
    """(triples, skipped, first `cap` failing instances) of a synthetic
    group, from every (pair, b, a, c) at once."""
    omega_map, tables, rows, shapes = group
    r = len(omega_map)
    sigma, omega, comp = (np.stack([tables[i] for i in rows[:, col]]) for col in range(3))
    blocks = [np.stack([tables[i] for i in rows[:, 3 + col]]) for col in range(r)]
    P, nb, a = omega.shape[0], omega.shape[1], omega.shape[2:]
    c = sigma.shape[2:]
    p, b, *ac = np.indices((P, nb, *a, *c))
    v = omega[(p, b, *ac[:r])]
    lhs = sigma[(p, np.maximum(v, 0), *ac[r:])]
    inner = [blk[p, a_i, c_i] for blk, a_i, c_i in zip(blocks, ac[:r], ac[r:])]
    rhs = comp[(p, b, *(np.maximum(x, 0) for x in inner))]
    hole = (v < 0) | (lhs < 0) | (rhs < 0)
    for x in inner:
        hole |= x < 0
    bad = np.argwhere((lhs != rhs) & ~hole)[:cap]
    found = [(int(q[0]), int(q[1]), int(np.ravel_multi_index(q[2:2 + r], a)),
              int(np.ravel_multi_index(q[2 + r:], c)), int(lhs[tuple(q)]), int(rhs[tuple(q)]))
             for q in bad]
    # a triple: the pair, its composite's row at b, a and v, once per cell
    _, row = np.unique(np.column_stack([np.repeat(np.arange(P), nb), comp.reshape(P * nb, -1)]),
                       axis=0, return_inverse=True)
    cells = np.column_stack([np.repeat(row.ravel(), math.prod(a)),
                             np.tile(np.arange(math.prod(a)), P * nb), omega.ravel()])
    return len(np.unique(cells, axis=0)), int(hole.sum()), found


@pytest.mark.parametrize("top", [2**15 - 1, 2**15])
def test_kernel_on_labels_at_the_int16_edge(top):
    # the largest label int16 holds, and the first it does not
    group = _synthetic_group(np.random.default_rng(top), 3, 2, 2, (2,), (3,), (2,), top)
    flat = operads._flat_tables([t.ravel() for t in group[1]])
    assert flat.dtype == (np.int16 if top < 2**15 else np.int32)
    got = _run_kernel(group, flat.dtype)
    assert got == _synthetic_oracle(group)
    assert got == _run_kernel(group, np.int32) and got[2] and top in np.abs(flat)
    assert any(top in (lhs, rhs) for *_, lhs, rhs in got[2])


def test_kernel_on_more_pairs_than_int16_holds():
    # one slab stacks every pair, past the 32,767 that a G row's pair column holds
    pairs = 2**15 + 100
    group = _synthetic_group(np.random.default_rng(3), pairs, 2, 1, (2,), (2,), (2,), 1)
    got = _run_kernel(group, np.int16)
    assert got == _run_kernel(group, np.int32) == _synthetic_oracle(group)
    assert len(got[2]) == 20 and got[1] > 0


def test_kernel_on_a_composite_row_longer_than_int16_holds():
    # a G row of 3 * 32,767 values: the first axis steps by 32,767 within it
    group = _synthetic_group(np.random.default_rng(4), 2, 2, 2, (2, 3), (2, 2), (3, 2**15 - 1),
                             2)
    assert math.prod(group[3][group[2][0, 2]][1:]) > 2**15
    want = _synthetic_oracle(group, 10**6)
    assert want[2] and max(max(group[1][i].max() for i in row[3:]) for row in group[2]) > 2**14
    for slab in (1, 7, 64, 1 << 22):
        assert _run_kernel(group, np.int16, slab, 10**6) == want
        assert _run_kernel(group, np.int32, slab, 10**6) == want


def _kernel_dtype(A):
    """The type in which the associativity kernel reads A's tables."""
    return operads._flat_tables([t.ravel() for t in A.mult.values()]).dtype


def test_slab_size_does_not_change_the_report(monkeypatch):
    # uncapped, so the slabs' order of visiting instances cannot matter
    monkeypatch.setattr(operads, "_MAX_VIOLATIONS", 10**6)
    rng = random.Random(5)
    A = _with_holes(
        desymmetrize(endomorphism_operad((0, 1), 2, constant_free=True), 2), rng, 1
    )
    sigma = max(A.mult, key=lambda m: A.mult[m].size)
    flat = rng.randrange(A.mult[sigma].size)
    n_src = len(A.components[sigma.source])
    cases = [_free_with_holes(), A,
             _corrupted(A, sigma, flat, (int(A.mult[sigma].flat[flat]) + 1) % n_src)]

    def report(B):
        rep = check_operad_axioms(B)
        rep.violations.sort()
        return rep

    want = [report(B) for B in cases]
    assert len(want[2].violations) > 20 and want[1].skipped_holes > 0
    assert all(_kernel_dtype(B) == np.int16 for B in cases)
    for slab in (1, 7, 64):
        monkeypatch.setattr(operads, "_SLAB_CELLS", slab)
        for B, rep in list(zip(cases, want))[: 1 if slab == 1 else 3]:
            assert report(B) == rep


def _fields(rep):
    return (rep.ok, rep.violations, rep.unit_instances, rep.assoc_pairs,
            rep.assoc_instances, rep.assoc_rows, rep.skipped_holes, rep.empty_domains)


def test_merged_report_does_not_depend_on_the_worker_count(monkeypatch):
    rng = random.Random(1)
    A = desymmetrize(endomorphism_operad((0, 1), 2), 2)
    sigma = rng.choice(sorted(A.mult, key=str))
    flat = rng.randrange(A.mult[sigma].size)
    # more than 20 violations, and the 20th falls inside a group with more of them
    capped = _corrupted(A, sigma, flat, (int(A.mult[sigma].flat[flat]) + 1) % 16)
    holes = _with_holes(
        desymmetrize(endomorphism_operad((0, 1), 2, constant_free=True), 2), rng, 2
    )
    sigma = max(holes.mult, key=lambda m: holes.mult[m].size)
    holed = _corrupted(holes, sigma, 5, (int(holes.mult[sigma].flat[5]) + 1) % 16)
    cases = [make() for make, _ in _COUNTERS.values()] + [capped, holes, holed]
    want = [_fields(check_operad_axioms(B)) for B in cases]
    assert len(want[-3][1]) == 20 and want[-2][6] > 0 and len(want[-1][1]) == 20
    assert all(_kernel_dtype(B) == np.int16 for B in cases)
    monkeypatch.setattr(operads, "_MAX_VIOLATIONS", 10**6)
    assert len(check_operad_axioms(capped).violations) > 20
    monkeypatch.undo()

    # the 20th violation falls inside a group that follows violating groups
    found = []  # violations per group; one worker checks the groups in order
    check_group = operads._check_group

    def recording(*args):
        rep = check_group(*args)
        found.append(len(rep.violations))
        return rep

    monkeypatch.setattr(operads, "_worker_count", lambda: 1)
    monkeypatch.setattr(operads, "_check_group", recording)
    check_operad_axioms(capped)
    monkeypatch.setattr(operads, "_check_group", check_group)
    total = np.cumsum(found)
    g = int(np.argmax(total >= 20))
    assert 0 < total[g - 1] < 20 < total[g]

    # then small slabs, which split pairs differently for each number of workers;
    # frequent thread switches, so the workers interleave within groups
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for slab, first in ((operads._SLAB_CELLS, 0), (400, -3)):
            monkeypatch.setattr(operads, "_SLAB_CELLS", slab)
            for workers in (1, 2, 3):
                monkeypatch.setattr(operads, "_worker_count", lambda: workers)
                for B, rep in list(zip(cases, want))[first:]:
                    got = check_operad_axioms(B)
                    assert _fields(got) == rep
                    assert 1 <= got.timing["workers"] <= workers
    finally:
        sys.setswitchinterval(interval)


def test_budget_error_skips_the_queued_groups(monkeypatch):
    A = desymmetrize(endomorphism_operad((0, 1), 2), 1)
    calls = []
    check_group = operads._check_group

    def counting(*args):
        calls.append(args)
        return check_group(*args)

    monkeypatch.setattr(operads, "_check_group", counting)
    monkeypatch.setattr(operads, "_MAX_PAIR_CELLS", 0)
    messages = set()
    for workers in (1, 2, 3):
        monkeypatch.setattr(operads, "_worker_count", lambda: workers)
        calls.clear()
        # every group needs at least one cell, so every group raises
        with pytest.raises(BudgetExceededError) as err:
            check_operad_axioms(A)
        messages.add(str(err.value))
        assert 1 <= len(calls) <= workers
    assert len(messages) == 1


def test_associativity_violations_of_one_pair():
    A = desymmetrize(endomorphism_operad((0, 1), 2), 1)
    base = A.base
    sigma = base.identity(ordinal(1, 0))
    (omega,) = base.morphisms(ordinal(1, 0), base.terminal())
    assert associativity_violations(A, sigma, omega) == []
    B = _corrupted(A, omega, 5, (int(A.mult[omega].flat[5]) + 1) % 16)
    bad = associativity_violations(B, sigma, omega)
    assert bad and all(v.startswith(f"associativity fails for {sigma} then {omega}")
                       for v in bad)
    with pytest.raises(ValueError):
        associativity_violations(A, omega, omega)

# ---------------------------------------------------------------------------
# morphism and algebra enumeration


def test_hom_ass_to_ass_is_singleton():
    A = make_ass(OrdBase(2), 3)
    assert len(enumerate_operad_morphisms(A, A)) == 1


def test_hom_ass1_to_des_end_matches_monoid_oracle(des1_end):
    A = make_ass(OrdBase(1), 3)
    homs = enumerate_operad_morphisms(A, des1_end)
    assert len(homs) == count_monoids(2) == 4


def test_algebras_examples(des1_end):
    A = make_ass(OrdBase(1), 3)
    assert len(enumerate_algebras(A, (0, 1))) == 4
    assert len(enumerate_algebras(A, (0,))) == 1


def test_algebra_with_missing_unit_has_no_morphisms(des1_end):
    A = make_ass(OrdBase(1), 3)
    broken = OperadTable(A.base, A.K, A.components, None, A.mult)
    assert enumerate_operad_morphisms(broken, des1_end) == []


def _empty_binary_component():
    """Ass over Ord(1) at K=2 with its binary component emptied, and des_1(End_2)."""
    base = OrdBase(1)
    A = make_ass(base, 2)
    comps = dict(A.components)
    comps[ordinal(1, 0)] = ()
    mult = {}
    for sigma in base_morphisms(base, 2):
        shape = tuple(
            len(comps[F])
            for F in [sigma.target]
            + [base.fiber(sigma, i) for i in range(sigma.target.size)]
        )
        mult[sigma] = np.zeros(shape, dtype=np.int32)
    return OperadTable(base, 2, comps, "*", mult), desymmetrize(endomorphism_operad((0, 1), 2), 1)


def test_empty_source_component_imposes_nothing(des1_end):
    # a collection-like operad with an empty binary component still maps in
    A2, B = _empty_binary_component()
    homs = enumerate_operad_morphisms(A2, B)
    # unit forced, nullary free: |End(0)| = 2 choices and no other constraint
    assert len(homs) == 2


def test_morphism_search_budget(des1_end, monkeypatch):
    monkeypatch.setattr(operads, "_MAX_SEARCH_NODES", 3)
    A = make_ass(OrdBase(1), 3)
    with pytest.raises(BudgetExceededError):
        enumerate_operad_morphisms(A, des1_end)


def test_enumeration_is_deterministic(des1_end):
    A = make_ass(OrdBase(1), 3)
    first = enumerate_operad_morphisms(A, des1_end)
    second = enumerate_operad_morphisms(A, des1_end)
    assert first == second


def test_algebra_morphism_composition(des1_end):
    # conjugating by the swap of {0,1} is an operad automorphism of des(End);
    # composing it with algebra structures permutes them
    A = make_ass(OrdBase(1), 3)
    algebras = enumerate_operad_morphisms(A, des1_end)
    swap_maps = []
    for T, labs in sorted(
        des1_end.components.items(), key=lambda kv: (kv[0].size, kv[0].profile)
    ):
        k = T.size
        imgs = []
        for lab in labs:
            outs = [int(c) for c in lab]
            conj = [0] * len(outs)
            for rank, x in enumerate(itertools.product((0, 1), repeat=k)):
                flipped = tuple(1 - v for v in x)
                flipped_rank = sum(v << (k - 1 - i) for i, v in enumerate(flipped))
                conj[rank] = 1 - outs[flipped_rank]
            conj_lab = "".join(map(str, conj))
            imgs.append(labs.index(conj_lab))
        swap_maps.append((T, tuple(imgs)))
    tau = OperadMorphism(des1_end.name, des1_end.name, tuple(swap_maps))
    assert is_operad_morphism(des1_end, des1_end, tau)
    composed = {compose_operad_morphisms(tau, phi).components for phi in algebras}
    assert composed == {phi.components for phi in algebras}
    for phi in algebras:
        assert is_operad_morphism(A, des1_end, phi)
        assert is_operad_morphism(A, des1_end, compose_operad_morphisms(tau, phi))


_SEARCH_CASES = {
    "Ass over Ord(1) -> des_1(End_2), K=2": lambda: (
        make_ass(OrdBase(1), 2), desymmetrize(endomorphism_operad((0, 1), 2), 1)),
    "Ass over Ord(1) -> des_1(End_2), K=3": lambda: (  # 8,192 unit-respecting label maps
        make_ass(OrdBase(1), 3), desymmetrize(endomorphism_operad((0, 1), 3), 1)),
    "sym(Ass over Ord(2)) -> End_2, K=3": lambda: (
        symmetrize(make_ass(OrdBase(2), 3)).operad, endomorphism_operad((0, 1), 3)),
    "an empty binary component -> des_1(End_2), K=2": _empty_binary_component,
}


@pytest.mark.parametrize("name", sorted(_SEARCH_CASES))
def test_morphism_search_matches_brute_force(name):
    A, B = _SEARCH_CASES[name]()
    homs = enumerate_operad_morphisms(A, B)
    assert homs == operad_morphisms_by_brute_force(A, B)
    assert all(is_operad_morphism(A, B, phi) for phi in homs)


def _relabeled(A, rng):
    """A copy of A with each component's labels permuted, its tables
    conjugated to match, and the permutations (old index -> new index)."""
    base = A.base
    perm = {T: np.array(rng.sample(range(len(labs)), len(labs)), dtype=np.int64)
            for T, labs in A.components.items()}
    components = {}
    for T, labs in A.components.items():
        new = [None] * len(labs)
        for old, p in enumerate(perm[T].tolist()):
            new[p] = labs[old]
        components[T] = tuple(new)
    mult = {}
    for sigma, tab in A.mult.items():
        axes = [sigma.target] + [base.fiber(sigma, i) for i in range(base.size(sigma.target))]
        values = np.full(tab.shape, -1, dtype=tab.dtype)
        defined = tab >= 0
        values[defined] = perm[sigma.source][tab[defined]]
        out = np.full(tab.shape, -1, dtype=tab.dtype)
        out[np.ix_(*(perm[T] for T in axes))] = values
        mult[sigma] = out
    return OperadTable(base, A.K, components, A.unit, mult, A.name), perm


def _conjugate(phi, perm_a, perm_b):
    """The components of phi read through relabeled source and target."""
    out = []
    for T, images in phi.components:
        new = [None] * len(images)
        for a, img in enumerate(images):
            new[int(perm_a[T][a])] = int(perm_b[T][img])
        out.append((T, tuple(new)))
    return tuple(out)


_RELABEL_CASES = {
    "sym(Ass over Ord(1)) -> End_2, K=3": lambda: (
        symmetrize(make_ass(OrdBase(1), 3)).operad, endomorphism_operad((0, 1), 3)),
    "Ass over Ord(2) -> des_2(End_2), K=3": lambda: (
        make_ass(OrdBase(2), 3), desymmetrize(endomorphism_operad((0, 1), 3), 2)),
    "an empty binary component -> des_1(End_2), K=2": _empty_binary_component,
}


@settings(max_examples=8, deadline=None)
@given(name=st.sampled_from(sorted(_RELABEL_CASES)), n=st.sampled_from([1, 2]),
       seed=st.integers(0, 2**32 - 1))
def test_relabeled_operads(name, n, seed):
    # the morphisms of relabeled operads, the morphism check and the
    # symmetrisation, each on tables whose labels no longer follow a pattern
    rng = random.Random(seed)
    A, B = _RELABEL_CASES[name]()
    A2, perm_a = _relabeled(A, rng)
    B2, perm_b = _relabeled(B, rng)
    homs = enumerate_operad_morphisms(A2, B2)
    assert {phi.components for phi in homs} == {
        _conjugate(phi, perm_a, perm_b) for phi in enumerate_operad_morphisms(A, B)}
    # the check against the entry-by-entry oracle: every morphism, each with
    # one label moved, and label maps drawn at random (unit kept)
    unit = (A2.base.terminal(), A2.unit_index())
    maps = []
    for phi in homs:
        comps = [list(images) for _, images in phi.components]
        slots = [(i, a) for i, (T, images) in enumerate(phi.components)
                 for a in range(len(images)) if (T, a) != unit and len(B2.components[T]) > 1]
        if slots:
            i, a = rng.choice(slots)
            T = phi.components[i][0]
            comps[i][a] = rng.choice([v for v in range(len(B2.components[T])) if v != comps[i][a]])
        maps.append(comps)
    for _ in range(10):
        maps.append([[B2.unit_index() if (T, a) == unit else rng.randrange(len(B2.components[T]))
                      for a in range(len(labs))] for T, labs in A2.components.items()])
    # and again with holes punched into both operads' tables
    holed = []
    for X in (A2, B2):
        mult = {sigma: tab.copy() for sigma, tab in X.mult.items()}
        for tab in mult.values():
            if tab.size:
                tab.flat[rng.randrange(tab.size)] = -1
        holed.append(OperadTable(X.base, X.K, X.components, X.unit, mult, X.name))
    for comps in maps:
        phi = OperadMorphism(A2.name, B2.name, tuple(
            (T, tuple(images)) for T, images in zip(A2.components, comps)))
        for X, Y in ((A2, B2), (A2, holed[1]), tuple(holed)):
            assert is_operad_morphism(X, Y, phi) == is_operad_morphism_by_entries(X, Y, phi)
    # the quotient over generating arrows against the one over every arrow,
    # on End_2 pulled back to Ord(n) with each object's labels permuted apart
    D, _ = _relabeled(desymmetrize(endomorphism_operad((0, 1), 3), n), rng)
    # the full check of des_2 at K = 3 takes about 39 s on two cores, too long here
    assert check_operad_axioms(D, units_only=True).ok
    for k, arity in symmetrize(D, build_operad=False).arities.items():
        assert arity.classes == all_arrows_classes(D, k), k


# ---------------------------------------------------------------------------
# constant-free bases


def test_constant_free_base_objects_and_maps():
    base = OrdBase(1, constant_free=True)
    assert all(T.size >= 1 for T in base.objects(3))
    for sigma in base_morphisms(base, 3):
        assert set(sigma.map) == set(range(sigma.target.size))


def test_constant_free_ass_axioms():
    for base in (OrdBase(1, constant_free=True), FinBase(constant_free=True)):
        rep = check_operad_axioms(make_ass(base, 3))
        assert rep.ok, rep.violations


# ---------------------------------------------------------------------------
# serialisation


def test_base_json_round_trip():
    for base in (OrdBase(2), OrdBase(1, constant_free=True), FinBase(), FinBase(True)):
        assert base_from_json(json.loads(json.dumps(base_to_json(base)))) == base


def test_operad_json_round_trip():
    A = make_ass(OrdBase(2), 2)
    back = operad_from_json(json.loads(json.dumps(operad_to_json(A))))
    assert tables_equal(A, back)
    end = endomorphism_operad((0, 1), 1)
    back = operad_from_json(json.loads(json.dumps(operad_to_json(end))))
    assert tables_equal(end, back)


def test_operad_json_budget(des1_end, monkeypatch):
    monkeypatch.setattr(operads, "_MAX_EXPORT_ENTRIES", 10)
    with pytest.raises(BudgetExceededError):
        operad_to_json(des1_end)


def test_value_lookup(des1_end):
    T = ordinal(1, 0)
    ident = des1_end.base.identity(T)
    assert des1_end.value(ident, "0110", ("01", "01")) == "0110"
