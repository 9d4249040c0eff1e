import contextlib
import functools
import itertools
import math
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import higherop.symmetrize as symmetrize_module
from higherop.freeop import Collection, free_operad
from higherop.operads import (
    BudgetExceededError,
    FinBase,
    OperadTable,
    OrdBase,
    check_operad_axioms,
    desymmetrize,
    endomorphism_operad,
    enumerate_operad_morphisms,
    make_ass,
    tables_equal,
)
from higherop.ordinals import NOrdinal, OrdinalMorphism, is_morphism, ordinal
from higherop.symmetrize import (
    ClassifierPoset,
    UnionFind,
    WellDefinednessError,
    algebra_equivalence,
    build_classifier,
    check_adjunction,
    classifier_dot,
    classifier_labels,
    classifier_objects,
    symmetrize,
    terminal_class_counts,
    unit_insertion,
)
from higherop.symmetrize import (
    _generator_arrows,
    _labelings,
    _perm_ranks,
    _strict_arrows,
    _terminal_arity,
)

from oracles import (
    LabeledOrdinal,
    all_arrows_classes,
    arrow_morphism,
    count_commutative_monoids,
    count_monoids,
    generator_arrows_by_labeling,
    labeled_structures,
    relabel,
    shape,
    strict_arrows_by_pairs,
    sym_action_by_objects,
    sym_operad_by_objects,
    unit_insertion_by_objects,
)


# ---------------------------------------------------------------------------
# labeled structures


def test_labeled_objects_count():
    for n in (1, 2, 3):
        for k in (0, 1, 2, 3):
            want = 1 if k == 0 else math.factorial(k) * n ** (k - 1)
            assert build_classifier(n, k).objects == range(want)
            assert len(labeled_structures(n, k)) == want


def test_labeled_validation():
    with pytest.raises(ValueError):
        LabeledOrdinal(2, (1, 3), (0,))
    with pytest.raises(ValueError):
        LabeledOrdinal(2, (1, 2), (2,))
    with pytest.raises(ValueError):
        LabeledOrdinal(2, (1, 2), ())


def test_pair_state_and_relabel():
    T = LabeledOrdinal(2, (2, 1, 3), (1, 0))
    t = _labelings(2, 3)
    r, p = divmod(labeled_structures(2, 3).index(T), len(t.profiles))
    assert t.perms[r].tolist() == [1, 0, 2] and t.profiles[p].tolist() == [1, 0]
    # label pairs (1, 2), (1, 3), (2, 3): 2 sits before 1
    assert t.orient[r].tolist() == [False, True, True]
    assert t.level[p, t.lo[r], t.hi[r]].tolist() == [1, 0, 0]
    with pytest.raises(ValueError):
        t.level[p, 0, 1] = 0  # the cached table is read-only
    # relabeling by rho moves object r * n^(k-1) + p to permutation rho after r
    rho = np.array([2, 1, 0])  # 1 -> 3, 2 -> 2, 3 -> 1
    flipped = labeled_structures(2, 3)[int(_perm_ranks(t, rho[t.perms[r]])) * len(t.profiles) + p]
    assert flipped == relabel(T, {1: 3, 2: 2, 3: 1})
    assert flipped.labels == (2, 3, 1) and flipped.profile == T.profile


@pytest.mark.parametrize("n, k", [(1, 0), (1, 1), (2, 3), (3, 4), (1, 5)])
def test_perm_ranks_number_every_relabeling(n, k):
    t = _labelings(n, k)
    objects = labeled_structures(n, k)
    names = classifier_labels(build_classifier(n, k))
    assert [LabeledOrdinal(n, labels, profile) for labels, profile in names] == objects
    assert _perm_ranks(t, t.perms).tolist() == list(range(len(t.perms)))
    for rho in t.perms:
        moved = _perm_ranks(t, rho[t.perms])
        renaming = {x + 1: int(rho[x]) + 1 for x in range(k)}
        for i, T in enumerate(objects):
            r, p = divmod(i, len(t.profiles))
            assert objects[moved[r] * len(t.profiles) + p] == relabel(T, renaming)


def test_arrow_relation_matches_morphism_condition():
    # the per-pair comparison is exactly "identity map is a morphism"
    for n, k in [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)]:
        objs = labeled_structures(n, k)
        strict = set()
        for (i, T), (j, S) in itertools.product(enumerate(objs), repeat=2):
            direct = is_morphism(
                arrow_morphism_map(T, S), shape(T), shape(S)
            )
            if direct and i != j:
                strict.add((i, j))
        P = build_classifier(n, k)
        assert P.arrows.dtype == np.int32 and P.arrows.tolist() == sorted(map(list, strict))


@pytest.mark.parametrize("n, k", [
    (n, k) for n in range(1, 7) for k in range(6)
    if math.factorial(k) * n ** max(k - 1, 0) <= 2000
] + [(2, 5)])
def test_arrows_are_the_up_closure_of_the_moves(n, k):
    # the relation read off the moves, against every pair of objects compared
    arrows = _strict_arrows(n, k)
    assert arrows.dtype == np.int32
    assert np.array_equal(arrows, strict_arrows_by_pairs(n, k))


@pytest.mark.parametrize("n, k", [(1, 4), (2, 4), (3, 3)])
def test_relabeling_maps_the_arrows_onto_themselves(n, k):
    # the generating moves out of each labeling are the identity's,
    # relabeled, because this holds for every rho
    t = _labelings(n, k)
    arrows = _strict_arrows(n, k).astype(np.int64)
    n_obj = len(t.perms) * len(t.profiles)
    assert (len(arrows) > 0) == (n > 1)  # at n = 1 the poset is discrete
    r, p = np.divmod(arrows, len(t.profiles))
    for rho in t.perms:
        moved = _perm_ranks(t, rho[t.perms])[r] * len(t.profiles) + p
        assert np.array_equal(np.sort(moved @ [n_obj, 1]), np.sort(arrows @ [n_obj, 1]))


def arrow_morphism_map(T, S):
    pos_s = {lab: p for p, lab in enumerate(S.labels)}
    return tuple(pos_s[lab] for lab in T.labels)


def test_arrow_morphism_object():
    T = LabeledOrdinal(2, (1, 2), (0,))
    S = LabeledOrdinal(2, (2, 1), (1,))
    objects = labeled_structures(2, 2)
    arrows = build_classifier(2, 2).arrows.tolist()
    assert [objects.index(T), objects.index(S)] in arrows
    f = arrow_morphism(T, S)
    assert f.map == (1, 0)
    assert [objects.index(S), objects.index(T)] not in arrows
    with pytest.raises(ValueError):
        arrow_morphism(S, T)


# ---------------------------------------------------------------------------
# classifier posets


def test_classifier_2_2():
    P = build_classifier(2, 2)
    objects = labeled_structures(2, 2)
    assert len(P.objects) == 4
    assert len(P.arrows) == 4
    # arrows go from level-0 structures to level-1 structures only
    for i, j in P.arrows:
        assert objects[i].profile == (0,)
        assert objects[j].profile == (1,)
    # no composable non-identity pairs
    heads = {j for _, j in P.arrows}
    tails = {i for i, _ in P.arrows}
    assert heads & tails == set()


def test_classifier_n1_discrete():
    for k in (2, 3):
        P = build_classifier(1, k)
        import math

        assert len(P.objects) == math.factorial(k)
        assert P.arrows.shape == (0, 2)


def test_classifier_arity_one_and_zero():
    P = build_classifier(3, 1)
    assert len(P.objects) == 1 and P.arrows.shape == (0, 2)
    P0 = build_classifier(3, 0)
    assert len(P0.objects) == 1 and P0.arrows.shape == (0, 2)


def test_classifier_budget():
    with pytest.raises(BudgetExceededError):
        build_classifier(3, 5, max_objects=100)
    # 5! * 3^4 objects: exact at the last factor, a lower bound before it
    assert classifier_objects(3, 5, 9720) == 9720
    with pytest.raises(BudgetExceededError, match=r"has 9720 objects \(budget 9719\)"):
        classifier_objects(3, 5, 9719)
    with pytest.raises(BudgetExceededError, match=r"has at least 120 objects \(budget 100\)"):
        classifier_objects(3, 5, 100)


def test_classifier_arrow_budget_is_exact():
    # (2, 4) has 2,688 arrows: admitted at that budget, refused one below it
    assert len(build_classifier(2, 4, max_arrows=2688).arrows) == 2688
    with pytest.raises(BudgetExceededError, match=r"has 2688 arrows \(budget 2687\)"):
        build_classifier(2, 4, max_arrows=2687)
    # the count comes before any arrow: at (9, 4) the targets of one labeling's
    # 1,148,616 arrows take 9.2 MB as int64, and all 27,566,784 arrows 210 MiB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="has 27566784 arrows"):
            build_classifier(9, 4, max_arrows=27_566_783)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.mark.parametrize(
    "n,k",
    [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4),
     (4, 2), (4, 3), (4, 4)],
)
def test_classifier_poset_axioms(n, k):
    P = build_classifier(n, k)
    arrows = set(map(tuple, P.arrows.tolist()))
    succ = {}
    for i, j in arrows:
        assert (j, i) not in arrows  # antisymmetry
        succ.setdefault(i, set()).add(j)
    for i, outs in succ.items():
        for j in outs:
            assert succ.get(j, set()) <= outs  # transitivity


def test_classifier_dot():
    P = build_classifier(2, 2)
    dot = classifier_dot(P)
    assert dot.count("->") == 4
    assert '"12|0"' in dot
    empty = ClassifierPoset(2, 0, (), ())
    assert classifier_dot(empty) == "digraph classifier {\n}\n"


# ---------------------------------------------------------------------------
# symmetrisation counts


def test_sym_ass1_counts():
    r = symmetrize(make_ass(OrdBase(1), 4), 4, build_operad=False)
    assert r.class_counts() == {0: 1, 1: 1, 2: 2, 3: 6, 4: 24}


@pytest.mark.parametrize("n", [2, 3])
def test_sym_assn_collapses(n):
    r = symmetrize(make_ass(OrdBase(n), 3), 3, build_operad=False)
    assert r.class_counts() == {0: 1, 1: 1, 2: 1, 3: 1}


def test_terminal_counts_match_symmetrize():
    for n in (1, 2, 3):
        K = 4 if n < 3 else 3
        full = symmetrize(make_ass(OrdBase(n), K), K, build_operad=False)
        quick = terminal_class_counts(n, K)
        assert quick == full.class_counts()


def test_terminal_counts_k5():
    assert terminal_class_counts(1, 5) == {0: 1, 1: 1, 2: 2, 3: 6, 4: 24, 5: 120}
    assert terminal_class_counts(2, 5) == {k: 1 for k in range(6)}
    assert terminal_class_counts(3, 5) == {k: 1 for k in range(6)}


@functools.lru_cache(maxsize=None)
def _des_end2(n, K, constant_free=False):
    return desymmetrize(endomorphism_operad((0, 1), K, constant_free=constant_free), n)


# operads with more than one element per component, so the quotient
# depends on the transported elements
_NON_SINGLETON = {
    "des_1(End_2), K=2": lambda: _des_end2(1, 2),
    "des_2(End_2), K=2": lambda: _des_end2(2, 2),
    "des_3(End_2), K=2": lambda: _des_end2(3, 2),
    "constant-free des_2(End_2), K=2": lambda: _des_end2(2, 2, constant_free=True),
    "des_1(End_2), K=3": lambda: _des_end2(1, 3),
    "des_2(End_2), K=3": lambda: _des_end2(2, 3),
}


def test_fast_and_general_paths_agree():
    # the generating arrows against every arrow: table-free and through
    # the tables on one-point operads, and through the tables on operads
    # whose transports carry data; the classes come from the class numbers
    for n, k in [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (1, 4)]:
        A = make_ass(OrdBase(n), k)
        want = all_arrows_classes(A, k)
        fast = _terminal_arity(n, k)
        assert fast.classes == want and fast.class_count == len(want)
        assert symmetrize(A, build_operad=False).arities[k].classes == want
    for name, make in _NON_SINGLETON.items():
        A = make()
        for k, arity in symmetrize(A, build_operad=False).arities.items():
            assert arity.classes == all_arrows_classes(A, k), (name, k)


def _families(arrows, n_obj):
    """The non-empty families, each as its sorted arrow codes, in sorted order."""
    return sorted(np.sort(src * n_obj + dst).tobytes() for src, dst in arrows if len(src))


@pytest.mark.parametrize("n, k", [(n, k) for n in (1, 2, 3, 4) for k in range(6)] + [(2, 6)])
def test_relabeled_moves_are_the_per_labeling_moves(n, k):
    n_obj = math.factorial(k) * n ** max(k - 1, 0)
    assert _families(_generator_arrows(n, k), n_obj) == _families(
        generator_arrows_by_labeling(n, k), n_obj)


def test_terminal_counts_n3_k6():
    assert terminal_class_counts(3, 6) == {k: 1 for k in range(7)}


@contextlib.contextmanager
def _shuffled_merges(seed):
    """Quotients taken inside read the generator families, and the arrows
    inside each family, in an order drawn from seed."""
    rng = np.random.default_rng(seed)

    def shuffled(n, k):
        families = list(_generator_arrows(n, k))
        for i in rng.permutation(len(families)):
            src, dst = families[i]
            order = rng.permutation(len(src))
            yield src[order], dst[order]

    with mock.patch.object(symmetrize_module, "_generator_arrows", shuffled):
        yield


def test_fast_route_merge_order_does_not_change_classes():
    for n, k in [(1, 4), (2, 4), (3, 4)]:
        plain = _terminal_arity(n, k)
        for seed in (3, 11):
            with _shuffled_merges(seed):
                again = _terminal_arity(n, k)
            assert np.array_equal(again.class_of, plain.class_of)
            assert again.class_count == plain.class_count


def _tree_depth(uf: UnionFind) -> int:
    depth = 0
    for v in range(len(uf.parent)):
        d = 0
        while uf.parent[v] != v:
            v = int(uf.parent[v])
            d += 1
        depth = max(depth, d)
    return depth


def test_union_find_batches_match_graph_components():
    rng = random.Random(8)
    N = 1000
    star = [(i, N - 1) for i in range(N - 1)]
    no_ops = [(0, 0), (1, 2), (2, 1), (1, 2), (3, 3), (4, 5), (5, 4), (4, 4)]
    cases = [
        (size, [(rng.randrange(size), rng.randrange(size)) for _ in range(edges)], 17)
        for size, edges in [(0, 0), (1, 0), (40, 25), (200, 150), (200, 400)]
    ] + [
        # self-pairs and repeated pairs, then a batch that merges nothing:
        # count must not drop for them
        (6, no_ops + [(2, 1), (5, 5), (4, 5)], len(no_ops)),
    ] + [
        (N, star, N),  # every pair shares its y root, in one batch
        (N, [(y, x) for x, y in star], N),  # ... or its x root
        (N, [(i, i + 1) for i in range(N - 1)], N),  # ascending chain, one batch
        (N, [(i, i + 1) for i in range(N - 1)], 1),  # ... one pair per batch
        (N, [(i + 1, i) for i in range(N - 1)], 1),  # descending chain
    ]
    for size, pairs, batch_size in cases:
        uf = UnionFind(size)
        gathers = 0
        roots = uf._roots

        def counted(xs):
            nonlocal gathers
            gathers += 1
            return roots(xs)

        uf._roots = counted
        for start in range(0, len(pairs), batch_size):  # batches share roots
            batch = pairs[start:start + batch_size]
            uf.union([x for x, _ in batch], [y for _, y in batch])
        batches = -(-len(pairs) // batch_size)
        # at most three passes (two root lookups each) per batch here, and
        # union by size keeps every tree within log2(size) levels
        assert gathers <= 6 * batches
        assert _tree_depth(uf) <= size.bit_length()
        # components by depth-first search over the same edges
        adj = {v: set() for v in range(size)}
        for x, y in pairs:
            adj[x].add(y)
            adj[y].add(x)
        seen, want = set(), []
        for v in range(size):
            if v in seen:
                continue
            stack, comp = [v], []
            seen.add(v)
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in adj[u] - seen:
                    seen.add(w)
                    stack.append(w)
            want.append(sorted(comp))
        # want is in the order of least members, the order of the class numbers
        labels = uf.labels()
        assert uf.count == len(want) and len(labels) == size
        assert [np.flatnonzero(labels == j).tolist() for j in range(len(want))] == want


_SHUFFLED = {
    **_NON_SINGLETON,
    "Ass over Ord(2), K=4": lambda: make_ass(OrdBase(2), 4),
    "Ass over Ord(3), K=3": lambda: make_ass(OrdBase(3), 3),
}


@functools.lru_cache(maxsize=None)
def _unshuffled_classes(name):
    r = symmetrize(_SHUFFLED[name](), build_operad=False)
    return {k: arity.classes for k, arity in r.arities.items()}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(_SHUFFLED)), seed=st.integers(0, 2**32 - 1))
def test_shuffled_merges_give_the_same_classes(name, seed):
    with _shuffled_merges(seed):
        r = symmetrize(_SHUFFLED[name](), build_operad=False)
    assert {k: arity.classes for k, arity in r.arities.items()} == _unshuffled_classes(name)


def test_merge_order_does_not_change_classes():
    r = symmetrize(make_ass(OrdBase(2), 3), 3, build_operad=False)
    assert r.class_counts() == {0: 1, 1: 1, 2: 1, 3: 1}
    for seed in (1, 99):
        with _shuffled_merges(seed):
            r = symmetrize(make_ass(OrdBase(2), 3), 3, build_operad=False)
        assert r.class_counts() == {0: 1, 1: 1, 2: 1, 3: 1}
    base = symmetrize(make_ass(OrdBase(1), 4), 4, build_operad=False)
    for seed in (7, 1234):
        with _shuffled_merges(seed):
            again = symmetrize(make_ass(OrdBase(1), 4), 4, build_operad=False)
        for k in base.arities:
            assert again.arities[k].classes == base.arities[k].classes


def test_single_labeling_at_arity_one():
    end = endomorphism_operad((0, 1), 2)
    from higherop.operads import desymmetrize

    A = desymmetrize(end, 2)
    r = symmetrize(A, 2, build_operad=False)
    # one labeled structure at arity 1: classes = elements of A(U_2)
    assert len(r.arities[1].classes) == len(A.components[NOrdinal(2, (), 1)])


def test_budget_exceeded(monkeypatch):
    import higherop.symmetrize as symm

    monkeypatch.setattr(symm, "_MAX_ELEMENTS", 5)
    with pytest.raises(BudgetExceededError):
        symmetrize(make_ass(OrdBase(2), 3), 3, build_operad=False)
    # the table-free route goes through the same check
    assert terminal_class_counts(2, 2) == {0: 1, 1: 1, 2: 1}
    with pytest.raises(BudgetExceededError):
        terminal_class_counts(2, 3)


# ---------------------------------------------------------------------------
# the induced symmetric operad


def test_sym_ass1_is_the_permutation_operad():
    r = symmetrize(make_ass(OrdBase(1), 3), 3)
    S = r.operad
    assert [len(S.components[k]) for k in range(4)] == [1, 1, 2, 6]
    rep = check_operad_axioms(S)
    assert rep.ok, rep.violations
    # free transitive relabeling action in every arity
    for k in (2, 3):
        for rho, images in r.action[k].items():
            if rho == tuple(range(1, k + 1)):
                assert list(images) == list(range(len(images)))
        orbit = {0}
        for images in r.action[k].values():
            orbit.add(images[0])
        assert len(orbit) == len(r.arities[k].classes)


def test_sym_ass2_is_one_point_with_trivial_action():
    r = symmetrize(make_ass(OrdBase(2), 3), 3)
    S = r.operad
    assert all(len(S.components[k]) == 1 for k in range(4))
    rep = check_operad_axioms(S)
    assert rep.ok, rep.violations
    for k, table in r.action.items():
        for images in table.values():
            assert images == (0,)


def test_welldef_checked_counts():
    # every combination of class members, representatives included
    end = endomorphism_operad((0, 1), 2)
    cases = [
        (make_ass(OrdBase(1), 3), 533),
        (make_ass(OrdBase(2), 3), 4499),
        (make_ass(OrdBase(1, constant_free=True), 3), 73),
        (desymmetrize(end, 1), 5914),
        (desymmetrize(end, 2), 19994),
    ]
    for A, checked in cases:
        assert symmetrize(A).welldef_checked == checked, A.name


def test_sym_respects_component_sizes():
    # a non-singleton case: desymmetrised endomorphisms at K=2
    from higherop.operads import desymmetrize

    end = endomorphism_operad((0, 1), 2)
    A = desymmetrize(end, 1)
    r = symmetrize(A, 2)
    # at arity 2 there are 2 labelings with 16 elements each and no arrows
    # over n=1, so classes = 32
    assert len(r.arities[2].classes) == 32
    rep = check_operad_axioms(r.operad)
    assert rep.ok, rep.violations


def test_sym_of_des_end_n2_merges_mirror_pairs():
    from higherop.operads import desymmetrize

    end = endomorphism_operad((0, 1), 2)
    A = desymmetrize(end, 2)
    r = symmetrize(A, 2)
    # over n=2, the four labelings at arity 2 are connected; f at one
    # labeling is glued to its transpose at the mirror labeling, so the
    # classes biject with functions X^2 -> X
    assert len(r.arities[2].classes) == 16
    rep = check_operad_axioms(r.operad)
    assert rep.ok, rep.violations


def _with_entry(A, sigma, idx, value):
    mult = dict(A.mult)
    mult[sigma] = mult[sigma].copy()
    mult[sigma][idx] = value
    return OperadTable(A.base, A.K, A.components, A.unit, mult, A.name + "+corrupt")


def _des2_end2():
    return desymmetrize(endomorphism_operad((0, 1), 2), 2)


def test_ill_defined_multiplication_is_detected():
    # entries where some argument is not the unit transport nothing, so
    # the classes stay; changing any of the first 40 at arity 2 makes some
    # product of classes depend on the members chosen
    A = _des2_end2()
    u = A.unit_index()
    corrupted = 0
    for sigma, tab in A.mult.items():
        if sigma.source.size != 2:
            continue
        for idx in itertools.product(*map(range, tab.shape)):
            if sigma.target.size == 2 and all(a == u for a in idx[1:]):
                continue
            new = (int(tab[idx]) + 1) % len(A.components[sigma.source])
            with pytest.raises(WellDefinednessError):
                symmetrize(_with_entry(A, sigma, idx, new))
            corrupted += 1
            if corrupted == 40:
                return


_ZETA = OrdinalMorphism(ordinal(2, 0), ordinal(2, 1), (0, 1))


@pytest.mark.parametrize(
    "make, sigma, idx, build_operad",
    [
        # a transport entry (b; unit, unit), read by the quotient: read as
        # an element, the hole merged the last element of the previous
        # labeling (14 classes at arity 2, not 16)
        (_des2_end2, _ZETA, (3, 1, 1), False),
        # the transport along the move arrow (12|0) -> (21|1)
        (_des2_end2, OrdinalMorphism(ordinal(2, 0), ordinal(2, 1), (1, 0)), (3, 1, 1), False),
        # the pull to the all-zero profile; at arity 2 it is a step
        # generator, so the quotient reads it first
        (lambda: make_ass(OrdBase(2), 2), _ZETA, (0, 0, 0), True),
        # a pull along the composite (12|00) -> (12|11), which no generator is
        (lambda: make_ass(OrdBase(2), 3),
         OrdinalMorphism(ordinal(2, 0, 0), ordinal(2, 1, 1), (0, 1, 2)), (0, 0, 0, 0), True),
        # an entry with a non-unit argument, read only while multiplying
        (_des2_end2, OrdinalMorphism(ordinal(2, 0), ordinal(2), (0, 0)), (0, 0), True),
    ],
    ids=["transport", "transport-move", "zero-pull", "zero-pull-composite",
         "non-unit-argument"],
)
def test_holes_are_not_read_as_elements(make, sigma, idx, build_operad):
    B = _with_entry(make(), sigma, idx, -1)
    assert check_operad_axioms(B).ok
    with pytest.raises(ValueError, match=re.escape(f"{sigma} has a hole at entry {idx}")):
        symmetrize(B, build_operad=build_operad)


# ---------------------------------------------------------------------------
# adjunction and algebra equivalence


def test_adjunction_ass1_end():
    A = make_ass(OrdBase(1), 3)
    B = endomorphism_operad((0, 1), 3)
    rep = check_adjunction(A, B)
    assert rep.sym_hom_count == rep.des_hom_count == count_monoids(2) == 4
    assert rep.bijection and rep.ok


def test_adjunction_ass2_end():
    A = make_ass(OrdBase(2), 3)
    B = endomorphism_operad((0, 1), 3)
    rep = check_adjunction(A, B)
    assert rep.sym_hom_count == rep.des_hom_count == count_commutative_monoids(2)
    assert rep.bijection


def test_adjunction_terminal_target():
    A = make_ass(OrdBase(1), 2)
    B = make_ass(FinBase(), 2)
    rep = check_adjunction(A, B)
    assert rep.sym_hom_count == rep.des_hom_count == 1
    assert rep.bijection


def test_algebra_equivalence_ass1():
    rep = algebra_equivalence(make_ass(OrdBase(1), 3), (0, 1))
    assert rep.des_hom_count == rep.sym_hom_count == 4
    assert rep.bijection


def test_algebra_equivalence_ass2():
    rep = algebra_equivalence(make_ass(OrdBase(2), 3), (0, 1))
    assert rep.des_hom_count == rep.sym_hom_count == count_commutative_monoids(2)
    assert rep.bijection


def test_algebra_equivalence_one_point_set():
    rep = algebra_equivalence(make_ass(OrdBase(2), 2), (0,))
    assert rep.des_hom_count == rep.sym_hom_count == 1
    assert rep.bijection


def test_algebra_equivalence_empty_set_constant_free():
    A = make_ass(OrdBase(1, constant_free=True), 2)
    rep = algebra_equivalence(A, ())
    assert rep.des_hom_count == rep.sym_hom_count == 1
    assert rep.bijection


def test_adjunction_naturality_spot_check():
    # a morphism A -> A' induces a square of transfers that must commute
    from higherop.symmetrize import _transfer

    A = _free_binary()
    A2 = make_ass(OrdBase(1), 3)
    collapse = enumerate_operad_morphisms(A, A2)
    assert len(collapse) == 1
    phi = collapse[0]
    B = endomorphism_operad((0, 1), 3)

    sym_A = symmetrize(A, 3)
    sym_A2 = symmetrize(A2, 3)

    # the symmetrised morphism: classes of A map to classes of A2 via phi
    phi_maps = dict(phi.components)
    sym_phi = {}
    for k, arity in sym_A.arities.items():
        images = []
        target = sym_A2.arities[k]
        for members in arity.classes:
            targets = set()
            for o_idx, lab in members:
                T = shape(labeled_structures(1, k)[o_idx])
                targets.add(target.class_of[target.offsets[o_idx] + phi_maps[T][lab]])
            assert len(targets) == 1  # the induced map is well-defined
            images.append(targets.pop())
        sym_phi[k] = images

    homs_A2 = enumerate_operad_morphisms(sym_A2.operad, B)
    for g in homs_A2:
        g_maps = dict(g.components)
        # precompose g with sym(phi), then transfer; must equal
        # transferring g and precomposing with phi
        composed = {
            k: tuple(g_maps[k][c] for c in sym_phi[k]) for k in sym_phi
        }
        g_sym_phi_components = tuple(sorted(composed.items()))
        transfer_direct = dict(_transfer(A2, sym_A2, B, g))
        eta_A = unit_insertion(A, sym_A)
        for T, classes in eta_A.items():
            via_square = tuple(composed[T.size][c] for c in classes)
            via_phi = tuple(
                transfer_direct[T][phi_maps[T][lab]]
                for lab in range(len(A.components[T]))
            )
            assert via_square == via_phi


def _free_binary():
    return free_operad(Collection(OrdBase(1), 3, {ordinal(1, 0): ("m",)}), vmax=3, kmax=3).operad


_CROSS = {
    "Ass over Ord(1), K=3": lambda: make_ass(OrdBase(1), 3),
    "Ass over Ord(2), K=3": lambda: make_ass(OrdBase(2), 3),
    "Ass over Ord(3), K=3": lambda: make_ass(OrdBase(3), 3),
    "Ass over Ord_0(1), K=3": lambda: make_ass(OrdBase(1, constant_free=True), 3),
    "des_1(End_2), K=2": lambda: _des_end2(1, 2),
    "des_2(End_2), K=2": lambda: _des_end2(2, 2),
    "free operad on a binary operation over Ord(1), K=3": _free_binary,
}


@pytest.mark.parametrize("name", sorted(_CROSS))
def test_id_route_matches_the_object_route(name):
    # the induced operad, the action and the unit insertion, built on
    # element numbers, against one member combination at a time over
    # labeled structures and morphism objects
    A = _CROSS[name]()
    r = symmetrize(A)
    for k, arity in r.arities.items():
        assert arity.classes == all_arrows_classes(A, k), k
    operad, checked = sym_operad_by_objects(A, r)
    assert tables_equal(r.operad, operad)
    assert r.welldef_checked == checked
    assert r.action == sym_action_by_objects(r)
    assert unit_insertion(A, r) == unit_insertion_by_objects(A, r)


def test_an_arity_without_elements_has_no_classes():
    # the free operad on one binary operation has no constants
    arity = symmetrize(_free_binary(), build_operad=False).arities[0]
    assert arity.element_count == 0
    assert arity.class_count == 0 and arity.classes == ()


def test_combination_blocks_do_not_change_the_operad(monkeypatch):
    # blocks that split the combinations of one entry, and of one morphism
    import higherop.symmetrize as symm

    A = _des2_end2()
    want = symmetrize(A)
    u = A.unit_index()
    sigma = OrdinalMorphism(ordinal(2, 0), ordinal(2), (0, 0))
    corrupt = _with_entry(A, sigma, (u, 0), (int(A.mult[sigma][u, 0]) + 1) % 16)
    for block in (7, 1000):
        monkeypatch.setattr(symm, "_COMBINATION_BLOCK", block)
        got = symmetrize(A)
        assert tables_equal(got.operad, want.operad) and got.welldef_checked == 19994
        with pytest.raises(WellDefinednessError):
            symmetrize(corrupt)


def test_sym_result_json():
    import json as json_mod

    from higherop.symmetrize import sym_result_to_json

    r = symmetrize(make_ass(OrdBase(2), 2), 2, build_operad=False)
    data = json_mod.loads(json_mod.dumps(sym_result_to_json(r)))
    assert data["n"] == 2
    assert data["arities"]["2"]["object_count"] == 4
    assert len(data["arities"]["2"]["classes"]) == 1
