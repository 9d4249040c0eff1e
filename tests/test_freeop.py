import itertools
import json

import numpy as np
import pytest

from higherop.freeop import (
    Collection,
    PolynomialData,
    TreeTerm,
    check_monad_laws,
    corolla,
    count_trees,
    enumerate_trees,
    eval_polynomial,
    free_operad,
    graft,
    insert,
    node_object,
    target,
    tree_cardinality,
    tree_from_json,
    tree_label,
    tree_polynomial,
    tree_to_dot,
    tree_to_json,
    trivial,
    validate_tree,
    vertex_count,
    vertices,
)
from higherop.operads import (
    BudgetExceededError,
    FinBase,
    OrdBase,
    check_operad_axioms,
    desymmetrize,
    endomorphism_operad,
    enumerate_operad_morphisms,
    tables_equal,
)
from higherop.ordinals import (
    OrdinalMorphism,
    empty_ordinal,
    enumerate_ordinals,
    ordinal,
    terminal_ordinal,
)

import oracles
from oracles import catalan

BASE1 = OrdBase(1)
BASE2 = OrdBase(2)


def chain(k):
    return ordinal(1, *([0] * (k - 1)))


# ---------------------------------------------------------------------------
# polynomial evaluation


def test_eval_polynomial_product():
    P = PolynomialData(
        operations=lambda i: ["b"] if i == "i" else [],
        arity=lambda b: ["e1", "e2"],
        source=lambda e: {"e1": "j1", "e2": "j2"}[e],
    )
    X = {"j1": [0, 1], "j2": ["a", "b", "c"]}
    out = eval_polynomial(P, X, ["i"])
    assert len(out["i"]) == 6


def test_eval_polynomial_empty_and_nullary():
    P = PolynomialData(lambda i: [], lambda b: [], lambda e: None)
    assert eval_polynomial(P, {}, ["i"]) == {"i": []}
    P2 = PolynomialData(lambda i: ["b"], lambda b: [], lambda e: None)
    assert eval_polynomial(P2, {}, ["i"]) == {"i": [("b", ())]}


def test_eval_polynomial_budget(monkeypatch):
    from higherop import freeop

    monkeypatch.setattr(freeop, "_MAX_OPERATIONS", 10)
    P = PolynomialData(lambda i: itertools.count(), lambda b: [], lambda e: None)
    with pytest.raises(BudgetExceededError,
                       match=r"^more than 10 operations over index i \(budget 10\)$"):
        eval_polynomial(P, {}, ["i"])


def test_insertion_keys_are_refused_before_they_are_packed():
    # an insertion key packs x and y in 24 bits each and the position in 15
    from higherop import freeop

    class Unpackable:
        def __array__(self, *args, **kwargs):
            raise AssertionError("a key was packed")

    store = freeop._TreeStore(OrdBase(1))
    store.width = (1 << 15) + 1
    with pytest.raises(BudgetExceededError,
                       match=r"^trees of 32769 vertices to key \(budget 32768\)$"):
        store.lookup(Unpackable(), Unpackable(), Unpackable())


# ---------------------------------------------------------------------------
# terms, targets, grafting


def test_target_examples():
    assert target(trivial(BASE2)) == terminal_ordinal(2)
    S = ordinal(2, 1)
    assert target(corolla(BASE2, S)) == S
    assert node_object(corolla(BASE2, S)) == S


def test_trivial_validation():
    with pytest.raises(ValueError):
        TreeTerm()
    with pytest.raises(ValueError):
        TreeTerm(trivial_target=terminal_ordinal(1), decoration="x")


def test_graft_units():
    T = chain(3)
    t = corolla(BASE1, T)
    bang = OrdinalMorphism(T, terminal_ordinal(1), (0, 0, 0))
    assert graft(trivial(BASE1), bang, [t], BASE1) == t
    ident = BASE1.identity(T)
    trivs = [trivial(BASE1)] * 3
    assert graft(t, ident, trivs, BASE1) == t


def test_graft_right_comb():
    x = corolla(BASE1, chain(2))
    sigma = OrdinalMorphism(chain(3), chain(2), (0, 1, 1))
    comb = graft(x, sigma, [trivial(BASE1), corolla(BASE1, chain(2))], BASE1)
    assert target(comb) == chain(3)
    assert vertex_count(comb) == 2
    assert comb.sigma == sigma
    assert comb.children[0].is_trivial
    assert not comb.children[1].is_trivial
    validate_tree(comb, BASE1)


def test_graft_shape_errors():
    x = corolla(BASE1, chain(2))
    sigma = OrdinalMorphism(chain(3), chain(2), (0, 1, 1))
    with pytest.raises(ValueError):
        graft(x, sigma, [trivial(BASE1)], BASE1)
    with pytest.raises(ValueError):
        graft(x, sigma, [corolla(BASE1, chain(2)), trivial(BASE1)], BASE1)


# ---------------------------------------------------------------------------
# insertion


def test_insert_examples():
    T = chain(3)
    x = corolla(BASE1, T)
    assert insert(x, (), corolla(BASE1, T), BASE1) == x

    sigma = OrdinalMorphism(chain(3), chain(2), (0, 1, 1))
    comb = graft(corolla(BASE1, chain(2)), sigma, [trivial(BASE1), corolla(BASE1, chain(2))], BASE1)
    for addr, S_v in vertices(comb):
        assert insert(comb, addr, corolla(BASE1, S_v), BASE1) == comb


def test_insert_vertex_counts_add():
    # and the insertion on ids is the term insertion of the oracles
    for T in (chain(2), chain(3)):
        for x in enumerate_trees(T, 3, 3, True, BASE1):
            for addr, S_v in vertices(x):
                for y in enumerate_trees(S_v, 2, 3, True, BASE1):
                    got = insert(x, addr, y, BASE1)
                    assert got == oracles.insert(x, addr, y, BASE1)
                    assert vertex_count(got) == vertex_count(x) + vertex_count(y) - 1


def test_insert_errors():
    x = corolla(BASE1, chain(2))
    with pytest.raises(ValueError):
        insert(x, (5,), corolla(BASE1, chain(2)), BASE1)
    with pytest.raises(ValueError):
        insert(x, (), corolla(BASE1, chain(3)), BASE1)
    with pytest.raises(ValueError):
        insert(trivial(BASE1), (), corolla(BASE1, chain(2)), BASE1)
    with pytest.raises(ValueError, match="bad vertex address"):  # child 0 is a leaf
        insert(x, (0,), corolla(BASE1, chain(2)), BASE1)


# ---------------------------------------------------------------------------
# enumeration


def test_catalan_tree_counts():
    for k in range(1, 6):
        trees = enumerate_trees(chain(k), vmax=k - 1, kmax=2, regular=True, base=BASE1)
        assert len(trees) == catalan(k - 1)


def test_trivial_enumeration():
    assert enumerate_trees(terminal_ordinal(2), 0, 3, True, BASE2) == [trivial(BASE2)]
    assert enumerate_trees(ordinal(2, 0), 0, 3, True, BASE2) == []


def test_kmax_monotonicity_nonregular():
    small = enumerate_trees(chain(2), 2, 1, regular=False, base=BASE1)
    large = enumerate_trees(chain(2), 2, 2, regular=False, base=BASE1)
    assert set(small) <= set(large)
    assert len(small) < len(large)


@pytest.mark.parametrize("base", [BASE1, BASE2, FinBase(), FinBase(constant_free=True)],
                         ids=["Ord1", "Ord2", "FinSet", "FinSet0"])
@pytest.mark.parametrize("regular", [True, False])
def test_store_enumeration_matches_the_term_enumeration(base, regular):
    # the same terms in the same order as the recursive enumeration on terms
    for K, vmax, kmax in [(3, 3, 3), (2, 4, 2), (3, 0, 3), (3, 2, 0)]:
        for T in base.objects(K):
            want = list(oracles.enumerate_trees(T, vmax, kmax, regular, base))
            assert enumerate_trees(T, vmax, kmax, regular, base) == want, (T, vmax, kmax)


def test_enumerated_trees_validate():
    for T in (ordinal(2, 0), ordinal(2, 1), terminal_ordinal(2)):
        for t in enumerate_trees(T, 2, 2, regular=False, base=BASE2):
            validate_tree(t, BASE2)


# ---------------------------------------------------------------------------
# cardinality push-down


def test_tree_cardinality_commutes():
    for T in (chain(2), chain(3), terminal_ordinal(1)):
        for x in enumerate_trees(T, 3, 3, True, BASE1):
            cx = tree_cardinality(x)
            validate_tree(cx, FinBase())
            assert target(cx) == target(x).size
            for addr, S_v in vertices(x):
                for y in enumerate_trees(S_v, 2, 3, True, BASE1):
                    assert tree_cardinality(insert(x, addr, y, BASE1)) == oracles.insert(
                        tree_cardinality(x), addr, tree_cardinality(y), FinBase()
                    )


def test_tree_cardinality_rejects_finset_trees():
    with pytest.raises(ValueError):
        tree_cardinality(tree_cardinality(corolla(BASE1, chain(2))))


# ---------------------------------------------------------------------------
# free operads


def binary_collection(K=3):
    return Collection(BASE1, K, {chain(2): ("m",)})


def test_free_operad_catalan():
    coll = Collection(BASE1, 5, {chain(2): ("m",)})
    res = free_operad(coll, vmax=4, kmax=2)
    sizes = [len(res.operad.components[chain(k)]) for k in range(1, 6)]
    assert sizes == [1, 1, 2, 5, 14]
    assert res.holes == 0


def test_free_operad_empty_collection():
    coll = Collection(BASE1, 3, {})
    res = free_operad(coll, vmax=3, kmax=3)
    assert res.operad.components[terminal_ordinal(1)] == ("triv",)
    for T in (empty_ordinal(1), chain(2), chain(3)):
        assert res.operad.components[T] == ()


def test_free_operad_axioms():
    res = free_operad(binary_collection(), vmax=3, kmax=3)
    assert res.holes == 0
    rep = check_operad_axioms(res.operad)
    assert rep.ok, rep.violations


def test_free_operad_universal_property():
    res = free_operad(binary_collection(), vmax=3, kmax=3)
    end = endomorphism_operad((0, 1), 3)
    B = desymmetrize(end, 1)
    homs = enumerate_operad_morphisms(res.operad, B)
    # collection maps: one choice per image of the binary generator
    assert len(homs) == len(B.components[chain(2)]) == 16
    gen = res.operad.components[chain(2)].index(tree_label(
        next(iter(res.trees[chain(2)]))
    ))
    images = {dict(phi.components)[chain(2)][gen] for phi in homs}
    assert len(images) == 16


def test_free_operad_truncation_holes_are_marked():
    coll = Collection(BASE1, 2, {terminal_ordinal(1): ("u",), chain(2): ("m",)})
    res = free_operad(coll, vmax=2, kmax=2)
    assert res.holes > 0
    rep = check_operad_axioms(res.operad)
    assert rep.ok, rep.violations
    assert rep.skipped_holes > 0


_FREE = {  # the free operads that the tests build, by collection and bounds
    "catalan": (Collection(BASE1, 5, {chain(2): ("m",)}), 4, 2),
    "empty": (Collection(BASE1, 3, {}), 3, 3),
    "binary": (binary_collection(), 3, 3),
    "binary-kmax2": (binary_collection(), 3, 2),
    "holes": (Collection(BASE1, 2, {terminal_ordinal(1): ("u",), chain(2): ("m",)}), 2, 2),
    "two-levels": (Collection(BASE2, 3, {ordinal(2, 0): ("a", "b"), ordinal(2, 1): ("c",)}), 2, 2),
    "nonregular": (Collection(BASE1, 2, {empty_ordinal(1): ("c",), chain(2): ("m",)}), 2, 2),
    "finite-sets": (Collection(FinBase(), 3, {2: ("m",)}), 2, 2),
}


@pytest.mark.parametrize("name", list(_FREE))
def test_free_operads_match_the_term_oracle(name):
    # every cell against the term graft of the oracles, found by its label
    coll, vmax, kmax = _FREE[name]
    regular = name != "nonregular"
    res = free_operad(coll, vmax, kmax, regular)
    want = oracles.free_operad_by_terms(coll, vmax, kmax, regular)
    assert tables_equal(res.operad, want)
    assert res.holes == sum(int((tab < 0).sum()) for tab in want.mult.values())
    for T, trees in res.trees.items():
        assert tuple(map(oracles.tree_label, trees)) == res.operad.components[T]


def test_polynomial_matches_free_operad():
    coll = binary_collection()
    P = tree_polynomial(1, vmax=3, kmax=2)
    X = {T: list(coll.labels(T)) for T in BASE1.objects(3)}
    out = eval_polynomial(P, X, BASE1.objects(3))
    res = free_operad(Collection(BASE1, 3, dict(coll.components)), vmax=3, kmax=2)
    for T in BASE1.objects(3):
        assert len(out[T]) == len(res.operad.components[T])


# ---------------------------------------------------------------------------
# monad laws


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("regular", [True, False])
def test_tree_counts_match_the_enumeration(n, regular):
    base = OrdBase(n)
    for vmax, kmax in itertools.product(range(4), range(4)):
        for k in range(kmax + 1):
            for T in enumerate_ordinals(n, k):
                want = len(enumerate_trees(T, vmax, kmax, regular, base))
                assert count_trees(T, vmax, kmax, regular, base) == want, (T, vmax, kmax)


@pytest.mark.parametrize("base", [FinBase(), FinBase(constant_free=True)])
def test_tree_counts_over_finite_sets(base):
    # trees over 1, 2 and 3 points, with at most 3 vertices of at most 2 points
    assert [count_trees(k, 3, 2, base=base) for k in (1, 2, 3)] == [4, 20, 72]
    assert [len(enumerate_trees(k, 3, 2, base=base)) for k in (1, 2, 3)] == [4, 20, 72]
    # a node morphism over finite sets is labeled by its map and target size
    assert [tree_label(t) for t in enumerate_trees(2, 1, 2, base=base)] == [
        "(01>2||triv,triv)", "(10>2||triv,triv)"]


def _law_instance_count(n, vmax, kmax, regular):
    from higherop import freeop

    base = OrdBase(n)
    store = freeop._TreeStore(base)
    ids = {T: store.trees(T, vmax, kmax, regular) for k in range(kmax + 1)
           for T in enumerate_ordinals(n, k)}
    return sum(freeop._law_instances(store, ids, vmax, kmax, regular, base))


@pytest.mark.parametrize("regular", [True, False])
@pytest.mark.parametrize("n, vmax, kmax", [(1, 3, 3), (2, 2, 2), (1, 2, 2)])
def test_law_instance_count_matches_the_checker(n, vmax, kmax, regular):
    rep = check_monad_laws(n, vmax, kmax, regular)
    assert _law_instance_count(n, vmax, kmax, regular) == rep.unit_instances + rep.assoc_instances


def test_law_instance_count_matches_recorded_checker_counts():
    # unit and associativity-and-commutation instances of check_monad_laws, with
    # its distinct insertions and interned trees, at (2,3,3) both ways and at (2,3,4)
    for args, units, assocs, insertions, trees in [
        ((2, 3, 3, True), 2_244, 25_519, 6_741, 869),
        ((2, 3, 3, False), 6_177, 63_948, 18_081, 2_663),
        ((2, 3, 4, True), 33_674, 693_235, 141_169, 14_845),
    ]:
        rep = check_monad_laws(*args)
        assert rep.ok and (rep.unit_instances, rep.assoc_instances) == (units, assocs)
        assert (rep.distinct_insertions, rep.interned_trees) == (insertions, trees)
        assert _law_instance_count(*args) == units + assocs


def test_monad_laws_pass():
    rep = check_monad_laws(1, 3, 3)
    assert rep.ok, rep.violations[:3]
    rep = check_monad_laws(2, 2, 2)
    assert rep.ok, rep.violations[:3]


def test_monad_laws_nonregular():
    rep = check_monad_laws(1, 2, 2, regular=False)
    assert rep.ok, rep.violations[:3]


def drop_composition(monkeypatch):
    """Make the insertion kernel graft without composing the node morphisms:
    each grafted vertex keeps its own morphism instead of its composite with
    the morphism it is grafted along."""
    from higherop import freeop

    block = freeop._TreeStore._block

    def dropped(self, a, s):
        _, restrictions, fibers = block(self, a, s)
        return a, restrictions, fibers

    monkeypatch.setattr(freeop._TreeStore, "_block", dropped)


def swap_landings(monkeypatch, swapped="inner"):
    """Make the insertion kernel report the first two vertices of the inner
    (or the outer) tree, in the result's preorder, at each other's place."""
    from higherop import freeop

    landings = freeop._TreeStore._landings

    def swapping(self, *args):
        x_lands, y_lands = landings(self, *args)
        lands = y_lands if swapped == "inner" else x_lands
        for row in lands:
            first = np.argsort(np.where(row >= 0, row, row.max() + 1), kind="stable")[:2]
            if len(first) == 2 and (row[first] >= 0).all():
                row[first] = row[first[::-1]]
        return x_lands, y_lands

    monkeypatch.setattr(freeop._TreeStore, "_landings", swapping)


def test_mutated_graft_is_caught(monkeypatch):
    drop_composition(monkeypatch)
    rep = check_monad_laws(1, 2, 2)
    assert not rep.ok
    rep = check_monad_laws(2, 2, 2)
    assert not rep.ok


def _decorated(tree, decorations):
    """tree with its vertices decorated from the iterator, in preorder."""
    if tree.is_trivial:
        return tree
    dec = next(decorations)
    return TreeTerm(tree.sigma, tuple(_decorated(c, decorations) for c in tree.children), dec)


def _tagged(tree, prefix):
    return _decorated(tree, (f"{prefix}{i}" for i in itertools.count()))


def test_mutated_decorations_are_caught(monkeypatch):
    # the shapes are right, so only where the vertices land tells
    with monkeypatch.context() as m:
        swap_landings(m)
        for n in (1, 2):
            rep = check_monad_laws(n, 2, 2)
            assert not rep.ok
    # two vertices of x move, which only the comparison of the two sides sees
    swap_landings(monkeypatch, "outer")
    rep = check_monad_laws(1, 3, 3)
    assert not rep.ok and not any("vanished" in v for v in rep.violations)


def test_violations_come_in_loop_order(monkeypatch):
    # the batched check reports what the nested loops over x, v, y, w, z meet
    # first: here an associativity failure, then vanished vertices, and it stops
    # at the first instance after the tenth violation (12 violations, 16 instances)
    swap_landings(monkeypatch)
    rep = check_monad_laws(1, 2, 2)
    assert (rep.unit_instances, rep.assoc_instances) == (19, 16)
    kinds = [v.split()[0] for v in rep.violations]
    assert kinds == ["associativity"] + ["vertex"] * 4 + ["associativity"] * 3 + ["vertex"] * 4
    assert rep.violations[0] == ("associativity fails: x=(0>:1|x0|triv) v=() y=(0>:1|y0|triv) "
                                 "w=() z=(0>:1|z0|(0>:1|z1|triv))")
    assert rep.violations[1] == "vertex y0 vanished when inserting at ()"


def _recorded_store(monkeypatch):
    from higherop import freeop

    stores = []

    class Recorded(freeop._TreeStore):
        def __init__(self, *args):
            super().__init__(*args)
            stores.append(self)

    monkeypatch.setattr(freeop, "_TreeStore", Recorded)
    return stores


@pytest.mark.parametrize("n, vmax, kmax", [(1, 3, 3), (2, 2, 2)])
def test_memoised_insertions_match_the_tagged_insertion(n, vmax, kmax, monkeypatch):
    _match_memo_and_terms(n, vmax, kmax, True, monkeypatch)


def test_memoised_nonregular_insertions_match_the_tagged_insertion(monkeypatch):
    _match_memo_and_terms(2, 2, 2, False, monkeypatch)


def _match_memo_and_terms(n, vmax, kmax, regular, monkeypatch):
    """Every interned term and every memoised insertion of one law check,
    against the term-level oracles: the insertion on tagged copies."""
    stores = _recorded_store(monkeypatch)
    rep = check_monad_laws(n, vmax, kmax, regular)
    assert rep.ok
    (store,) = stores
    base = OrdBase(n)
    terms = [store.term(i) for i in range(len(store.nodes))]
    assert len(set(terms)) == len(terms) == rep.interned_trees
    for i, t in enumerate(terms):
        assert store.intern(t) == i
        assert (store.sizes[i], list(store.vertices[i])) == (
            oracles.vertex_count(t), oracles.vertices(t))
        assert store.label(i) == oracles.tree_label(t)
        assert store.label(i, "y") == oracles.tree_label(_tagged(t, "y"))
    assert len(store.inputs) == rep.distinct_insertions > 0
    for e, (x, p, y) in enumerate(store.inputs.tolist()):
        r = store.result[e]
        decs = [None] * store.sizes[r]
        for prefix, lands, size in (("x", store.x_lands[e], store.sizes[x]),
                                    ("y", store.y_lands[e], store.sizes[y])):
            assert (lands[size:] == -1).all()
            for i, q in enumerate(lands[:size].tolist()):
                if q >= 0:
                    decs[q] = f"{prefix}{i}"
        address = store.vertices[x][p][0]
        want = oracles.insert(_tagged(terms[x], "x"), address, _tagged(terms[y], "y"), base)
        assert _decorated(store.term(r), iter(decs)) == want


def test_memoised_grafts_match_the_term_graft(monkeypatch):
    stores = _recorded_store(monkeypatch)
    assert check_monad_laws(2, 3, 3).ok
    (store,) = stores
    base = OrdBase(2)
    assert len(store._grafts) > 0
    for (y, s, leaves), (r, lands, offsets) in store._grafts.items():
        # y's vertices tagged, each leaf's tagged by its element
        tagged = [_decorated(store.term(leaf), (f"{e}.{i}" for i in itertools.count()))
                  for e, leaf in enumerate(leaves)]
        want = oracles.graft(_tagged(store.term(y), "y"), store.morphisms[s], tagged, base)
        decs = [None] * store.sizes[r]
        for i, q in enumerate(lands):
            decs[q] = f"y{i}"
        for e, (leaf, o) in enumerate(zip(leaves, offsets)):
            for i in range(store.sizes[leaf]):
                decs[o + i] = f"{e}.{i}"
        assert _decorated(store.term(r), iter(decs)) == want


# ---------------------------------------------------------------------------
# serialisation


def test_tree_json_round_trip():
    sigma = OrdinalMorphism(chain(3), chain(2), (0, 1, 1))
    comb = graft(corolla(BASE1, chain(2), "m"), sigma,
                 [trivial(BASE1), corolla(BASE1, chain(2), "m")], BASE1)
    data = json.loads(json.dumps(tree_to_json(comb)))
    assert tree_from_json(data, BASE1) == comb
    assert tree_from_json("trivial", BASE1) == trivial(BASE1)
    fintree = tree_cardinality(comb)
    data = json.loads(json.dumps(tree_to_json(fintree)))
    assert tree_from_json(data, FinBase()) == fintree


def test_tree_dot():
    sigma = OrdinalMorphism(chain(3), chain(2), (0, 1, 1))
    comb = graft(corolla(BASE1, chain(2)), sigma,
                 [trivial(BASE1), corolla(BASE1, chain(2))], BASE1)
    dot = tree_to_dot(comb)
    assert dot.startswith("digraph")
    assert dot.count("->") == 4  # two vertices, three leaves, one leaf edge each
    assert tree_to_dot(trivial(BASE1)).count("trivial") == 1
