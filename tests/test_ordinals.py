import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from higherop.operads import OrdBase, compile_base, composable_pairs
from higherop.ordinals import (
    InfOrdinal,
    NOrdinal,
    OrdinalMorphism,
    cardinality,
    compose,
    count_morphisms,
    empty_ordinal,
    enumerate_morphisms,
    enumerate_ordinals,
    fiber,
    fiber_elements,
    identity,
    is_morphism,
    level,
    morphism_from_json,
    morphism_to_json,
    ordinal,
    ordinal_from_json,
    ordinal_to_json,
    relations,
    render,
    restrict_to_fiber,
    suspend_inf,
    suspend_morphism,
    suspend_p,
    terminal_ordinal,
)

from oracles import (
    brute_force_ordinal_structures,
    canonicalize_structure,
    fixed_order_profiles,
)

FIG1 = ordinal(2, 1, 0, 1, 1)  # the five-element two-level example ordinal


# ---------------------------------------------------------------------------
# construction and level


def test_level_examples():
    assert level(FIG1, 0, 2) == 0
    assert level(FIG1, 0, 1) == 1
    assert level(ordinal(1, 0), 0, 1) == 0


def test_level_rejects_bad_indices():
    with pytest.raises(ValueError):
        level(FIG1, 2, 2)
    with pytest.raises(ValueError):
        level(FIG1, 3, 1)
    with pytest.raises(ValueError):
        level(FIG1, 0, 5)


def test_constructor_validation():
    with pytest.raises(ValueError):
        NOrdinal(2, (2,))
    with pytest.raises(ValueError):
        NOrdinal(2, (-1,))
    with pytest.raises(ValueError):
        NOrdinal(2, (0, 0), 2)
    assert empty_ordinal(3).size == 0
    assert terminal_ordinal(3).size == 1
    assert cardinality(FIG1) == 5
    assert cardinality(terminal_ordinal(2)) == 1
    assert cardinality(empty_ordinal(2)) == 0


def test_relations_of_figure_ordinal():
    expected = {
        (0, 0, 2), (0, 0, 3), (0, 0, 4),
        (1, 0, 2), (1, 0, 3), (1, 0, 4),
        (0, 1, 1), (2, 1, 3), (2, 1, 4), (3, 1, 4),
    }
    assert set(relations(FIG1)) == expected


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(0, n - 1), min_size=1, max_size=6)
        )
    )
)
def test_level_composition_law(args):
    n, prof = args
    T = NOrdinal(n, tuple(prof))
    for i in range(T.size):
        for j in range(i + 1, T.size):
            for m in range(j + 1, T.size):
                assert level(T, i, m) == min(level(T, i, j), level(T, j, m))


# ---------------------------------------------------------------------------
# enumeration and the brute-force oracle


def test_enumeration_examples():
    assert [T.profile for T in enumerate_ordinals(2, 3)] == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]
    assert len(enumerate_ordinals(1, 4)) == 1
    assert enumerate_ordinals(3, 1) == [terminal_ordinal(3)]
    assert enumerate_ordinals(3, 0) == [empty_ordinal(3)]
    assert enumerate_ordinals(0, 2) == []
    assert len(enumerate_ordinals(0, 1)) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_census(n, k):
    assert len(enumerate_ordinals(n, k)) == n ** (k - 1)


@pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (2, 4), (3, 3), (3, 4)])
def test_bijection_with_naive_relation_enumeration(n, k):
    structures = brute_force_ordinal_structures(n, k)
    canonical = {canonicalize_structure(t, k) for t in structures}
    assert canonical == {T.profile for T in enumerate_ordinals(n, k)}
    # every canonical shape admits exactly k! labelings
    import math

    assert len(structures) == math.factorial(k) * len(canonical)


@pytest.mark.parametrize("n,k", [(2, 4), (3, 4)])
def test_fixed_order_reduction_agrees_with_naive(n, k):
    # the fixed-total-order level enumeration used at k=5 in acceptance
    assert fixed_order_profiles(n, k) == {T.profile for T in enumerate_ordinals(n, k)}


# ---------------------------------------------------------------------------
# morphisms


def test_is_morphism_examples():
    S = ordinal(2, 0)
    assert is_morphism((0, 0, 1, 1, 1), FIG1, S)
    assert not is_morphism((0, 0, 0, 1, 1), FIG1, S)
    assert is_morphism(tuple(range(5)), FIG1, FIG1)


def test_is_morphism_shape_errors():
    with pytest.raises(ValueError):
        is_morphism((0, 0), FIG1, ordinal(2, 0))
    with pytest.raises(ValueError):
        is_morphism((0, 7, 0, 0, 0), FIG1, ordinal(2, 0))


def test_swap_needs_strictly_larger_level():
    low, high = ordinal(2, 0), ordinal(2, 1)
    assert is_morphism((1, 0), low, high)  # reversal: r=1 > p=0
    assert not is_morphism((1, 0), low, low)
    assert not is_morphism((1, 0), high, high)
    assert is_morphism((0, 1), low, high)  # identity-carried: r=1 >= 0


def test_enumerate_morphisms_examples():
    T = ordinal(1, 0)
    maps = [f.map for f in enumerate_morphisms(T, T)]
    assert maps == [(0, 0), (0, 1), (1, 1)]
    z = empty_ordinal(2)
    assert [f.map for f in enumerate_morphisms(z, FIG1)] == [()]
    assert [f.map for f in enumerate_morphisms(z, z)] == [()]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_morphisms_matches_brute_force(n):
    objs = [T for k in range(5) for T in enumerate_ordinals(n, k)]
    pairs = list(itertools.product(objs, repeat=2))
    if n == 2:
        pairs += list(itertools.product(enumerate_ordinals(2, 5), repeat=2))
    for T, S in pairs:
        want = [
            f for f in itertools.product(range(S.size), repeat=T.size)
            if is_morphism(f, T, S)
        ]
        assert [f.map for f in enumerate_morphisms(T, S)] == want
        # the count, exact up to a limit and limit + 1 past it
        onto = sum(set(f) == set(range(S.size)) for f in want)
        assert count_morphisms(T, S) == count_morphisms(T, S, limit=len(want)) == len(want)
        assert count_morphisms(T, S, True) == count_morphisms(T, S, True, limit=onto) == onto
        if want:
            assert count_morphisms(T, S, limit=len(want) - 1) == len(want)


def test_compose_laws():
    S = ordinal(2, 0)
    f = OrdinalMorphism(FIG1, S, (0, 0, 1, 1, 1))
    assert compose(identity(S), f) == f
    assert compose(f, identity(FIG1)) == f
    const = OrdinalMorphism(S, terminal_ordinal(2), (0, 0))
    assert compose(const, f).map == (0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        compose(f, f)


@pytest.mark.parametrize("n", [1, 2])
def test_composition_closure(n):
    objs = [T for k in range(4) for T in enumerate_ordinals(n, k)]
    for T, S, R in itertools.product(objs, repeat=3):
        for f in enumerate_morphisms(T, S):
            for g in enumerate_morphisms(S, R):
                gf = compose(g, f)
                assert is_morphism(gf.map, T, R)


# ---------------------------------------------------------------------------
# fibers


def test_fiber_examples():
    f = OrdinalMorphism(FIG1, ordinal(2, 0), (0, 0, 1, 1, 1))
    assert fiber(f, 0) == ordinal(2, 1)
    assert fiber(f, 1) == ordinal(2, 1, 1)
    for i in range(FIG1.size):
        assert fiber(identity(FIG1), i) == terminal_ordinal(2)
    z = empty_ordinal(2)
    zmap = OrdinalMorphism(z, terminal_ordinal(2), ())
    assert fiber(zmap, 0) == z
    with pytest.raises(ValueError):
        fiber(f, 2)


@pytest.mark.parametrize("n", [1, 2])
def test_fiber_additivity(n):
    objs = [T for k in range(5) for T in enumerate_ordinals(n, k)]
    for T, S in itertools.product(objs, repeat=2):
        if T.size > 4 or S.size > 4:
            continue
        for f in enumerate_morphisms(T, S):
            assert sum(fiber(f, i).size for i in range(S.size)) == T.size


def test_restrict_to_fiber_consistency():
    # every composable pair of Ord(1) and Ord(2) up to size 3: composites and
    # restrictions are built unchecked, so each is checked here, and against
    # the ids of the compiled pair rows (sigma, omega, composite, restrictions...)
    pairs = [(compile_base(OrdBase(n), 3), composable_pairs(OrdBase(n), 3).tolist())
             for n in (1, 2)]
    assert [len(rows) for _, rows in pairs] == [428, 13190]
    for C, s, w, c, *blocks in ((C, *row) for C, rows in pairs for row in rows):
        sigma, omega = C.morphisms[s], C.morphisms[w]
        comp = compose(omega, sigma)
        assert is_morphism(comp.map, comp.source, comp.target)
        assert C.morphism_id[comp] == c
        for i in range(omega.target.size):
            rho = restrict_to_fiber(sigma, omega, i)
            assert is_morphism(rho.map, rho.source, rho.target)
            assert C.morphism_id[rho] == blocks[i]
            assert rho.source == fiber(comp, i)
            assert rho.target == fiber(omega, i)
            for local, e in enumerate(fiber_elements(omega, i)):
                assert fiber(rho, local) == fiber(sigma, e)
        assert blocks[omega.target.size:] == [-1] * (3 - omega.target.size)
    # and a source of size 4
    T, S, R = ordinal(2, 1, 0, 1), ordinal(2, 0, 1), ordinal(2, 0)
    for sigma in enumerate_morphisms(T, S):
        for omega in enumerate_morphisms(S, R):
            for i in range(R.size):
                rho = restrict_to_fiber(sigma, omega, i)
                assert is_morphism(rho.map, rho.source, rho.target)
                assert rho.source == fiber(compose(omega, sigma), i)
                for local, e in enumerate(fiber_elements(omega, i)):
                    assert fiber(rho, local) == fiber(sigma, e)


# ---------------------------------------------------------------------------
# suspensions


def test_suspend_examples():
    assert suspend_p(FIG1, 0) == NOrdinal(3, (2, 1, 2, 2))
    assert suspend_p(FIG1, 2) == NOrdinal(3, (1, 0, 1, 1))
    assert suspend_p(terminal_ordinal(2), 1) == terminal_ordinal(3)
    assert suspend_p(empty_ordinal(2), 0) == empty_ordinal(3)
    with pytest.raises(ValueError):
        suspend_p(FIG1, 3)
    with pytest.raises(ValueError):
        suspend_p(FIG1, -1)


def test_suspension_preserves_cardinality():
    for n in (1, 2, 3):
        for k in range(5):
            for T in enumerate_ordinals(n, k):
                for p in range(n + 1):
                    assert suspend_p(T, p).size == T.size


def test_suspension_functoriality():
    for T in enumerate_ordinals(2, 3):
        for S in enumerate_ordinals(2, 2):
            for f in enumerate_morphisms(T, S):
                for p in range(3):
                    sf = suspend_morphism(f, p)
                    assert sf.map == f.map
                    assert is_morphism(f.map, suspend_p(T, p), suspend_p(S, p))


def test_suspend_inf():
    assert suspend_inf(FIG1) == InfOrdinal((0, -1, 0, 0))
    assert suspend_inf(terminal_ordinal(4)) == InfOrdinal((), 1)
    assert suspend_inf(NOrdinal(3, (2, 2, 2))) == InfOrdinal((0, 0, 0))
    assert suspend_inf(empty_ordinal(0)) == InfOrdinal((), 0)


def test_suspend_inf_absorbs_vertical_suspension():
    for n in (1, 2, 3):
        for k in range(5):
            for T in enumerate_ordinals(n, k):
                assert suspend_inf(suspend_p(T, 0)) == suspend_inf(T)


def test_inf_ordinal_validation():
    with pytest.raises(ValueError):
        InfOrdinal((1,))


def test_morphism_check_reuses_for_infinite_levels():
    A = suspend_inf(FIG1)  # profile (0, -1, 0, 0)
    B = suspend_inf(ordinal(2, 0))  # profile (-1,)
    assert is_morphism((0, 0, 1, 1, 1), A, B)
    assert not is_morphism((1, 1, 0, 0, 0), A, B)  # reversal at the same level


# ---------------------------------------------------------------------------
# rendering and serialisation


def test_render_ascii():
    assert render(terminal_ordinal(2)) == "[[0]]"
    assert render(FIG1) == "[[0,1],[2,3,4]]"
    assert render(empty_ordinal(2)) == "[]"
    assert render(ordinal(1, 0, 0, 0)) == "[0,1,2,3]"


def test_render_dot():
    dot = render(FIG1, "dot")
    assert dot.startswith("digraph")
    assert sum(1 for line in dot.splitlines() if "leaf" in line and "label" in line) == 5
    assert render(empty_ordinal(2), "dot").count("->") == 0


def test_render_unknown_format():
    with pytest.raises(ValueError):
        render(FIG1, "svg")


def test_json_round_trip():
    for T in (FIG1, empty_ordinal(2), terminal_ordinal(0)):
        assert ordinal_from_json(json.loads(json.dumps(ordinal_to_json(T)))) == T
    f = OrdinalMorphism(FIG1, ordinal(2, 0), (0, 0, 1, 1, 1))
    assert morphism_from_json(morphism_to_json(f)) == f


def test_empty_and_terminal_are_distinct_in_json():
    assert ordinal_to_json(empty_ordinal(2)) != ordinal_to_json(terminal_ordinal(2))
