import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from higherop.operads import BudgetExceededError
from higherop.symmetrize import ClassifierPoset, build_classifier
from higherop.topology import (
    boundary_matrices,
    classifier_homology,
    components,
    euler_characteristic,
    homology,
    nerve,
    smith_normal_form,
)


# ---------------------------------------------------------------------------
# nerves


def test_nerve_of_the_four_cycle():
    N = nerve(build_classifier(2, 2))
    assert N.f_vector() == (4, 4)
    assert N.complete


def test_nerve_of_a_point():
    N = nerve(build_classifier(3, 1))
    assert N.f_vector() == (1,)


def test_nerve_of_discrete_poset():
    N = nerve(build_classifier(1, 3))
    assert N.f_vector() == (6,)


def test_nerve_truncation_flag():
    P = build_classifier(3, 2)
    full = nerve(P)
    assert full.complete and full.dimension == 2
    cut = nerve(P, dmax=1)
    assert not cut.complete and cut.dimension == 1
    not_cut = nerve(P, dmax=7)
    assert not_cut.complete and not_cut.dimension == 2


def test_nerve_faces_are_present():
    N = nerve(build_classifier(2, 3))
    for d in range(1, N.dimension + 1):
        lower = set(N.simplices[d - 1])
        for s in N.simplices[d]:
            for drop in range(len(s)):
                assert s[:drop] + s[drop + 1 :] in lower


def test_nerve_budget():
    with pytest.raises(BudgetExceededError):
        nerve(build_classifier(2, 3), max_simplices=10)


# ---------------------------------------------------------------------------
# boundaries


def test_single_edge_boundary_pattern():
    P = ClassifierPoset(1, 0, ("a", "b"), ((0, 1),))
    CC = boundary_matrices(nerve(P))
    assert CC.boundaries[0].tolist() == [[-1], [1]]


def test_four_cycle_boundary_rank():
    CC = boundary_matrices(nerve(build_classifier(2, 2)))
    assert smith_normal_form(CC.boundaries[0]).rank() == 3


def test_boundary_squared_is_zero():
    for n, k in [(3, 2), (4, 2), (2, 3)]:
        CC = boundary_matrices(nerve(build_classifier(n, k)))
        for d in range(len(CC.boundaries) - 1):
            assert not np.any(CC.boundaries[d] @ CC.boundaries[d + 1])


def test_point_has_no_boundaries():
    CC = boundary_matrices(nerve(build_classifier(2, 1)))
    assert CC.boundaries == []
    assert CC.f_vector == (1,)


# ---------------------------------------------------------------------------
# smith normal form


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 3]]).factors == (1, 6)
    assert smith_normal_form([[1, 0], [0, 1]]).factors == (1, 1)
    assert smith_normal_form([[0, 0], [0, 0]]).factors == ()
    assert smith_normal_form([[6, 0, 0], [0, 10, 0], [0, 0, 15]]).factors == (1, 30, 30)


# Small entries, but V passes 2**63 during the reduction (M6 under one pivot
# order, M7 under another), so the overflow guard must watch U and V too.
M6 = [[0, 2, 6, -6, 0, 0], [-3, 2, -9, -1, 0, 3], [0, -5, 3, 0, -6, -7],
      [-9, 0, 9, -9, 9, -7], [-2, -8, 1, -9, 6, 5], [-2, 1, -8, -5, 8, -9]]
M7 = [[-5, 8, -5, -8, -9, 0, -3], [-4, -6, -8, -3, -4, 1, 8], [2, 5, -5, 7, -8, 8, -9],
      [8, -2, -6, 7, 0, 6, -9], [7, 8, -2, -5, 8, 2, 6], [8, -8, -5, -6, -9, 1, -8],
      [9, 8, 2, -5, -9, -8, 8]]


@pytest.mark.parametrize(
    "M, factors",
    [([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], (2, 2, 156)),
     (M6, (1, 1, 1, 1, 1, 1252710)),
     (M7, (1, 1, 1, 1, 1, 1, 48220211))],
    ids=["3x3", "M6", "M7"],
)
def test_snf_certificate_reconstructs(M, factors):
    snf = smith_normal_form(M)
    assert snf.factors == factors
    D = snf.U @ np.array(M) @ snf.V
    expect = np.zeros_like(D)
    for i, d in enumerate(snf.factors):
        expect[i, i] = d
    assert np.array_equal(D, expect)
    # elementary-operation certificates are unimodular
    assert abs(Matrix(snf.U.tolist()).det()) == 1
    assert abs(Matrix(snf.V.tolist()).det()) == 1


def _sympy_factors(M):
    s = sympy_snf(Matrix(M))
    return tuple(sorted(abs(int(s[i, i])) for i in range(min(s.shape)) if s[i, i] != 0))


def test_snf_against_independent_oracle():
    rng = random.Random(20260809)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        mine = smith_normal_form(M).factors
        theirs = _sympy_factors(M)
        assert mine == theirs, (M, mine, theirs)


def _unimodular(draw, size):
    """A product of elementary operations: add c times line j to line i, or negate line i."""
    W = np.array([[int(i == j) for j in range(size)] for i in range(size)], dtype=object)
    ops = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1), st.integers(-3, 3))
    for i, j, c in draw(st.lists(ops, max_size=8)):
        if i == j:
            W[i] = -W[i]
        else:
            W[i] += c * W[j]
    return W


@st.composite
def _chain_products(draw):
    """(M, chain) with M = U0 @ diag(chain) @ V0 and chain a divisibility chain."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    chain, d = [], 1
    r = draw(st.integers(0, min(m, n)))
    for a in draw(st.lists(st.integers(1, 4), min_size=r, max_size=r)):
        d *= a
        chain.append(d)
    if chain and draw(st.booleans()):
        chain[-1] *= draw(st.integers(2**31, 2**40))  # past the int64 overflow guard
    D = np.zeros((m, n), dtype=object)
    for i, d in enumerate(chain):
        D[i, i] = d
    M = _unimodular(draw, m) @ D @ _unimodular(draw, n)
    assume(all(abs(x) < 2**63 for x in M.flat))
    return M.tolist(), tuple(chain)


@settings(max_examples=100, deadline=None)
@given(_chain_products())
def test_snf_recovers_a_hidden_chain(case):
    M, chain = case
    snf = smith_normal_form(M)
    assert snf.factors == chain
    D = snf.U.astype(object) @ np.array(M, dtype=object) @ snf.V.astype(object)
    expect = np.zeros_like(D)
    for i, d in enumerate(chain):
        expect[i, i] = d
    assert np.array_equal(D, expect)
    assert _sympy_factors(M) == chain
    assert smith_normal_form(M, want_certificate=False).factors == chain


def test_snf_overflow_falls_back_to_exact():
    big = 1 << 40
    M = [[big, 1], [1, big]]
    snf = smith_normal_form(M)
    # det = big^2 - 1, gcd of entries = 1
    assert snf.factors == (1, big * big - 1)


def test_snf_rejects_non_matrix():
    with pytest.raises(ValueError):
        smith_normal_form([1, 2, 3])


# ---------------------------------------------------------------------------
# homology


def test_circle():
    rep = classifier_homology(2, 2)
    assert rep["betti"] == [1, 1]
    assert rep["torsion"] == [[], []]


def test_two_sphere():
    rep = classifier_homology(3, 2)
    assert rep["betti"] == [1, 0, 1]
    assert all(t == [] for t in rep["torsion"])


def test_three_sphere():
    rep = classifier_homology(4, 2)
    assert rep["betti"] == [1, 0, 0, 1]
    assert all(t == [] for t in rep["torsion"])


def test_discrete_components():
    rep = classifier_homology(1, 3)
    assert rep["betti"] == [6]
    assert rep["components"] == 6


def test_planar_three_point_configuration():
    rep = classifier_homology(2, 3)
    assert rep["betti"] == [1, 3, 2]
    assert all(t == [] for t in rep["torsion"])
    assert rep["components"] == 1


def test_stable_range_3_3():
    rep = classifier_homology(3, 3, dmax=2)
    assert rep["components"] == 1
    assert rep["betti"][0] == 1
    assert rep["betti"][1] == 0
    assert rep["torsion"][0] == []
    assert rep["betti"][2] is None  # above the reliable range at this dmax
    assert rep["computed_through"] == 1


def test_real_projective_plane_has_two_torsion():
    # face poset of the 6-vertex RP^2; its nerve is the barycentric subdivision
    triangles = ["123", "134", "145", "156", "162", "235", "346", "452", "563", "624"]
    faces = sorted(
        {frozenset(c) for t in triangles for r in (1, 2, 3) for c in itertools.combinations(t, r)},
        key=lambda f: (len(f), sorted(f)),
    )
    arrows = tuple((i, j) for i, a in enumerate(faces) for j, b in enumerate(faces) if a < b)
    P = ClassifierPoset(2, 0, tuple("".join(sorted(f)) for f in faces), arrows)
    N = nerve(P)
    assert N.f_vector() == (31, 90, 60)
    H = homology(boundary_matrices(N))
    assert H.betti == (1, 0, 0)
    assert H.torsion == ((), (2,), ())


def test_truncated_homology_marks_top_degree():
    P = build_classifier(3, 2)
    H = homology(boundary_matrices(nerve(P, dmax=1)))
    assert H.betti[0] == 1
    assert H.betti[1] is None
    assert H.computed_through == 0


def test_euler_characteristic_matches_betti():
    for n, k in [(2, 2), (3, 2), (4, 2), (2, 3)]:
        CC = boundary_matrices(nerve(build_classifier(n, k)))
        H = homology(CC)
        assert euler_characteristic(CC) == sum(
            (-1) ** d * b for d, b in enumerate(H.betti)
        )


def test_reduced_nontrivial_degrees():
    H = homology(boundary_matrices(nerve(build_classifier(3, 2))))
    assert H.reduced_nontrivial_degrees() == [2]
    H0 = homology(boundary_matrices(nerve(build_classifier(2, 1))))
    assert H0.reduced_nontrivial_degrees() == []


def test_contractibility_trend_at_arity_two():
    # the first nonvanishing reduced degree climbs with the level count
    for n in (2, 3, 4):
        H = homology(boundary_matrices(nerve(build_classifier(n, 2))))
        assert H.reduced_nontrivial_degrees() == [n - 1]


# ---------------------------------------------------------------------------
# components


def test_components_examples():
    for k in (1, 2, 3, 4):
        assert components(build_classifier(1, k)) == math.factorial(k)
    assert components(build_classifier(2, 3)) == 1
    assert components(build_classifier(2, 0)) == 1
    assert components(ClassifierPoset(2, 0, (), ())) == 0
