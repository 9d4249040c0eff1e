import functools
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from oracles import (
    components_by_arrows,
    config_space_betti,
    dense_boundaries,
    diamond_complex,
    grading,
    labeled_structures,
    nerve,
    nerve_boundaries,
    nerve_homology,
    sparse_complex,
)
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from higherop import symmetrize, topology
from higherop.operads import BudgetExceededError
from higherop.symmetrize import ClassifierPoset, build_classifier
from higherop.topology import (
    _chain_counts,
    cellular_complex,
    classifier_homology,
    components,
    euler_characteristic,
    homology,
    invariant_factors,
    smith_normal_form,
)


# ---------------------------------------------------------------------------
# the nerve oracle


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


# ---------------------------------------------------------------------------
# boundaries


def _poset(names, relations):
    """The poset on `names` generated by the pairs (lower, upper) in `relations`."""
    index = {x: i for i, x in enumerate(names)}
    R = np.zeros((len(names), len(names)), dtype=bool)
    for lo, hi in relations:
        R[index[lo], index[hi]] = True
    for m in range(len(names)):  # transitive closure
        R |= R[:, [m]] & R[[m], :]
    return ClassifierPoset(0, 0, tuple(names), tuple(map(tuple, np.argwhere(R).tolist())))


def _rp2_face_poset():
    """Face poset of the 6-vertex RP^2; its nerve is the barycentric subdivision."""
    triangles = ["123", "134", "145", "156", "162", "235", "346", "452", "563", "624"]
    faces = sorted(
        {frozenset(c) for t in triangles for r in (1, 2, 3) for c in itertools.combinations(t, r)},
        key=lambda f: (len(f), sorted(f)),
    )
    arrows = tuple((i, j) for i, a in enumerate(faces) for j, b in enumerate(faces) if a < b)
    return ClassifierPoset(2, 0, tuple("".join(sorted(f)) for f in faces), arrows)


def test_single_edge_boundary_pattern():
    P = ClassifierPoset(1, 0, ("a", "b"), ((0, 1),))
    CC = nerve_boundaries(nerve(P))
    assert dense_boundaries(CC)[0].tolist() == [[-1], [1]]


_RP2 = _rp2_face_poset().objects


@pytest.mark.parametrize(
    "P, message",
    [(ClassifierPoset(1, 0, ("a", "b"), ((0, 1),)), "vertices, not 2"),
     (_poset("abcdet", [("a", "d"), ("b", "d"), ("b", "e"), ("c", "e"), ("d", "t"), ("e", "t")]),
      "facets, not 2"),
     (_poset("abcdpqrst", [("a", "p"), ("b", "p"), ("a", "q"), ("b", "q"), ("c", "r"),
                           ("d", "r"), ("c", "s"), ("d", "s")] + [(e, "t") for e in "pqrs"]),
      "disconnected"),
     (_poset(_RP2 + ("top",), [(a, b) for a in _RP2 for b in _RP2 if set(a) < set(b)]
             + [(f, "top") for f in _RP2]),
      "disagree")],
    ids=["lone-edge", "open-path", "two-circles", "rp2-cone"],
)
def test_cellular_refuses_a_non_regular_poset(P, message):
    with pytest.raises(ValueError, match=message):
        diamond_complex(P)


def test_four_cycle_boundary_rank():
    bd = dense_boundaries(nerve_boundaries(nerve(build_classifier(2, 2))))
    assert len(smith_normal_form(bd[0])) == 3


def test_boundary_squared_is_zero():
    for n, k in [(3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]:
        bd = dense_boundaries(cellular_complex(n, k))
        assert all(np.abs(M).max() == 1 for M in bd)
        for d in range(len(bd) - 1):
            assert not np.any(bd[d] @ bd[d + 1])


def test_point_has_no_boundaries():
    CC = cellular_complex(2, 1)
    assert CC.boundaries == []
    assert CC.f_vector == (1,)


def test_cells_are_objects_by_level_sum():
    for n, k in [(2, 3), (3, 3), (2, 4)]:
        CC = cellular_complex(n, k)
        levels = [sum(T.profile) for T in labeled_structures(n, k)]
        assert CC.f_vector == tuple(levels.count(r) for r in range(max(levels) + 1))
        assert CC.chains == nerve(build_classifier(n, k)).f_vector()


def test_chain_counts_stay_exact_past_int64():
    # eleven layers of 64 objects, each below every object of a higher layer
    width, layers = 64, 11
    layer = np.repeat(np.arange(layers), width)
    src, dst = np.nonzero(layer[:, None] < layer[None, :])
    rank, chains, complete = grading(src, dst, width * layers, None)
    assert chains == tuple(math.comb(layers, d + 1) * width ** (d + 1) for d in range(layers))
    assert chains[-1] > 2**63 and complete and (rank == layer).all()


# ---------------------------------------------------------------------------
# smith normal form


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
    assert smith_normal_form([[1, 0], [0, 1]]) == (1, 1)
    assert smith_normal_form([[0, 0], [0, 0]]) == ()
    assert smith_normal_form([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == (1, 30, 30)


def _sympy_factors(M):
    s = sympy_snf(Matrix(M))
    return tuple(sorted(abs(int(s[i, i])) for i in range(min(s.shape)) if s[i, i] != 0))


# Small entries with large last factors, each checked against sympy.  In M10
# the matrix itself passes the overflow guard (2**31) during the elimination:
# its diagonal ends (..., 2, 20488970453), and only the gcd/lcm step turns
# that pair into (1, 40977940906).  M16's last factor is past 2**63, so int64
# arithmetic without the guard would wrap.
M6 = [[0, 2, 6, -6, 0, 0], [-3, 2, -9, -1, 0, 3], [0, -5, 3, 0, -6, -7],
      [-9, 0, 9, -9, 9, -7], [-2, -8, 1, -9, 6, 5], [-2, 1, -8, -5, 8, -9]]
M7 = [[-5, 8, -5, -8, -9, 0, -3], [-4, -6, -8, -3, -4, 1, 8], [2, 5, -5, 7, -8, 8, -9],
      [8, -2, -6, 7, 0, 6, -9], [7, 8, -2, -5, 8, 2, 6], [8, -8, -5, -6, -9, 1, -8],
      [9, 8, 2, -5, -9, -8, 8]]
_draw = random.Random(20261019)
M10 = [[_draw.randint(-9, 9) for _ in range(10)] for _ in range(10)]
_draw = random.Random(20261035)
M16 = [[_draw.randint(-9, 9) for _ in range(16)] for _ in range(16)]


@pytest.mark.parametrize(
    "M, factors",
    [([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], (2, 2, 156)),
     (M6, (1, 1, 1, 1, 1, 1252710)),
     (M7, (1, 1, 1, 1, 1, 1, 48220211)),
     (M10, (1,) * 9 + (40977940906,)),
     (M16, (1,) * 15 + (12098678091994463730,))],
    ids=["3x3", "M6", "M7", "M10", "M16"],
)
def test_snf_known_factors(M, factors):
    assert smith_normal_form(M) == factors
    assert _sympy_factors(M) == factors


def test_snf_against_independent_oracle():
    rng = random.Random(20260809)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        mine = smith_normal_form(M)
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
    assert smith_normal_form(M) == chain
    assert _sympy_factors(M) == chain


def test_snf_overflow_falls_back_to_exact():
    big = 1 << 40
    M = [[big, 1], [1, big]]
    # det = big^2 - 1, gcd of entries = 1
    assert smith_normal_form(M) == (1, big * big - 1)


def test_snf_rejects_non_matrix():
    with pytest.raises(ValueError):
        smith_normal_form([1, 2, 3])


# ---------------------------------------------------------------------------
# unit-pivot elimination against both Smith forms


@st.composite
def _sparse_matrices(draw):
    """A small integer matrix, mostly zeros, with entries of +-1, +-2 and 3,
    of any shape down to empty."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3])
    return np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m,
                                  max_size=m)), dtype=np.int64).reshape(m, n)


@settings(max_examples=300, deadline=None)
@given(_sparse_matrices())
@example(np.array([[2, 4], [6, 3]]))  # no unit entry: all of it is residual
@example(np.array([[1, 1], [1, -1], [0, 0]]))  # a unit pivot, then a residual 2
@example(np.zeros((0, 3), dtype=np.int64))
@example(np.zeros((3, 0), dtype=np.int64))
def test_unit_pivots_match_both_smith_forms(M):
    row, col = np.nonzero(M)
    factors, pivots = invariant_factors(row, col, M[row, col])
    assert factors == smith_normal_form(M)
    assert factors == (_sympy_factors(M) if M.size else ())
    assert len(set(pivots)) == len(pivots) <= len(factors)
    assert set(pivots) <= set(row.tolist()) and factors[:len(pivots)] == (1,) * len(pivots)


def test_residual_block_is_charged_before_it_is_built(monkeypatch):
    M = np.array([[2, 4, 0], [6, 3, 0], [0, 0, 1]])  # one unit pivot, then a 2 x 2 block
    row, col = np.nonzero(M)
    monkeypatch.setattr(topology, "_MAX_DENSE_BYTES", 8 * 4)
    assert invariant_factors(row, col, M[row, col]) == ((1, 1, 18), [2])
    monkeypatch.setattr(topology, "_MAX_DENSE_BYTES", 8 * 4 - 1)
    monkeypatch.setattr(topology, "smith_normal_form", None)  # never reached
    with pytest.raises(BudgetExceededError, match="a residual block of 2 x 2"):
        invariant_factors(row, col, M[row, col])


def test_projective_plane_torsion_comes_from_the_residual():
    CC = diamond_complex(_rp2_face_poset())
    H = homology(CC)
    assert H.betti == (1, 0, 0) and H.torsion == ((), (2,), ())
    # the 2 cannot be a unit pivot: it comes out of the dense block that is left
    factors, pivots = invariant_factors(*CC.boundaries[1])
    assert factors == smith_normal_form(dense_boundaries(CC)[1]) == (1,) * 9 + (2,)
    assert len(pivots) < len(factors)


def test_clearing_keeps_every_invariant_factor():
    """homology clears the columns of the cells paired one degree up; its
    factors are those of each whole boundary, by the dense Smith form."""
    for CC in (cellular_complex(3, 3), cellular_complex(2, 4), nerve_boundaries(nerve(
            build_classifier(2, 3))), diamond_complex(_rp2_face_poset())):
        ranks = [len(smith_normal_form(M)) for M in dense_boundaries(CC)]
        torsion = tuple(tuple(x for x in smith_normal_form(M) if x > 1)
                        for M in dense_boundaries(CC)) + ((),)
        H = homology(CC)
        r = [0, *ranks, 0]
        assert H.betti == tuple(f - r[d] - r[d + 1] for d, f in enumerate(CC.f_vector))
        assert H.torsion == torsion


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
    P = _rp2_face_poset()
    N = nerve(P)
    assert N.f_vector() == (31, 90, 60)
    CC = diamond_complex(P)
    assert CC.f_vector == (6, 15, 10) and CC.chains == N.f_vector()
    for H in (homology(nerve_boundaries(N)), homology(CC)):
        assert H.betti == (1, 0, 0)
        assert H.torsion == ((), (2,), ())


def test_truncated_homology_marks_top_degree():
    H = homology(cellular_complex(3, 2, dmax=1))
    assert H.betti[0] == 1
    assert H.betti[1] is None
    assert H.computed_through == 0


def test_euler_characteristic_matches_betti():
    for n, k in [(2, 2), (3, 2), (4, 2), (2, 3)]:
        CC = cellular_complex(n, k)
        H = homology(CC)
        assert euler_characteristic(CC) == sum(
            (-1) ** d * b for d, b in enumerate(H.betti)
        )
        N = nerve_boundaries(nerve(build_classifier(n, k)))
        assert euler_characteristic(CC) == euler_characteristic(N)


def test_reduced_nontrivial_degrees():
    H = homology(cellular_complex(3, 2))
    assert H.reduced_nontrivial_degrees() == [2]
    H0 = homology(cellular_complex(2, 1))
    assert H0.reduced_nontrivial_degrees() == []


def test_contractibility_trend_at_arity_two():
    # the first nonvanishing reduced degree climbs with the level count
    for n in (2, 3, 4):
        H = homology(cellular_complex(n, 2))
        assert H.reduced_nontrivial_degrees() == [n - 1]


@pytest.mark.parametrize("n, k", [(3, 3), (2, 4), (4, 3), (3, 4), (2, 5)])
def test_full_homology_is_the_configuration_space(n, k):
    rep = classifier_homology(n, k)
    want = config_space_betti(n, k)
    assert rep["betti"] == want + [0] * (len(rep["betti"]) - len(want))
    assert not any(rep["torsion"])
    assert rep["complete"] and rep["computed_through"] == len(rep["betti"]) - 1


def test_full_homology_at_four_levels_three_points():
    rep = classifier_homology(4, 3)
    assert rep["betti"] == [1, 0, 0, 3, 0, 0, 2]
    assert rep["fvector"] == [96, 1920, 14496, 49920, 82944, 65280, 19584]


# ---------------------------------------------------------------------------
# the cellular route against the nerve oracle

# the deepest truncation the oracle decides in a fraction of a second, for the
# (n, k) whose full nerve is out of its reach (-1: not even dmax = 0)
_ORACLE_DMAX = {(3, 3): 2, (4, 3): 1, (5, 3): 1, (2, 4): 1, (3, 4): 0, (4, 4): 0, (5, 4): -1}
PARITY = [
    (n, k, dmax)
    for n in range(1, 6)
    for k in range(5)
    for dmax in (None, 0, 1, 2, 3)
    if (n, k) not in _ORACLE_DMAX or (dmax is not None and dmax <= _ORACLE_DMAX[n, k])
]


@pytest.mark.parametrize("n, k, dmax", PARITY)
def test_payload_matches_the_nerve(n, k, dmax):
    assert json.dumps(classifier_homology(n, k, dmax)) == json.dumps(nerve_homology(n, k, dmax))


@functools.lru_cache(maxsize=None)
def _classifier(n, k):
    return build_classifier(n, k)


@functools.lru_cache(maxsize=None)
def _cellular(n, k, dmax):
    return cellular_complex(n, k, dmax)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PARITY), st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
def test_lower_ideals_match_the_nerve(case, picks):
    """A lower ideal of the classifier is a subcomplex: the nerve and the
    diamond signs agree on it, and so do the closed-form boundaries
    restricted to its cells."""
    n, k, dmax = case
    P = _classifier(n, k)
    keep = {p % len(P.objects) for p in picks}
    keep |= {i for i, j in P.arrows if j in keep}
    index = {o: i for i, o in enumerate(sorted(keep))}
    Q = ClassifierPoset(n, k, tuple(P.objects[o] for o in sorted(keep)),
                        tuple((index[i], index[j]) for i, j in P.arrows if j in index))
    N = nerve(Q, dmax)
    CC = diamond_complex(Q, dmax)
    assert (CC.chains, CC.complete) == (N.f_vector(), N.complete)
    assert homology(CC) == homology(nerve_boundaries(N))
    # each object's cell: its level sum, and its place among the objects of that sum
    levels = np.tile(symmetrize._labelings(n, k).profiles.sum(axis=1), math.factorial(k))
    place = np.zeros_like(levels)
    for r in range(levels.max() + 1):
        place[levels == r] = np.arange((levels == r).sum())
    kept = np.array(sorted(keep))
    cells = [place[kept[levels[kept] == d]] for d in range(len(CC.f_vector))]
    full = dense_boundaries(_cellular(n, k, dmax))
    bd = [full[d][np.ix_(cells[d], cells[d + 1])] for d in range(len(cells) - 1)]
    for d in range(len(bd) - 1):
        assert not np.any(bd[d] @ bd[d + 1])
    assert homology(sparse_complex(CC.f_vector, bd, CC.complete)) == homology(CC)


# every (n, k) with n <= 5, k <= 5 and at most 20,000 objects
CELLS = [(n, k, dmax) for n in range(1, 6) for k in range(6)
         if math.factorial(k) * n ** max(k - 1, 0) <= 20000 for dmax in (None, 0, 1, 2, 3)]


@pytest.mark.parametrize("n, k, dmax", CELLS)
def test_cells_match_the_diamond_signs(n, k, dmax):
    """The level-tree covers are the arrows' covers, and the Koszul signs are
    the diamond signs up to one sign per cell."""
    C, D = _cellular(n, k, dmax), diamond_complex(_classifier(n, k), dmax)
    assert (C.f_vector, C.chains, C.complete) == (D.f_vector, D.chains, D.complete)
    # every vertex keeps its sign; each cell's is read off its facets, and must fit them all
    sign = np.ones(C.f_vector[0], dtype=np.int64)
    for M, W in zip(dense_boundaries(C), dense_boundaries(D), strict=True):
        W = W * sign[:, None]
        sign = (M * W).sum(axis=0) // np.abs(W).sum(axis=0)
        assert (np.abs(sign) == 1).all() and (M == W * sign).all()


@pytest.mark.parametrize("n, k, dmax", CELLS)
def test_ordered_classifiers_have_the_closed_form_homology(n, k, dmax):
    """Every complete classifier has the Betti numbers of F(R^n, k) and no
    torsion, and H_0, wherever it is reliable, counts the quotient's classes."""
    rep = classifier_homology(n, k, dmax)
    if rep["complete"]:
        want = config_space_betti(n, k)
        assert rep["betti"] == want + [0] * (len(rep["betti"]) - len(want))
        assert not any(rep["torsion"])
    if rep["betti"][0] is not None:
        assert rep["components"] == rep["betti"][0]


def test_chain_counts_pass_int64_exactly():
    # (5, 5): 75,000 objects and 188,976,000 arrows; the chains of 11 to 14
    # objects pass 2**63, and their alternating sum is the Euler characteristic
    # of the cells, 5! times (1 - 1 + 1 - 1 + 1)**4
    chains = _chain_counts(5, 5, 17)
    assert len(chains) == 17 and chains[:2] == (75000, 188976000)
    assert max(chains) > 2**63 and all(type(c) is int for c in chains)
    assert sum((-1) ** d * c for d, c in enumerate(chains)) == 120
    assert cellular_complex(3, 5).chains == _chain_counts(3, 5, 9)


def test_homology_builds_no_arrow(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("an arrow of the classifier was built")

    monkeypatch.setattr(symmetrize, "_strict_arrows", boom)
    monkeypatch.setattr(symmetrize, "build_classifier", boom)
    assert classifier_homology(2, 3)["betti"] == [1, 3, 2]
    # the entry count, and its refusal, come from the identity cells alone
    with pytest.raises(BudgetExceededError, match=r"^4354560 boundary entries need"):
        classifier_homology(2, 7, max_objects=400000)


# ---------------------------------------------------------------------------
# regular-CW evidence: the classifier is the face poset of a regular CW complex
# when every open lower interval is a sphere (Bjorner 1984); thinness is the
# length-2 case, and it is what makes the diamond signs well defined


REGULAR = [(2, 3), (3, 3), (2, 4), (4, 3)]


def _relation(P):
    R = np.zeros((len(P.objects), len(P.objects)), dtype=np.int64)
    for i, j in P.arrows:
        R[i, j] = 1
    return R


@pytest.mark.parametrize("n, k", REGULAR)
def test_classifier_is_thin(n, k):
    P = build_classifier(n, k)
    R = _relation(P)
    levels = np.array([sum(T.profile) for T in labeled_structures(n, k)])
    middle = R @ R  # middle[a, b] = #{m : a < m < b}
    length_two = (R == 1) & (levels[None, :] - levels[:, None] == 2)
    assert length_two.any() and (middle[length_two] == 2).all()
    # the level sum is the rank: every arrow raises it, and every nonminimal
    # object covers something one level below
    assert (levels[R.nonzero()[1]] > levels[R.nonzero()[0]]).all()
    covered = (R == 1) & (middle == 0)
    steps = levels[covered.nonzero()[1]] - levels[covered.nonzero()[0]]
    assert (steps == 1).all()


@pytest.mark.parametrize("n, k", REGULAR)
def test_lower_intervals_are_spheres(n, k):
    """P_{<c} has the integer homology of S^(r-1) for every object c of rank r.

    Relabeling the points is an automorphism of the classifier, so one
    object per profile covers them all.  The nerve oracle decides every
    interval within its reach.  The one beyond it, below the top profile
    at (4, 3), needs 1.5 GiB of dense nerve boundaries; it is a union of
    closed cells whose own lower intervals passed first, so its cellular
    homology is its homology.
    """
    P = build_classifier(n, k)
    firsts = {}
    for c, T in enumerate(labeled_structures(n, k)):
        firsts.setdefault(T.profile, c)
    for profile in sorted(firsts, key=sum):
        c, r = firsts[profile], sum(profile)
        below = sorted(i for i, j in P.arrows if j == c)
        index = {o: i for i, o in enumerate(below)}
        Q = ClassifierPoset(n, k, tuple(P.objects[o] for o in below),
                            tuple((index[i], index[j]) for i, j in P.arrows
                                  if i in index and j in index))
        N = nerve(Q)
        f = N.f_vector()
        if 8 * sum(a * b for a, b in zip(f, f[1:])) <= 64 << 20:
            H = homology(nerve_boundaries(N))
        else:
            assert (n, k, profile) == (4, 3, (3, 3))
            H = homology(diamond_complex(Q))
        sphere = (0,) if r == 0 else (2,) if r == 1 else (1,) + (0,) * (r - 2) + (1,)
        assert H.betti == sphere and not any(H.torsion), (profile, H)


# ---------------------------------------------------------------------------
# components


def test_components_examples():
    for k in (1, 2, 3, 4):
        assert components(1, k) == math.factorial(k)
    assert components(2, 3) == components(2, 0) == 1
    # the arrow-union oracle on hand-built posets: no object, and
    # {0, 1, 2}, {3, 4}, {5} from two arrows into one object and a pair
    assert components_by_arrows(ClassifierPoset(2, 0, (), ())) == 0
    assert components_by_arrows(ClassifierPoset(2, 0, tuple(range(6)),
                                                ((2, 0), (1, 0), (4, 3)))) == 3


# the classifier-sweep benchmark inputs, with dmax
_SWEEP = [(2, 3, None), (5, 2, None), (1, 5, None), (2, 5, 0), (2, 4, 1), (3, 3, 2), (4, 3, None)]


@pytest.mark.parametrize("n, k", [(n, k) for n in (1, 2, 3, 4) for k in range(6)
                                  if math.factorial(k) * n ** max(k - 1, 0) <= 20000])
def test_components_match_the_arrow_union(n, k):
    assert components(n, k) == components_by_arrows(build_classifier(n, k))


@pytest.mark.parametrize("n, k, dmax", _SWEEP)
def test_classifier_components_match_the_arrow_union(n, k, dmax):
    rep = classifier_homology(n, k, dmax)
    assert rep["components"] == components_by_arrows(build_classifier(n, k))
