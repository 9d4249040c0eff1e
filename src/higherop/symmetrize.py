"""Labeled-ordinal posets and the symmetrisation quotient.

An ordinal structure on the concrete set {1..k} is stored as the tuple
of labels in canonical order plus the canonical profile.  For two such
structures the identity map of {1..k} is a morphism exactly when, pair
by pair, the level weakly increases and strictly increases whenever the
pair changes orientation; this single comparison defines the arrow
relation of the classifier poset at arity k.

Symmetrising an operad over Ord(n) quotients the disjoint union of its
components over all labelings at each arity by the relations
(T, m_sigma(b; units)) ~ (S, b), one for every arrow sigma: T -> S.  By
the unit and associativity axioms, transport along a composite arrow is
the composite of the transports, m_{tau sigma}(b; units) =
m_sigma(m_tau(b; units); units), so a generating family of arrows gives
the same quotient as all of them.  The generators are the profile
increments inside one labeling, plus the moves: from each structure to
the componentwise-least structure above it with each other labeling.
Every arrow factors as one move followed by increments.  Relabeling
both ends of an arrow by a permutation of the labels gives an arrow, so
the moves are one family, those out of the identity labeling, relabeled
by each element of S_k.  The quotient is one union-find over the
generators, one family at a time, that numbers and counts the classes
and stops once an arity is one class.  It reads the transported
elements from the operad's tables; the one-point operad needs none,
and its classes are the components of the classifier poset.  The tests
compare it with the quotient over all arrows.

The labeled objects at each arity are numbered once, by _labelings:
permutation-major, profile-lexicographic.  The arrow relation, its
generating family and the quotient all read their permutations, pair
orientations and pair levels from that one table, and every returned
value is immutable afterwards.  The elements of an arity are numbered
object by object; the induced operad, the relabeling action and the unit
insertion are arithmetic on those numbers, and read every table entry by
the compiled id of its morphism (compile_base).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .operads import (
    BudgetExceededError,
    CompiledBase,
    FinBase,
    FinSetMorphism,
    OperadTable,
    OrdBase,
    compile_base,
    desymmetrize,
    endomorphism_operad,
    enumerate_operad_morphisms,
    sorted_distinct,
)


class WellDefinednessError(RuntimeError):
    """Two members of the same classes multiplied into different classes."""


@dataclass(frozen=True)
class LabeledOrdinal:
    """An ordinal structure on {1..k}: labels in canonical order + profile."""

    n: int
    labels: tuple[int, ...]
    profile: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "profile", tuple(self.profile))
        k = len(self.labels)
        if sorted(self.labels) != list(range(1, k + 1)):
            raise ValueError("labels must be a permutation of 1..k")
        if len(self.profile) != max(k - 1, 0):
            raise ValueError("profile length does not match the label count")
        if any(not 0 <= l < self.n for l in self.profile):
            raise ValueError("profile level out of range")


@dataclass(frozen=True)
class Labelings:
    """The labeled objects at one arity as read-only arrays.

    Object r * n^(k-1) + p carries permutation r and profile p, the order
    of labeled_objects.  Labels and positions count from 0 here, and the
    label pairs a < b go in the order of itertools.combinations.
    Relabeling by rho sends permutation r to the rank of rho after it.

    >>> t, objects = _labelings(2, 3), labeled_objects(2, 3)
    >>> r, p = divmod(14, len(t.profiles))  # object 14 at arity 3 over Ord(2)
    >>> objects[14], t.perms[r].tolist(), t.profiles[p].tolist()
    (LabeledOrdinal(n=2, labels=(2, 3, 1), profile=(1, 0)), [1, 2, 0], [1, 0])
    >>> rho = np.array([2, 1, 0])  # swap labels 1 and 3
    >>> objects[_perm_ranks(t, rho[t.perms[r]]) * len(t.profiles) + p]
    LabeledOrdinal(n=2, labels=(2, 1, 3), profile=(1, 0))
    >>> int(_profile_ranks(2, t.profiles[p]))  # the identity labeling of profile p is object p
    2
    """

    perms: np.ndarray  # (k!, k): position -> label
    pos: np.ndarray  # (k!, k): label -> position
    orient: np.ndarray  # (k!, pairs): does label a come before label b
    lo: np.ndarray  # (k!, pairs): the lesser of the two positions
    hi: np.ndarray  # (k!, pairs): the greater
    profiles: np.ndarray  # (n^(k-1), k-1), lexicographic
    level: np.ndarray  # (n^(k-1), k, k): level[p, i, j], i < j, is the least of p[i:j]


@functools.lru_cache(maxsize=None)
def _labelings(n: int, k: int) -> Labelings:
    """The one numbering of the labeled objects at arity k, with pair data."""
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)  # (1, 0) at k = 0
    pos = np.argsort(perms, axis=1)
    a, b = np.array(list(itertools.combinations(range(k), 2)), dtype=np.int64).reshape(-1, 2).T
    profiles = np.array(list(itertools.product(range(n), repeat=max(k - 1, 0))), dtype=np.int64)
    profiles = profiles.reshape(n ** max(k - 1, 0), max(k - 1, 0))
    # the least signed type that holds every level plus one keeps the generator moves lean
    level = np.zeros((len(profiles), k, k), dtype=np.min_scalar_type(-n - 1))
    for i, j in itertools.combinations(range(k), 2):
        level[:, i, j] = profiles[:, i:j].min(axis=1)
    t = Labelings(perms, pos, pos[:, a] < pos[:, b], np.minimum(pos[:, a], pos[:, b]),
                  np.maximum(pos[:, a], pos[:, b]), profiles, level)
    for arr in vars(t).values():
        arr.flags.writeable = False
    return t


def _perm_ranks(t: Labelings, perms: np.ndarray) -> np.ndarray:
    """The numbers in t.perms of permutations given as rows position -> label."""
    k = t.perms.shape[1]
    digits = k ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return np.searchsorted(t.perms @ digits, perms @ digits)  # lexicographic, so ascending


def _profile_ranks(n: int, profiles: np.ndarray) -> np.ndarray:
    """The numbers of profiles given as rows: their base-n values."""
    width = profiles.shape[-1]
    return profiles @ n ** np.arange(width - 1, -1, -1, dtype=np.int64)


def labeled_objects(n: int, k: int) -> list[LabeledOrdinal]:
    """All labeled structures at arity k: permutation-major, profile-lex."""
    t = _labelings(n, k)
    return [LabeledOrdinal(n, tuple(perm), tuple(prof))
            for perm in (t.perms + 1).tolist() for prof in t.profiles.tolist()]


@dataclass
class ClassifierPoset:
    """All labeled structures at one arity with all identity-carried arrows."""

    n: int
    k: int
    objects: tuple
    arrows: np.ndarray  # (A, 2) int32 rows (source index, target index), strict only

    def __post_init__(self) -> None:
        self.arrows = np.asarray(self.arrows, dtype=np.int32).reshape(-1, 2)


def build_classifier(n: int, k: int, max_objects: int = 20000) -> ClassifierPoset:
    """The arity-k classifier poset with its full arrow relation."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    count = math.factorial(k) * n ** max(k - 1, 0)
    if count > max_objects:
        raise BudgetExceededError(
            f"classifier at (n={n}, k={k}) has {count} objects "
            f"(budget {max_objects})"
        )
    return ClassifierPoset(n, k, tuple(labeled_objects(n, k)), _strict_arrows(n, k))


_ARROW_BLOCK = 1 << 22


def _strict_arrows(n: int, k: int) -> np.ndarray:
    """All pairs (i, j), i != j, with an identity-carried arrow, i-major.

    Pair by pair, the level of j must reach the level of i, plus one
    where the pair changes orientation.  Sources go in blocks of objects
    sharing a permutation, each one object or _ARROW_BLOCK comparisons.
    """
    t = _labelings(n, k)
    n_prof, n_pairs = len(t.profiles), t.orient.shape[1]
    n_obj = len(t.perms) * n_prof
    # each object's pair levels, one column per object
    levels = t.level[:, t.lo, t.hi].transpose(2, 1, 0).reshape(n_pairs, n_obj)
    rows = max(1, _ARROW_BLOCK // max(n_pairs * n_obj, 1))
    out = []
    for r in range(len(t.perms)):
        # the target's levels, less one on each pair it orients unlike r
        reach = levels - np.repeat(t.orient != t.orient[r], n_prof, axis=0).T
        for first in range(r * n_prof, (r + 1) * n_prof, rows):
            src = levels[:, first : min(first + rows, (r + 1) * n_prof)]
            above = np.ones((src.shape[1], n_obj), dtype=bool)
            for c in range(n_pairs):
                above &= reach[c] >= src[c, :, None]
            i, j = np.nonzero(above)
            i += first
            out.append(np.stack([i, j], axis=1)[i != j].astype(np.int32))
    return np.concatenate(out)


def classifier_dot(P: ClassifierPoset) -> str:
    """DOT digraph; nodes are labeled by permutation and profile."""
    lines = ["digraph classifier {"]
    for i, T in enumerate(P.objects):
        labs = "".join(map(str, T.labels))
        prof = "".join(map(str, T.profile))
        lines.append(f'  o{i} [label="{labs}|{prof}"];')
    for i, j in P.arrows.tolist():
        lines.append(f"  o{i} -> o{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# union-find


class UnionFind:
    """Union-find over 0..size-1 whose unions come as arrays of pairs.

    Union by size: a root is hooked only under a root of a class at least
    as large, so every tree has depth at most log2(size) and a root is
    found in that many gathers.  count is the number of classes: each
    root hooked under another is one class fewer.

    >>> uf = UnionFind(5)
    >>> uf.union([3, 1, 1], [0, 3, 1])  # the pair (1, 1) merges nothing
    >>> uf.labels().tolist(), uf.count  # classes numbered by least member
    ([0, 0, 1, 0, 2], 3)
    """

    def __init__(self, size: int):
        self.parent = np.arange(size, dtype=np.int64)
        self.size = np.ones(size, dtype=np.int64)
        self.count = size

    def _roots(self, xs: np.ndarray) -> np.ndarray:
        parent = self.parent
        roots = parent[xs]
        while True:
            up = parent[roots]
            if np.array_equal(up, roots):
                break
            roots = up
        parent[xs] = roots
        return roots

    def union(self, xs, ys) -> None:
        """Merge the classes of xs[t] and ys[t] for every t."""
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        parent, size = self.parent, self.size
        while xs.size:
            rx, ry = self._roots(xs), self._roots(ys)
            apart = rx != ry
            xs, ys, rx, ry = xs[apart], ys[apart], rx[apart], ry[apart]
            # hook the root that is less in (class size, index) under the
            # other; that order is strict, so no cycle can form
            flip = (size[rx] > size[ry]) | ((size[rx] == size[ry]) & (rx > ry))
            child = np.where(flip, ry, rx)
            # a child named by several pairs keeps one parent; the pairs
            # it lost are merged on the next pass
            parent[child] = np.where(flip, rx, ry)
            hooked = sorted_distinct(child)
            # a hooked root points at a root or at another hooked root, so
            # jumping pointers over the hooked roots alone brings each to
            # its new root; a tree grows by one level only where its class
            # at least doubles
            while True:
                up = parent[hooked]
                top = parent[up]
                if np.array_equal(up, top):
                    break
                parent[hooked] = top
            np.add.at(size, parent[hooked], size[hooked])
            self.count -= len(hooked)

    def labels(self) -> np.ndarray:
        """Each element's class number, classes in the order of their least members."""
        roots = self._roots(np.arange(len(self.parent)))
        _, first, inverse = np.unique(roots, return_index=True, return_inverse=True)
        return np.argsort(np.argsort(first))[inverse]


# ---------------------------------------------------------------------------
# the symmetrisation quotient


@dataclass
class SymArity:
    k: int
    object_count: int
    element_count: int
    class_count: int
    offsets: np.ndarray  # object index o -> number of its element 0; element b is offsets[o] + b
    class_of: np.ndarray  # element number -> class index; classes go by least member

    @functools.cached_property
    def classes(self) -> tuple:
        """Each class's members (object index, label index), in order."""
        members = [[] for _ in range(self.class_count)]
        for c, o, b in zip(self.class_of.tolist(), *(a.tolist() for a in _elements(self))):
            members[c].append((o, b))
        return tuple(map(tuple, members))


@dataclass
class SymResult:
    n: int
    K: int
    arities: dict
    operad: OperadTable | None = None
    action: dict | None = None  # arity -> {transposition: tuple of class images}
    welldef_checked: int = 0

    def class_counts(self) -> dict:
        return {k: ar.class_count for k, ar in sorted(self.arities.items())}


def symmetrize(
    A: OperadTable,
    K: int | None = None,
    build_operad: bool = True,
) -> SymResult:
    """Quotient A's components by the labeled-ordinal arrow relations.

    Returns, per arity up to K, the classes of pairs (labeling, element)
    under (T, m_sigma(b; units)) ~ (S, b) for arrows sigma: T -> S, with
    lexicographically least representatives.  The relations are applied
    along the generating arrows only; A must pass check_operad_axioms,
    which makes that the quotient over every arrow.  A hole on a
    transport the quotient reads raises ValueError.  When
    build_operad is set the induced symmetric operad (components per
    arity, relabeling action, substitution multiplication) is
    constructed, and every multiplication entry is computed from every
    combination of class members within the truncation;
    WellDefinednessError is raised when two combinations land in
    different classes.
    """
    if not isinstance(A.base, OrdBase):
        raise ValueError("symmetrize expects an operad over Ord(n)")
    n = A.base.n
    if K is None:
        K = A.K
    if K > A.K:
        raise ValueError("cannot symmetrize beyond the stored truncation")
    C = compile_base(A.base, A.K)
    arities = {}
    lo = 1 if A.base.constant_free else 0
    for k in range(lo, K + 1):
        arities[k] = _symmetrize_arity(n, k, *_table_transport(A, C, k))
    result = SymResult(n, K, arities)
    if build_operad:
        result.operad, result.welldef_checked = _sym_operad(A, C, result)
        result.action = _sym_action(result)
    return result


def _shape_id(C: CompiledBase, k: int) -> int:
    """The compiled id of the arity-k shape with profile 0; profile p has this id + p."""
    return [T.size for T in C.objects].index(k)


def _read(A: OperadTable, C: CompiledBase, ids: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """A's table entries: row j of idx indexes the table of morphism ids[j].
    The first row that reads a truncation hole raises ValueError."""
    out = np.empty(len(ids), dtype=np.int64)
    used, inverse = np.unique(ids, return_inverse=True)
    rows = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
    for m, r in zip(used.tolist(), rows):
        out[r] = A.mult[C.morphisms[m]][tuple(idx[r].T)]
    if (out < 0).any():
        j = int(np.argmax(out < 0))
        raise ValueError(
            f"the table of {C.morphisms[ids[j]]} has a hole at entry {tuple(idx[j].tolist())}"
        )
    return out


def _units(A: OperadTable, b: np.ndarray, k: int) -> np.ndarray:
    """Table indices (b; unit, ..., unit) with k units."""
    return np.column_stack([b, np.full((len(b), k), A.unit_index())])


def _runs(z: np.ndarray) -> np.ndarray:
    """0, 1, ..., z[0] - 1, then 0, 1, ..., z[1] - 1, and so on."""
    return np.arange(int(z.sum())) - np.repeat(np.cumsum(z) - z, z)


def _elements(arity: SymArity) -> tuple[np.ndarray, np.ndarray]:
    """Each element's object and label, by element number."""
    sizes = np.diff(arity.offsets, append=arity.element_count)
    return np.repeat(np.arange(arity.object_count), sizes), _runs(sizes)


_MAX_ELEMENTS = 200_000  # elements, over every labeling, of one arity


def _symmetrize_arity(n: int, k: int, sizes: np.ndarray, pull) -> SymArity:
    """The quotient at arity k over the generating arrows, family by family.

    sizes[p] counts the elements over profile p, under every labeling, and
    pull(src, dst, b) is m_sigma(b; units) over src for arrows sigma: src -> dst
    and elements b over dst.  Once the arity is one class, no transport is read.
    """
    t = _labelings(n, k)
    n_perm, n_prof = len(t.perms), len(t.profiles)
    total = n_perm * int(sizes.sum())
    if total > _MAX_ELEMENTS:
        raise BudgetExceededError(
            f"symmetrisation at arity {k} has {total} elements "
            f"(budget {_MAX_ELEMENTS})"
        )
    obj_sizes = np.tile(sizes, n_perm)
    offsets = np.cumsum(obj_sizes) - obj_sizes
    uf = UnionFind(total)
    for src, dst in _generator_arrows(n, k):
        if uf.count < 2:
            break
        # each arrow gives (src, m_sigma(b; units)) ~ (dst, b) for every
        # element b over dst
        z = sizes[dst % n_prof]
        arrow = np.repeat(np.arange(len(src)), z)
        src, dst, b = src[arrow], dst[arrow], _runs(z)
        uf.union(offsets[src] + pull(src, dst, b), offsets[dst] + b)
    return SymArity(k, n_perm * n_prof, total, uf.count, offsets, uf.labels())


def _table_transport(A: OperadTable, C: CompiledBase, k: int):
    """The sizes and pull of _symmetrize_arity from A's tables: the transports
    of each distinct sigma, for every b over its target, go once to flat[start[sigma]:]."""
    t = _labelings(A.base.n, k)
    first, n_prof = _shape_id(C, k), len(t.profiles)
    sizes = np.array([len(A.components.get(C.objects[first + p], ())) for p in range(n_prof)],
                     dtype=np.int64)
    start, flat = np.full(len(C.morphisms), -1), np.empty(0, dtype=np.int64)

    def pull(src, dst, b):
        nonlocal flat
        (r1, p1), (r2, p2) = divmod(src, n_prof), divmod(dst, n_prof)
        # sigma sends the position of each label in the source to its
        # position in the target
        sigma = C.find(first + p1, first + p2, C.code(t.pos[r2[:, None], t.perms[r1]]))
        new = sorted_distinct(sigma[start[sigma] < 0])
        z = sizes[C.target[new] - first]
        start[new] = len(flat) + np.cumsum(z) - z
        flat = np.concatenate([flat, _read(A, C, np.repeat(new, z), _units(A, _runs(z), k))])
        return flat[start[sigma] + b]

    return sizes, pull


def _generator_arrows(n: int, k: int):
    """The generating arrows at arity k, one family at a time.

    Yields (source, target) arrays of object indices, in the order of
    labeled_objects.  A family is either the +1 steps on one profile
    entry, for every labeling, or the moves: the arrows from every
    structure with labeling x to the least structure above it with each
    other labeling.  Composites of these reach every arrow, and no family
    has more arrows than there are objects.

    Relabeling both ends by rho keeps every pair's level and whether it
    changes orientation, so the arrows commute with S_k: the moves are
    computed once, out of the identity labeling, and relabeled by each x.
    When the identity has no move, as at n = 1, no labeling has one.

    >>> objects = labeled_objects(2, 3)
    >>> def name(i):  # labels|profile
    ...     return "".join(map(str, objects[i].labels + ("|",) + objects[i].profile))
    >>> moves = list(_generator_arrows(2, 3))[2:]  # after the two step families
    >>> [f"{name(i)}->{name(j)}" for i, j in zip(*moves[0])][:4]  # out of labeling 123
    ['123|00->132|01', '123|10->132|11', '123|00->213|10', '123|01->213|11']
    >>> [f"{name(i)}->{name(j)}" for i, j in zip(*moves[3])][:4]  # 231: rename 1->2, 2->3, 3->1
    ['231|00->213|01', '231|10->213|11', '231|00->321|10', '231|01->321|11']
    """
    if k < 2:
        return
    t = _labelings(n, k)
    n_perm, n_prof, n_pairs = len(t.perms), len(t.profiles), t.orient.shape[1]
    # spanning[m]: the rows r * n_pairs + c of the (m+1)(k-1-m) label
    # pairs c that span consecutive position m in permutation r
    spanning = [
        np.flatnonzero((t.lo <= m) & (m < t.hi)).reshape(n_perm, -1) for m in range(k - 1)
    ]
    strides = np.array([n ** (k - 2 - m) for m in range(k - 1)], dtype=np.int64)
    # the moves out of the identity labeling 0, to labeling g, from profile p
    # to profile q: digit m of q is the largest bound among the pairs
    # spanning position m
    bounds = t.level[:, t.lo[0], t.hi[0]].T[None] + (t.orient[0] != t.orient)[:, :, None]
    bounds = bounds.reshape(n_perm * n_pairs, n_prof)
    digits = np.stack([bounds[rows].max(axis=1) for rows in spanning], axis=2)
    valid = (digits <= n - 1).all(axis=2)
    valid[0] = False
    g, p = np.nonzero(valid)
    q = digits[valid] @ strides

    for m in range(k - 1):  # +1 on profile entry m, for every labeling
        below = np.flatnonzero(t.profiles[:, m] < n - 1)
        src = (np.arange(n_perm, dtype=np.int64)[:, None] * n_prof + below).ravel()
        yield src, src + strides[m]
    if len(g):  # the identity's moves relabeled by x: labeling g goes to x after g
        for x in range(n_perm):
            yield x * n_prof + p, _perm_ranks(t, t.perms[x][t.perms])[g] * n_prof + q


def terminal_class_counts(n: int, kmax: int) -> dict:
    """Class counts of the symmetrised one-point operad, arity by arity.

    The quotient with one element per labeling, whose transports carry
    no data, so no table is built; this is the route for arities whose
    full table would not fit the budget.  Cross-checked against
    symmetrize(make_ass(...)) and the all-arrows quotient in the tests.

    >>> terminal_class_counts(1, 3), terminal_class_counts(2, 3)  # k! classes, then one
    ({0: 1, 1: 1, 2: 2, 3: 6}, {0: 1, 1: 1, 2: 1, 3: 1})
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return {k: _terminal_arity(n, k).class_count for k in range(kmax + 1)}


def _terminal_arity(n: int, k: int) -> SymArity:
    """The one-point operad's quotient at arity k: the classifier's components."""
    sizes = np.ones(n ** max(k - 1, 0), dtype=np.int64)
    return _symmetrize_arity(n, k, sizes, lambda src, dst, b: b)


# ---------------------------------------------------------------------------
# the induced symmetric operad


def _zero_pull(A, C, n, k, arity) -> tuple:
    """Each element's permutation, profile and label, and its label once
    transported down to the all-zero profile over the same labeling."""
    obj, lab = _elements(arity)
    r, p = divmod(obj, n ** max(k - 1, 0))
    pulled = lab.copy()
    moved = np.flatnonzero(p)
    if len(moved):
        first = _shape_id(C, k)
        zeta = C.find(first, first + p[moved], C.code(np.tile(np.arange(k), (len(moved), 1))))
        pulled[moved] = _read(A, C, zeta, _units(A, lab[moved], k))
    return r, p, lab, pulled


_COMBINATION_BLOCK = 1 << 16  # member combinations substituted at once


def _substitute(A, C, result: SymResult, members: dict, f: FinSetMorphism, grid: np.ndarray):
    """The class at arity k = |source| of each multiplication instance along f.

    Row j of grid holds element numbers: one at arity m = |target|, moved
    to the all-zero profile, then one at the arity of each fiber.  The
    composite takes the arguments' labels and profiles block by block, in
    the order of the fibers in the outer labeling, with 0 between blocks.
    """
    k, m, n = f.source, f.target, result.n
    fmap = np.array(f.map, dtype=np.int64)
    z = np.bincount(fmap, minlength=m)  # the fiber sizes
    rows = np.arange(len(grid))
    t_m, t_k = _labelings(n, m), _labelings(n, k)
    r_s, _, _, b = (a[grid[:, 0]] for a in members[m])
    pos_s = t_m.pos[r_s]
    width = z[t_m.perms[r_s]]  # the blocks, by position in the outer labeling
    start = np.take_along_axis(np.cumsum(width, axis=1) - width, pos_s, axis=1)
    pos = np.empty((len(grid), k), dtype=np.int64)  # each composite label's position
    profile = np.zeros((len(grid), max(k - 1, 0)), dtype=np.int64)
    args = np.empty((len(grid), m), dtype=np.int64)
    for i, size in enumerate(z.tolist()):
        r, p, args[:, i], _ = (a[grid[:, 1 + i]] for a in members[size])
        t = _labelings(n, size)
        # the j-th label of fiber i is label j of argument i
        pos[:, fmap == i] = start[:, i:i + 1] + t.pos[r]
        for q in range(size - 1):
            profile[rows, start[:, i] + q] = t.profiles[p, q]
    # sigma sends each composite position to the outer position of its block
    sigma = np.empty_like(pos)
    np.put_along_axis(sigma, pos, pos_s[:, fmap], axis=1)
    p_k = _profile_ranks(n, profile)
    ids = C.find(_shape_id(C, k) + p_k, _shape_id(C, m), C.code(sigma))
    value = _read(A, C, ids, np.column_stack([b, np.take_along_axis(args, t_m.perms[r_s], 1)]))
    composite = _perm_ranks(t_k, np.argsort(pos, axis=1)) * len(t_k.profiles) + p_k
    target = result.arities[k]
    return target.class_of[target.offsets[composite] + value]


def _sym_operad(A: OperadTable, C: CompiledBase, result: SymResult) -> tuple[OperadTable, int]:
    """Assemble the symmetric operad structure on the classes.

    Every entry is computed from every combination of class members, in
    blocks of _COMBINATION_BLOCK, and all of them must land in the same
    class.  Returns the operad and the number of combinations computed.
    """
    n = result.n
    base = FinBase(constant_free=A.base.constant_free)
    components = {k: tuple(f"c{j}" for j in range(arity.class_count))
                  for k, arity in result.arities.items()}
    members = {k: _zero_pull(A, C, n, k, arity) for k, arity in result.arities.items()}
    C_F = compile_base(base, result.K)
    mult = {}
    checked = 0
    for m, f in enumerate(C_F.morphisms):
        arities = [C_F.objects[o] for o in C_F.axes(m)]  # an object of FinSet is its size
        shape = tuple(len(components[j]) for j in arities)
        counts = [result.arities[j].element_count for j in arities]
        tab = np.full(shape, -1, dtype=np.int32)
        entries = tab.reshape(-1)
        for lo in range(0, math.prod(counts), _COMBINATION_BLOCK):
            combination = np.arange(lo, min(lo + _COMBINATION_BLOCK, math.prod(counts)))
            # one element at the target's arity, then one at each fiber's
            grid = np.stack(np.unravel_index(combination, counts), axis=1)
            got = _substitute(A, C, result, members, f, grid)
            entry = np.ravel_multi_index(
                tuple(result.arities[j].class_of[grid[:, c]] for c, j in enumerate(arities)), shape)
            unset = entries[entry] < 0
            entries[entry[unset]] = got[unset]
            bad = np.flatnonzero(entries[entry] != got)
            if len(bad):
                raise WellDefinednessError(
                    f"multiplication along {f} is not constant on classes: elements "
                    f"{grid[bad[0]].tolist()} gave class {got[bad[0]]}, others {entries[entry[bad[0]]]}")
            checked += len(grid)
        mult[f] = tab
    unit = result.arities[1].class_of[A.unit_index()]  # arity 1 has one object
    operad = OperadTable(base, result.K, components, components[1][unit], mult,
                         f"sym_{n}({A.name})")
    return operad, checked


def _sym_action(result: SymResult) -> dict:
    """Class-level relabeling action, verified well-defined member by member."""
    action = {}
    for k, arity in result.arities.items():
        if k < 2:
            continue
        t = _labelings(result.n, k)
        obj, lab = _elements(arity)
        r, p = divmod(obj, len(t.profiles))
        _, reps = np.unique(arity.class_of, return_index=True)  # each class's least member
        table = {}
        for rho in t.perms:
            moved = _perm_ranks(t, rho[t.perms])[r] * len(t.profiles) + p
            image = arity.class_of[arity.offsets[moved] + lab]
            key = tuple((rho + 1).tolist())
            if (image != image[reps][arity.class_of]).any():
                raise WellDefinednessError(f"relabeling {key} splits a class at arity {k}")
            table[key] = tuple(image[reps].tolist())
        action[k] = table
    return action


# ---------------------------------------------------------------------------
# adjunction and algebras


def sym_result_to_json(result: SymResult) -> dict:
    """Partitions of the symmetrisation, arity by arity.

    Members are pairs [labeling index, element index]; labeling indices
    refer to the permutation-major, profile-lexicographic enumeration.
    """
    return {
        "n": result.n,
        "K": result.K,
        "arities": {
            str(k): {
                "object_count": ar.object_count,
                "element_count": ar.element_count,
                "classes": [[list(member) for member in cls] for cls in ar.classes],
            }
            for k, ar in sorted(result.arities.items())
        },
    }


@dataclass
class AdjunctionReport:
    sym_hom_count: int
    des_hom_count: int
    bijection: bool

    @property
    def ok(self) -> bool:
        return self.sym_hom_count == self.des_hom_count and self.bijection


def unit_insertion(A: OperadTable, result: SymResult):
    """The comparison map: an element of A(T) to its class at arity |T|.

    Returns a dict T -> tuple of class indices, one per label of A(T);
    T carries the identity labeling, object number (profile rank of T).
    """
    out = {}
    for T in A.base.objects(result.K):
        arity = result.arities.get(T.size)
        if arity is None:
            continue
        start = arity.offsets[_profile_ranks(result.n, np.array(T.profile, dtype=np.int64))]
        out[T] = tuple(arity.class_of[start:start + len(A.components[T])].tolist())
    return out


def _transfer(A: OperadTable, result: SymResult, B: OperadTable, g) -> tuple:
    """Compose a morphism sym(A) -> B with the unit insertion A -> des(sym A)."""
    g_maps = dict(g.components)
    return tuple((T, tuple(g_maps[T.size][c] for c in classes))
                 for T, classes in unit_insertion(A, result).items())


def check_adjunction(A: OperadTable, B: OperadTable) -> AdjunctionReport:
    """Count morphisms on both sides of sym -| des and verify the bijection.

    Every morphism sym(A) -> B transfers along the unit insertion to a
    morphism A -> des(B); the transfer must be injective and hit every
    morphism on the des side.
    """
    if not isinstance(A.base, OrdBase) or not isinstance(B.base, FinBase):
        raise ValueError("expected A over Ord(n) and B over FinSet")
    n = A.base.n
    result = symmetrize(A, A.K)
    sym_homs = enumerate_operad_morphisms(result.operad, B)
    des_homs = enumerate_operad_morphisms(A, desymmetrize(B, n))
    transferred = [_transfer(A, result, B, g) for g in sym_homs]
    des_set = {phi.components for phi in des_homs}
    bijection = (
        len(set(transferred)) == len(transferred)
        and set(transferred) == des_set
    )
    return AdjunctionReport(len(sym_homs), len(des_homs), bijection)


def algebra_equivalence(A: OperadTable, X) -> AdjunctionReport:
    """Compare algebra structures on X before and after symmetrisation.

    An algebra on X is a morphism into the endomorphism operad of X, so
    this is the adjunction check with End_X as the target: des_hom_count
    counts the algebras of A, sym_hom_count those of sym(A).
    """
    end = endomorphism_operad(tuple(X), A.K, constant_free=A.base.constant_free)
    return check_adjunction(A, end)
