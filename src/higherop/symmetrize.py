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
increments inside one labeling, plus, for each source and each other
target labeling, the arrow to the componentwise-least structure above
it; every arrow factors as one such minimal arrow followed by
increments.  The quotient is a union-find over the generators, one
family at a time, with the transported elements read from the operad's
tables.  The tests compare it with the quotient over all arrows.

The labeled objects at each arity are numbered once, by _labelings:
permutation-major, profile-lexicographic.  The arrow relation, its
generating family and the quotient all read their permutations, pair
orientations and pair levels from that one table, and every returned
value is immutable afterwards.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .ordinals import NOrdinal, OrdinalMorphism, terminal_ordinal
from .operads import (
    BudgetExceededError,
    FinBase,
    FinSetMorphism,
    OperadTable,
    OrdBase,
    base_morphisms,
    desymmetrize,
    endomorphism_operad,
    enumerate_operad_morphisms,
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

    @property
    def k(self) -> int:
        return len(self.labels)

    def shape(self) -> NOrdinal:
        """The underlying canonical ordinal (labels forgotten)."""
        return NOrdinal(self.n, self.profile, self.k)

    def position(self, label: int) -> int:
        return self.labels.index(label)


@dataclass(frozen=True)
class Labelings:
    """The labeled objects at one arity as read-only arrays.

    Object r * n^(k-1) + p carries permutation r and profile p, the order
    of labeled_objects.  Labels and positions count from 0 here, and the
    label pairs a < b go in the order of itertools.combinations.
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


def labeled_objects(n: int, k: int) -> list[LabeledOrdinal]:
    """All labeled structures at arity k: permutation-major, profile-lex."""
    t = _labelings(n, k)
    return [LabeledOrdinal(n, tuple(perm), tuple(prof))
            for perm in (t.perms + 1).tolist() for prof in t.profiles.tolist()]


def arrow_morphism(T: LabeledOrdinal, S: LabeledOrdinal) -> OrdinalMorphism:
    """The identity-carried arrow as a morphism of canonical ordinals."""
    pos_s = {lab: p for p, lab in enumerate(S.labels)}
    return OrdinalMorphism(
        T.shape(), S.shape(), tuple(pos_s[lab] for lab in T.labels)
    )


def relabel(T: LabeledOrdinal, rho: dict) -> LabeledOrdinal:
    """Rename every label by rho; the canonical shape is unchanged."""
    return LabeledOrdinal(T.n, tuple(rho[lab] for lab in T.labels), T.profile)


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
    found in that many gathers.
    """

    def __init__(self, size: int):
        self.parent = np.arange(size, dtype=np.int64)
        self.size = np.ones(size, dtype=np.int64)

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
            # deduplicated by hand: np.unique would import numpy.ma on its
            # first call, which costs more than most unions
            hooked = np.sort(child)
            hooked = hooked[np.diff(hooked, prepend=-1) != 0]
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

    def classes(self) -> list[list[int]]:
        """The classes, each sorted, in the order of their least members."""
        n = len(self.parent)
        roots = self._roots(np.arange(n))
        least = np.empty(n, dtype=np.int64)
        uniq, first = np.unique(roots, return_index=True)
        least[uniq] = first
        key = least[roots]
        order = np.argsort(key, kind="stable")
        cuts = np.flatnonzero(np.diff(key[order])) + 1
        return [c.tolist() for c in np.split(order, cuts)] if n else []


# ---------------------------------------------------------------------------
# the symmetrisation quotient


@dataclass
class SymArity:
    k: int
    object_count: int
    element_count: int
    classes: tuple  # tuple of tuples of (object index, label index)
    class_of: dict  # (object index, label index) -> class index


@dataclass
class SymResult:
    n: int
    K: int
    arities: dict
    operad: OperadTable | None = None
    action: dict | None = None  # arity -> {transposition: tuple of class images}
    welldef_checked: int = 0

    def class_counts(self) -> dict:
        return {k: len(ar.classes) for k, ar in sorted(self.arities.items())}


def symmetrize(
    A: OperadTable,
    K: int | None = None,
    build_operad: bool = True,
    max_elements: int = 200000,
    shuffle_seed: int | None = None,
) -> SymResult:
    """Quotient A's components by the labeled-ordinal arrow relations.

    Returns, per arity up to K, the classes of pairs (labeling, element)
    under (T, m_sigma(b; units)) ~ (S, b) for arrows sigma: T -> S, with
    lexicographically least representatives.  The relations are applied
    along the generating arrows only; A must pass check_operad_axioms,
    which makes that the quotient over every arrow.  A truncation hole
    on a generator's transport entry raises ValueError.  When
    build_operad is set the induced symmetric operad (components per
    arity, relabeling action, substitution multiplication) is
    constructed, and every multiplication entry is computed from every
    combination of class members within the truncation;
    WellDefinednessError is raised when two combinations land in
    different classes.
    shuffle_seed permutes the merge order (the result must not change).
    """
    if not isinstance(A.base, OrdBase):
        raise ValueError("symmetrize expects an operad over Ord(n)")
    n = A.base.n
    if K is None:
        K = A.K
    if K > A.K:
        raise ValueError("cannot symmetrize beyond the stored truncation")
    arities = {}
    lo = 1 if A.base.constant_free else 0
    for k in range(lo, K + 1):
        arities[k] = _symmetrize_arity(A, n, k, max_elements, shuffle_seed)
    result = SymResult(n, K, arities)
    if build_operad:
        result.operad, result.welldef_checked = _sym_operad(A, result)
        result.action = _sym_action(A, result)
    return result


def _symmetrize_arity(A, n, k, max_elements, shuffle_seed):
    t = _labelings(n, k)
    shapes = [NOrdinal(n, prof, k) for prof in map(tuple, t.profiles.tolist())]
    sizes = np.array([len(A.components.get(s, ())) for s in shapes], dtype=np.int64)
    n_perm, n_prof = len(t.perms), len(shapes)
    total = n_perm * int(sizes.sum())
    if total > max_elements:
        raise BudgetExceededError(
            f"symmetrisation at arity {k} has {total} elements "
            f"(budget {max_elements})"
        )
    # elements are numbered object by object, in the order of labeled_objects
    obj_sizes = np.tile(sizes, n_perm)
    offsets = np.cumsum(obj_sizes) - obj_sizes

    # an arrow's sigma is fixed by the two profiles and the relative
    # permutation of the labelings, so each distinct sigma is built and
    # its transport column read once; start[key] is where the column of
    # the sigma with that key starts in flat
    digits = k ** np.arange(k - 1, -1, -1, dtype=np.int64)
    units = (A.unit_index(),) * k
    start, flat = {}, np.empty(0, dtype=np.int64)
    uf = UnionFind(total)
    for src, dst in _generator_arrows(n, k, shuffle_seed):
        (r1, p1), (r2, p2) = divmod(src, n_prof), divmod(dst, n_prof)
        sigma_map = t.pos[r2[:, None], t.perms[r1]]
        keys, first, inverse = np.unique(
            ((sigma_map @ digits) * n_prof + p1) * n_prof + p2,
            return_index=True, return_inverse=True,
        )
        for key, i in zip(keys.tolist(), first.tolist()):
            if key not in start:
                sigma = OrdinalMorphism(
                    shapes[p1[i]], shapes[p2[i]], tuple(sigma_map[i].tolist())
                )
                transports = A.mult[sigma][(slice(None),) + units]
                if (transports < 0).any():  # _entry names the first hole
                    _entry(A, sigma, (int(np.argmax(transports < 0)),) + units)
                start[key] = len(flat)
                flat = np.concatenate([flat, transports])
        at = np.fromiter(map(start.get, keys.tolist()), np.int64, len(keys))[inverse]
        # each arrow gives (src, m_sigma(b; units)) ~ (dst, b) for every
        # element b over dst
        z = sizes[p2]
        b = np.arange(int(z.sum())) - np.repeat(np.cumsum(z) - z, z)
        uf.union(
            np.repeat(offsets[src], z) + flat[np.repeat(at, z) + b],
            np.repeat(offsets[dst], z) + b,
        )
    obj_of = np.repeat(np.arange(n_perm * n_prof), obj_sizes)
    members = list(zip(obj_of.tolist(), (np.arange(total) - offsets[obj_of]).tolist()))
    classes = tuple(tuple(members[e] for e in cls) for cls in uf.classes())
    class_of = {m: ci for ci, cls in enumerate(classes) for m in cls}
    return SymArity(k, n_perm * n_prof, total, classes, class_of)


def _generator_arrows(n: int, k: int, shuffle_seed):
    """The generating arrows at arity k, one family at a time.

    Yields (source, target) arrays of object indices, in the order of
    labeled_objects.  A family is either the +1 steps on one profile
    entry, for every labeling, or the arrows from every structure with
    labeling x to the least structure above it with each other labeling.
    Composites of these reach every arrow, and no family has more arrows
    than there are objects.  shuffle_seed shuffles the order of the
    families and of the arrows inside each.
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

    rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
    keys = [("step", m) for m in range(k - 1)] + [("move", x) for x in range(n_perm)]
    if rng is not None:
        rng.shuffle(keys)
    for kind, x in keys:
        if kind == "step":  # +1 on profile entry x, for every labeling
            below = np.flatnonzero(t.profiles[:, x] < n - 1)
            src = (np.arange(n_perm, dtype=np.int64)[:, None] * n_prof + below).ravel()
            dst = src + strides[x]
        else:
            # labeling x to the least structure above it, for every labeling:
            # digit m is the largest bound among the pairs spanning position m
            bounds = t.level[:, t.lo[x], t.hi[x]].T[None] + (t.orient[x] != t.orient)[:, :, None]
            bounds = bounds.reshape(n_perm * n_pairs, n_prof)
            digits = np.stack([bounds[rows].max(axis=1) for rows in spanning], axis=2)
            valid = (digits <= n - 1).all(axis=2)
            valid[x] = False
            r2, prof = np.nonzero(valid)
            src, dst = x * n_prof + prof, r2 * n_prof + digits[valid] @ strides
        if rng is not None:
            order = list(range(len(src)))
            rng.shuffle(order)
            src, dst = src[order], dst[order]
        yield src, dst


def _fast_singleton_classes(n, k, shuffle_seed):
    """Classes of labelings under the generating arrows, without tables.

    This is the quotient of a one-point operad, whose transports carry
    no data; each family is unioned as it comes, so the
    k!(k!-1)n^(k-1) arrows are never held at once.
    """
    uf = UnionFind(math.factorial(k) * n ** max(k - 1, 0))
    for src, dst in _generator_arrows(n, k, shuffle_seed):
        uf.union(src, dst)
    return uf.classes()


def terminal_class_counts(
    n: int, kmax: int, max_elements: int = 200000, shuffle_seed: int | None = None
) -> dict:
    """Class counts of the symmetrised one-point operad, arity by arity.

    Works directly on labelings (one element per labeling), so no
    multiplication tables are materialised; this is the route for arities
    whose full table would not fit the budget.  Cross-checked against
    symmetrize(make_ass(...)) in the tests.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    counts = {}
    for k in range(kmax + 1):
        total = math.factorial(k) * n ** max(k - 1, 0)
        if total > max_elements:
            raise BudgetExceededError(
                f"arity {k} has {total} labelings (budget {max_elements})"
            )
        counts[k] = len(_fast_singleton_classes(n, k, shuffle_seed))
    return counts


# ---------------------------------------------------------------------------
# the induced symmetric operad


def _entry(A: OperadTable, sigma, idx: tuple) -> int:
    """The element at one table entry; a truncation hole is an error."""
    value = int(A.mult[sigma][idx])
    if value < 0:
        raise ValueError(f"the table of {sigma} has a hole at entry {idx}")
    return value


def _zero_pull(A: OperadTable, T: LabeledOrdinal, label_idx: int):
    """Transport an element down to the all-zero profile over the same labels."""
    if T.k <= 1 or all(l == 0 for l in T.profile):
        return T, label_idx
    flat = LabeledOrdinal(T.n, T.labels, (0,) * (T.k - 1))
    zeta = OrdinalMorphism(flat.shape(), T.shape(), tuple(range(T.k)))
    return flat, _entry(A, zeta, (label_idx,) + (A.unit_index(),) * T.k)


def _substitute(A, result: SymResult, f: FinSetMorphism, outer, args):
    """One multiplication instance from explicit member choices.

    outer is (LabeledOrdinal at arity m with the all-zero profile, label
    index), a member after _zero_pull; args[i] is the member
    (LabeledOrdinal at arity |fiber i|, label index).  Returns the class
    of the composite at arity k.
    """
    k, m, n = f.source, f.target, result.n
    S, b_idx = outer
    pos_s = {lab: p for p, lab in enumerate(S.labels)}

    # label x is label rank[i] of the argument on its fiber i; the composite
    # orders labels by the position of that fiber in S, then by the
    # position inside the argument
    keys = {}
    rank = [0] * m
    for x in range(1, k + 1):
        i = f.map[x - 1]
        rank[i] += 1
        keys[x] = (pos_s[i + 1], args[i][0].position(rank[i]))
    order = sorted(keys, key=keys.get)

    # neighbours from different fibers meet at level 0; inside a fiber
    # they meet at the argument's level between their positions
    profile = []
    for x, y in zip(order, order[1:]):
        (s, px), (t, py) = keys[x], keys[y]
        Ti = args[S.labels[s] - 1][0]
        profile.append(min(Ti.profile[px:py]) if s == t else 0)
    R = LabeledOrdinal(n, tuple(order), tuple(profile))

    sigma = OrdinalMorphism(R.shape(), S.shape(), tuple(keys[x][0] for x in order))
    a_indices = tuple(args[S.labels[q] - 1][1] for q in range(m))
    value = _entry(A, sigma, (b_idx,) + a_indices)
    _, index = _labeled_index(n, k)
    return result.arities[k].class_of[(index[R], value)]


@functools.lru_cache(maxsize=None)
def _labeled_index(n: int, k: int):
    objs = tuple(labeled_objects(n, k))
    return objs, {T: i for i, T in enumerate(objs)}


def _sym_operad(A: OperadTable, result: SymResult) -> tuple[OperadTable, int]:
    """Assemble the symmetric operad structure on the classes.

    Every entry is computed from every combination of class members.  A
    class lists its representative first, so the first combination sets
    the entry and every later one must land in the same class.  Returns
    the operad and the number of combinations computed.
    """
    n = result.n
    base = FinBase(constant_free=A.base.constant_free)
    K = result.K
    components = {}
    members = {}
    pulled = {}  # members[k] moved to the all-zero profile, member by member
    for k, arity in result.arities.items():
        components[k] = tuple(f"c{j}" for j in range(len(arity.classes)))
        objects = _labeled_index(n, k)[0]
        members[k] = [
            [(objects[o_idx], lab) for o_idx, lab in cls] for cls in arity.classes
        ]
        pulled[k] = [[_zero_pull(A, *member) for member in cls] for cls in members[k]]
    mult = {}
    checked = 0
    for f in base_morphisms(base, K):
        k, m = f.source, f.target
        fib_sizes = [len([x for x in f.map if x == i]) for i in range(m)]
        shape = (len(components[m]),) + tuple(len(components[s]) for s in fib_sizes)
        tab = np.empty(shape, dtype=np.int32)
        for entry in itertools.product(*(range(s) for s in shape)):
            b_c, a_cs = entry[0], entry[1:]
            expected = None
            for (outer, pulled_outer), *args in itertools.product(
                zip(members[m][b_c], pulled[m][b_c]),
                *(members[fib_sizes[i]][c] for i, c in enumerate(a_cs)),
            ):
                got = _substitute(A, result, f, pulled_outer, args)
                checked += 1
                if expected is None:
                    expected = tab[entry] = got
                elif got != expected:
                    raise WellDefinednessError(
                        f"multiplication along {f} is not constant on "
                        f"classes: entry {entry} with members "
                        f"outer={outer} args={args} gave class {got}, "
                        f"the representatives gave {expected}"
                    )
        mult[f] = tab
    unit_arity = result.arities[1]
    unit_class = unit_arity.class_of[(0, A.label_index(terminal_ordinal(n), A.unit))]
    operad = OperadTable(
        base, K, components, components[1][unit_class], mult, f"sym_{n}({A.name})"
    )
    return operad, checked


def _sym_action(A: OperadTable, result: SymResult) -> dict:
    """Class-level relabeling action, verified well-defined member by member."""
    action = {}
    for k, arity in result.arities.items():
        if k < 2:
            continue
        objects, obj_index = _labeled_index(result.n, k)
        table = {}
        for rho in itertools.permutations(range(1, k + 1)):
            renaming = {x: rho[x - 1] for x in range(1, k + 1)}
            images = [None] * len(arity.classes)
            for ci, members in enumerate(arity.classes):
                for o_idx, lab in members:
                    image = arity.class_of[
                        (obj_index[relabel(objects[o_idx], renaming)], lab)
                    ]
                    if images[ci] is None:
                        images[ci] = image
                    elif images[ci] != image:
                        raise WellDefinednessError(
                            f"relabeling {rho} splits class {ci} at arity {k}"
                        )
            table[rho] = tuple(images)
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
    T is labeled by the identity labeling of {1..|T|}.
    """
    out = {}
    for T in A.base.objects(result.K):
        k = T.size
        if k not in result.arities:
            continue
        _, index = _labeled_index(result.n, k)
        ident = LabeledOrdinal(result.n, tuple(range(1, k + 1)), T.profile)
        o_idx = index[ident]
        out[T] = tuple(
            result.arities[k].class_of[(o_idx, lab)]
            for lab in range(len(A.components[T]))
        )
    return out


def _transfer(A: OperadTable, result: SymResult, B: OperadTable, g) -> tuple:
    """Compose a morphism sym(A) -> B with the unit insertion A -> des(sym A)."""
    from .operads import _object_order

    eta = unit_insertion(A, result)
    g_maps = dict(g.components)
    comps = []
    for T in _object_order(A.base, A.base.objects(result.K)):
        comps.append((T, tuple(g_maps[T.size][c] for c in eta[T])))
    return tuple(comps)


def check_adjunction(
    A: OperadTable, B: OperadTable, max_nodes: int = 2_000_000
) -> AdjunctionReport:
    """Count morphisms on both sides of sym -| des and verify the bijection.

    Every morphism sym(A) -> B transfers along the unit insertion to a
    morphism A -> des(B); the transfer must be injective and hit every
    morphism on the des side.
    """
    if not isinstance(A.base, OrdBase) or not isinstance(B.base, FinBase):
        raise ValueError("expected A over Ord(n) and B over FinSet")
    n = A.base.n
    result = symmetrize(A, A.K)
    sym_homs = enumerate_operad_morphisms(result.operad, B, max_nodes=max_nodes)
    des_homs = enumerate_operad_morphisms(A, desymmetrize(B, n), max_nodes=max_nodes)
    transferred = [_transfer(A, result, B, g) for g in sym_homs]
    des_set = {phi.components for phi in des_homs}
    bijection = (
        len(set(transferred)) == len(transferred)
        and set(transferred) == des_set
    )
    return AdjunctionReport(len(sym_homs), len(des_homs), bijection)


def algebra_equivalence(
    A: OperadTable, X, max_nodes: int = 2_000_000
) -> AdjunctionReport:
    """Compare algebra structures on X before and after symmetrisation.

    An algebra on X is a morphism into the endomorphism operad of X, so
    this is the adjunction check with End_X as the target: des_hom_count
    counts the algebras of A, sym_hom_count those of sym(A).
    """
    end = endomorphism_operad(tuple(X), A.K, constant_free=A.base.constant_free)
    return check_adjunction(A, end, max_nodes=max_nodes)
