"""Labeled-ordinal posets and the symmetrisation quotient.

An ordinal structure on the concrete set {1..k} is stored as the tuple
of labels in canonical order plus the canonical profile.  For two such
structures the identity map of {1..k} is a morphism exactly when, pair
by pair, the level weakly increases and strictly increases whenever the
pair changes orientation; this single comparison defines the arrow
relation of the classifier poset at arity k.

Symmetrising an operad over Ord(n) quotients the disjoint union of its
components over all labelings at each arity by the relations
(T, m_sigma(b; units)) ~ (S, b), one for every arrow sigma: T -> S.
The quotient is computed by union-find.  For operads whose components
are single points the relations carry no data, so the quotient only
needs a generating family of arrows: profile increments inside one
labeling, plus, for each source and each target labeling, the arrow to
the componentwise-least structure above it.  Every arrow factors as one
such minimal arrow followed by increments, and the general path (all
arrows, with the transported elements) cross-checks the fast one in the
tests.

Poset construction is independent per object pair and safe to farm out;
the union-find runs single-worker per arity, and every returned value
is immutable afterwards.
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


def labeled_objects(n: int, k: int) -> list[LabeledOrdinal]:
    """All labeled structures at arity k: permutation-major, profile-lex."""
    if k == 0:
        return [LabeledOrdinal(n, (), ())]
    out = []
    for perm in itertools.permutations(range(1, k + 1)):
        for prof in itertools.product(range(n), repeat=k - 1):
            out.append(LabeledOrdinal(n, perm, prof))
    return out


def pair_state(T: LabeledOrdinal) -> dict:
    """(a, b) -> (a_before_b, level) for every label pair a < b."""
    pos = {lab: p for p, lab in enumerate(T.labels)}
    out = {}
    for a in range(1, T.k + 1):
        for b in range(a + 1, T.k + 1):
            pa, pb = pos[a], pos[b]
            lo, hi = (pa, pb) if pa < pb else (pb, pa)
            out[(a, b)] = (pa < pb, min(T.profile[lo:hi]) if T.k > 1 else 0)
    return out


def _pair_arrays(objects, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Orientation bits and levels of every label pair, one row per object."""
    pairs = [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
    orient = np.zeros((len(objects), len(pairs)), dtype=np.int16)
    levels = np.zeros((len(objects), len(pairs)), dtype=np.int16)
    for r, T in enumerate(objects):
        state = pair_state(T)
        for c, pair in enumerate(pairs):
            orient[r, c], levels[r, c] = state[pair]
    return orient, levels


def _arrows_from(orient: np.ndarray, levels: np.ndarray, i: int) -> np.ndarray:
    """Mask of the objects j with an identity-carried arrow i -> j.

    Pair by pair, the level of j must reach the level of i, plus one
    where the pair changes orientation.
    """
    return (levels >= levels[i] + (orient != orient[i])).all(axis=1)


def arrow_leq(T: LabeledOrdinal, S: LabeledOrdinal) -> bool:
    """Is the identity of {1..k} a morphism T -> S?"""
    if T.n != S.n or T.k != S.k:
        raise ValueError("labeled structures are not comparable")
    orient, levels = _pair_arrays((T, S), T.k)
    return bool(_arrows_from(orient, levels, 0)[1])


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
    arrows: tuple  # (source index, target index), strict only


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
    objects = tuple(labeled_objects(n, k))
    return ClassifierPoset(n, k, objects, _strict_arrows(objects, k))


def _strict_arrows(objects, k: int) -> tuple:
    """All pairs (i, j), i != j, with an identity-carried arrow, i-major."""
    orient, levels = _pair_arrays(objects, k)
    arrows = []
    for i in range(len(objects)):
        arrows.extend(
            (i, j) for j in np.flatnonzero(_arrows_from(orient, levels, i)).tolist()
            if j != i
        )
    return tuple(arrows)


def classifier_dot(P: ClassifierPoset) -> str:
    """DOT digraph; nodes are labeled by permutation and profile."""
    lines = ["digraph classifier {"]
    for i, T in enumerate(P.objects):
        labs = "".join(map(str, T.labels))
        prof = "".join(map(str, T.profile))
        lines.append(f'  o{i} [label="{labs}|{prof}"];')
    for i, j in P.arrows:
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


_FAST_CUTOFF = 600  # object count above which singleton operads use the fast path


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
    lexicographically least representatives.  When build_operad is set
    the induced symmetric operad (components per arity, relabeling
    action, substitution multiplication) is constructed, and every
    multiplication entry is computed from every combination of class
    members within the truncation; WellDefinednessError is raised when
    two combinations land in different classes.
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


def _component_labels(A: OperadTable, shape: NOrdinal):
    return A.components.get(shape, ())


def _symmetrize_arity(A, n, k, max_elements, shuffle_seed):
    shapes = {prof: NOrdinal(n, prof, k) for prof in _profiles(n, k)}
    sizes = {prof: len(_component_labels(A, s)) for prof, s in shapes.items()}
    singleton = all(v == 1 for v in sizes.values())
    object_count = math.factorial(k) * n ** max(k - 1, 0)
    total = math.factorial(k) * sum(sizes.values())
    if total > max_elements:
        raise BudgetExceededError(
            f"symmetrisation at arity {k} has {total} elements "
            f"(budget {max_elements})"
        )
    if singleton and object_count > _FAST_CUTOFF:
        classes = _fast_singleton_classes(n, k, shuffle_seed)
        classes = tuple(tuple((obj, 0) for obj in cls) for cls in classes)
    else:
        classes = _general_classes(A, n, k, sizes, shuffle_seed)
    class_of = {}
    for ci, members in enumerate(classes):
        for m in members:
            class_of[m] = ci
    return SymArity(k, object_count, sum(len(c) for c in classes), classes, class_of)


def _profiles(n: int, k: int):
    if k == 0:
        return [()]
    return list(itertools.product(range(n), repeat=k - 1))


def _general_classes(A, n, k, sizes, shuffle_seed):
    objects = labeled_objects(n, k)
    offsets = []
    acc = 0
    for T in objects:
        offsets.append(acc)
        acc += sizes[T.profile]
    uf = UnionFind(acc)
    singleton = all(v == 1 for v in sizes.values())
    unit_idx = A.unit_index() if not singleton else 0
    merges = []
    for i, j in _strict_arrows(objects, k):
        if singleton:
            # one-point components force the transported element
            merges.append((offsets[i], offsets[j]))
            continue
        T, S = objects[i], objects[j]
        sigma = arrow_morphism(T, S)
        for b in range(sizes[S.profile]):
            pulled = _entry(A, sigma, (b,) + (unit_idx,) * k)
            merges.append((offsets[i] + pulled, offsets[j] + b))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(merges)
    flat = np.fromiter(itertools.chain.from_iterable(merges), np.int64, 2 * len(merges))
    uf.union(flat[0::2], flat[1::2])
    elem_of = []
    for i, T in enumerate(objects):
        for lab in range(sizes[T.profile]):
            elem_of.append((i, lab))
    return tuple(
        tuple(sorted(elem_of[m] for m in cls)) for cls in uf.classes()
    )


def _fast_singleton_classes(n, k, shuffle_seed):
    """Object-level quotient from a generating family of arrows.

    Generators: +1 on one profile entry (same labeling), and for every
    object and every other labeling the arrow to the least structure
    above it with that labeling.  Composites of these reach every arrow.
    """
    if k == 0:
        return [[0]]
    perms = list(itertools.permutations(range(k)))  # positions -> 0-based labels
    n_perm, n_prof = len(perms), n ** (k - 1)
    total = n_perm * n_prof
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    n_pairs = len(pairs)

    profiles = np.empty((n_prof, max(k - 1, 1)), dtype=np.int16)
    codes = np.arange(n_prof, dtype=np.int64)
    for m in range(k - 2, -1, -1):
        profiles[:, m] = codes % n
        codes //= n

    # per permutation: orientation bit and position span of every pair
    orient = np.empty((n_perm, n_pairs), dtype=np.int16)
    spans = []
    for r, perm in enumerate(perms):
        pos = {lab: p for p, lab in enumerate(perm)}
        row_spans = []
        for t, (a, b) in enumerate(pairs):
            pa, pb = pos[a], pos[b]
            orient[r, t] = 1 if pa < pb else 0
            row_spans.append((min(pa, pb), max(pa, pb)))
        spans.append(row_spans)

    # pair levels per profile, per permutation: min over the position span
    levels = np.empty((n_perm, n_prof, n_pairs), dtype=np.int16)
    for r in range(n_perm):
        for t, (lo, hi) in enumerate(spans[r]):
            levels[r, :, t] = profiles[:, lo:hi].min(axis=1)

    # crossing[m, t, r] = 1 when pair t spans consecutive position m in
    # permutation r; every position is spanned by at least one pair
    crossing = np.zeros((k - 1, n_pairs, n_perm), dtype=np.int16)
    for r in range(n_perm):
        for t, (lo, hi) in enumerate(spans[r]):
            crossing[lo:hi, t, r] = 1

    strides = np.array([n ** (k - 2 - m) for m in range(k - 1)], dtype=np.int64)
    prof_codes = np.arange(n_prof, dtype=np.int64)

    rng = random.Random(shuffle_seed) if shuffle_seed is not None else None

    def ordered(items) -> list:
        """items in order, or shuffled when a shuffle seed is given."""
        items = list(items)
        if rng is not None:
            rng.shuffle(items)
        return items

    def family(key):
        """The merge pairs of one generator family, as two arrays."""
        kind, x = key
        if kind == "step":  # +1 on profile entry x, for every labeling
            below = prof_codes[profiles[:, x] < n - 1]
            src = (np.arange(n_perm, dtype=np.int64)[:, None] * n_prof + below).ravel()
            return src, src + strides[x]
        # labeling x to the least structure above it, for every other labeling:
        # digit m is the largest bound among the pairs spanning position m
        bounds = levels[x].T[:, None, :] + (orient[x] != orient).T[:, :, None]
        target_digits = np.stack(
            [(bounds * crossing[m][:, :, None]).max(axis=0) for m in range(k - 1)], axis=2
        )
        valid = (target_digits <= n - 1).all(axis=2)
        valid[x] = False
        r2, prof = np.nonzero(valid)
        return x * n_prof + prof, r2 * n_prof + target_digits[valid] @ strides

    # one union per family; no family has more pairs than there are
    # elements, so the k!(k!-1)n^(k-1) merge pairs are never held at once
    keys = [("step", m) for m in range(k - 1)]
    if n_perm > 1:
        keys += [("move", r) for r in range(n_perm)]
    uf = UnionFind(total)
    for key in ordered(keys):
        src, dst = family(key)
        if rng is not None:
            order = ordered(range(len(src)))
            src, dst = src[order], dst[order]
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

    outer is (LabeledOrdinal at arity m, label index); args[i] is the
    member (LabeledOrdinal at arity |fiber i|, label index).  Returns the
    class of the composite at arity k.
    """
    k, m, n = f.source, f.target, result.n
    S, b_idx = _zero_pull(A, *outer)
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
    for k, arity in result.arities.items():
        components[k] = tuple(f"c{j}" for j in range(len(arity.classes)))
        objects = _labeled_index(n, k)[0]
        members[k] = [
            [(objects[o_idx], lab) for o_idx, lab in cls] for cls in arity.classes
        ]
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
            for outer, *args in itertools.product(
                members[m][b_c],
                *(members[fib_sizes[i]][c] for i, c in enumerate(a_cs)),
            ):
                got = _substitute(A, result, f, outer, args)
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
