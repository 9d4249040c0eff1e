"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's own encodings: structures are
enumerated over raw relation tables and only canonicalised at the end,
so agreement with the package is meaningful evidence.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from higherop.freeop import TreeTerm, _objects_of_size, _sigma_label, target, trivial
from higherop.operads import OperadTable, _target_size, compile_base, is_surjective


def brute_force_ordinal_structures(n: int, k: int):
    """All level structures on the set {0..k-1} satisfying the ordinal axioms.

    Enumerates, for every unordered pair, a winner and a level (so
    (2n)**C(k,2) candidates) and keeps the ones where every ordered
    triple a <_p b <_q c also has a <_min(p,q) c.  Returns the list of
    surviving relation tables: dicts (a, b) -> level for a-beats-b.
    """
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    structures = []
    choices = [(a, b, l) for l in range(n) for (a, b) in [(0, 1), (1, 0)]]
    del choices  # per-pair choices are built inline below
    per_pair = []
    for a, b in pairs:
        per_pair.append([((a, b), l) for l in range(n)] + [((b, a), l) for l in range(n)])
    for combo in itertools.product(*per_pair):
        table = {edge: lvl for edge, lvl in combo}
        if _satisfies_composition(table, k):
            structures.append(table)
    if k <= 1:
        structures = [{}]
    return structures


def _satisfies_composition(table, k: int) -> bool:
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if len({a, b, c}) < 3:
                    continue
                p = table.get((a, b))
                q = table.get((b, c))
                if p is None or q is None:
                    continue
                if table.get((a, c)) != min(p, q):
                    return False
    return True


def canonicalize_structure(table, k: int) -> tuple[int, ...]:
    """Profile of a valid relation table after sorting into canonical order.

    The relations form a transitive tournament, so out-degrees are all
    distinct and sorting by them recovers the total order.
    """
    wins = {a: 0 for a in range(k)}
    for a, _b in table:
        wins[a] += 1
    order = sorted(range(k), key=lambda a: -wins[a])
    return tuple(table[(order[i], order[i + 1])] for i in range(k - 1))


def level_structures_fixed_order(n: int, k: int) -> np.ndarray:
    """Valid level assignments on pairs of a fixed total order 0 < ... < k-1.

    Vectorised: enumerates all n**C(k,2) level maps and keeps those with
    lvl(i, l) = min(lvl(i, j), lvl(j, l)) for every i < j < l.  Returns an
    array of shape (count, C(k,2)); pair columns are lexicographic.
    """
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    col = {p: c for c, p in enumerate(pairs)}
    total = n ** len(pairs)
    codes = np.arange(total, dtype=np.int64)
    levels = np.empty((total, len(pairs)), dtype=np.int64)
    for c in range(len(pairs) - 1, -1, -1):
        levels[:, c] = codes % n
        codes //= n
    ok = np.ones(total, dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                ok &= levels[:, col[(i, l)]] == np.minimum(
                    levels[:, col[(i, j)]], levels[:, col[(j, l)]]
                )
    return levels[ok]


def fixed_order_profiles(n: int, k: int) -> set[tuple[int, ...]]:
    """Profiles (consecutive-pair levels) of the fixed-order structures."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    col = {p: c for c, p in enumerate(pairs)}
    levels = level_structures_fixed_order(n, k)
    cons = [col[(i, i + 1)] for i in range(k - 1)]
    return {tuple(int(v) for v in row[cons]) for row in levels}


def catalan(m: int) -> int:
    """Catalan numbers by the independent convolution recursion."""
    vals = [1]
    for s in range(1, m + 1):
        vals.append(sum(vals[i] * vals[s - 1 - i] for i in range(s)))
    return vals[m]


def count_monoids(size: int) -> int:
    """Unital associative binary tables on {0..size-1}, by brute force."""
    return sum(1 for _ in _monoid_tables(size))


def count_commutative_monoids(size: int) -> int:
    """Commutative unital associative binary tables on {0..size-1}."""
    count = 0
    for table in _monoid_tables(size):
        if all(
            table[x][y] == table[y][x] for x in range(size) for y in range(size)
        ):
            count += 1
    return count


def _monoid_tables(size: int):
    elements = range(size)
    for flat in itertools.product(elements, repeat=size * size):
        table = [list(flat[r * size : (r + 1) * size]) for r in elements]
        has_unit = any(
            all(table[e][x] == x and table[x][e] == x for x in elements)
            for e in elements
        )
        if not has_unit:
            continue
        if all(
            table[table[a][b]][c] == table[a][table[b][c]]
            for a in elements
            for b in elements
            for c in elements
        ):
            yield table


def composable_pairs_loop(base, C, K: int) -> np.ndarray:
    """The rows of operads.composable_pairs, one pair at a time.

    For each sigma in id order and each omega out of its target, the
    composite and each restriction block are looked up by
    (source id, target id, map) in a dictionary; a restriction is
    memoised on sigma and the fiber of omega that it lands in.  Only
    C.objects and C.morphisms are read from the compiled base C: the
    ids, maps and fibers are derived here from the morphisms themselves.
    """
    object_id = {T: i for i, T in enumerate(C.objects)}
    source = [object_id[m.source] for m in C.morphisms]
    target = [object_id[m.target] for m in C.morphisms]
    maps = [m.map for m in C.morphisms]
    n_fibers = [base.size(m.target) for m in C.morphisms]
    fibers = [[object_id[base.fiber(m, i)] for i in range(r)]
              for m, r in zip(C.morphisms, n_fibers)]
    fiber_elems = [[tuple(a for a, v in enumerate(mp) if v == i) for i in range(r)]
                   for mp, r in zip(maps, n_fibers)]
    by_map = {key: i for i, key in enumerate(zip(source, target, maps))}
    by_source = {}
    for m, t in enumerate(source):
        by_source.setdefault(t, []).append(m)
    memo, rows = {}, []
    for s, smap in enumerate(maps):
        for w in by_source.get(target[s], ()):
            wmap = maps[w]
            c = by_map[(source[s], target[w], tuple(wmap[v] for v in smap))]
            blocks = []
            for i, elems in enumerate(fiber_elems[w]):
                if (s, elems) not in memo:
                    rank = {e: r for r, e in enumerate(elems)}
                    m = tuple(rank[smap[a]] for a in fiber_elems[c][i])
                    memo[(s, elems)] = by_map[(fibers[c][i], fibers[w][i], m)]
                blocks.append(memo[(s, elems)])
            rows.append([s, w, c] + blocks + [-1] * (K - len(blocks)))
    return np.array(rows, dtype=np.int64).reshape(len(rows), 3 + K)


def pointwise_associativity(A, messages: list | None = None):
    """Failing pairs and skipped holes of every associativity square.

    Walks each composable pair (sigma, omega) of A's base and each
    (b, a, c) one at a time, building the composite and the restriction
    blocks with the base's own compose and restrict.  Returns the set of
    failing (sigma, omega) pairs, the number of instances skipped at a
    hole (-1) and the number of instances checked or skipped.  Each
    failing instance is also described in `messages`, when given, in the
    words of check_operad_axioms.
    """
    base = A.base
    morphisms = [m for m in A.mult]
    failing, skipped, instances = set(), 0, 0
    for sigma in morphisms:
        for omega in morphisms:
            if omega.source != sigma.target:
                continue
            comp = base.compose(omega, sigma)
            r = len(A.mult[omega].shape) - 1
            blocks = [A.mult[base.restrict(sigma, omega, i)] for i in range(r)]
            elems = [[e for e, v in enumerate(omega.map) if v == i] for i in range(r)]
            t_sigma, t_omega, t_comp = A.mult[sigma], A.mult[omega], A.mult[comp]
            for b in range(t_omega.shape[0]):
                for a in itertools.product(*map(range, t_omega.shape[1:])):
                    for c in itertools.product(*map(range, t_sigma.shape[1:])):
                        instances += 1
                        s_val = int(t_omega[(b,) + a])
                        inner = [int(blk[(a[i],) + tuple(c[e] for e in elems[i])])
                                 for i, blk in enumerate(blocks)]
                        if s_val == -1 or -1 in inner:
                            skipped += 1
                            continue
                        lhs = int(t_sigma[(s_val,) + c])
                        rhs = int(t_comp[(b,) + tuple(inner)])
                        if lhs == -1 or rhs == -1:
                            skipped += 1
                        elif lhs != rhs:
                            failing.add((sigma, omega))
                            if messages is not None:
                                messages.append(f"associativity fails for {sigma} then {omega} "
                                                f"at b={b}, a={a}, c={c}: {lhs} != {rhs}")
    return failing, skipped, instances


def distinct_associativity_triples(A) -> int:
    """The number of distinct (pair, G row, a_I, v) triples, cell by cell.

    For a pair (sigma, omega) and a cell (b, a), the G row lists the
    composite's entries at b over the axes of omega's nonempty fibers,
    with each empty fiber's axis fixed at the value of its block at
    a_j, or is all -1 when one of those values is a hole; a_I keeps the
    nonempty fibers' part of a, and v = m_omega(b; a).
    """
    base = A.base
    total = 0
    for sigma in A.mult:
        for omega in A.mult:
            if omega.source != sigma.target:
                continue
            t_omega, t_comp = A.mult[omega], A.mult[base.compose(omega, sigma)]
            r = len(t_omega.shape) - 1
            empty = [i for i in range(r) if i not in omega.map]
            inner = [i for i in range(r) if i in omega.map]
            blocks = {j: A.mult[base.restrict(sigma, omega, j)] for j in empty}
            seen = set()
            for b in range(t_omega.shape[0]):
                for a in itertools.product(*map(range, t_omega.shape[1:])):
                    fixed = {j: int(blocks[j][a[j]]) for j in empty}
                    row = []
                    for xs in itertools.product(*(range(t_comp.shape[1 + i]) for i in inner)):
                        at = {**dict(zip(inner, xs)), **fixed}
                        hole = -1 in fixed.values()
                        row.append(-1 if hole else int(t_comp[(b,) + tuple(at[i] for i in range(r))]))
                    a_inner = tuple(a[i] for i in inner)
                    seen.add((tuple(row), a_inner, int(t_omega[(b,) + a])))
            total += len(seen)
    return total


def is_operad_morphism_by_entries(A, B, phi) -> bool:
    """operads.is_operad_morphism, one table entry at a time.

    The fibers of each morphism come from the base itself, and each
    defined entry of A is compared with B's entry at the images of its
    labels unless B's is a hole.
    """
    if A.base != B.base or A.K != B.K:
        return False
    maps = dict(phi.components)
    terminal = A.base.terminal()
    if maps[terminal][A.unit_index()] != B.unit_index():
        return False
    for sigma in A.mult:
        fibers = [A.base.fiber(sigma, i) for i in range(A.base.size(sigma.target))]
        tab_a, tab_b = A.mult[sigma], B.mult[sigma]
        phi_t, phi_s = maps[sigma.target], maps[sigma.source]
        phi_f = [maps[F] for F in fibers]
        for b in range(tab_a.shape[0]):
            for a in itertools.product(*map(range, tab_a.shape[1:])):
                va = int(tab_a[(b,) + a])
                if va == -1:
                    continue
                vb = int(tab_b[(phi_t[b],) + tuple(phi_f[i][a[i]] for i in range(len(a)))])
                if vb != -1 and phi_s[va] != vb:
                    return False
    return True


def unit_diagrams_by_entries(A):
    """The violations, instances and skipped holes of the two unit
    diagrams, one entry at a time: m_id(a; units) = a over each object T,
    then m(unit; a) = a along each morphism T -> terminal."""
    base, u = A.base, A.unit_index()
    terminal = base.terminal()
    violations, instances, holes = [], 0, 0
    for T in base.objects(A.K):
        labs = A.components[T]
        checks = [(base.identity(T), f"id_{T}: m(a; units)", lambda a: (a,) + (u,) * base.size(T))]
        checks += [(bang, f"{T} -> terminal: m(unit; a)", lambda a: (u, a))
                   for bang in base.morphisms(T, terminal)]
        for sigma, where, entry in checks:
            for a in range(len(labs)):
                got = int(A.mult[sigma][entry(a)])
                instances += 1
                if got == -1:
                    holes += 1
                elif got != a:
                    violations.append(f"unit diagram fails at {where} = {labs[got]} for a = {labs[a]}")
    return violations, instances, holes


def operad_morphisms_by_brute_force(A, B) -> list:
    """Every label map A -> B that sends the unit to the unit, in
    lexicographic order of the images (objects in the base's order, then
    labels), kept when is_operad_morphism_by_entries accepts it."""
    from higherop.operads import OperadMorphism

    if A.unit is None:
        return []
    objs = A.base.objects(A.K)
    unit = (A.base.terminal(), A.unit_index())
    slots = [(T, a) for T in objs for a in range(len(A.components[T]))]
    choices = [(B.unit_index(),) if slot == unit else range(len(B.components[slot[0]]))
               for slot in slots]
    out = []
    for images in itertools.product(*choices):
        it = iter(images)
        phi = OperadMorphism(A.name, B.name, tuple(
            (T, tuple(next(it) for _ in A.components[T])) for T in objs))
        if is_operad_morphism_by_entries(A, B, phi):
            out.append(phi)
    return out


def end_tables_by_int64_gather(X, K: int, constant_free: bool = False) -> dict:
    """The multiplication tables of End_X, built with int64 gathers.

    Each table is summed place value by place value from the outputs of
    the substituted functions, gathered as int64 arrays; the library
    builds the same tables with int32 gathers.
    """
    from higherop.operads import FinBase, compile_base, finset_fiber_elements

    x_size = len(tuple(X))
    C = compile_base(FinBase(constant_free=constant_free), K)
    n_inputs = {k: x_size ** k for k in range(K + 1)}
    # outs[k][i] = output vector of the i-th arity-k function over ranked inputs
    outs = {}
    for k in range(K + 1):
        codes = np.arange(x_size ** n_inputs[k], dtype=np.int64)
        table = np.empty((len(codes), n_inputs[k]), dtype=np.int64)
        for pos in range(n_inputs[k] - 1, -1, -1):
            table[:, pos] = codes % x_size
            codes //= x_size
        outs[k] = table
    inputs = {k: list(itertools.product(range(x_size), repeat=k)) for k in range(K + 1)}
    input_rank = {k: {t: r for r, t in enumerate(inputs[k])} for k in range(K + 1)}
    mult = {}
    for f_id, f in enumerate(C.morphisms):
        k, m = f.source, f.target
        fib_sizes = [C.objects[F] for F in C.axes(f_id)[1:]]
        g_shape = tuple(len(outs[s]) for s in fib_sizes)
        y_rank = np.zeros(g_shape + (n_inputs[k],), dtype=np.int64)
        for i in range(m):
            fib = finset_fiber_elements(f, i)
            sub = np.array([input_rank[fib_sizes[i]][tuple(x[e] for e in fib)] for x in inputs[k]],
                           dtype=np.int64)
            bshape = [1] * m + [n_inputs[k]]
            bshape[i] = g_shape[i]
            y_rank = y_rank + outs[fib_sizes[i]][:, sub].reshape(bshape) * x_size ** (m - 1 - i)
        code = np.zeros((len(outs[m]),) + g_shape, dtype=np.int32)
        for pos in range(n_inputs[k]):
            code += outs[m][:, y_rank[..., pos]] * x_size ** (n_inputs[k] - 1 - pos)
        mult[f] = code
    return mult


def generator_arrows_by_labeling(n: int, k: int):
    """The generating arrow families at arity k, each move family computed
    from its own source labeling.

    Yields the families of symmetrize._generator_arrows in their order:
    the +1 steps on each profile entry, then, for each labeling x, the
    arrows from every structure with labeling x to the least structure
    above it with each other labeling, read from x's own pair levels and
    orientations rather than relabeled from the identity's.
    """
    from higherop.symmetrize import _labelings

    if k < 2:
        return
    t = _labelings(n, k)
    n_perm, n_prof, n_pairs = len(t.perms), len(t.profiles), t.orient.shape[1]
    spanning = [
        np.flatnonzero((t.lo <= m) & (m < t.hi)).reshape(n_perm, -1) for m in range(k - 1)
    ]
    strides = np.array([n ** (k - 2 - m) for m in range(k - 1)], dtype=np.int64)
    for m in range(k - 1):
        below = np.flatnonzero(t.profiles[:, m] < n - 1)
        src = (np.arange(n_perm, dtype=np.int64)[:, None] * n_prof + below).ravel()
        yield src, src + strides[m]
    for x in range(n_perm):
        # digit m is the largest bound among the pairs spanning position m
        bounds = t.level[:, t.lo[x], t.hi[x]].T[None] + (t.orient[x] != t.orient)[:, :, None]
        bounds = bounds.reshape(n_perm * n_pairs, n_prof)
        digits = np.stack([bounds[rows].max(axis=1) for rows in spanning], axis=2)
        valid = (digits <= n - 1).all(axis=2)
        valid[x] = False
        r2, prof = np.nonzero(valid)
        yield x * n_prof + prof, r2 * n_prof + digits[valid] @ strides


def all_arrows_classes(A, k: int):
    """Symmetrisation classes of A at arity k, merged along every arrow.

    For every identity-carried arrow sigma: T -> S of the classifier
    poset and every element b over S, (T, m_sigma(b; units)) is merged
    with (S, b) in a dictionary union-find.  Members are (object index,
    element index) pairs in the order of labeled_structures; each class is
    sorted and the classes are ordered by their least members.
    """
    from higherop.symmetrize import build_classifier

    P = build_classifier(A.base.n, k)
    objects = labeled_structures(A.base.n, k)
    sizes = [len(A.components.get(shape(T), ())) for T in objects]
    members = [(i, b) for i, size in enumerate(sizes) for b in range(size)]
    parent = {m: m for m in members}

    def find(m):
        while parent[m] != m:
            parent[m] = parent[parent[m]]
            m = parent[m]
        return m

    units = (A.unit_index(),) * k
    for i, j in P.arrows.tolist():
        sigma = arrow_morphism(objects[i], objects[j])
        for b in range(sizes[j]):
            pulled = int(A.mult[sigma][(b,) + units])
            if pulled < 0:
                raise ValueError(f"the table of {sigma} has a hole at entry {(b,) + units}")
            parent[find((i, pulled))] = find((j, b))
    classes = {}
    for m in members:
        classes.setdefault(find(m), []).append(m)
    return tuple(sorted(tuple(c) for c in classes.values()))


# ---------------------------------------------------------------------------
# the induced symmetric operad, one labeled structure at a time


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


def shape(T):
    """The canonical ordinal under a labeled structure (labels forgotten)."""
    from higherop.ordinals import NOrdinal

    return NOrdinal(T.n, T.profile, len(T.labels))


def arrow_morphism(T, S):
    """The identity-carried arrow between labeled structures as a
    morphism of canonical ordinals (ValueError when there is none)."""
    from higherop.ordinals import OrdinalMorphism

    pos_s = {lab: p for p, lab in enumerate(S.labels)}
    return OrdinalMorphism(shape(T), shape(S), tuple(pos_s[lab] for lab in T.labels))


def relabel(T, rho: dict):
    """Rename every label of a labeled structure by rho."""
    return LabeledOrdinal(T.n, tuple(rho[lab] for lab in T.labels), T.profile)


def labeled_structures(n: int, k: int) -> list:
    """The labeled structures at arity k, permutation-major and
    profile-lexicographic, built from itertools alone."""
    return [LabeledOrdinal(n, perm, prof)
            for perm in itertools.permutations(range(1, k + 1))
            for prof in itertools.product(range(n), repeat=max(k - 1, 0))]


def _class_index(result):
    """arity -> {(object index, label): class index}, from the classes."""
    return {k: {m: ci for ci, cls in enumerate(ar.classes) for m in cls}
            for k, ar in result.arities.items()}


def _entry(A, sigma, idx):
    value = int(A.mult[sigma][idx])
    if value < 0:
        raise ValueError(f"the table of {sigma} has a hole at entry {idx}")
    return value


def _zero_pull(A, T, label):
    """Transport an element down to the all-zero profile over the same labels."""
    from higherop.ordinals import OrdinalMorphism

    k = len(T.labels)
    if k <= 1 or not any(T.profile):
        return T, label
    flat = LabeledOrdinal(T.n, T.labels, (0,) * (k - 1))
    zeta = OrdinalMorphism(shape(flat), shape(T), tuple(range(k)))
    return flat, _entry(A, zeta, (label,) + (A.unit_index(),) * k)


def _substitute(A, index, objects, f, outer, args):
    """The class of one composite along f from explicit members: outer
    is (labeled structure with the all-zero profile, label) and args[i]
    is (labeled structure at the arity of fiber i, label)."""
    from higherop.ordinals import OrdinalMorphism

    k, m = f.source, f.target
    S, b = outer
    pos_s = {lab: p for p, lab in enumerate(S.labels)}
    # label x is label rank[i] of the argument on its fiber i; the composite
    # orders labels by the position of that fiber in S, then by the
    # position inside the argument
    keys, rank = {}, [0] * m
    for x in range(1, k + 1):
        i = f.map[x - 1]
        rank[i] += 1
        keys[x] = (pos_s[i + 1], args[i][0].labels.index(rank[i]))
    order = sorted(keys, key=keys.get)
    # neighbours from different fibers meet at level 0; inside a fiber
    # they meet at the argument's level between their positions
    profile = []
    for x, y in zip(order, order[1:]):
        (s, px), (t, py) = keys[x], keys[y]
        profile.append(min(args[S.labels[s] - 1][0].profile[px:py]) if s == t else 0)
    R = LabeledOrdinal(S.n, tuple(order), tuple(profile))
    sigma = OrdinalMorphism(shape(R), shape(S), tuple(keys[x][0] for x in order))
    value = _entry(A, sigma, (b,) + tuple(args[S.labels[q] - 1][1] for q in range(m)))
    return index[k][(objects[k].index(R), value)]


def sym_operad_by_objects(A, result):
    """symmetrize's induced operad and its count of member combinations,
    computed one combination at a time over labeled structures and
    morphism objects.  Returns (operad, combinations); raises ValueError
    at a hole and RuntimeError where an entry depends on the members."""
    from higherop.operads import FinBase, OperadTable, base_morphisms

    n = result.n
    base = FinBase(constant_free=A.base.constant_free)
    index = _class_index(result)
    objects = {k: labeled_structures(n, k) for k in result.arities}
    components = {k: tuple(f"c{j}" for j in range(len(ar.classes)))
                  for k, ar in result.arities.items()}
    members = {k: [[(objects[k][o], lab) for o, lab in cls] for cls in ar.classes]
               for k, ar in result.arities.items()}
    pulled = {k: [[_zero_pull(A, *mem) for mem in cls] for cls in classes]
              for k, classes in members.items()}
    mult, checked = {}, 0
    for f in base_morphisms(base, result.K):
        m = f.target
        fib_sizes = [f.map.count(i) for i in range(m)]
        shape = (len(components[m]),) + tuple(len(components[s]) for s in fib_sizes)
        tab = np.empty(shape, dtype=np.int32)
        for entry in itertools.product(*map(range, shape)):
            got = set()
            for outer, *args in itertools.product(
                    pulled[m][entry[0]],
                    *(members[fib_sizes[i]][c] for i, c in enumerate(entry[1:]))):
                got.add(_substitute(A, index, objects, f, outer, args))
                checked += 1
            if len(got) != 1:
                raise RuntimeError(f"multiplication along {f} is not constant at {entry}")
            tab[entry] = got.pop()
        mult[f] = tab
    unit = index[1][(0, A.unit_index())]
    operad = OperadTable(base, result.K, components, components[1][unit], mult,
                         f"sym_{n}({A.name})")
    return operad, checked


def sym_action_by_objects(result):
    """The relabeling action on classes, relabeling one labeled structure
    at a time: arity -> {rho: class images}."""
    index = _class_index(result)
    action = {}
    for k, ar in result.arities.items():
        if k < 2:
            continue
        objects = labeled_structures(result.n, k)
        table = {}
        for rho in itertools.permutations(range(1, k + 1)):
            renaming = {x: rho[x - 1] for x in range(1, k + 1)}
            images = []
            for cls in ar.classes:
                image = {index[k][(objects.index(relabel(objects[o], renaming)), lab)]
                         for o, lab in cls}
                assert len(image) == 1, (rho, cls)
                images.append(image.pop())
            table[rho] = tuple(images)
        action[k] = table
    return action


def unit_insertion_by_objects(A, result):
    """T -> the classes of the elements of A(T) under the identity labeling."""
    index = _class_index(result)
    out = {}
    for T in A.base.objects(result.K):
        if T.size not in result.arities:
            continue
        ident = LabeledOrdinal(result.n, tuple(range(1, T.size + 1)), T.profile)
        o = labeled_structures(result.n, T.size).index(ident)
        out[T] = tuple(index[T.size][(o, lab)] for lab in range(len(A.components[T])))
    return out


# ---------------------------------------------------------------------------
# the nerve of a poset, with alternating face boundaries


@dataclass
class NerveComplex:
    """Strictly increasing chains of a poset, dimension by dimension."""

    simplices: list  # simplices[d] = list of (d+1)-tuples of object indices
    complete: bool  # False if chains above the requested dimension were cut

    @property
    def dimension(self) -> int:
        return len(self.simplices) - 1

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.simplices)


def nerve(P, dmax: int | None = None) -> NerveComplex:
    """All chains of length <= dmax+1 (default: until they stop growing)."""
    succ = [[] for _ in P.objects]
    for i, j in P.arrows.tolist():
        succ[i].append(j)
    for lst in succ:
        lst.sort()
    simplices = [[(i,) for i in range(len(P.objects))]]
    complete = True
    while True:
        if dmax is not None and len(simplices) > dmax:
            # truncated only if a longer chain would exist
            complete = not any(succ[ch[-1]] for ch in simplices[-1])
            break
        nxt = [ch + (j,) for ch in simplices[-1] for j in succ[ch[-1]]]
        if not nxt:
            break
        simplices.append(nxt)
    return NerveComplex(simplices, complete)


def nerve_boundaries(N: NerveComplex):
    """Alternating-sign face boundaries of the nerve; checks dd = 0."""
    from higherop.topology import ChainComplex

    out = []
    for d in range(1, len(N.simplices)):
        prev_index = {s: i for i, s in enumerate(N.simplices[d - 1])}
        M = np.zeros((len(N.simplices[d - 1]), len(N.simplices[d])), dtype=np.int64)
        for col, s in enumerate(N.simplices[d]):
            for drop in range(len(s)):
                M[prev_index[s[:drop] + s[drop + 1 :]], col] += (-1) ** drop
        out.append(M)
    for d in range(len(out) - 1):
        # exact in float64, whose products go through BLAS: each entry is a
        # sum of at most (d + 2) * (d + 3) terms of +-1
        prod = out[d].astype(np.float64) @ out[d + 1].astype(np.float64)
        assert not np.any(prod), f"boundary squared is nonzero in degree {d + 2}"
    return ChainComplex(N.f_vector(), out, N.complete)


def nerve_homology(n: int, k: int, dmax: int | None = None) -> dict:
    """The classifier payload computed from the nerve: chains, their
    alternating boundaries, Smith reduction and the arrow components."""
    from higherop.symmetrize import build_classifier
    from higherop.topology import homology

    P = build_classifier(n, k)
    CC = nerve_boundaries(nerve(P, dmax))
    H = homology(CC)
    return {
        "n": n,
        "k": k,
        "fvector": list(CC.f_vector),
        "betti": list(H.betti),
        "torsion": [list(t) for t in H.torsion],
        "components": components_by_arrows(P),
        "complete": CC.complete,
        "computed_through": H.computed_through,
    }


# ---------------------------------------------------------------------------
# the cellular complex by diamond propagation over every arrow


def grading(src, dst, n_obj: int, dmax: int | None):
    """Rank of every object, chains per degree, and whether nothing was cut.

    Step d counts the chains of d+1 objects ending at each object, and an
    object's rank is the last step that reaches it.  With dmax the pass
    stops after dmax + 1 steps; objects of rank dmax + 1 are not cells.
    """
    rank = np.zeros(n_obj, dtype=np.int64)
    counts, chains = np.ones(n_obj, dtype=np.int64), [n_obj]
    fan_in = int(np.bincount(dst, minlength=1).max())
    while True:
        if counts.dtype != object and int(counts.max(initial=0)) * fan_in * n_obj >> 63:
            counts = counts.astype(object)  # the next step could pass int64
        step = np.zeros_like(counts)
        np.add.at(step, dst, counts[src])
        reached = step != 0
        rank[reached] = len(chains)
        if not reached.any() or dmax is not None and len(chains) > dmax:
            return rank, tuple(chains), not reached.any()
        chains.append(int(step.sum()))
        counts = step


def diamond_complex(P, dmax: int | None = None):
    """topology.cellular_complex from P.arrows: one cell per object of rank <= dmax,
    with +1/-1 incidences on the covers propagated around diamonds (Bjorner 1984).

    Ranks and chain counts are read from the source and target columns of
    P.arrows, and the covers are the arrows whose rank steps by 1.  A cell's
    first facet gets +1, and each ridge passes the sign on so that both
    paths around its diamond cancel.  ValueError: a 1-cell without two
    vertices, a ridge not in two facets, a disconnected facet graph, or two
    diamonds disagreeing.  dd = 0 is checked on every pair of boundaries.
    """
    from higherop.topology import ChainComplex

    if dmax is not None and dmax < 0:
        raise ValueError("dmax must be nonnegative")
    src, dst = P.arrows.T
    rank, chains, complete = grading(src, dst, len(P.objects), dmax)
    cells = [np.flatnonzero(rank == r) for r in range(len(chains))]
    f = tuple(map(len, cells))
    # bd[r] maps rank r to rank r-1; bd[0] puts every vertex on the empty face, index -1
    bd = [np.ones((1, f[0]), dtype=np.int64)]
    bd += [np.zeros(s, dtype=np.int64) for s in zip(f, f[1:])]
    at = np.zeros(len(P.objects) + 1, dtype=np.int64)  # each cell's place in its rank; at[-1] = 0
    for c in cells:
        at[c] = np.arange(len(c))
    facets = [[-1] if r == 0 else [] for r in rank.tolist()]
    covers = (rank[dst] == rank[src] + 1) & (rank[dst] < len(f))
    for a, b in zip(src[covers].tolist(), dst[covers].tolist()):
        facets[b].append(a)
    for r in range(1, len(f)):
        for c in cells[r].tolist():
            col, below = bd[r][:, at[c]], bd[r - 1]
            through = {}  # ridge -> the facets of c that contain it
            for x in facets[c]:
                for g in facets[x]:
                    through.setdefault(g, []).append(x)
            signed = facets[c][:1]
            col[at[signed[0]]] = 1
            for x in signed:  # grows as the signs spread
                for g in facets[x]:
                    if (n_in := len(through[g])) != 2:
                        raise ValueError(f"1-cell {c} has {n_in} vertices, not 2" if r == 1 else
                                         f"a ridge of cell {c} lies in {n_in} facets, not 2")
                    y = sum(through[g]) - x  # the other facet through g
                    s = -col[at[x]] * below[at[g], at[x]] * below[at[g], at[y]]
                    if not col[at[y]]:
                        col[at[y]] = s
                        signed.append(y)
                    elif col[at[y]] != s:
                        raise ValueError(f"two diamonds disagree on the facet signs of cell {c}")
            if len(signed) != len(facets[c]):
                raise ValueError(f"the facet graph of cell {c} is disconnected")
    for d in range(2, len(bd)):  # exact in float64: entries in {-1, 0, 1}
        prod = bd[d - 1].astype(np.float64) @ bd[d].astype(np.float64)
        assert not np.any(prod), f"boundary squared is nonzero in degree {d}"
    return ChainComplex(f, bd[1:], complete, chains)


def components_by_arrows(P) -> int:
    """Connected components of the undirected graph of every arrow of P.

    Each object takes the least label over itself and its neighbours, and
    then its label's label, until nothing changes; a label never exceeds
    its object, so each component ends on its least object.
    """
    label = np.arange(len(P.objects))
    src, dst = np.asarray(P.arrows, dtype=np.int64).reshape(-1, 2).T
    while True:
        new = label.copy()
        np.minimum.at(new, src, label[dst])
        np.minimum.at(new, dst, label[src])
        new = new[new]
        if np.array_equal(new, label):
            return len(np.unique(label))
        label = new


def strict_arrows_by_pairs(n: int, k: int) -> np.ndarray:
    """symmetrize._strict_arrows by comparing every pair of objects.

    (i, j), i != j, is an arrow when, label pair by label pair, the level
    in j reaches the level in i, plus one where the pair changes
    orientation.  Rows are (i, j) int32, i-major.
    """
    from higherop.symmetrize import _labelings

    t = _labelings(n, k)
    n_prof, n_pairs = len(t.profiles), t.orient.shape[1]
    n_obj = len(t.perms) * n_prof
    # each object's pair levels, one column per object
    levels = t.level[:, t.lo, t.hi].transpose(2, 1, 0).reshape(n_pairs, n_obj)
    out = []
    for r in range(len(t.perms)):
        # the target's levels, less one on each pair it orients unlike r
        reach = levels - np.repeat(t.orient != t.orient[r], n_prof, axis=0).T
        src = levels[:, r * n_prof:(r + 1) * n_prof]
        above = (reach[:, None, :] >= src[:, :, None]).all(axis=0)
        i, j = np.nonzero(above)
        i += r * n_prof
        out.append(np.stack([i, j], axis=1)[i != j].astype(np.int32))
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# tree terms, by recursion on TreeTerm: what freeop computes on _TreeStore ids


def graft(x: TreeTerm, sigma, ys, base) -> TreeTerm:
    """Free-operad multiplication: compose x over S along sigma: T -> S.

    ys supplies one tree per element of S, the i-th over fiber(sigma, i);
    the result is a term over T.  Grafting onto the trivial tree returns
    the unique subtree, so the unit laws hold structurally.
    """
    ys = tuple(ys)
    if len(ys) != _target_size(sigma):
        raise ValueError("wrong number of trees to graft")
    if target(x) != sigma.target:
        raise ValueError("outer tree does not sit over the target of sigma")
    for i, y in enumerate(ys):
        if target(y) != base.fiber(sigma, i):
            raise ValueError(f"graft input {i} does not sit over the fiber")
    if x.is_trivial:
        # sigma: T -> terminal has a single fiber, the whole of T
        return ys[0] if ys else trivial(base)
    inner = x.sigma  # S -> S''
    new_children = []
    for j in range(len(x.children)):
        rho = base.restrict(sigma, inner, j)
        elems = [e for e, v in enumerate(inner.map) if v == j]
        new_children.append(graft(x.children[j], rho, [ys[e] for e in elems], base))
    return TreeTerm(base.compose(inner, sigma), tuple(new_children), x.decoration)


def insert(outer: TreeTerm, address: tuple[int, ...], inner: TreeTerm, base) -> TreeTerm:
    """Monad multiplication: replace the vertex at the address by a tree.

    The inserted tree must sit over the vertex object; its leaves pick up
    the vertex's subtrees by grafting.
    """
    address = tuple(address)
    if outer.is_trivial:
        raise ValueError("the trivial tree has no vertex to replace")
    if not address:
        if target(inner) != outer.sigma.target:
            raise ValueError(
                f"inserted tree sits over {target(inner)}, vertex needs {outer.sigma.target}"
            )
        return graft(inner, outer.sigma, outer.children, base)
    i, rest = address[0], address[1:]
    if i >= len(outer.children):
        raise ValueError(f"bad vertex address {address}")
    children = list(outer.children)
    children[i] = insert(children[i], rest, inner, base)
    return TreeTerm(outer.sigma, tuple(children), outer.decoration)


def vertices(tree: TreeTerm) -> list:
    """Depth-first list of (address, vertex object sigma.target)."""
    if tree.is_trivial:
        return []
    out = [((), tree.sigma.target)]
    for i, child in enumerate(tree.children):
        out.extend(((i,) + addr, obj) for addr, obj in vertices(child))
    return out


def vertex_count(tree: TreeTerm) -> int:
    if tree.is_trivial:
        return 0
    return 1 + sum(vertex_count(c) for c in tree.children)


def tree_label(tree: TreeTerm) -> str:
    """Canonical string form, used as the operation label in free operads."""
    if tree.is_trivial:
        return "triv"
    dec = tree.decoration if tree.decoration is not None else ""
    inner = ",".join(tree_label(c) for c in tree.children)
    return f"({_sigma_label(tree.sigma)}|{dec}|{inner})"


@functools.lru_cache(maxsize=None)
def enumerate_trees(T, vmax: int, kmax: int, regular: bool, base) -> tuple:
    """The undecorated terms over T, built child list by child list, in
    the order of freeop.enumerate_trees."""
    trees = [trivial(base)] if T == base.terminal() else []
    if vmax >= 1:
        for k in range(kmax + 1):
            for S in _objects_of_size(base, k):
                for sigma in base.morphisms(T, S):
                    if regular and not is_surjective(sigma):
                        continue
                    below = [enumerate_trees(base.fiber(sigma, i), vmax - 1, kmax, regular, base)
                             for i in range(k)]
                    for combo in itertools.product(*below):
                        if 1 + sum(map(vertex_count, combo)) <= vmax:
                            trees.append(TreeTerm(sigma, combo))
    return tuple(trees)


def decorations(tree: TreeTerm, coll):
    """All ways to decorate every vertex from the collection."""
    if tree.is_trivial:
        yield tree
        return
    S = tree.sigma.target
    child_choices = [list(decorations(c, coll)) for c in tree.children]
    for lab in coll.labels(S):
        for combo in itertools.product(*child_choices):
            yield TreeTerm(tree.sigma, combo, lab)


def free_operad_by_terms(coll, vmax: int, kmax: int, regular: bool = True) -> OperadTable:
    """freeop.free_operad built cell by cell on terms: each cell is the
    term graft, found among its object's decorated trees by its label
    (-1 when it is not one of them)."""
    base, K = coll.base, coll.K
    trees, components = {}, {}
    for T in base.objects(K):
        trees[T] = [d for t in enumerate_trees(T, vmax, kmax, regular, base)
                    for d in decorations(t, coll)]
        components[T] = tuple(map(tree_label, trees[T]))
    mult = {}
    C = compile_base(base, K)
    for m, sigma in enumerate(C.morphisms):
        outer, *inner = (trees[C.objects[o]] for o in C.axes(m))
        index = {lab: i for i, lab in enumerate(components[C.objects[C.source[m]]])}
        tab = np.empty((len(outer),) + tuple(map(len, inner)), dtype=np.int32)
        for idx in np.ndindex(tab.shape):
            ys = [ts[a] for ts, a in zip(inner, idx[1:])]
            tab[idx] = index.get(tree_label(graft(outer[idx[0]], sigma, ys, base)), -1)
        mult[sigma] = tab
    return OperadTable(base, K, components, "triv", mult, "Free")
