"""Finitary polynomials and the tree term model of the insertion monads.

The operations of the insertion monad over a base (ordinals for the
level-aware case, finite sets for the symmetric case) are rooted terms:
either the trivial tree, or a node carrying a base morphism
sigma: T -> S together with one subtree per element of S, the i-th
subtree living over fiber(sigma, i).  The target of a node is the
source of its morphism; the trivial tree sits over the terminal object.

Grafting (the free-operad multiplication) and vertex insertion (the
monad multiplication) are defined structurally, so the unit laws hold
on the nose and associativity is the content of check_monad_laws.
A vertex address is the root path of child indices.

TreeTerm is the boundary type of the public functions, the JSON reader
and writer and the DOT export.  Every tree operation runs on integer ids
in _TreeStore, which the public functions intern their terms into and
check_monad_laws uses directly.  The recursive term versions that the
tests hold the store against are in tests/oracles.py.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .ordinals import OrdinalMorphism, enumerate_ordinals
from .operads import (
    FinBase,
    OperadTable,
    OrdBase,
    _target_size,
    base_morphism_from_json,
    base_morphism_to_json,
    cardinality_morphism,
    compile_base,
    is_surjective,
    sorted_distinct,
    within_budget,
)


@dataclass(frozen=True)
class TreeTerm:
    """A term of the tree monad: trivial, or a morphism-labeled node."""

    sigma: object | None = None
    children: tuple["TreeTerm", ...] = ()
    decoration: str | None = None
    trivial_target: object | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if self.sigma is None:
            if self.children or self.decoration is not None:
                raise ValueError("the trivial tree has no children or decoration")
            if self.trivial_target is None:
                raise ValueError("a trivial tree needs its terminal target")
        elif self.trivial_target is not None:
            raise ValueError("only trivial trees carry an explicit target")

    @property
    def is_trivial(self) -> bool:
        return self.sigma is None


def trivial(base) -> TreeTerm:
    return TreeTerm(trivial_target=base.terminal())


def corolla(base, S, decoration: str | None = None) -> TreeTerm:
    """One vertex over S with trivial subtrees: the image of a generator."""
    return TreeTerm(
        base.identity(S), tuple(trivial(base) for _ in range(base.size(S))), decoration
    )


def target(tree: TreeTerm):
    """The object a term is an operation over."""
    return tree.trivial_target if tree.is_trivial else tree.sigma.source


def node_object(tree: TreeTerm):
    """The object whose operations may decorate the root vertex."""
    if tree.is_trivial:
        raise ValueError("the trivial tree has no vertex")
    return tree.sigma.target


def validate_tree(tree: TreeTerm, base) -> None:
    """Check that the tree lives over the base and the fiber conditions at
    every node (raises on failure)."""
    if tree.is_trivial:
        if tree.trivial_target != base.terminal():
            raise ValueError("trivial tree over a non-terminal object")
        return
    sigma = tree.sigma
    if getattr(sigma.target, "n", None) != getattr(base, "n", None):
        raise ValueError(f"a node sits over {sigma.target}, which is not an object of the base")
    if len(tree.children) != _target_size(sigma):
        raise ValueError("child count differs from the morphism target size")
    for i, child in enumerate(tree.children):
        want = base.fiber(sigma, i)
        if target(child) != want:
            raise ValueError(
                f"child {i} has target {target(child)}, expected the fiber {want}"
            )
        validate_tree(child, base)


def vertices(tree: TreeTerm) -> list[tuple[tuple[int, ...], object]]:
    """Depth-first list of (address, vertex object sigma.target)."""
    store = _TreeStore()
    return list(store.vertices[store.intern(tree)])


def vertex_count(tree: TreeTerm) -> int:
    store = _TreeStore()
    return store.sizes[store.intern(tree)]


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
    store = _TreeStore(base)
    r, _, _ = store.graft(store.intern(x), store._mid(sigma), tuple(map(store.intern, ys)))
    return store.term(r)


def insert(outer: TreeTerm, address: tuple[int, ...], inner: TreeTerm, base) -> TreeTerm:
    """Monad multiplication: replace the vertex at the address by a tree.

    The inserted tree must sit over the vertex object; its leaves pick up
    the vertex's subtrees by grafting.
    """
    address = tuple(address)
    if outer.is_trivial:
        raise ValueError("the trivial tree has no vertex to replace")
    store = _TreeStore(base)
    x = store.intern(outer)
    at = {a: (p, S) for p, (a, S) in enumerate(store.vertices[x])}
    if address not in at:
        raise ValueError(f"bad vertex address {address}")
    p, S = at[address]
    if target(inner) != S:
        raise ValueError(f"inserted tree sits over {target(inner)}, vertex needs {S}")
    return store.term(store.insert(x, p, store.intern(inner))[0])


# ---------------------------------------------------------------------------
# enumeration


def enumerate_trees(
    T, vmax: int, kmax: int, regular: bool = True, base=None
) -> list[TreeTerm]:
    """All undecorated terms over T within the stated bounds.

    vmax bounds the vertex count, kmax the size of every vertex object;
    regular restricts node morphisms to surjections (no empty fibers, so
    no stumps).  Deterministic order.
    """
    if base is None:
        base = OrdBase(T.n)
    store = _TreeStore(base)
    return [store.term(i) for i in store.trees(T, vmax, kmax, regular)]


def count_trees(T, vmax: int, kmax: int, regular: bool = True, base=None) -> int:
    """len(enumerate_trees(T, vmax, kmax, regular, base)), counted without
    building a tree.

    >>> from higherop.ordinals import terminal_ordinal
    >>> count_trees(terminal_ordinal(1), 3, 3)  # the trivial tree and 1, 2, 3 unary vertices
    4
    """
    if base is None:
        base = OrdBase(T.n)
    if vmax < 0 or kmax < 0:
        raise ValueError("bounds must be nonnegative")
    return sum(_tree_counts(T, vmax, kmax, regular, base))


@functools.lru_cache(maxsize=None)
def _tree_counts(T, vmax: int, kmax: int, regular: bool, base) -> tuple:
    """counts[v]: the terms over T with v <= vmax vertices that
    _TreeStore.trees lists, node morphism by node morphism, with the
    children's vertex counts convolved over the fibers."""
    counts = [int(T == base.terminal())] + [0] * vmax
    if vmax == 0:
        return tuple(counts)
    for _, fibers in _node_morphisms(T, kmax, regular, base):
        ways = [1] + [0] * (vmax - 1)  # the children, by their total vertex count
        for F in fibers:
            child = _tree_counts(F, vmax - 1, kmax, regular, base)
            ways = [sum(ways[a] * child[v - a] for a in range(v + 1)) for v in range(vmax)]
        for v, w in enumerate(ways):
            counts[v + 1] += w
    return tuple(counts)


def _node_morphisms(T, kmax: int, regular: bool, base):
    """The root morphisms sigma: T -> S, |S| <= kmax, of the trees over T,
    in the order of enumeration, each with its fibers."""
    for k in range(kmax + 1):
        if regular and k > base.size(T):
            return  # no surjection onto a larger object
        for S in _objects_of_size(base, k):
            for sigma in base.morphisms(T, S):
                if not regular or is_surjective(sigma):
                    yield sigma, tuple(base.fiber(sigma, i) for i in range(k))


def _objects_of_size(base, k: int):
    if base.constant_free and k == 0:
        return []
    return [k] if isinstance(base, FinBase) else enumerate_ordinals(base.n, k)


def tree_cardinality(tree: TreeTerm) -> TreeTerm:
    """Push a tree over ordinals down to a tree over finite sets."""
    if tree.is_trivial:
        return trivial(FinBase())
    sigma = tree.sigma
    if not isinstance(sigma, OrdinalMorphism):
        raise ValueError("tree is already over finite sets")
    return TreeTerm(
        cardinality_morphism(sigma),
        tuple(tree_cardinality(c) for c in tree.children),
        tree.decoration,
    )


# ---------------------------------------------------------------------------
# collections and the free operad


@dataclass
class Collection:
    """Labels per object with no unit and no multiplication."""

    base: object
    K: int
    components: dict

    def labels(self, T) -> tuple[str, ...]:
        return self.components.get(T, ())


def tree_label(tree: TreeTerm) -> str:
    """Canonical string form, used as the operation label in free operads."""
    store = _TreeStore()
    return store.label(store.intern(tree))


def _sigma_label(sigma) -> str:
    if isinstance(sigma, OrdinalMorphism):
        prof = "".join(map(str, sigma.target.profile))
        return f"{''.join(map(str, sigma.map))}>{prof}:{sigma.target.size}"
    return f"{''.join(map(str, sigma.map))}>{sigma.target}"


@dataclass
class FreeOperadResult:
    operad: OperadTable
    trees: dict  # object -> tuple of decorated TreeTerms, parallel to labels
    holes: int


def free_operad(
    coll: Collection, vmax: int, kmax: int, regular: bool = True
) -> FreeOperadResult:
    """Free operad on a collection, truncated to the stored tree bounds.

    Components are the decorated trees over each object; the unit is the
    trivial tree and multiplication is grafting.  The trees are ids of one
    _TreeStore, and each cell is the store's graft of its trees.  A graft
    whose result is not among the stored trees of its object (it leaves
    the vertex bound) becomes a truncation hole (entry -1), counted in
    the result.
    """
    base, K = coll.base, coll.K
    store = _TreeStore(base)
    ids, index, components = {}, {}, {}
    for T in base.objects(K):
        ids[T] = [d for t in store.trees(T, vmax, kmax, regular)
                  for d in store.decorations(t, coll.labels)]
        index[T] = {i: slot for slot, i in enumerate(ids[T])}
        components[T] = tuple(map(store.label, ids[T]))
    mult = {}
    C = compile_base(base, K)
    for m, sigma in enumerate(C.morphisms):
        outer, *inner = (ids[C.objects[o]] for o in C.axes(m))
        slots, s = index[C.objects[C.source[m]]], store._mid(sigma)
        tab = np.empty((len(outer),) + tuple(map(len, inner)), dtype=np.int32)
        for idx in np.ndindex(tab.shape):
            leaves = tuple([ts[a] for ts, a in zip(inner, idx[1:])])
            tab[idx] = slots.get(store.graft(outer[idx[0]], s, leaves)[0], -1)
        mult[sigma] = tab
    operad = OperadTable(base, K, components, "triv", mult, "Free")
    trees = {T: tuple(map(store.term, ts)) for T, ts in ids.items()}
    return FreeOperadResult(operad, trees, sum(int((t < 0).sum()) for t in mult.values()))


# ---------------------------------------------------------------------------
# generic polynomial evaluation


@dataclass
class PolynomialData:
    """A finitary polynomial presented by enumeration callbacks.

    operations(i) lists the b with t(b) = i; arity(b) lists the e in the
    finite fiber p^{-1}(b); source(e) gives s(e) in J.
    """

    operations: object  # callable: i -> iterable of b
    arity: object  # callable: b -> sequence of e
    source: object  # callable: e -> j


_MAX_OPERATIONS = 100_000  # operations of a polynomial over one index


def eval_polynomial(P: PolynomialData, X: dict, i_values):
    """Sum over operations of the product of inputs: P(X)_i, tagged by b.

    X maps each index j to a finite list; the result maps each requested i
    to the list of (b, tuple of chosen elements).  Refuses to return
    partial data if an operation fiber enumeration exceeds the budget.
    """
    out = {}
    for i in i_values:
        elems = []
        for count, b in enumerate(P.operations(i), 1):
            within_budget(count, _MAX_OPERATIONS, "{n} operations over index {}", i, early=True)
            pools = [X[P.source(e)] for e in P.arity(b)]
            for combo in itertools.product(*pools):
                elems.append((b, combo))
        out[i] = elems
    return out


def tree_polynomial(n: int, vmax: int, kmax: int, regular: bool = True) -> PolynomialData:
    """The polynomial whose operations over T are the bounded trees over T.

    Arities are marked vertices; the source of a marked vertex is its
    vertex object, so evaluating on a collection counts decorated trees.
    """
    store = _TreeStore(OrdBase(n))

    def operations(T):
        return [store.term(i) for i in store.trees(T, vmax, kmax, regular)]

    def arity(tree):
        return [(tree, addr, obj) for addr, obj in store.vertices[store.intern(tree)]]

    def source(e):
        return e[2]

    return PolynomialData(operations, arity, source)


# ---------------------------------------------------------------------------
# monad laws


@dataclass
class LawReport:
    ok: bool
    violations: list
    unit_instances: int = 0
    assoc_instances: int = 0
    distinct_insertions: int = 0  # insertions computed, one per (x, vertex, y)
    interned_trees: int = 0  # distinct undecorated terms seen, inputs and results
    # wall-clock seconds in distinct insertions and in instance checks, outside comparisons
    timing: dict = field(default_factory=dict, compare=False, repr=False)

    def summary(self) -> str:
        status = "pass" if self.ok else f"FAIL ({len(self.violations)} violations)"
        return (
            f"{status}: {self.unit_instances} unit instances, "
            f"{self.assoc_instances} associativity instances"
        )


class _TreeStore:
    """Terms as integer ids, and memoised graft and insertion between them.
    The public tree functions run here on interned terms.

    Node morphisms are numbered as they are met, and a term is keyed by its
    node morphism's number, its children's ids and its root's decoration
    (the trivial tree by None), so two terms are equal exactly when their
    ids are.  Per id the store keeps the node, the vertex count, the
    preorder vertex list (address, object) and per vertex its node
    morphism's number and its subtree's vertex count.  The base is needed
    by graft, insert, trees and term only.

    Insertions are numbered entries.  Entry e inserts y at the vertex of x
    at preorder position p (inputs[e] = (x, p, y)); result[e] is the id of
    the result, and x_lands[e] and y_lands[e] hold where x's and y's
    vertices land, as preorder positions in the result (-1 for x's replaced
    vertex).  The landing rows are padded with -1 to width, one more than
    the largest vertex count, so a gather at position -1 reads -1.
    """

    def __init__(self, base=None):
        self.base = base
        self.ids: dict = {}
        self.nodes: list = []  # (morphism number, child ids, decoration), or None: trivial
        self.sizes: list[int] = []
        self.vertices: list[tuple] = []
        self.shapes: list[tuple] = []  # per vertex, its morphism number and subtree size
        self.morphisms: list = []
        self._mids: dict = {}
        self._targets: list[int] = []  # per morphism, the number of its target object
        self.objects: list = []
        self._oids: dict = {}
        self.addresses: list[tuple] = []
        self._aids: dict = {}
        self._blocks: dict = {}
        self._grafts: dict = {}
        self._trees: dict = {}  # (T, vmax, kmax, regular) -> the ids that trees lists
        self._tuples: dict = {}  # one copy of each landing tuple; there are few
        self.width = 1
        # the entry arrays and the table are views of the first rows of these, which
        # grow by doubling
        self._room = {"inputs": np.zeros((0, 3), dtype=np.int64),
                      "result": np.zeros(0, dtype=np.int64),
                      "x_lands": np.full((0, 1), -1, dtype=np.int32),
                      "y_lands": np.full((0, 1), -1, dtype=np.int32),
                      "table": np.full((0, 1, 3), -1, dtype=np.int64)}
        self.inputs, self.result, self.x_lands, self.y_lands, self._table = self._room.values()
        self._keys = np.zeros(0, dtype=np.int64)  # packed inputs, sorted
        self._entries = np.zeros(0, dtype=np.int64)  # the entry of each sorted key
        self.insert_s = 0.0

    @staticmethod
    def _number(value, numbers: dict, values: list) -> int:
        i = numbers.get(value)
        if i is None:
            i = numbers[value] = len(values)
            values.append(value)
        return i

    def _mid(self, sigma) -> int:
        m = self._mids.get(sigma)
        if m is None:
            m = self._number(sigma, self._mids, self.morphisms)
            self._targets.append(self._number(sigma.target, self._oids, self.objects))
        return m

    def _node(self, m, kids: tuple = (), dec: str | None = None) -> int:
        """The id of the term with node morphism number m over the kids and
        root decoration dec (the trivial tree when m is None)."""
        key = None if m is None else (m, kids, dec)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.nodes)
            self.nodes.append(key)
            if m is None:
                self.sizes.append(0)
                self.vertices.append(())
                self.shapes.append(())
                return i
            size = 1 + sum(self.sizes[c] for c in kids)
            self.sizes.append(size)
            self.width = max(self.width, size + 1)
            self.vertices.append((((), self.morphisms[m].target),) + tuple(
                ((j,) + a, obj) for j, c in enumerate(kids) for a, obj in self.vertices[c]))
            self.shapes.append(((m, size),) + tuple(
                itertools.chain.from_iterable(self.shapes[c] for c in kids)))
        return i

    def intern(self, tree: TreeTerm) -> int:
        if tree.is_trivial:
            return self._node(None)
        return self._node(self._mid(tree.sigma), tuple(map(self.intern, tree.children)),
                          tree.decoration)

    def term(self, i: int) -> TreeTerm:
        """The TreeTerm with id i."""
        if self.nodes[i] is None:
            return trivial(self.base)
        m, kids, dec = self.nodes[i]
        return TreeTerm(self.morphisms[m], tuple(map(self.term, kids)), dec)

    def label(self, i: int, prefix: str | None = None) -> str:
        """The canonical string form of term i: "triv", or
        (node morphism|decoration|children).  With a prefix, its vertices
        are tagged prefix0, prefix1, ... in preorder instead."""
        tags = itertools.count()

        def walk(t: int) -> str:
            if self.nodes[t] is None:
                return "triv"
            m, kids, dec = self.nodes[t]
            if prefix is not None:
                dec = f"{prefix}{next(tags)}"
            return (f"({_sigma_label(self.morphisms[m])}|{'' if dec is None else dec}|"
                    f"{','.join(map(walk, kids))})")

        return walk(i)

    def trees(self, T, vmax: int, kmax: int, regular: bool) -> tuple:
        """The ids of enumerate_trees(T, vmax, kmax, regular), in its order:
        the trivial tree, then root morphism by root morphism, the
        children's trees in product order."""
        key = (T, vmax, kmax, regular)
        ids = self._trees.get(key)
        if ids is None:
            if vmax < 0 or kmax < 0:
                raise ValueError("bounds must be nonnegative")
            ids = [self._node(None)] if T == self.base.terminal() else []
            if vmax >= 1:
                sizes = self.sizes
                for sigma, fibers in _node_morphisms(T, kmax, regular, self.base):
                    m = self._mid(sigma)
                    below = [self.trees(F, vmax - 1, kmax, regular) for F in fibers]
                    ids.extend(self._node(m, kids) for kids in itertools.product(*below)
                               if sum(sizes[c] for c in kids) < vmax)
            ids = self._trees[key] = tuple(ids)
        return ids

    def decorations(self, i: int, labels) -> list[int]:
        """The ids of term i with every vertex decorated from labels(vertex
        object), in every way, the root's label varying slowest."""
        if self.nodes[i] is None:
            return [i]
        m, kids, _ = self.nodes[i]
        below = [self.decorations(c, labels) for c in kids]
        return [self._node(m, combo, lab) for lab in labels(self.morphisms[m].target)
                for combo in itertools.product(*below)]

    def _block(self, a: int, s: int) -> tuple:
        """For node morphism a: S -> S'' grafted along s: T -> S, the number
        of a after s, the numbers of s restricted over each element j of S'',
        and the elements of S over each j."""
        inner, sigma = self.morphisms[a], self.morphisms[s]
        fibers = tuple(tuple(e for e, v in enumerate(inner.map) if v == j)
                       for j in range(_target_size(inner)))
        return (self._mid(self.base.compose(inner, sigma)),
                tuple(self._mid(self.base.restrict(sigma, inner, j)) for j in range(len(fibers))),
                fibers)

    def graft(self, y: int, s: int, leaves: tuple) -> tuple:
        """graft(y, sigma, leaves) on ids, sigma numbered s: (result, y's
        landings, offsets).  Each leaf lands whole, its vertices from
        offsets[e] on."""
        key = (y, s, leaves)
        hit = self._grafts.get(key)
        if hit is None:
            if self.nodes[y] is None:  # s: T -> terminal has a single fiber
                hit = (leaves[0], (), (0,))
            else:
                a, kids, dec = self.nodes[y]
                block = self._blocks.get((a, s))
                if block is None:
                    block = self._blocks[a, s] = self._block(a, s)
                c, rhos, fibers = block
                nodes, sizes = self.nodes, self.sizes
                new, lands, offsets, at = [], [0], [0] * len(leaves), 1
                for kid, rho, fiber in zip(kids, rhos, fibers):
                    if nodes[kid] is None:  # a leaf of y over one element, whose tree lands whole
                        g = leaves[fiber[0]]
                        offsets[fiber[0]] = at
                    else:
                        g, kid_lands, kid_offsets = self.graft(kid, rho, tuple([leaves[e] for e in fiber]))
                        lands += [at + q for q in kid_lands]
                        for e, o in zip(fiber, kid_offsets):
                            offsets[e] = at + o
                    new.append(g)
                    at += sizes[g]
                lands, offsets = tuple(lands), tuple(offsets)
                hit = (self._node(c, tuple(new), dec), self._tuples.setdefault(lands, lands),
                       self._tuples.setdefault(offsets, offsets))
            self._grafts[key] = hit
        return hit

    def insert(self, x: int, p: int, y: int) -> tuple:
        """insert(x, address, y) on ids, for the vertex of x at preorder
        position p: (result, the vertex's children, the offsets from p at
        which their trees land, and those at which y's vertices land)."""
        nodes, sizes = self.nodes, self.sizes
        path, t, q = [], x, p
        while q:
            m, kids, dec = nodes[t]
            q -= 1
            for slot, t in enumerate(kids):
                if q < sizes[t]:
                    break
                q -= sizes[t]
            path.append((m, kids, dec, slot))
        m, below, _ = nodes[t]
        r, y_lands, offsets = self.graft(y, m, below)
        for m, kids, dec, slot in reversed(path):
            r = self._node(m, kids[:slot] + (r,) + kids[slot + 1:], dec)
        return r, below, offsets, y_lands

    def lookup(self, x, p, y) -> np.ndarray:
        """The entries inserting y[i] at position p[i] of x[i]; the insertions
        not seen yet run once each.  Inputs pack into one int64 key, so ids
        stay below 2^24 and vertex counts below 2^15."""
        within_budget(len(self.nodes), 1 << 24, "{n} interned trees to key")
        within_budget(self.width, 1 << 15, "trees of {n} vertices to key")
        keys = (np.asarray(x, np.int64) << 39) | (np.asarray(y, np.int64) << 15) | p
        at = np.searchsorted(self._keys, keys)
        seen = at < len(self._keys)
        seen[seen] = self._keys[at[seen]] == keys[seen]
        if not seen.all():
            self._run(sorted_distinct(keys[~seen]))
            at = np.searchsorted(self._keys, keys)
        return self._entries[at]

    def _run(self, keys: np.ndarray) -> None:
        start = time.perf_counter()
        x, p, y = keys >> 39, keys & 0x7FFF, (keys >> 15) & 0xFFFFFF
        rows = [self.insert(*key) for key in zip(x.tolist(), p.tolist(), y.tolist())]
        first = len(self.inputs)
        results, below, offsets, y_offsets = zip(*rows)
        x_lands, y_lands = self._landings(x, p, y, below, offsets, y_offsets)
        for name, new in (("inputs", np.stack([x, p, y], axis=1)), ("result", results),
                          ("x_lands", x_lands), ("y_lands", y_lands)):
            room = self._room[name] = _appended(self._room[name], first, np.asarray(new))
            setattr(self, name, room[:first + len(keys)])
        at = np.searchsorted(self._keys, keys)
        self._keys = np.insert(self._keys, at, keys)
        self._entries = np.insert(self._entries, at, np.arange(first, len(self.inputs)))
        self.insert_s += time.perf_counter() - start

    def _landings(self, x, p, y, below, offsets, y_offsets) -> tuple:
        """The landing rows of x's and y's vertices, from what insert returns.

        x's vertices before position p stay, the one at p is replaced, the
        trees of its children (the blocks after it, in order) move whole to
        their offsets, and the vertices after its subtree shift by y's
        vertex count less one.
        """
        sizes = np.array(self.sizes, dtype=np.int64)
        child = _padded(below, 1)
        L = np.where(child >= 0, sizes[child], 0)
        ends = np.cumsum(L, axis=1)  # of each child's block, counted from p + 1
        q = np.arange(self.width)
        P = p[:, None]
        rel = q - P - 1
        e = np.minimum((ends[:, None, :] <= rel[:, :, None]).sum(axis=2), ends.shape[1] - 1)
        moved = P + np.take_along_axis(_padded(offsets, 1) - ends + L, e, axis=1) + rel
        x_lands = np.where(q < P, q, np.where(rel < 0, -1, np.where(
            rel < ends[:, -1:], moved, q + (sizes[y] - 1)[:, None])))
        x_lands[q >= sizes[x][:, None]] = -1
        y_lands = _padded(y_offsets, self.width)
        y_lands = np.where(y_lands >= 0, y_lands + P, -1)
        return x_lands.astype(np.int32), y_lands.astype(np.int32)

    def table(self) -> np.ndarray:
        """[id, preorder position] -> (address id, object number, subtree
        size) of the vertex, -1 past the last vertex."""
        have = len(self._table)
        if have < len(self.nodes):
            number = self._number
            codes = [(number(a, self._aids, self.addresses), self._targets[m], size)
                     for verts, shape in zip(self.vertices[have:], self.shapes[have:])
                     for (a, _), (m, size) in zip(verts, shape)]
            block = np.full((len(self.nodes) - have, self.width, 3), -1, dtype=np.int64)
            block[_ragged(np.zeros(len(block), np.int64), np.array(self.sizes[have:]))] = (
                np.array(codes, dtype=np.int64).reshape(-1, 3))
            self._room["table"] = _appended(self._room["table"], have, block)
            self._table = self._room["table"][:len(self.nodes)]
        return self._table

    def joined(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The ids of the addresses a[i] + b[i] (-1: no term has one)."""
        n = len(self.addresses)
        keys = a * n + b
        pairs = sorted_distinct(keys)
        ids = [self._aids.get(self.addresses[k // n] + self.addresses[k % n], -1)
               for k in pairs.tolist()]
        return np.array(ids, dtype=np.int64).reshape(-1)[np.searchsorted(pairs, keys)]


def _padded(rows, width: int) -> np.ndarray:
    """Rows of ints as an int64 array of at least width columns, padded with -1."""
    lens = np.fromiter(map(len, rows), np.int64, len(rows))
    out = np.full((len(rows), max(width, int(lens.max(initial=0)))), -1, dtype=np.int64)
    out[_ragged(np.zeros(len(rows), np.int64), lens)] = np.fromiter(
        itertools.chain.from_iterable(rows), np.int64, int(lens.sum()))
    return out


def _appended(room: np.ndarray, used: int, rows: np.ndarray) -> np.ndarray:
    """room with rows written after its first used rows; when they do not
    fit, or are wider, a copy twice as long (padded with -1) takes them."""
    need = used + len(rows)
    if need > len(room) or rows.shape[1:] > room.shape[1:]:
        grown = np.full((max(need, 2 * len(room)),) + rows.shape[1:], -1, room.dtype)
        grown[(slice(used),) + tuple(map(slice, room.shape[1:]))] = room[:used]
        room = grown
    room[used:need] = rows
    return room


def _ragged(starts: np.ndarray, lens: np.ndarray) -> tuple:
    """(i, position) for each i and each position starts[i], ...,
    starts[i] + lens[i] - 1, in that order."""
    rows = np.repeat(np.arange(len(lens)), lens)
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    return rows, np.arange(total) - np.repeat(ends - lens - starts, lens)


def _through(landing: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Row by row, where the vertices at these positions land, -1 staying -1."""
    return np.take_along_axis(landing, positions, axis=1)


def _differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a != b).any(axis=1)


def _find(rows: np.ndarray, want: np.ndarray) -> np.ndarray:
    """The column where each row holds want[i]."""
    hit = rows == want[:, None]
    if not hit.any(axis=1).all():
        raise ValueError("an insertion lost a vertex address")
    return hit.argmax(axis=1)


# trees that check_monad_laws enumerates at most; n=2, vmax=3, kmax=4 has 8,853
_MAX_TREES = 10_000
# law instances that check_monad_laws checks at most.  It checks 300,000 to 650,000
# a second on two cores (n=2, vmax=3, kmax=4: 726,909 in 2.2-3.0 s; n=1, vmax=10,
# kmax=3: 3.37M in 9.6 s at 154 MB), so this bounds a check by about 14 s and
# refuses n=1, vmax=12, kmax=3 (15.7M instances).
_MAX_LAW_INSTANCES = 4_000_000
# law instances checked in one batch, so that the batch's arrays stay small
_BATCH = 1 << 15


def _law_instances(store: _TreeStore, ids_by_target: dict, vmax: int, kmax: int,
                   regular: bool, base) -> list[int]:
    """Per tree x, the unit, associativity and commutation instances that
    check_monad_laws visits with x outermost, counted without an insertion.

    Each tree x contributes one unit instance per vertex and one for the
    corolla, and its vertices v and pairs of independent vertices (v, w)
    contribute the inserted trees that fit the vertex bound, counted
    from the trees per (object, vertex count).  The trees go in the
    order of ids_by_target, and within_budget refuses them once their sum
    passes _MAX_LAW_INSTANCES.
    """
    counts = {S: _tree_counts(S, vmax, kmax, regular, base) for S in ids_by_target}
    upto = {S: list(itertools.accumulate(c)) for S, c in counts.items()}

    def fits(S, c: int) -> int:  # the trees over S with at most c vertices
        return upto[S][min(c, vmax)] if c >= 0 else 0

    vertex_lists = {S: [store.vertices[i] for i in ids] for S, ids in ids_by_target.items()}
    # nested[S][c]: the (y, w, z) of the associativity law under a vertex over S,
    # when y may have c vertices: y over S, w a vertex of y, z over the object of w
    nested = {S: [0] * (vmax + 1) for S in vertex_lists}
    for S, trees in vertex_lists.items():
        for ys in trees:
            for c in range(len(ys), vmax + 1):
                nested[S][c] += sum(fits(S_w, c - len(ys) + 1) for _, S_w in ys)

    @functools.lru_cache(maxsize=None)
    def pairs(S_v, S_w, c: int) -> int:  # y over S_v and z over S_w with c vertices at most
        return sum(counts[S_v][a] * fits(S_w, c - a) for a in range(min(c, vmax) + 1))

    out, total = [], 0
    for S, trees in vertex_lists.items():
        for xs in trees:
            nx = len(xs)
            count = nx + 1 + sum(nested[S_v][vmax - nx + 1] for _, S_v in xs)
            for i, (v, S_v) in enumerate(xs):
                # the later vertices outside v's subtree; preorder is address order
                count += sum(pairs(S_v, S_w, vmax - nx + 2)
                             for w, S_w in xs[i + 1:] if w[:len(v)] != v)
            out.append(count)
            total = within_budget(total + count, _MAX_LAW_INSTANCES,
                                  "the monad laws at n={}, vmax={}, kmax={} have {n} instances",
                                  base.n, vmax, kmax, early=True)
    return out


def check_monad_laws(n: int, vmax: int, kmax: int, regular: bool = True) -> LawReport:
    """Unit and associativity laws for insertion, exhaustive within bounds.

    Unit laws run over every enumerated tree: replacing any vertex by the
    corolla over its object is the identity, and inserting into the unique
    vertex of a corolla returns the inserted tree.  Associativity runs
    over every two-level insertion whose flattened result still fits the
    vertex bound (so all instances that land in the enumerated world):
    inserting y at v and then z at a vertex w coming from y agrees with
    inserting insert(y, w, z) at v directly.  Insertion keeps the
    inserted tree's shape, so y's vertex w must land at address v + w of
    the result.  Independent vertices are also checked to commute.  Two
    sides agree when they are the same tree and every vertex of x, y and z
    lands at the same position on both.

    The trees are integer ids, and each distinct insertion runs once, on
    ids, through _TreeStore.insert, which records where every vertex
    lands.  The instances of a batch of outer trees are integer arrays
    whose insertions are looked up among the entries at once, and both
    sides are compared by gathers; the violations come in the order of
    the nested loops over x, v, y, w and z.  The trees are counted first,
    and BudgetExceededError is raised before any is built when there are
    more than _MAX_TREES; the instances are counted next, and refused
    past _MAX_LAW_INSTANCES before any insertion.
    """
    base = OrdBase(n)
    all_objects, count = [], 0
    for k in range(kmax + 1):  # smallest first, so the largest are not counted past the budget
        for T in _objects_of_size(base, k):
            count += count_trees(T, vmax, kmax, regular, base)
            within_budget(count, _MAX_TREES, "the monad laws at n={}, vmax={}, kmax={} range "
                          "over {n} trees", n, vmax, kmax, early=True)
            all_objects.append(T)
    store = _TreeStore(base)
    ids_by_target = {T: store.trees(T, vmax, kmax, regular) for T in all_objects}
    per_x = _law_instances(store, ids_by_target, vmax, kmax, regular, base)
    rep = LawReport(ok=True, violations=[])
    start = time.perf_counter()
    _check_laws(rep, store, ids_by_target, vmax, per_x)
    rep.ok = not rep.violations
    rep.distinct_insertions = len(store.inputs)
    rep.interned_trees = len(store.nodes)
    rep.timing = {"insertions_s": round(store.insert_s, 3),
                  "instances_s": round(time.perf_counter() - start - store.insert_s, 3)}
    return rep


def _check_laws(rep: LawReport, store: _TreeStore, ids_by_target: dict, vmax: int,
                per_x: list) -> None:
    """The instances of check_monad_laws; stops after the unit laws if one
    fails, and at the first instance once ten violations are recorded."""
    objects = list(ids_by_target)
    corollas = np.array([store.intern(corolla(store.base, S)) for S in objects], dtype=np.int64)
    trees = [np.array(ids, dtype=np.int64) for ids in ids_by_target.values()]
    xs = np.concatenate(trees)
    sizes = np.array(store.sizes, dtype=np.int64)
    codes = store.table()
    place = {S: k for k, S in enumerate(objects)}  # store object number -> place in objects
    places = np.array([place.get(S, -1) for S in store.objects] + [-1], dtype=np.int64)
    vobj = places[codes[:, :, 1]]  # -1 past the last vertex reads the appended -1

    # candidates: the trees over objects[k] with at most c vertices, in order, are
    # pool[start[g] : start[g] + lens[g]] for g = k * (vmax + 1) + c
    groups = [ids[sizes[ids] <= c] for ids in trees for c in range(vmax + 1)]
    groups.append(np.zeros(0, np.int64))  # for objects without trees and bounds below 0
    lens = np.array([len(g) for g in groups], dtype=np.int64)
    starts = np.cumsum(lens) - lens
    pool = np.concatenate(groups)

    def candidates(obj: np.ndarray, c: np.ndarray) -> tuple:
        g = np.where((obj >= 0) & (c >= 0), obj * (vmax + 1) + np.minimum(c, vmax), len(groups) - 1)
        rows, at = _ragged(starts[g], lens[g])
        return rows, pool[at]

    # unit laws, object by object: every vertex of every tree replaced by its corolla,
    # then every tree inserted into the corolla
    parts = []
    for k, ids in enumerate(trees):
        r, p = _ragged(np.zeros(len(ids), np.int64), sizes[ids])
        x = ids[r]
        parts.append((x, p, corollas[vobj[x, p]], x, np.full(len(x), -1)))
        parts.append((np.full(len(ids), corollas[k]), np.zeros(len(ids), np.int64), ids, ids,
                      np.full(len(ids), k)))
    x, p, y, want, over = (np.concatenate(col) for col in zip(*parts))
    rep.unit_instances = len(x)
    e = store.lookup(x, p, y)
    for i in np.flatnonzero(store.result[e] != want).tolist():
        if over[i] >= 0:
            rep.violations.append(f"unit fails: inserting {store.label(y[i])} "
                                  f"into the corolla over {objects[over[i]]}")
        else:
            rep.violations.append(
                f"unit fails: replacing vertex {store.vertices[x[i]][p[i]][0]} of "
                f"{store.label(x[i])} by its corolla changed the tree")
    if rep.violations:
        return

    bounds = np.flatnonzero(np.diff(np.cumsum(per_x) // _BATCH)) + 1
    for chunk in np.split(xs, bounds):
        if _check_batch(rep, store, chunk, sizes, vobj, candidates, vmax):
            return


def _check_batch(rep, store, xs, sizes, vobj, candidates, vmax) -> bool:
    """The associativity and commutation instances with outer tree in xs;
    True once the check stops."""
    # (x, v): every vertex of every x, at preorder position p
    r, p = _ragged(np.zeros(len(xs), np.int64), sizes[xs])
    x, nx = xs[r], sizes[xs][r]
    codes = store.table()
    sub = codes[x, p, 2]

    # associativity: y over v's object, w its j-th vertex, z over w's object
    a, y = candidates(vobj[x, p], vmax - nx + 1)
    first = store.lookup(x[a], p[a], y)
    b, j = _ragged(np.zeros(len(y), np.int64), sizes[y])
    xv, yb, e1 = a[b], y[b], first[b]
    land = store.y_lands[e1, j]
    codes = store.table()
    vw = store.joined(codes[x[xv], p[xv], 0], codes[yb, j, 0])
    vanished = (land < 0) | (codes[store.result[e1], land, 0] != vw)
    kept = np.flatnonzero(~vanished)
    c, z = candidates(vobj[yb[kept], j[kept]], (vmax - nx[xv] - sizes[yb] + 2)[kept])
    at = kept[c]
    yz = store.lookup(yb[at], j[at], z)
    lhs = store.lookup(x[xv[at]], p[xv[at]], store.result[yz])
    rhs = store.lookup(store.result[e1[at]], land[at], z)

    # commutation: w a later vertex of x outside v's subtree, y over v's and z over w's object
    v, q = _ragged(p + sub, nx - p - sub)
    d, y2 = candidates(vobj[x[v], p[v]], vmax - nx[v] + 2)
    vq = v[d]
    f, z2 = candidates(vobj[x[vq], q[d]], vmax - nx[vq] - sizes[y2] + 2)
    vc, qc, y2 = vq[f], q[d][f], y2[f]
    xy = store.lookup(x[vc], p[vc], y2)
    xz = store.lookup(x[vc], qc, z2)
    codes = store.table()
    one = store.lookup(store.result[xy], _find(codes[store.result[xy], :, 0], codes[x[vc], qc, 0]), z2)
    other = store.lookup(store.result[xz], _find(codes[store.result[xz], :, 0], codes[x[vc], p[vc], 0]), y2)

    res, XL, YL = store.result, store.x_lands, store.y_lands
    bad_assoc = ((res[lhs] != res[rhs]) | _differ(XL[lhs], _through(XL[rhs], XL[e1[at]]))
                 | _differ(_through(YL[lhs], XL[yz]), _through(XL[rhs], YL[e1[at]]))
                 | _differ(_through(YL[lhs], YL[yz]), YL[rhs]))
    bad_commute = ((res[one] != res[other])
                   | _differ(_through(XL[one], XL[xy]), _through(XL[other], XL[xz]))
                   | _differ(_through(XL[one], YL[xy]), YL[other])
                   | _differ(YL[one], _through(XL[other], YL[xz])))
    if not (vanished.any() or bad_assoc.any() or bad_commute.any()):
        rep.assoc_instances += len(at) + len(vc)
        return False

    # replay the violations in loop order: per (x, v), the associativity events
    # (a vanished vertex before the instances of the next) and then the commutations
    gone = np.flatnonzero(vanished)
    kind = np.concatenate([np.zeros(len(gone), np.int64), np.ones(len(at), np.int64),
                           np.full(len(vc), 2)])
    index = np.concatenate([gone, np.arange(len(at)), np.arange(len(vc))])
    order = np.lexsort((
        np.concatenate([2 * np.searchsorted(at, gone), 2 * np.arange(len(at)) + 1,
                        np.arange(len(vc))]),
        kind == 2,
        np.concatenate([xv[gone], xv[at], vc]),
    ))
    kind, index = kind[order], index[order]
    bad = np.concatenate([np.ones(len(gone), bool), bad_assoc, bad_commute])[order]
    recorded = len(rep.violations) + np.cumsum(bad)
    stops = np.flatnonzero((kind > 0) & (recorded >= 10))
    end = stops[0] + 1 if len(stops) else len(kind)
    rep.assoc_instances += int(np.count_nonzero(kind[:end] > 0))
    for k, i in zip(kind[:end][bad[:end]].tolist(), index[:end][bad[:end]].tolist()):
        if k == 0:
            xi, pi = x[xv[i]], p[xv[i]]
            rep.violations.append(f"vertex y{j[i]} vanished when inserting at "
                                  f"{store.vertices[xi][pi][0]}")
        elif k == 1:
            xi, pi, yi, ji = x[xv[at[i]]], p[xv[at[i]]], yb[at[i]], j[at[i]]
            rep.violations.append(
                "associativity fails: "
                f"x={store.label(xi, 'x')} v={store.vertices[xi][pi][0]} "
                f"y={store.label(yi, 'y')} w={store.vertices[yi][ji][0]} "
                f"z={store.label(z[i], 'z')}")
        else:
            xi = x[vc[i]]
            rep.violations.append(
                "independent insertions do not commute: "
                f"x={store.label(xi, 'x')} v={store.vertices[xi][p[vc[i]]][0]} "
                f"w={store.vertices[xi][qc[i]][0]}")
    return bool(len(stops))


# ---------------------------------------------------------------------------
# serialisation


def tree_to_json(tree: TreeTerm):
    if tree.is_trivial:
        return "trivial"
    return {
        "node": {
            "sigma": base_morphism_to_json(tree.sigma),
            "decoration": tree.decoration,
            "children": [tree_to_json(c) for c in tree.children],
        }
    }


def tree_from_json(data, base) -> TreeTerm:
    if data == "trivial":
        return trivial(base)
    node = data["node"]
    return TreeTerm(
        base_morphism_from_json(node["sigma"], base),
        tuple(tree_from_json(c, base) for c in node["children"]),
        node["decoration"],
    )


def tree_to_dot(tree: TreeTerm) -> str:
    """Deterministic DOT drawing with one node per vertex."""
    lines = ["digraph tree {"]
    if tree.is_trivial:
        lines.append('  t [label="trivial", shape=none];')
    else:

        def walk(t: TreeTerm, name: str) -> None:
            dec = f" {t.decoration}" if t.decoration else ""
            lines.append(f'  {name} [label="{_sigma_label(t.sigma)}{dec}"];')
            for i, c in enumerate(t.children):
                if c.is_trivial:
                    leaf = f"{name}_{i}"
                    lines.append(f'  {leaf} [label="leaf", shape=none];')
                    lines.append(f"  {leaf} -> {name};")
                else:
                    child = f"{name}_{i}"
                    walk(c, child)
                    lines.append(f"  {child} -> {name};")

        walk(tree, "v")
    lines.append("}")
    return "\n".join(lines) + "\n"
