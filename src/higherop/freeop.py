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
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .ordinals import OrdinalMorphism
from .operads import (
    BudgetExceededError,
    FinBase,
    OperadTable,
    OrdBase,
    _target_size,
    base_morphism_from_json,
    base_morphism_to_json,
    cardinality_morphism,
    compile_base,
    is_surjective,
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
    """Check the fiber conditions at every node (raises on failure)."""
    if tree.is_trivial:
        if tree.trivial_target != base.terminal():
            raise ValueError("trivial tree over a non-terminal object")
        return
    sigma = tree.sigma
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


def subtree_at(tree: TreeTerm, address: tuple[int, ...]) -> TreeTerm:
    for i in address:
        if tree.is_trivial or i >= len(tree.children):
            raise ValueError(f"bad vertex address {address}")
        tree = tree.children[i]
    if tree.is_trivial:
        raise ValueError(f"address {address} points at a trivial subtree")
    return tree


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
    if vmax < 0 or kmax < 0:
        raise ValueError("bounds must be nonnegative")
    return list(_enum_trees(T, vmax, kmax, regular, base)[0])


@functools.lru_cache(maxsize=None)
def _enum_trees(T, budget: int, kmax: int, regular: bool, base) -> tuple:
    """The terms over T in enumerate_trees's order, and their vertex counts."""
    trees, sizes = [], []
    if T == base.terminal():
        trees.append(trivial(base))
        sizes.append(0)
    if budget >= 1:
        for k in range(kmax + 1):
            for S in _objects_of_size(base, k):
                for sigma in base.morphisms(T, S):
                    if regular and not is_surjective(sigma):
                        continue
                    child_lists = [_enum_trees(base.fiber(sigma, i), budget - 1, kmax, regular, base)
                                   for i in range(k)]
                    for combo, counts in zip(itertools.product(*(ts for ts, _ in child_lists)),
                                             itertools.product(*(cs for _, cs in child_lists))):
                        v = 1 + sum(counts)
                        if v <= budget:
                            trees.append(TreeTerm(sigma, combo))
                            sizes.append(v)
    return tuple(trees), tuple(sizes)


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
    """counts[v]: the terms over T with v <= vmax vertices that _enum_trees
    yields, node morphism by node morphism, with the children's vertex
    counts convolved over the fibers."""
    counts = [int(T == base.terminal())] + [0] * vmax
    if vmax == 0:
        return tuple(counts)
    for k in range(kmax + 1):
        if regular and k > base.size(T):
            break  # no surjection onto a larger object
        for S in _objects_of_size(base, k):
            for sigma in base.morphisms(T, S):
                if regular and not is_surjective(sigma):
                    continue
                ways = [1] + [0] * (vmax - 1)  # the children, by their total vertex count
                for i in range(k):
                    child = _tree_counts(base.fiber(sigma, i), vmax - 1, kmax, regular, base)
                    ways = [sum(ways[a] * child[v - a] for a in range(v + 1)) for v in range(vmax)]
                for v, w in enumerate(ways):
                    counts[v + 1] += w
    return tuple(counts)


def _objects_of_size(base, k: int):
    if isinstance(base, FinBase):
        return [k] if (k >= 1 or not base.constant_free) else []
    from .ordinals import enumerate_ordinals

    if base.constant_free and k == 0:
        return []
    return enumerate_ordinals(base.n, k)


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


def _decorate(tree: TreeTerm, coll: Collection):
    """All ways to decorate every vertex from the collection."""
    if tree.is_trivial:
        yield tree
        return
    S = tree.sigma.target
    child_choices = [list(_decorate(c, coll)) for c in tree.children]
    for lab in coll.labels(S):
        for combo in itertools.product(*child_choices):
            yield TreeTerm(tree.sigma, combo, lab)


def tree_label(tree: TreeTerm) -> str:
    """Canonical string form, used as the operation label in free operads."""
    if tree.is_trivial:
        return "triv"
    dec = tree.decoration if tree.decoration is not None else ""
    inner = ",".join(tree_label(c) for c in tree.children)
    return f"({_sigma_label(tree.sigma)}|{dec}|{inner})"


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
    trivial tree and multiplication is grafting.  A graft whose result
    leaves the vertex bound becomes a truncation hole (entry -1), counted
    in the result.
    """
    base, K = coll.base, coll.K
    trees = {}
    components = {}
    for T in base.objects(K):
        decorated = []
        for t in enumerate_trees(T, vmax, kmax, regular, base):
            decorated.extend(_decorate(t, coll))
        trees[T] = tuple(decorated)
        components[T] = tuple(tree_label(t) for t in decorated)
    index = {
        T: {lab: i for i, lab in enumerate(labs)} for T, labs in components.items()
    }
    holes = 0
    mult = {}
    C = compile_base(base, K)
    for m, sigma in enumerate(C.morphisms):
        outer, *inner = (trees[C.objects[o]] for o in C.axes(m))
        slots = index[C.objects[C.source[m]]]
        tab = np.empty((len(outer),) + tuple(map(len, inner)), dtype=np.int32)
        for idx in np.ndindex(tab.shape):
            ys = [ts[a] for ts, a in zip(inner, idx[1:])]
            slot = slots.get(tree_label(graft(outer[idx[0]], sigma, ys, base)))
            if slot is None:
                holes += 1
                slot = -1
            tab[idx] = slot
        mult[sigma] = tab
    operad = OperadTable(base, K, components, "triv", mult, "Free")
    return FreeOperadResult(operad, trees, holes)


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
        count = 0
        for b in P.operations(i):
            count += 1
            if count > _MAX_OPERATIONS:
                raise BudgetExceededError(
                    f"more than {_MAX_OPERATIONS} operations over index {i}"
                )
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
    base = OrdBase(n)

    def operations(T):
        return enumerate_trees(T, vmax, kmax, regular, base)

    def arity(tree):
        return [(tree, addr, obj) for addr, obj in vertices(tree)]

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
    distinct_insertions: int = 0  # insertions computed, one per (x, address, y)
    interned_trees: int = 0  # distinct undecorated terms seen, inputs and results

    def summary(self) -> str:
        status = "pass" if self.ok else f"FAIL ({len(self.violations)} violations)"
        return (
            f"{status}: {self.unit_instances} unit instances, "
            f"{self.assoc_instances} associativity instances"
        )


def _redecorate(tree: TreeTerm, decorations) -> TreeTerm:
    """tree with its vertices decorated from the iterator, in preorder."""
    if tree.is_trivial:
        return tree
    dec = next(decorations)
    return TreeTerm(tree.sigma, tuple(_redecorate(c, decorations) for c in tree.children), dec)


def _tags(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(count)]


class _TreeStore:
    """Interned undecorated terms and memoised insertion, for one law check.

    A term's id is keyed by its node morphism and its children's ids, so two
    terms are equal exactly when their ids are.  Per id the store keeps the
    term, its vertex count and its preorder vertex list (address, object).
    """

    def __init__(self, base, insert_impl):
        self.base = base
        self.insert_impl = insert_impl
        self.ids: dict = {}
        self.terms: list[TreeTerm] = []
        self.sizes: list[int] = []
        self.vertices: list[tuple] = []
        self.memo: dict = {}
        self._tagged: dict = {}
        self._landings: dict = {}  # one copy of each landing tuple; there are few

    def intern(self, tree: TreeTerm) -> int:
        return self._intern(tree, [])

    def _intern(self, tree: TreeTerm, decorations: list) -> int:
        """The id of tree without its decorations, which are appended in preorder."""
        if tree.is_trivial:
            key = (tree.trivial_target,)
        else:
            decorations.append(tree.decoration)
            key = (tree.sigma, tuple(self._intern(c, decorations) for c in tree.children))
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.terms)
            if tree.is_trivial:
                self.terms.append(tree)
                self.sizes.append(0)
                self.vertices.append(())
            else:
                kids = key[1]
                self.terms.append(TreeTerm(tree.sigma, tuple(self.terms[c] for c in kids)))
                self.sizes.append(1 + sum(self.sizes[c] for c in kids))
                self.vertices.append((((), tree.sigma.target),) + tuple(
                    ((j,) + a, obj) for j, c in enumerate(kids) for a, obj in self.vertices[c]
                ))
        return i

    def tagged(self, i: int, prefix: str) -> TreeTerm:
        """Term i with its vertices decorated prefix0, prefix1, ... in preorder."""
        key = (i, prefix)
        tree = self._tagged.get(key)
        if tree is None:
            tree = self._tagged[key] = _redecorate(self.terms[i], iter(_tags(prefix, self.sizes[i])))
        return tree

    def insert(self, x: int, address: tuple, y: int) -> tuple:
        """(result id, x's landings, y's landings) of inserting y at x's vertex
        at address.

        The insertion runs once per key, on copies of x and y tagged by
        preorder index.  A landing is the preorder position in the result
        that carries the vertex's tag, or None: the replaced vertex of x,
        or a vertex that the insertion lost.
        """
        key = (x, address, y)
        hit = self.memo.get(key)
        if hit is None:
            result = self.insert_impl(self.tagged(x, "x"), address, self.tagged(y, "y"), self.base)
            decorations = []
            r = self._intern(result, decorations)
            position = {dec: p for p, dec in enumerate(decorations)}
            hit = self.memo[key] = (r, self._lands(position, "x", x), self._lands(position, "y", y))
        return hit

    def _lands(self, position: dict, prefix: str, i: int) -> tuple:
        lands = tuple(position.get(tag) for tag in _tags(prefix, self.sizes[i]))
        return self._landings.setdefault(lands, lands)


def _through(landing: tuple, positions: tuple) -> tuple:
    """Where the vertices at these positions land, None staying None."""
    return tuple(None if p is None else landing[p] for p in positions)


# trees that check_monad_laws enumerates at most; n=2, vmax=3, kmax=4 has 8,853
_MAX_TREES = 10_000
# law instances that check_monad_laws checks at most.  It checks about 50,000 a
# second (n=2, vmax=3, kmax=4: 726,909 in 13-14 s), and deeper trees cost more each,
# so this admits that input and refuses n=1, vmax=12, kmax=3 (15.7M instances).
_MAX_LAW_INSTANCES = 1_000_000


def _law_instances(store: _TreeStore, ids_by_target: dict, vmax: int, kmax: int,
                   regular: bool, base) -> int:
    """The unit, associativity and commutation instances that
    check_monad_laws visits, counted without an insertion.

    Each tree x contributes one unit instance per vertex and one for the
    corolla, and its vertices v and pairs of independent vertices (v, w)
    contribute the inserted trees that fit the vertex bound, counted
    from the trees per (object, vertex count).  The objects go in the
    order of ids_by_target, and the count stops once it passes
    _MAX_LAW_INSTANCES.
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

    total = 0
    for S, trees in vertex_lists.items():
        for xs in trees:
            nx = len(xs)
            total += nx + 1 + sum(nested[S_v][vmax - nx + 1] for _, S_v in xs)
            for i, (v, S_v) in enumerate(xs):
                # the later vertices outside v's subtree; preorder is address order
                total += sum(pairs(S_v, S_w, vmax - nx + 2)
                             for w, S_w in xs[i + 1:] if w[:len(v)] != v)
            if total > _MAX_LAW_INSTANCES:
                return total
    return total


def check_monad_laws(
    n: int, vmax: int, kmax: int, regular: bool = True, insert_impl=None
) -> LawReport:
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
    lands at the same position on both.  The trees are interned, and each
    distinct insertion runs once, through insert_impl (by default this
    module's insert), which can be swapped to prove the checker catches
    broken implementations.  The trees are counted first, and
    BudgetExceededError is raised before any is built when there are more
    than _MAX_TREES; the instances are counted next, and refused past
    _MAX_LAW_INSTANCES before any insertion.
    """
    base = OrdBase(n)
    all_objects, count = [], 0
    for k in range(kmax + 1):  # smallest first, so the largest are not counted past the budget
        for T in _objects_of_size(base, k):
            count += count_trees(T, vmax, kmax, regular, base)
            if count > _MAX_TREES:
                raise BudgetExceededError(
                    f"the monad laws at n={n}, vmax={vmax}, kmax={kmax} range over at least "
                    f"{count} trees (budget {_MAX_TREES})"
                )
            all_objects.append(T)
    store = _TreeStore(base, insert_impl if insert_impl is not None else insert)
    ids_by_target = {
        T: [store.intern(t) for t in enumerate_trees(T, vmax, kmax, regular, base)]
        for T in all_objects
    }
    count = _law_instances(store, ids_by_target, vmax, kmax, regular, base)
    if count > _MAX_LAW_INSTANCES:
        raise BudgetExceededError(
            f"the monad laws at n={n}, vmax={vmax}, kmax={kmax} have at least {count} "
            f"instances (budget {_MAX_LAW_INSTANCES})"
        )
    rep = LawReport(ok=True, violations=[])
    _check_laws(rep, store, ids_by_target, vmax)
    rep.ok = not rep.violations
    rep.distinct_insertions = len(store.memo)
    rep.interned_trees = len(store.terms)
    return rep


def _check_laws(rep: LawReport, store: _TreeStore, ids_by_target: dict, vmax: int) -> None:
    """The instances of check_monad_laws, in order; stops after the unit laws
    if one fails, and once ten violations are recorded."""
    sizes, verts, ins = store.sizes, store.vertices, store.insert

    def label(i: int, prefix: str | None = None) -> str:
        return tree_label(store.terms[i] if prefix is None else store.tagged(i, prefix))

    corollas = {S: store.intern(corolla(store.base, S)) for S in ids_by_target}
    # per id interned so far, its vertices with the ids of the trees over their objects
    slots = [tuple((v, ids_by_target.get(S, ())) for v, S in vs) for vs in verts]
    for T, ids in ids_by_target.items():
        for x in ids:
            for v, S_v in verts[x]:
                rep.unit_instances += 1
                if ins(x, v, corollas[S_v])[0] != x:
                    rep.violations.append(
                        f"unit fails: replacing vertex {v} of {label(x)} "
                        "by its corolla changed the tree"
                    )
        for t in ids:
            rep.unit_instances += 1
            if ins(corollas[T], (), t)[0] != t:
                rep.violations.append(f"unit fails: inserting {label(t)} into the corolla over {T}")
    if rep.violations:
        return

    for ids in ids_by_target.values():
        for x in ids:
            nx, xs = sizes[x], slots[x]
            for v, ys in xs:
                for y in ys:
                    ny = sizes[y]
                    if nx + ny - 1 > vmax:
                        continue
                    xy, xl, yl = ins(x, v, y)
                    for j, (w, zs) in enumerate(slots[y]):
                        vw = v + w
                        if yl[j] is None or verts[xy][yl[j]][0] != vw:
                            rep.violations.append(f"vertex y{j} vanished when inserting at {v}")
                            continue
                        for z in zs:
                            if nx + ny + sizes[z] - 2 > vmax:
                                continue
                            rep.assoc_instances += 1
                            yz, yl1, zl1 = ins(y, w, z)
                            lhs, xl2, yzl2 = ins(x, v, yz)
                            rhs, xyl3, zl3 = ins(xy, vw, z)
                            if (lhs != rhs or xl2 != _through(xyl3, xl)
                                    or _through(yzl2, yl1) != _through(xyl3, yl)
                                    or _through(yzl2, zl1) != zl3):
                                rep.violations.append(
                                    "associativity fails: "
                                    f"x={label(x, 'x')} v={v} "
                                    f"y={label(y, 'y')} w={w} z={label(z, 'z')}"
                                )
                            if len(rep.violations) >= 10:
                                return
                # independent vertices commute
                for w, zs in xs:
                    if w[: len(v)] == v or v[: len(w)] == w:
                        continue
                    if w < v:
                        continue  # each unordered pair once
                    for y in ys:
                        for z in zs:
                            if nx + sizes[y] + sizes[z] - 2 > vmax:
                                continue
                            rep.assoc_instances += 1
                            xy, xl, yl = ins(x, v, y)
                            one, xyl, zl = ins(xy, w, z)
                            xz, xl2, zl2 = ins(x, w, z)
                            other, xzl, yl2 = ins(xz, v, y)
                            if (one != other or _through(xyl, xl) != _through(xzl, xl2)
                                    or _through(xyl, yl) != yl2 or zl != _through(xzl, zl2)):
                                rep.violations.append(
                                    "independent insertions do not commute: "
                                    f"x={label(x, 'x')} v={v} w={w}"
                                )
                            if len(rep.violations) >= 10:
                                return


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
