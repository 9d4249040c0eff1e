"""Truncated Set-valued operads over an operadic base category.

A truncated operad stores, for every object of cardinality at most K,
a finite tuple of opaque operation labels, plus a multiplication table
for every base morphism whose endpoints both lie inside the truncation.
Tables are integer ndarrays: the entry at (b, a_0, ..., a_k) is the
index (into the source component) of m_sigma(b; a_0, ..., a_k), where b
indexes the target component and a_i the i-th fiber component.  The
sentinel -1 marks a truncation hole (an entry whose true value fell
outside the stored bounds); holes are reported, never silently read.

Supported bases: Ord(n) and FinSet together with their constant-free
variants Ord_0(n) / FinSet_0 (nonempty objects, surjective maps only).

Tables are built once and then treated as immutable; all checkers and
enumerators are pure functions, so concurrent reads are safe.

Checkers read a truncation of the base through compile_base: integer
ids for its objects and morphisms, each morphism's endpoints, map,
fiber objects and positions within its fibers in read-only int64
arrays, and one sorted key array that finds a morphism by its endpoints
and map.  Composites and restrictions are found there in bulk, so
composable_pairs builds its rows without calling the base.

The associativity check runs its groups of composable pairs on a pool
of threads, one per core this process may run on
(os.sched_getaffinity).  Within a group it compares each distinct
(pair, composite slice, inner arguments, outer value) once over all
outer arguments, and weights what it finds by how many cells give that
triple (see associativity.decide_group); it reads the tables as int16
unless a label does not fit.  Each worker reuses its own buffers,
sized so that all workers together hold one slab of _SLAB_CELLS
cells.  The groups' reports are merged in group order, and a group is
checked to the same answer whatever its slab size, so the report does
not depend on the number of workers.

Every budget of the package is compared, and its BudgetExceededError
worded, by within_budget, on a count taken before what it counts is
built; capped_power bounds the counts that are powers.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .associativity import decide_group
from .ordinals import (
    OrdinalMorphism,
    compose as ord_compose,
    count_morphisms,
    enumerate_morphisms,
    enumerate_ordinals,
    fiber as ord_fiber,
    identity as ord_identity,
    morphism_from_json,
    morphism_to_json,
    ordinal_from_json,
    ordinal_key,
    restrict_to_fiber as ord_restrict,
    suspend_p,
    terminal_ordinal,
)


class BudgetExceededError(RuntimeError):
    """An enumeration or table build went past its explicit budget."""


def within_budget(count: int, budget: int, what: str, *args, in_bytes: bool = False,
                  early: bool = False) -> int:
    """count, when it is at most budget; past it, BudgetExceededError with the
    message what.format(*args, n=<the count>, at=<its marker>) (budget), built
    only then, so a search may check at every step.  Bytes read in GiB against
    a ceiling in MiB.  A count that stopped once past the budget (early) reads
    "more than" the budget when it stopped just past it, else "at least" it.

    >>> within_budget(4, 3, "{n} maps", early=True)
    Traceback (most recent call last):
    higherop.operads.BudgetExceededError: more than 3 maps (budget 3)
    >>> within_budget(3 << 30, 1 << 20, "{at}{} rows need {n}", 7, in_bytes=True, early=True)
    Traceback (most recent call last):
    higherop.operads.BudgetExceededError: at least 7 rows need at least 3.0 GiB (ceiling 1 MiB)
    """
    if count <= budget:
        return count
    at, shown = "", count
    if early:
        at, shown = ("more than ", budget) if count == budget + 1 else ("at least ", count)
    limit = f"ceiling {budget >> 20} MiB" if in_bytes else f"budget {budget}"
    shown = f"{shown / 2**30:.1f} GiB" if in_bytes else shown
    raise BudgetExceededError(f"{what.format(*args, n=f'{at}{shown}', at=at)} ({limit})")


def capped_power(x: int, e: int, cap: int) -> int:
    """x**e while that is at most cap, and past cap exactly when x**e is, with
    no larger power formed: an exponent of cap.bit_length() passes it for x > 1."""
    return x ** min(e, cap.bit_length())


# one dense build: the int64 boundaries of one cellular complex, the End tables of one
# set, or the composable pairs of one truncation
_MAX_DENSE_BYTES = 256 << 20


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, ascending.

    Sorted and diffed by hand: a plain np.unique imports numpy.ma on its
    first call, which costs more than most of the arrays deduplicated here.
    """
    out = np.sort(values)
    keep = np.ones(len(out), dtype=bool)
    keep[1:] = out[1:] != out[:-1]
    return out[keep]


# ---------------------------------------------------------------------------
# finite sets as an operadic base


@dataclass(frozen=True)
class FinSetMorphism:
    """A map of canonical finite sets {0..source-1} -> {0..target-1}."""

    source: int
    target: int
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "map", tuple(self.map))
        if len(self.map) != self.source:
            raise ValueError("map length differs from source size")
        if any(not 0 <= v < self.target for v in self.map):
            raise ValueError("map value outside the target")

    def __call__(self, i: int) -> int:
        return self.map[i]


def finset_compose(g: FinSetMorphism, f: FinSetMorphism) -> FinSetMorphism:
    if f.target != g.source:
        raise ValueError("maps are not composable")
    return FinSetMorphism(f.source, g.target, tuple(g.map[v] for v in f.map))


def finset_fiber_elements(f: FinSetMorphism, i: int) -> tuple[int, ...]:
    return tuple(a for a, v in enumerate(f.map) if v == i)


def finset_restrict(
    sigma: FinSetMorphism, omega: FinSetMorphism, i: int
) -> FinSetMorphism:
    comp = finset_compose(omega, sigma)
    src = finset_fiber_elements(comp, i)
    tgt = finset_fiber_elements(omega, i)
    rank = {e: r for r, e in enumerate(tgt)}
    return FinSetMorphism(len(src), len(tgt), tuple(rank[sigma.map[a]] for a in src))


def is_surjective(f) -> bool:
    return set(f.map) == set(range(_target_size(f)))


def _target_size(f) -> int:
    return f.target.size if isinstance(f, OrdinalMorphism) else f.target


def cardinality_morphism(sigma: OrdinalMorphism) -> FinSetMorphism:
    """Image of an ordinal morphism under the underlying-set functor."""
    return FinSetMorphism(sigma.source.size, sigma.target.size, sigma.map)


# ---------------------------------------------------------------------------
# base category tags


@dataclass(frozen=True)
class OrdBase:
    """The base Ord(n), or Ord_0(n) when constant_free is set."""

    n: int
    constant_free: bool = False
    kind: str = field(default="Ord", init=False)

    def objects(self, K: int):
        lo = 1 if self.constant_free else 0
        return [T for k in range(lo, K + 1) for T in enumerate_ordinals(self.n, k)]

    def object_count(self, K: int, cap: int) -> int:
        """len(self.objects(K)), or past cap when that is: n^(m-1) of each
        size m, and one of size 0, with no power past cap formed."""
        n = self.n
        sized = K if n == 1 else (capped_power(n, K, cap * (n - 1) + 1) - 1) // (n - 1)
        return sized + (not self.constant_free)

    def terminal(self):
        return terminal_ordinal(self.n)

    def size(self, T) -> int:
        return T.size

    def identity(self, T):
        return ord_identity(T)

    def morphisms(self, T, S):
        out = enumerate_morphisms(T, S)
        if self.constant_free:
            out = [f for f in out if is_surjective(f)]
        return out

    def hom_count(self, T, S) -> int:
        """len(self.morphisms(T, S)), counted without building a morphism."""
        return count_morphisms(T, S, self.constant_free)

    def compose(self, g, f):
        return ord_compose(g, f)

    def fiber(self, f, i):
        return ord_fiber(f, i)

    def restrict(self, sigma, omega, i):
        return ord_restrict(sigma, omega, i)

    def key(self, T) -> str:
        return ordinal_key(T)


@dataclass(frozen=True)
class FinBase:
    """The base FinSet, or FinSet_0 when constant_free is set."""

    constant_free: bool = False
    kind: str = field(default="FinSet", init=False)

    def objects(self, K: int):
        lo = 1 if self.constant_free else 0
        return list(range(lo, K + 1))

    def object_count(self, K: int, cap: int) -> int:
        """len(self.objects(K))."""
        return K + 1 - self.constant_free

    def terminal(self):
        return 1

    def size(self, T) -> int:
        return T

    def identity(self, T):
        return FinSetMorphism(T, T, tuple(range(T)))

    def morphisms(self, T, S):
        maps = itertools.product(range(S), repeat=T)
        if self.constant_free:
            maps = (m for m in maps if len(set(m)) == S)
        return [FinSetMorphism(T, S, m) for m in maps]

    def hom_count(self, T: int, S: int) -> int:
        """len(self.morphisms(T, S)) in closed form: S^T with 0^0 = 1, or
        the surjection count when constant-free."""
        if not self.constant_free:
            return S ** T
        return sum((-1) ** j * math.comb(S, j) * (S - j) ** T for j in range(S + 1))

    def compose(self, g, f):
        return finset_compose(g, f)

    def fiber(self, f, i):
        return len(finset_fiber_elements(f, i))

    def restrict(self, sigma, omega, i):
        return finset_restrict(sigma, omega, i)

    def key(self, T) -> str:
        return json.dumps(T)


# bytes of one base morphism once compiled (compile_base), kept after the build as
# tracemalloc measures it: 444 and 429 over FinSet at K = 5 and 6; 527, 410 and 403 over
# Ord(n) at (n, K) = (1, 8), (2, 4) and (3, 4)
_MORPHISM_BYTES = 520


def _base_objects(base, K: int) -> list:
    """base.objects(K), refused before any is listed when their identities
    alone would pass _MAX_DENSE_BYTES."""
    count = base.object_count(K, _MAX_DENSE_BYTES)
    within_budget(_MORPHISM_BYTES * count, _MAX_DENSE_BYTES, "{at}{} {} morphisms at K={} need {n}",
                  count, base.kind, K, in_bytes=True, early=True)
    return base.objects(K)


@functools.lru_cache(maxsize=None)
def base_morphisms(base, K: int) -> tuple:
    """All base morphisms with both endpoints inside the truncation.

    They are counted first by base.hom_count, and within_budget refuses
    them before any is built when they would pass _MAX_DENSE_BYTES once
    compiled.
    """
    objs = _base_objects(base, K)
    count = sum(base.hom_count(T, S) for T in objs for S in objs)
    within_budget(count * _MORPHISM_BYTES, _MAX_DENSE_BYTES, "{} {} morphisms at K={} need {n}",
                  count, base.kind, K, in_bytes=True)
    out = []
    for T in objs:
        for S in objs:
            out.extend(base.morphisms(T, S))
    return tuple(out)


class CompiledBase:
    """Integer ids for the objects and morphisms inside one truncation.

    Morphism ids follow the order of base_morphisms(base, K).  The data
    per morphism are read-only int64 arrays, with the maps and fibers
    padded by -1 up to the widest source.  A map m is coded as
    sum_j (m[j] + 1) * radix^j, to which the padding adds nothing, and a
    morphism is found by its (source, target, code) key in one sorted
    array.  Only base data lives here; operad tables are always read
    from the operad itself.
    """

    def __init__(self, base, K: int) -> None:
        self.morphisms = base_morphisms(base, K)  # morphism id -> morphism
        self.objects = tuple(base.objects(K))  # object id -> object
        self.morphism_id = {m: i for i, m in enumerate(self.morphisms)}
        object_id = {T: i for i, T in enumerate(self.objects)}
        M, width = len(self.morphisms), max((len(m.map) for m in self.morphisms), default=0)
        self.radix = width + 1  # no target has more points than the widest source
        self.span = self.radix ** width
        within_budget(len(self.objects) ** 2 * self.span, 2**63 - 1,
                      "the keys of {} morphisms' maps reach {n}", M)
        pad = (-1,) * width

        def padded(rows) -> np.ndarray:
            return np.array([(row + pad)[:width] for row in rows], dtype=np.int64).reshape(M, width)

        self.source = np.array([object_id[m.source] for m in self.morphisms], dtype=np.int64)
        self.target = np.array([object_id[m.target] for m in self.morphisms], dtype=np.int64)
        self.maps = padded(m.map for m in self.morphisms)
        # the object id of each fiber, and the position of each source element within its
        # fiber; a fiber is fixed by the source and the points mapped to i, so base.fiber
        # runs once per distinct pair
        self.fibers = np.full((M, width), -1, dtype=np.int64)
        points = np.array([base.size(T) for T in self.objects], dtype=np.int64)[self.target]
        for i in range(width):
            has = np.flatnonzero(points > i)
            key = self.source[has] << width | (self.maps[has] == i) @ (1 << np.arange(width))
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            ids = [object_id[base.fiber(self.morphisms[m], i)] for m in has[first].tolist()]
            self.fibers[has, i] = np.array(ids, dtype=np.int64)[inverse]
        same = self.maps[:, :, None] == self.maps[:, None, :]
        earlier = np.tri(width, k=-1, dtype=bool)
        self.rank = np.where(self.maps >= 0, (same & earlier).sum(axis=2), -1)
        keys = self.key(self.source, self.target, self.code(self.maps))
        self.order = np.argsort(keys)
        self.keys = keys[self.order]
        for a in (self.source, self.target, self.maps, self.fibers, self.rank, self.order,
                  self.keys):
            a.flags.writeable = False

    def axes(self, m: int) -> list[int]:
        """The object ids along the axes of morphism m's tables: its target,
        then its fibers in order."""
        fibers = self.fibers[m]
        return [int(self.target[m])] + fibers[fibers >= 0].tolist()

    def code(self, maps: np.ndarray) -> np.ndarray:
        return (maps + 1) @ self.radix ** np.arange(maps.shape[1], dtype=np.int64)

    def key(self, source, target, code) -> np.ndarray:
        return (source * len(self.objects) + target) * self.span + code

    def find(self, source, target, code) -> np.ndarray:
        """Ids of the morphisms with these endpoints and map codes."""
        keys = self.key(source, target, code)
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        if not np.array_equal(self.keys[pos], keys):
            raise RuntimeError("a composite or restriction is missing from the base")
        return self.order[pos]


@functools.lru_cache(maxsize=None)
def compile_base(base, K: int) -> CompiledBase:
    """The compiled form of base_morphisms(base, K), built once per (base, K).

    >>> C = compile_base(OrdBase(1), 2)
    >>> [T.size for T in C.objects], len(C.morphisms), len(composable_pairs(OrdBase(1), 2))
    ([0, 1, 2], 10, 36)
    >>> [m] = C.find(2, 2, C.code(np.array([[0, 1]])))  # the identity of the 2-chain
    >>> C.morphisms[m] == OrdBase(1).identity(C.objects[2])
    True
    """
    return CompiledBase(base, K)


_PAIR_CHUNK = 1 << 16  # composable pairs built at once


@functools.lru_cache(maxsize=None)
def composable_pairs(base, K: int) -> np.ndarray:
    """Every composable pair as a row (sigma, omega, composite, blocks...).

    Rows follow sigma in base_morphisms order, then omega; the restriction
    block ids are padded with -1 up to K columns.  The rows are counted
    by _pair_count, which refuses them before any is built.
    """
    count = _pair_count(base, K)
    C = compile_base(base, K)
    out_degree = np.bincount(C.source, minlength=len(C.objects))
    per_sigma = out_degree[C.target]
    by_source = np.argsort(C.source, kind="stable")  # ids grouped by source, ascending
    first_out = np.cumsum(out_degree) - out_degree
    ends = np.cumsum(per_sigma)
    out = np.empty((count, 3 + K), dtype=np.int64)
    for r0 in range(0, count, _PAIR_CHUNK):
        r = np.arange(r0, min(count, r0 + _PAIR_CHUNK))
        s = np.searchsorted(ends, r, side="right")
        w = by_source[first_out[C.target[s]] + r - (ends[s] - per_sigma[s])]
        out[r0:r0 + len(r)] = _pair_rows(C, K, s, w)
    out.flags.writeable = False
    return out


def _pair_count(base, K: int) -> int:
    """The number of composable pairs inside the truncation: the sum over
    middle objects S of (morphisms into S) * (morphisms out of S), from
    base.hom_count, so no morphism is built.  within_budget refuses them
    when their rows would pass _MAX_DENSE_BYTES, as soon as the partial
    sum over the middle objects does.
    """
    objs = _base_objects(base, K)
    count = 0
    for S in objs:
        count += (sum(base.hom_count(T, S) for T in objs)
                  * sum(base.hom_count(S, R) for R in objs))
        within_budget(8 * (3 + K) * count, _MAX_DENSE_BYTES,
                      "{at}{} composable pairs at K={} need {n}", count, K, in_bytes=True,
                      early=S != objs[-1])
    return count


def _pair_rows(C: CompiledBase, K: int, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows (sigma, omega, composite, blocks...) of the pairs (s[j], w[j]).

    The restriction of sigma over omega's fiber i maps the composite's
    fiber i, in order, to the positions of their sigma-images within
    omega's fiber i.
    """
    smap = C.maps[s]
    inside = smap >= 0
    at = np.where(inside, smap, 0)
    comp = np.where(inside, np.take_along_axis(C.maps[w], at, axis=1), -1)
    c = C.find(C.source[s], C.target[w], C.code(comp))
    # digit (position in omega's fiber + 1) at place radix^(position in the composite's fiber)
    digit = np.where(inside, np.take_along_axis(C.rank[w], at, axis=1) + 1, 0)
    weighted = digit * C.radix ** np.maximum(C.rank[c], 0)
    rows = np.full((len(s), 3 + K), -1, dtype=np.int64)
    rows[:, 0], rows[:, 1], rows[:, 2] = s, w, c
    for i in range(C.maps.shape[1]):
        has = C.fibers[w, i] >= 0
        code = (weighted * (comp == i)).sum(axis=1)
        rows[has, 3 + i] = C.find(C.fibers[c[has], i], C.fibers[w[has], i], code[has])
    return rows


# ---------------------------------------------------------------------------
# operad tables


@dataclass
class OperadTable:
    """Components, unit and multiplication tables of a truncated operad."""

    base: object
    K: int
    components: dict
    unit: str | None
    mult: dict
    name: str = ""

    def labels(self, T) -> tuple[str, ...]:
        return self.components[T]

    @functools.cached_property
    def _index(self):
        return {T: {lab: i for i, lab in enumerate(labs)}
                for T, labs in self.components.items()}

    def label_index(self, T, label: str) -> int:
        return self._index[T][label]

    def unit_index(self) -> int:
        return self.label_index(self.base.terminal(), self.unit)

    def value(self, sigma, b_label: str, a_labels) -> str | None:
        """Label-level table lookup; None marks a truncation hole."""
        C = compile_base(self.base, self.K)
        axes = [C.objects[o] for o in C.axes(C.morphism_id[sigma])]
        idx = tuple(self.label_index(T, lab) for T, lab in zip(axes, (b_label, *a_labels)))
        v = int(self.mult[sigma][idx])
        if v < 0:
            return None
        return self.components[sigma.source][v]


def tables_equal(A: OperadTable, B: OperadTable) -> bool:
    """Strict table-for-table equality (same labels, same entries)."""
    if A.base != B.base or A.K != B.K or A.unit != B.unit:
        return False
    if A.components != B.components:
        return False
    if set(A.mult) != set(B.mult):
        return False
    return all(np.array_equal(A.mult[s], B.mult[s]) for s in A.mult)


# ---------------------------------------------------------------------------
# constructors


def make_ass(base, K: int) -> OperadTable:
    """The terminal operad over the base: every component is one point."""
    if K < 1:
        raise ValueError("an operad table needs K >= 1, where its unit lives")
    C = compile_base(base, K)
    components = {T: ("*",) for T in C.objects}
    # all-zero tables shared per number of fibers; never mutated
    shared = [np.zeros((1,) * (1 + r), dtype=np.int32) for r in range(C.fibers.shape[1] + 1)]
    fiber_counts = (C.fibers >= 0).sum(axis=1).tolist()
    mult = {sigma: shared[r] for sigma, r in zip(C.morphisms, fiber_counts)}
    name = f"Ass[{base.kind}" + (f"({base.n})" if hasattr(base, "n") else "") + "]"
    return OperadTable(base, K, components, "*", mult, name)


def _function_labels(x_size: int, arity: int) -> tuple[str, ...]:
    """Labels for all functions X^arity -> X, outputs in lex input order."""
    return tuple(
        "".join(map(str, outs))
        for outs in itertools.product(range(x_size), repeat=x_size ** arity)
    )


@functools.lru_cache(maxsize=8)
def endomorphism_operad(X, K: int, constant_free: bool = False) -> OperadTable:
    """The endomorphism operad of a finite set over the FinSet base.

    Component at arity k is the set of all functions X^k -> X; the
    multiplication is substitution of functions along a map of finite
    sets.  Labels spell out the output tuple over lexicographic inputs.
    The empty set only has a constant-free endomorphism operad (there is
    no function from a point to nothing at arity zero).  The result is
    cached and must be treated as immutable.
    """
    if K < 1:
        raise ValueError("an operad table needs K >= 1, where its unit lives")
    x_size = len(tuple(X))
    if x_size < 1 and not constant_free:
        raise ValueError("the empty set only supports the constant-free variant")
    base = FinBase(constant_free=constant_free)
    _check_end_exponent(x_size, K)
    C = compile_base(base, K)
    n_fun = [x_size ** (x_size ** k) for k in C.objects]  # an object of FinSet is its size
    grid = [math.prod(n_fun[F] for F in C.axes(m)[1:]) for m in range(len(C.morphisms))]
    # every int32 table, plus 8 bytes a cell for the ranks and gathers of the largest step
    rows = [(n_fun[t], x_size ** C.objects[s], g)
            for t, s, g in zip(C.target.tolist(), C.source.tolist(), grid)]
    need = sum(4 * n_b * g for n_b, _, g in rows) + max(8 * g * (n_b + n_in) for n_b, n_in, g in rows)
    within_budget(need, _MAX_DENSE_BYTES, "End tables of a {}-element set at K={} need {n}",
                  x_size, K, in_bytes=True)
    labels = {k: _function_labels(x_size, k) for k in range(K + 1)}
    components = {k: labels[k] for k in base.objects(K)}
    n_inputs = {k: x_size ** k for k in range(K + 1)}
    # outs[k][i] = output vector of the i-th arity-k function over ranked inputs
    outs = {}
    for k in range(K + 1):
        n_fun = len(labels[k])
        codes = np.arange(n_fun, dtype=np.int64)
        table = np.empty((n_fun, n_inputs[k]), dtype=np.int64)
        for pos in range(n_inputs[k] - 1, -1, -1):
            table[:, pos] = codes % x_size
            codes //= x_size
        outs[k] = table
    outs32 = {k: table.astype(np.int32) for k, table in outs.items()}
    inputs = {k: list(itertools.product(range(x_size), repeat=k)) for k in range(K + 1)}
    input_rank = {k: {t: r for r, t in enumerate(inputs[k])} for k in range(K + 1)}

    mult = {}
    for f_id, f in enumerate(C.morphisms):
        k, m = f.source, f.target
        fib_elems = [finset_fiber_elements(f, i) for i in range(m)]
        fib_sizes = [C.objects[F] for F in C.axes(f_id)[1:]]
        g_shape = tuple(len(components[s]) for s in fib_sizes)
        # rank of the length-m intermediate tuple, per g-grid point and input
        y_rank = np.zeros(g_shape + (n_inputs[k],), dtype=np.int64)
        for i in range(m):
            sub = np.array(
                [input_rank[fib_sizes[i]][tuple(x[e] for e in fib_elems[i])]
                 for x in inputs[k]],
                dtype=np.int64,
            )
            gi = outs[fib_sizes[i]][:, sub]  # (N_i, x**k)
            bshape = [1] * m + [n_inputs[k]]
            bshape[i] = g_shape[i]
            y_rank = y_rank * 1 + gi.reshape(bshape) * (x_size ** (m - 1 - i))
        # labels by place value, one input at a time: no (N_m,) + g_shape + (x**k,) array;
        # every code is below x^(x^K), which _check_end_exponent keeps inside int32
        code = np.zeros((len(components[m]),) + g_shape, dtype=np.int32)
        for pos in range(n_inputs[k]):
            code += np.take(outs32[m], y_rank[..., pos], axis=1) * np.int32(x_size ** (n_inputs[k] - 1 - pos))
        mult[f] = code
    unit = components[1][_identity_code(x_size)]
    return OperadTable(base, K, components, unit, mult, f"End[{x_size}]")


def _check_end_exponent(x_size: int, K: int) -> None:
    """Refuse End tables from the exponent alone: the table over K -> 1
    holds all x^(x^K) functions of arity K, 4 bytes each."""
    exponent = x_size ** K
    within_budget(4 * capped_power(x_size, exponent, _MAX_DENSE_BYTES // 4), _MAX_DENSE_BYTES,
                  "End tables of a {0}-element set at K={1} hold all {0}^{2} functions of "
                  "arity {1} in one table", x_size, K, exponent, in_bytes=True)


def _identity_code(x_size: int) -> int:
    # identity function X -> X: outputs equal inputs
    code = 0
    for v in range(x_size):
        code = code * x_size + v
    return code


def desymmetrize(B: OperadTable, n: int) -> OperadTable:
    """Pull an operad over FinSet back along the underlying-set functor.

    des_n(B)(T) = B(|T|); multiplication along sigma is B's multiplication
    along the underlying map.  Component tuples and table arrays are
    shared, so the strict compatibility with suspension restriction is an
    equality of tables, not just an isomorphism.

    >>> B = endomorphism_operad((0, 1), 2)
    >>> des = desymmetrize(B, 2)
    >>> all(des.mult[s] is B.mult[cardinality_morphism(s)] for s in des.mult)
    True
    """
    if not isinstance(B.base, FinBase):
        raise ValueError("desymmetrize expects an operad over FinSet")
    base = OrdBase(n, constant_free=B.base.constant_free)
    return _pullback(B, base, lambda T: T.size, f"des_{n}({B.name})")


def restrict_suspension(B: OperadTable, p: int) -> OperadTable:
    """Restrict an operad over Ord(n+1) along the p-suspension functor."""
    if not isinstance(B.base, OrdBase) or B.base.n < 1:
        raise ValueError("suspension restriction expects an operad over Ord(n+1), n >= 0")
    n = B.base.n - 1
    if not 0 <= p <= n:
        raise ValueError(f"suspension index {p} outside [0, {n}]")
    base = OrdBase(n, constant_free=B.base.constant_free)
    return _pullback(B, base, lambda T: suspend_p(T, p), f"S_{p}^*({B.name})")


def _pullback(B: OperadTable, base, image, name: str) -> OperadTable:
    """B pulled back along a functor from base into B's base that sends
    each object T to image(T) and keeps every map: a morphism goes to
    the morphism with the same map between the images of its endpoints.
    Both truncations at K have width K, so one code finds them all."""
    C, C_B = compile_base(base, B.K), compile_base(B.base, B.K)
    object_id = {T: i for i, T in enumerate(C_B.objects)}
    to = np.array([object_id[image(T)] for T in C.objects], dtype=np.int64)
    ids = C_B.find(to[C.source], to[C.target], C_B.code(C.maps)).tolist()
    components = {T: B.components[C_B.objects[i]] for T, i in zip(C.objects, to.tolist())}
    mult = {sigma: B.mult[C_B.morphisms[j]] for sigma, j in zip(C.morphisms, ids)}
    return OperadTable(base, B.K, components, B.unit, mult, name)


# ---------------------------------------------------------------------------
# axiom checking


@dataclass
class AxiomReport:
    ok: bool
    violations: list
    unit_instances: int = 0
    assoc_pairs: int = 0
    assoc_instances: int = 0
    assoc_rows: int = 0  # distinct (pair, G row, a_I, v) triples compared over every c
    skipped_holes: int = 0
    empty_domains: int = 0
    # figures of the run (seconds, workers, table bytes), outside comparisons
    timing: dict = field(default_factory=dict, compare=False, repr=False)

    def summary(self) -> str:
        status = "pass" if self.ok else f"FAIL ({len(self.violations)} violations)"
        return (
            f"{status}: {self.unit_instances} unit instances, "
            f"{self.assoc_pairs} composable pairs, "
            f"{self.assoc_instances} associativity instances"
            + (f", {self.skipped_holes} skipped at holes" if self.skipped_holes else "")
            + (f", {self.empty_domains} empty domains" if self.empty_domains else "")
        )


_MAX_VIOLATIONS = 20
_MAX_PAIR_CELLS = 1 << 28  # (a, c) cells of one composable pair
_SLAB_CELLS = 1 << 20  # cells read or compared at once by the associativity kernel


def check_operad_axioms(A: OperadTable, units_only: bool = False) -> AxiomReport:
    """Verify totality, the two unit diagrams and all associativity squares.

    Associativity is decided for every composable pair inside the
    truncation and every (b, a, c) instance of it; the kernel compares
    each distinct triple once (counted in assoc_rows) and counts its
    instances and holes once per cell that gives it.  Entries marked as
    truncation holes are skipped and counted; empty table domains (an
    empty component in a fiber) are flagged but impose no constraint.
    Raises BudgetExceededError if one pair has more than _MAX_PAIR_CELLS
    (a, c) cells.  timing holds the seconds of the totality and unit
    checks (units_s) and of the associativity kernel (assoc_s) with its
    number of workers, the seconds of the kernel's phases summed over
    its groups (rows_s, keys_s and compare_s, which with several workers
    may add up to more than assoc_s) and the bytes of the tables it reads
    (table_bytes).
    """
    start = time.perf_counter()
    rep = AxiomReport(ok=True, violations=[])
    base, K = A.base, A.K

    terminal = base.terminal()
    if A.unit is None or A.unit not in A.components.get(terminal, ()):
        rep.violations.append("missing unit in the terminal component")
        rep.ok = False
        return rep
    unit_idx = A.unit_index()

    # totality and shapes
    C = compile_base(base, K)
    n_labels = [len(A.components[T]) for T in C.objects]
    source, target, fibers = C.source.tolist(), C.target.tolist(), C.fibers.tolist()
    for m, sigma in enumerate(C.morphisms):
        if sigma not in A.mult:
            rep.violations.append(f"missing table for {sigma}")
            continue
        tab = A.mult[sigma]
        shape = (n_labels[target[m]],) + tuple(n_labels[F] for F in fibers[m] if F >= 0)
        if tuple(tab.shape) != shape:
            rep.violations.append(f"table for {sigma} has shape {tab.shape}, want {shape}")
            continue
        if tab.size and (int(tab.max()) >= n_labels[source[m]] or int(tab.min()) < -1):
            rep.violations.append(f"table for {sigma} has out-of-range values")
        if tab.size == 0:
            rep.empty_domains += 1
    if rep.violations:
        rep.ok = False
        return rep

    # unit diagrams: m_id(a; units) = a, and m_!(unit; a) = a along the map
    # ! to the terminal object, compared a whole column at a time
    sizes = np.array([base.size(T) for T in C.objects], dtype=np.int64)
    points = np.arange(C.maps.shape[1])
    inside = points < sizes[:, None]
    objects = np.arange(len(C.objects))
    ident = C.find(objects, objects, C.code(np.where(inside, points, -1)))
    bang = C.find(objects, C.objects.index(terminal), C.code(np.where(inside, 0, -1)))
    for T, i, b in zip(C.objects, ident.tolist(), bang.tolist()):
        labs = A.components[T]
        column = A.mult[C.morphisms[i]][(slice(None),) + (unit_idx,) * base.size(T)]
        for got, where in ((column, f"id_{T}: m(a; units)"),
                           (A.mult[C.morphisms[b]][unit_idx], f"{T} -> terminal: m(unit; a)")):
            rep.unit_instances += len(labs)
            rep.skipped_holes += int((got == -1).sum())
            for a in np.flatnonzero((got != -1) & (got != np.arange(len(labs)))).tolist():
                rep.violations.append(
                    f"unit diagram fails at {where} = {labs[got[a]]} for a = {labs[a]}")
    rep.timing["units_s"] = round(time.perf_counter() - start, 3)

    if not units_only:
        _check_associativity(A, C, composable_pairs(base, K), rep)
    rep.ok = not rep.violations
    return rep


def associativity_violations(A: OperadTable, sigma, omega) -> list:
    """Pointwise associativity check of one composable pair; returns violations."""
    C = compile_base(A.base, A.K)
    s, w = C.morphism_id[sigma], C.morphism_id[omega]
    if C.target[s] != C.source[w]:
        raise ValueError("sigma and omega are not composable")
    row = _pair_rows(C, A.K, np.array([s]), np.array([w]))
    rep = AxiomReport(ok=True, violations=[])
    _check_associativity(A, C, row, rep)
    return rep.violations


def unit_violations(A: OperadTable) -> list:
    """Only the totality and unit-diagram part of check_operad_axioms."""
    return check_operad_axioms(A, units_only=True).violations


def _worker_count() -> int:
    """The cores this process may run on: the size of the associativity pool."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_associativity(A, C: CompiledBase, rows, rep) -> None:
    """Check the pairs in `rows` (see composable_pairs) group by group.

    Pairs whose sigma, omega and composite tables have the same shapes
    and whose omega has the same map (so the same fiber elements) form
    one group, checked
    by one call of the kernel over their stacked tables.  The groups run
    on a pool of _worker_count() threads, each against its own report,
    and the reports are merged in the order of the groups' first pairs
    until the violations reach _MAX_VIOLATIONS.  A group is always
    checked to its end, so the report is the one of a check of the
    groups one after another.  At the cap or at an error, the groups
    still queued are skipped.
    """
    from concurrent.futures import ThreadPoolExecutor
    import threading

    start = time.perf_counter()
    M = len(C.morphisms)
    used = np.flatnonzero(np.bincount(rows[rows >= 0], minlength=M))  # -1 pads the blocks
    off = np.zeros(M, dtype=np.int64)
    holes = np.zeros(M, dtype=bool)
    shape_key = np.zeros(M, dtype=np.int64)
    omega_key = np.zeros(M, dtype=np.int64)
    shapes, keys, parts, pos = {}, {}, [], 0
    for m in used.tolist():
        tab = A.mult[C.morphisms[m]]
        shapes[m] = tab.shape
        off[m] = pos
        pos += tab.size
        parts.append(tab.ravel())
        holes[m] = tab.size and int(tab.min()) < 0
        shape_key[m] = keys.setdefault(tab.shape, len(keys))
        omega_key[m] = keys.setdefault((tab.shape, C.maps[m].tobytes()), len(keys))
    flat = _flat_tables(parts)

    n_keys = len(keys)
    signature = (
        shape_key[rows[:, 0]] * n_keys + omega_key[rows[:, 1]]
    ) * n_keys + shape_key[rows[:, 2]]
    _, first, group_of = np.unique(signature, return_index=True, return_inverse=True)
    members = np.argsort(group_of, kind="stable")
    ends = np.cumsum(np.bincount(group_of))
    groups = [rows[members[ends[g - 1] if g else 0:ends[g]]]
              for g in np.argsort(first).tolist()]  # in order of their first pair
    workers = min(_worker_count(), len(groups))
    slab = max(1, _SLAB_CELLS // workers)
    scratch = {}  # thread id -> the buffers of that worker

    last = len(groups) - 1  # groups past this index are skipped

    def task(g):
        nonlocal last
        if g > last:
            return None
        own = scratch.setdefault(threading.get_ident(), {})
        try:
            return _check_group(C, flat, off, holes, shapes, groups[g], slab, own)
        except BaseException:
            last = g  # every group dequeued from now on comes after g
            raise

    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(task, g) for g in range(len(groups))]
        try:
            for future in futures:
                _merge(rep, future.result())
                if len(rep.violations) >= _MAX_VIOLATIONS:
                    break
        finally:
            last = -1
    for name in _PHASES:
        rep.timing[name] = round(rep.timing.get(name, 0.0), 3)
    rep.timing.update(workers=workers, assoc_s=round(time.perf_counter() - start, 3),
                      table_bytes=flat.nbytes)


_PHASES = ("rows_s", "keys_s", "compare_s")  # the kernel's phases, see associativity


def _flat_tables(parts) -> np.ndarray:
    """The tables concatenated in the narrowest signed type, int16 or
    int32, that holds every label and -1.

    >>> [_flat_tables([np.array([label, -1])]).dtype.name for label in (2**15 - 1, 2**15)]
    ['int16', 'int32']
    """
    flat = np.concatenate(parts)
    wide = flat.size and int(flat.max()) > np.iinfo(np.int16).max
    return flat.astype(np.int32 if wide else np.int16)


def _merge(rep: AxiomReport, part: AxiomReport) -> None:
    rep.violations += part.violations[: max(0, _MAX_VIOLATIONS - len(rep.violations))]
    for name in ("assoc_pairs", "assoc_instances", "assoc_rows", "skipped_holes",
                 "empty_domains"):
        setattr(rep, name, getattr(rep, name) + getattr(part, name))
    for name in _PHASES:
        rep.timing[name] = rep.timing.get(name, 0.0) + part.timing.get(name, 0.0)


def _check_group(C, flat, off, holes, shapes, rows, slab, scratch) -> AxiomReport:
    """The report of one group of stacked pairs: its counts, its budget
    and the messages of its first _MAX_VIOLATIONS violations in (pair, b,
    a, c) order.  associativity.decide_group compares the squares."""
    rep = AxiomReport(ok=True, violations=[])
    s0, w0 = rows[0, :2].tolist()
    n_c, (nb, *a_sizes) = math.prod(shapes[s0][1:]), shapes[w0]
    n_a = math.prod(a_sizes)
    rep.assoc_pairs += len(rows)
    if nb * n_a * n_c == 0:
        rep.empty_domains += len(rows)
        return rep
    within_budget(n_a * n_c, _MAX_PAIR_CELLS, "associativity pair for {} ; {} needs {n} cells",
                  C.morphisms[s0], C.morphisms[w0])
    rep.assoc_instances += len(rows) * nb * n_a * n_c
    rep.assoc_rows, rep.skipped_holes, found = decide_group(
        C.maps[w0], flat, off, holes, shapes, rows, slab, scratch, _MAX_VIOLATIONS, rep.timing)
    for p, b, a, c, lhs, rhs in found:
        sigma, omega = C.morphisms[rows[p, 0]], C.morphisms[rows[p, 1]]
        a_idx = tuple(int(x) for x in np.unravel_index(a, a_sizes))
        c_idx = tuple(int(x) for x in np.unravel_index(c, shapes[s0][1:]))
        rep.violations.append(
            f"associativity fails for {sigma} then {omega} at "
            f"b={b}, a={a_idx}, c={c_idx}: {lhs} != {rhs}"
        )
    return rep


# ---------------------------------------------------------------------------
# operad morphisms and algebras


@dataclass(frozen=True)
class OperadMorphism:
    """A map of operads over the same base: a label map per component."""

    source_name: str
    target_name: str
    components: tuple  # tuple of (object, tuple of target-label indices)


def is_operad_morphism(A: OperadTable, B: OperadTable, phi: OperadMorphism) -> bool:
    """Validate that phi commutes with units and all defined table entries.

    Each of B's tables is read at once at the images of A's target and
    fiber labels, and compared with A's values mapped by the source
    component's map wherever neither side is a hole.
    """
    if A.base != B.base or A.K != B.K:
        return False
    maps = dict(phi.components)
    if maps[A.base.terminal()][A.unit_index()] != B.unit_index():
        return False
    C = compile_base(A.base, A.K)
    images = [np.array(maps[T], dtype=np.int64) for T in C.objects]
    for m, sigma in enumerate(C.morphisms):
        va = A.mult[sigma]
        vb = B.mult[sigma][np.ix_(*(images[o] for o in C.axes(m)))]
        defined = (va >= 0) & (vb >= 0)
        if not np.array_equal(images[C.source[m]][va[defined]], vb[defined]):
            return False
    return True


def compose_operad_morphisms(g: OperadMorphism, f: OperadMorphism) -> OperadMorphism:
    """Componentwise composite g after f."""
    g_maps = dict(g.components)
    return OperadMorphism(
        f.source_name,
        g.target_name,
        tuple((T, tuple(g_maps[T][v] for v in fm)) for T, fm in f.components),
    )


_MAX_SEARCH_NODES = 2_000_000  # label images the morphism search may try
_CHOICE_BLOCK = 1 << 16  # (image, constraint) pairs the search checks at once


def enumerate_operad_morphisms(A: OperadTable, B: OperadTable) -> list[OperadMorphism]:
    """All operad morphisms A -> B by pruned exhaustive search.

    A's labels are numbered object by object in compile_base order, so
    variable first[o] + a is label a over object o, and the search
    assigns their images in that order.  Each defined entry of A's
    tables is a constraint on the variables of its indices and of its
    value; it is checked as soon as the largest of them is assigned, so
    forcing entries prune immediately.  All images of a variable are
    checked at once against its constraints.  Deterministic output order.
    Raises BudgetExceededError with a diagnostic when the search tries
    more than _MAX_SEARCH_NODES images.
    """
    if A.base != B.base or A.K != B.K:
        raise ValueError("operads live over different bases or truncations")
    if A.unit is None:
        return []
    C = compile_base(A.base, A.K)
    n_a = np.array([len(A.components[T]) for T in C.objects], dtype=np.int64)
    n_b = [len(B.components[T]) for T in C.objects]
    first = np.cumsum(n_a) - n_a
    owner = np.repeat(np.arange(len(C.objects)), n_a).tolist()  # each variable's object
    unit_var = int(first[C.objects.index(A.base.terminal())]) + A.unit_index()
    unit_b = B.unit_index()

    # fired[pos]: the constraints whose largest variable is pos, one group per table:
    # B's table read at sum(phi[refs] * strides) must equal phi[out] unless it is a hole
    fired = [[] for _ in owner]
    for m, sigma in enumerate(C.morphisms):
        tab_a, tab_b = A.mult[sigma], B.mult[sigma]
        values = tab_a.ravel()
        defined = np.flatnonzero(values >= 0)
        refs = first[C.axes(m)] + np.stack(np.unravel_index(defined, tab_a.shape), axis=1)
        out = first[C.source[m]] + values[defined]
        last = np.maximum(refs.max(axis=1), out)
        strides = np.cumprod((tab_b.shape + (1,))[:0:-1])[::-1]
        coef = (strides * (refs == last[:, None])).sum(axis=1)  # the stride of the last variable
        for pos in sorted_distinct(last).tolist():
            at = last == pos
            fired[pos].append((tab_b.ravel(), refs[at], strides, out[at], coef[at]))

    phi = np.zeros(len(owner), dtype=np.int64)
    results: list[OperadMorphism] = []
    nodes = 0

    def allowed(pos: int, images: np.ndarray) -> np.ndarray:
        """The images of variable pos that meet every constraint fired there,
        checked at once in blocks of _CHOICE_BLOCK (image, constraint) pairs."""
        phi[pos] = 0  # the images enter through coef and own
        for flat_b, refs, strides, out, coef in fired[pos]:
            if not len(images):
                break
            at, want, own = (phi[refs] * strides).sum(axis=1), phi[out], out == pos
            step = max(1, _CHOICE_BLOCK // len(at))
            ok = []
            for lo in range(0, len(images), step):
                img = images[lo:lo + step, None]
                vb = flat_b[at + img * coef]
                ok.append(((vb < 0) | (vb == np.where(own, img, want))).all(axis=1))
            images = images[np.concatenate(ok)]
        return images

    def walk(pos: int):
        nonlocal nodes
        if pos == len(owner):
            images = phi.tolist()
            results.append(OperadMorphism(A.name, B.name, tuple(
                (T, tuple(images[i:i + k])) for T, i, k in zip(C.objects, first.tolist(),
                                                                 n_a.tolist()))))
            return
        # a nonempty component must land somewhere, and the unit on the unit
        images = np.array([unit_b]) if pos == unit_var else np.arange(n_b[owner[pos]])
        nodes += len(images)
        within_budget(nodes, _MAX_SEARCH_NODES, "morphism search {} -> {} tries {n} images by {}",
                      A.name, B.name, C.objects[owner[pos]], early=True)
        for img in allowed(pos, images).tolist():
            phi[pos] = img
            walk(pos + 1)

    walk(0)
    return results


def enumerate_algebras(A: OperadTable, X):
    """Algebra structures on X: morphisms A -> des_n(End_X) within truncation."""
    if not isinstance(A.base, OrdBase):
        raise ValueError("enumerate_algebras expects an operad over Ord(n)")
    end = endomorphism_operad(tuple(X), A.K, constant_free=A.base.constant_free)
    return enumerate_operad_morphisms(A, desymmetrize(end, A.base.n))


# ---------------------------------------------------------------------------
# serialisation


def base_morphism_to_json(sigma) -> dict:
    """JSON form of a morphism of either base."""
    if isinstance(sigma, OrdinalMorphism):
        return morphism_to_json(sigma)
    return {"source": sigma.source, "target": sigma.target, "map": list(sigma.map)}


def base_morphism_from_json(data, base):
    """Inverse of base_morphism_to_json over the given base."""
    if isinstance(base, OrdBase):
        return morphism_from_json(data)
    return FinSetMorphism(data["source"], data["target"], tuple(data["map"]))


def base_to_json(base) -> dict:
    if isinstance(base, OrdBase):
        kind = "Ord_0" if base.constant_free else "Ord"
        return {"kind": kind, "n": base.n}
    return {"kind": "FinSet_0" if base.constant_free else "FinSet"}


def base_from_json(data):
    kind = data["kind"]
    if kind in ("Ord", "Ord_0"):
        return OrdBase(data["n"], constant_free=kind.endswith("_0"))
    if kind in ("FinSet", "FinSet_0"):
        return FinBase(constant_free=kind.endswith("_0"))
    raise ValueError(f"unknown base kind {kind!r}")


def _object_from_key(key: str, base):
    data = json.loads(key)
    if isinstance(base, OrdBase):
        return ordinal_from_json(data)
    return int(data)


_MAX_EXPORT_ENTRIES = 1 << 20  # table entries that operad_to_json writes out


def operad_to_json(A: OperadTable) -> dict:
    """Label-level JSON form of the operad (refuses unreasonably large tables)."""
    within_budget(sum(t.size for t in A.mult.values()), _MAX_EXPORT_ENTRIES,
                  "operad has {n} table entries to export")
    C = compile_base(A.base, A.K)
    comps = {A.base.key(T): list(labs) for T, labs in A.components.items()}
    mult = []
    for sigma in sorted(A.mult, key=lambda s: (_target_size(s), str(s))):
        m = C.morphism_id[sigma]
        b_labs, *a_labs = (A.components[C.objects[o]] for o in C.axes(m))
        values = A.components[C.objects[C.source[m]]]
        tab = A.mult[sigma]
        entries = [[[b_labs[idx[0]], [labs[i] for labs, i in zip(a_labs, idx[1:])]],
                    None if v < 0 else values[v]]
                   for idx, v in zip(np.ndindex(tab.shape), tab.ravel().tolist())]
        mult.append({"sigma": base_morphism_to_json(sigma), "table": entries})
    return {
        "base": base_to_json(A.base),
        "K": A.K,
        "components": comps,
        "unit": A.unit,
        "mult": mult,
        "name": A.name,
    }


def operad_from_json(data: dict) -> OperadTable:
    base = base_from_json(data["base"])
    K = data["K"]
    components = {
        _object_from_key(key, base): tuple(labs)
        for key, labs in data["components"].items()
    }
    A = OperadTable(base, K, components, data["unit"], {}, data.get("name", ""))
    C = compile_base(base, K)
    for item in data["mult"]:
        sigma = base_morphism_from_json(item["sigma"], base)
        m = C.morphism_id[sigma]
        axes = [A._index[C.objects[o]] for o in C.axes(m)]
        values = A._index[C.objects[C.source[m]]]
        tab = np.full(tuple(map(len, axes)), -1, dtype=np.int32)
        for (b_lab, a_labs), val in item["table"]:
            idx = tuple(ix[lab] for ix, lab in zip(axes, (b_lab, *a_labs)))
            tab[idx] = -1 if val is None else values[val]
        A.mult[sigma] = tab
    return A
