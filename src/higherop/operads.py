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
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .ordinals import (
    OrdinalMorphism,
    compose as ord_compose,
    enumerate_morphisms,
    enumerate_ordinals,
    fiber as ord_fiber,
    identity as ord_identity,
    morphism_from_json,
    morphism_to_json,
    ordinal_from_json,
    ordinal_key,
    restrict_to_fiber as ord_restrict,
    suspend_morphism,
    suspend_p,
    terminal_ordinal,
    to_terminal as ord_to_terminal,
)


class BudgetExceededError(RuntimeError):
    """An enumeration or table build went past its explicit budget."""


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

    def terminal(self):
        return 1

    def size(self, T) -> int:
        return T

    def identity(self, T):
        return FinSetMorphism(T, T, tuple(range(T)))

    def morphisms(self, T, S):
        if T == 0:
            maps = [FinSetMorphism(0, S, ())]
        else:
            maps = [
                FinSetMorphism(T, S, m)
                for m in itertools.product(range(S), repeat=T)
            ]
        if self.constant_free:
            maps = [f for f in maps if is_surjective(f)]
        return maps

    def compose(self, g, f):
        return finset_compose(g, f)

    def fiber(self, f, i):
        return len(finset_fiber_elements(f, i))

    def restrict(self, sigma, omega, i):
        return finset_restrict(sigma, omega, i)

    def key(self, T) -> str:
        return json.dumps(T)


@functools.lru_cache(maxsize=None)
def base_morphisms(base, K: int) -> tuple:
    """All base morphisms with both endpoints inside the truncation."""
    objs = base.objects(K)
    out = []
    for T in objs:
        for S in objs:
            out.extend(base.morphisms(T, S))
    return tuple(out)


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

    def table(self, sigma) -> np.ndarray:
        return self.mult[sigma]

    def table_shape(self, sigma) -> tuple[int, ...]:
        fibers = [self.base.fiber(sigma, i) for i in range(_target_size(sigma))]
        return (len(self.components[sigma.target]),) + tuple(
            len(self.components[F]) for F in fibers
        )

    def value(self, sigma, b_label: str, a_labels) -> str | None:
        """Label-level table lookup; None marks a truncation hole."""
        fibers = [self.base.fiber(sigma, i) for i in range(_target_size(sigma))]
        idx = (self.label_index(sigma.target, b_label),) + tuple(
            self.label_index(F, a) for F, a in zip(fibers, a_labels)
        )
        v = int(self.mult[sigma][idx])
        if v < 0:
            return None
        return self.components[sigma.source][v]

    def has_holes(self) -> bool:
        return any(int(t.min(initial=0)) < 0 for t in self.mult.values())


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
    components = {T: ("*",) for T in base.objects(K)}
    mult = {}
    shared = {}  # all-zero tables shared per shape; never mutated
    for sigma in base_morphisms(base, K):
        shape = (1,) + (1,) * _target_size(sigma)
        if shape not in shared:
            shared[shape] = np.zeros(shape, dtype=np.int32)
        mult[sigma] = shared[shape]
    name = f"Ass[{base.kind}" + (f"({base.n})" if hasattr(base, "n") else "") + "]"
    return OperadTable(base, K, components, "*", mult, name)


def _function_labels(x_size: int, arity: int) -> tuple[str, ...]:
    """Labels for all functions X^arity -> X, outputs in lex input order."""
    return tuple(
        "".join(map(str, outs))
        for outs in itertools.product(range(x_size), repeat=x_size ** arity)
    )


@functools.lru_cache(maxsize=8)
def endomorphism_operad(
    X, K: int, max_component: int = 1 << 17, constant_free: bool = False
) -> OperadTable:
    """The endomorphism operad of a finite set over the FinSet base.

    Component at arity k is the set of all functions X^k -> X; the
    multiplication is substitution of functions along a map of finite
    sets.  Labels spell out the output tuple over lexicographic inputs.
    The empty set only has a constant-free endomorphism operad (there is
    no function from a point to nothing at arity zero).  The result is
    cached and must be treated as immutable.
    """
    x_size = len(tuple(X))
    if x_size < 1 and not constant_free:
        raise ValueError("the empty set only supports the constant-free variant")
    base = FinBase(constant_free=constant_free)
    if x_size ** (x_size ** K) > max_component:
        raise BudgetExceededError(
            f"End component at arity {K} would have {x_size ** (x_size ** K)} "
            f"elements (budget {max_component})"
        )
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
    inputs = {k: list(itertools.product(range(x_size), repeat=k)) for k in range(K + 1)}
    input_rank = {k: {t: r for r, t in enumerate(inputs[k])} for k in range(K + 1)}

    mult = {}
    for f in base_morphisms(base, K):
        k, m = f.source, f.target
        fib_elems = [finset_fiber_elements(f, i) for i in range(m)]
        fib_sizes = [len(e) for e in fib_elems]
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
        res = outs[m][:, y_rank]  # (N_m,) + g_shape + (x**k,)
        powers = x_size ** np.arange(n_inputs[k] - 1, -1, -1, dtype=np.int64)
        mult[f] = np.tensordot(res, powers, axes=([-1], [0])).astype(np.int32)
    unit = components[1][_identity_code(x_size)]
    return OperadTable(base, K, components, unit, mult, f"End[{x_size}]")


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
    """
    if not isinstance(B.base, FinBase):
        raise ValueError("desymmetrize expects an operad over FinSet")
    base = OrdBase(n, constant_free=B.base.constant_free)
    components = {T: B.components[T.size] for T in base.objects(B.K)}
    mult = {}
    for sigma in base_morphisms(base, B.K):
        mult[sigma] = B.mult[cardinality_morphism(sigma)]
    return OperadTable(base, B.K, components, B.unit, mult, f"des_{n}({B.name})")


def restrict_suspension(B: OperadTable, p: int) -> OperadTable:
    """Restrict an operad over Ord(n+1) along the p-suspension functor."""
    if not isinstance(B.base, OrdBase) or B.base.n < 1:
        raise ValueError("suspension restriction expects an operad over Ord(n+1), n >= 0")
    n = B.base.n - 1
    if not 0 <= p <= n:
        raise ValueError(f"suspension index {p} outside [0, {n}]")
    base = OrdBase(n, constant_free=B.base.constant_free)
    components = {T: B.components[suspend_p(T, p)] for T in base.objects(B.K)}
    mult = {}
    for sigma in base_morphisms(base, B.K):
        mult[sigma] = B.mult[suspend_morphism(sigma, p)]
    return OperadTable(base, B.K, components, B.unit, mult, f"S_{p}^*({B.name})")


# ---------------------------------------------------------------------------
# axiom checking


@dataclass
class AxiomReport:
    ok: bool
    violations: list
    unit_instances: int = 0
    assoc_pairs: int = 0
    assoc_instances: int = 0
    skipped_holes: int = 0
    empty_domains: int = 0

    def summary(self) -> str:
        status = "pass" if self.ok else f"FAIL ({len(self.violations)} violations)"
        return (
            f"{status}: {self.unit_instances} unit instances, "
            f"{self.assoc_pairs} composable pairs, "
            f"{self.assoc_instances} associativity instances"
            + (f", {self.skipped_holes} skipped at holes" if self.skipped_holes else "")
            + (f", {self.empty_domains} empty domains" if self.empty_domains else "")
        )


_VECTOR_THRESHOLD = 4096  # instances per pair above which the ndarray path runs
_MAX_VIOLATIONS = 20


def check_operad_axioms(
    A: OperadTable, max_pair_cells: int = 1 << 28, units_only: bool = False
) -> AxiomReport:
    """Verify totality, the two unit diagrams and all associativity squares.

    Associativity is checked pointwise for every composable pair inside
    the truncation.  Entries marked as truncation holes are skipped and
    counted; empty table domains (an empty component in a fiber) are
    flagged but impose no constraint.  Raises BudgetExceededError if one
    pair would need more than max_pair_cells table cells at once.
    """
    rep = AxiomReport(ok=True, violations=[])
    base, K = A.base, A.K
    objs = base.objects(K)

    terminal = base.terminal()
    if A.unit is None or A.unit not in A.components.get(terminal, ()):
        rep.violations.append("missing unit in the terminal component")
        rep.ok = False
        return rep
    unit_idx = A.unit_index()

    # totality and shapes
    for sigma in base_morphisms(base, K):
        if sigma not in A.mult:
            rep.violations.append(f"missing table for {sigma}")
            continue
        tab = A.mult[sigma]
        shape = A.table_shape(sigma)
        if tuple(tab.shape) != shape:
            rep.violations.append(f"table for {sigma} has shape {tab.shape}, want {shape}")
            continue
        n_src = len(A.components[sigma.source])
        if tab.size and (int(tab.max()) >= n_src or int(tab.min()) < -1):
            rep.violations.append(f"table for {sigma} has out-of-range values")
        if tab.size == 0:
            rep.empty_domains += 1
    if rep.violations:
        rep.ok = False
        return rep

    # unit diagrams
    for T in objs:
        labs = A.components[T]
        ident = base.identity(T)
        tab = A.mult[ident]
        for a in range(len(labs)):
            idx = (a,) + (unit_idx,) * base.size(T)
            got = int(tab[idx])
            rep.unit_instances += 1
            if got == -1:
                rep.skipped_holes += 1
            elif got != a:
                rep.violations.append(
                    f"unit diagram fails at id_{T}: m(a; units) = "
                    f"{labs[got]} for a = {labs[a]}"
                )
        if base.constant_free and base.size(T) == 0:
            continue
        bang = _to_terminal(base, T)
        if bang is not None:
            tab = A.mult[bang]
            for a in range(len(labs)):
                got = int(tab[(unit_idx, a)])
                rep.unit_instances += 1
                if got == -1:
                    rep.skipped_holes += 1
                elif got != a:
                    rep.violations.append(
                        f"unit diagram fails at {T} -> terminal: m(unit; a) = "
                        f"{labs[got]} for a = {labs[a]}"
                    )

    if units_only:
        rep.ok = not rep.violations
        return rep

    # associativity
    morphs_by_source = {}
    for m in base_morphisms(base, K):
        morphs_by_source.setdefault(m.source, []).append(m)
    for sigma in base_morphisms(base, K):
        for omega in morphs_by_source.get(sigma.target, ()):
            _check_pair(A, sigma, omega, unit_idx, rep, max_pair_cells)
            if len(rep.violations) >= _MAX_VIOLATIONS:
                rep.ok = False
                return rep

    rep.ok = not rep.violations
    return rep


def _to_terminal(base, T):
    if isinstance(base, OrdBase):
        return ord_to_terminal(T)
    return FinSetMorphism(T, 1, (0,) * T)


def associativity_violations(
    A: OperadTable, sigma, omega, max_pair_cells: int = 1 << 28
) -> list:
    """Pointwise associativity check of one composable pair; returns violations."""
    rep = AxiomReport(ok=True, violations=[])
    _check_pair(A, sigma, omega, A.unit_index(), rep, max_pair_cells)
    return rep.violations


def unit_violations(A: OperadTable) -> list:
    """Only the totality and unit-diagram part of check_operad_axioms."""
    return check_operad_axioms(A, units_only=True).violations


def _pair_data(A: OperadTable, sigma, omega):
    """Shared index bookkeeping for one composable pair (sigma, omega)."""
    base = A.base
    comp = base.compose(omega, sigma)
    r_size = _target_size(omega)
    s_size = _target_size(sigma)
    omega_fibers = [base.fiber(omega, i) for i in range(r_size)]
    sigma_fibers = [base.fiber(sigma, e) for e in range(s_size)]
    comp_fibers = [base.fiber(comp, i) for i in range(r_size)]
    blocks = [base.restrict(sigma, omega, i) for i in range(r_size)]
    block_elems = [
        tuple(e for e, v in enumerate(omega.map) if v == i) for i in range(r_size)
    ]
    return comp, omega_fibers, sigma_fibers, comp_fibers, blocks, block_elems


def _check_pair(A, sigma, omega, unit_idx, rep, max_pair_cells):
    comp, om_f, sg_f, cp_f, blocks, block_elems = _pair_data(A, sigma, omega)
    nb = len(A.components[omega.target])
    a_sizes = [len(A.components[F]) for F in om_f]
    c_sizes = [len(A.components[F]) for F in sg_f]
    n_a = int(np.prod(a_sizes, dtype=np.int64)) if a_sizes else 1
    n_c = int(np.prod(c_sizes, dtype=np.int64)) if c_sizes else 1
    total = nb * n_a * n_c
    rep.assoc_pairs += 1
    if total == 0:
        rep.empty_domains += 1
        return
    rep.assoc_instances += total

    tab_sigma = A.mult[sigma]
    tab_omega = A.mult[omega]
    tab_comp = A.mult[comp]
    tab_blocks = [A.mult[b] for b in blocks]
    any_holes = any(
        t.size and int(t.min()) < 0
        for t in [tab_sigma, tab_omega, tab_comp, *tab_blocks]
    )

    if total <= _VECTOR_THRESHOLD or any_holes:
        _check_pair_loops(
            A, sigma, omega, comp, blocks, block_elems, rep
        )
        return
    if n_a * n_c > max_pair_cells:
        raise BudgetExceededError(
            f"associativity pair for {sigma} ; {omega} needs {n_a * n_c} cells "
            f"(budget {max_pair_cells})"
        )
    _check_pair_vectorised(
        A, sigma, omega, comp, blocks, block_elems,
        nb, a_sizes, c_sizes, rep,
    )


def _iter_index(sizes):
    if not sizes:
        yield ()
        return
    yield from itertools.product(*(range(s) for s in sizes))


def _check_pair_loops(A, sigma, omega, comp, blocks, block_elems, rep):
    tab_sigma = A.mult[sigma]
    tab_omega = A.mult[omega]
    tab_comp = A.mult[comp]
    tab_blocks = [A.mult[b] for b in blocks]
    nb = tab_omega.shape[0]
    a_sizes = tab_omega.shape[1:]
    c_sizes = tab_sigma.shape[1:]
    for b in range(nb):
        for a_idx in _iter_index(a_sizes):
            s_val = int(tab_omega[(b,) + a_idx])
            for c_idx in _iter_index(c_sizes):
                if s_val == -1:
                    rep.skipped_holes += 1
                    continue
                lhs = int(tab_sigma[(s_val,) + c_idx])
                inner = []
                hole = False
                for i, blk in enumerate(tab_blocks):
                    c_part = tuple(c_idx[e] for e in block_elems[i])
                    v = int(blk[(a_idx[i],) + c_part])
                    if v == -1:
                        hole = True
                        break
                    inner.append(v)
                if hole:
                    rep.skipped_holes += 1
                    continue
                rhs = int(tab_comp[(b,) + tuple(inner)])
                if lhs == -1 or rhs == -1:
                    rep.skipped_holes += 1
                    continue
                if lhs != rhs:
                    rep.violations.append(
                        f"associativity fails for {sigma} then {omega} at "
                        f"b={b}, a={a_idx}, c={c_idx}: {lhs} != {rhs}"
                    )
                    if len(rep.violations) >= _MAX_VIOLATIONS:
                        return


def _digits(total: int, sizes) -> list[np.ndarray]:
    """Row-major digit arrays: flat index -> per-axis index."""
    out = []
    stride = total
    for s in sizes:
        stride //= s
        out.append((np.arange(total, dtype=np.int64) // stride) % s)
    return out


def _check_pair_vectorised(
    A, sigma, omega, comp, blocks, block_elems, nb, a_sizes, c_sizes, rep
):
    tab_sigma = A.mult[sigma]
    tab_omega = A.mult[omega]
    tab_comp = A.mult[comp]
    n_a = int(np.prod(a_sizes, dtype=np.int64)) if a_sizes else 1
    n_c = int(np.prod(c_sizes, dtype=np.int64)) if c_sizes else 1

    om2 = tab_omega.reshape(nb, n_a).astype(np.int64)
    sg2 = tab_sigma.reshape(tab_sigma.shape[0], n_c).astype(np.int64)
    comp_shape = tab_comp.shape
    cp2 = tab_comp.reshape(nb, -1).astype(np.int64)

    a_dig = _digits(n_a, a_sizes) if a_sizes else []
    c_dig = _digits(n_c, c_sizes) if c_sizes else []

    # composite fiber index: Mix[a, c] = flat index of the inner results
    mix = np.zeros((n_a, n_c), dtype=np.int64)
    stride = int(np.prod(comp_shape[1:], dtype=np.int64)) if len(comp_shape) > 1 else 1
    for i, blk in enumerate(blocks):
        stride //= comp_shape[1 + i]
        tab_blk = A.mult[blk].astype(np.int64)
        blk_sizes = tab_blk.shape[1:]
        nblk = int(np.prod(blk_sizes, dtype=np.int64)) if blk_sizes else 1
        blk2 = tab_blk.reshape(tab_blk.shape[0], nblk)
        # flat block input from the global c digits of this block's elements
        cblk = np.zeros(n_c, dtype=np.int64)
        for local, e in enumerate(block_elems[i]):
            cblk = cblk * blk_sizes[local] + c_dig[e]
        mix += blk2[a_dig[i][:, None], cblk[None, :]] * stride

    bad = []
    for b in range(nb):
        path1 = sg2[om2[b]]               # (n_a, n_c)
        path2 = cp2[b][mix]               # (n_a, n_c)
        if not np.array_equal(path1, path2):
            where = np.argwhere(path1 != path2)
            for a_f, c_f in where[:3]:
                bad.append(
                    f"associativity fails for {sigma} then {omega} at "
                    f"b={b}, a_flat={int(a_f)}, c_flat={int(c_f)}: "
                    f"{int(path1[a_f, c_f])} != {int(path2[a_f, c_f])}"
                )
            if len(rep.violations) + len(bad) >= _MAX_VIOLATIONS:
                break
    rep.violations.extend(bad)


# ---------------------------------------------------------------------------
# operad morphisms and algebras


@dataclass(frozen=True)
class OperadMorphism:
    """A map of operads over the same base: a label map per component."""

    source_name: str
    target_name: str
    components: tuple  # tuple of (object, tuple of target-label indices)

    def mapping(self, T) -> tuple[int, ...]:
        for obj, m in self.components:
            if obj == T:
                return m
        raise KeyError(T)


def _object_order(base, objs):
    return sorted(objs, key=lambda T: (base.size(T), base.key(T)))


def is_operad_morphism(A: OperadTable, B: OperadTable, phi: OperadMorphism) -> bool:
    """Validate that phi commutes with units and all defined table entries."""
    if A.base != B.base or A.K != B.K:
        return False
    maps = dict(phi.components)
    terminal = A.base.terminal()
    if maps[terminal][A.unit_index()] != B.unit_index():
        return False
    for sigma in base_morphisms(A.base, A.K):
        fibers = [A.base.fiber(sigma, i) for i in range(_target_size(sigma))]
        tab_a, tab_b = A.mult[sigma], B.mult[sigma]
        phi_t, phi_s = maps[sigma.target], maps[sigma.source]
        phi_f = [maps[F] for F in fibers]
        for b_i in range(tab_a.shape[0]):
            for a_idx in _iter_index(tab_a.shape[1:]):
                va = int(tab_a[(b_i,) + a_idx])
                if va == -1:
                    continue
                vb = int(tab_b[(phi_t[b_i],) + tuple(
                    phi_f[i][a_idx[i]] for i in range(len(a_idx))
                )])
                if vb == -1:
                    continue
                if phi_s[va] != vb:
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


def enumerate_operad_morphisms(
    A: OperadTable, B: OperadTable, max_nodes: int = 2_000_000
) -> list[OperadMorphism]:
    """All operad morphisms A -> B by pruned exhaustive search.

    The search assigns one image per (object, label of A) variable, in a
    fixed order, and checks every table entry as soon as the labels it
    mentions are all assigned, so forcing entries prune immediately.
    Deterministic output order.  Raises BudgetExceededError with a
    diagnostic when the search exceeds max_nodes assignments.
    """
    if A.base != B.base or A.K != B.K:
        raise ValueError("operads live over different bases or truncations")
    base, K = A.base, A.K
    objs = _object_order(base, base.objects(K))
    terminal = base.terminal()

    if A.unit is None:
        return []

    variables = [(T, a) for T in objs for a in range(len(A.components[T]))]
    var_pos = {v: i for i, v in enumerate(variables)}
    b_sizes = {T: len(B.components[T]) for T in objs}
    unit_var = (terminal, A.unit_index())
    unit_b = B.unit_index()

    # one constraint per defined table entry, fired at its last variable
    fired: dict[int, list] = {}
    for sigma in base_morphisms(base, K):
        fibers = tuple(base.fiber(sigma, i) for i in range(_target_size(sigma)))
        tab_a = A.mult[sigma]
        tab_b = B.mult[sigma]
        strides = []
        acc = 1
        for s in reversed(tab_b.shape):
            strides.append(acc)
            acc *= s
        strides.reverse()
        flat_b = tab_b.ravel()
        for b_i in range(tab_a.shape[0]):
            for a_idx in _iter_index(tab_a.shape[1:]):
                va = int(tab_a[(b_i,) + a_idx])
                if va == -1:
                    continue
                refs = [(sigma.target, b_i)]
                refs.extend((fibers[i], a_idx[i]) for i in range(len(a_idx)))
                out_ref = (sigma.source, va)
                last = max(
                    max(var_pos[r] for r in refs), var_pos[out_ref]
                )
                fired.setdefault(last, []).append(
                    (tuple(var_pos[r] for r in refs), strides, flat_b, var_pos[out_ref])
                )
        del flat_b

    phi = [0] * len(variables)
    results: list[OperadMorphism] = []
    nodes = 0

    def entry_ok(entry) -> bool:
        ref_pos, strides, flat_b, out_pos = entry
        flat = 0
        for r, s in zip(ref_pos, strides):
            flat += phi[r] * s
        vb = int(flat_b[flat])
        if vb == -1:
            return True
        return phi[out_pos] == vb

    def walk(pos: int):
        nonlocal nodes
        if pos == len(variables):
            comps = []
            i = 0
            for T in objs:
                n_a = len(A.components[T])
                comps.append((T, tuple(phi[i : i + n_a])))
                i += n_a
            results.append(OperadMorphism(A.name, B.name, tuple(comps)))
            return
        T, a = variables[pos]
        if b_sizes[T] == 0:
            return  # a nonempty component must land somewhere
        if (T, a) == unit_var:
            choices = (unit_b,)
        else:
            choices = range(b_sizes[T])
        for img in choices:
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceededError(
                    f"morphism search exceeded {max_nodes} nodes at {T} "
                    f"({A.name} -> {B.name})"
                )
            phi[pos] = img
            if all(entry_ok(e) for e in fired.get(pos, ())):
                walk(pos + 1)

    walk(0)
    return results


def enumerate_algebras(A: OperadTable, X, max_nodes: int = 2_000_000):
    """Algebra structures on X: morphisms A -> des_n(End_X) within truncation."""
    if not isinstance(A.base, OrdBase):
        raise ValueError("enumerate_algebras expects an operad over Ord(n)")
    end = endomorphism_operad(tuple(X), A.K, constant_free=A.base.constant_free)
    target = desymmetrize(end, A.base.n)
    return enumerate_operad_morphisms(A, target, max_nodes=max_nodes)


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


def operad_to_json(A: OperadTable, max_entries: int = 1 << 20) -> dict:
    """Label-level JSON form of the operad (refuses unreasonably large tables)."""
    total = sum(t.size for t in A.mult.values())
    if total > max_entries:
        raise BudgetExceededError(
            f"operad has {total} table entries (export budget {max_entries})"
        )
    comps = {A.base.key(T): list(labs) for T, labs in A.components.items()}
    mult = []
    for sigma in sorted(A.mult, key=lambda s: (_target_size(s), str(s))):
        tab = A.mult[sigma]
        fibers = [A.base.fiber(sigma, i) for i in range(_target_size(sigma))]
        entries = []
        for idx in np.ndindex(tab.shape):
            v = int(tab[idx])
            b_lab = A.components[sigma.target][idx[0]]
            a_labs = [A.components[F][i] for F, i in zip(fibers, idx[1:])]
            entries.append([[b_lab, a_labs], None if v < 0 else A.components[sigma.source][v]])
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
    index = {T: {lab: i for i, lab in enumerate(labs)} for T, labs in components.items()}
    mult = {}
    for item in data["mult"]:
        sigma = base_morphism_from_json(item["sigma"], base)
        fibers = [base.fiber(sigma, i) for i in range(_target_size(sigma))]
        shape = (len(components[sigma.target]),) + tuple(len(components[F]) for F in fibers)
        tab = np.full(shape, -1, dtype=np.int32)
        for (b_lab, a_labs), val in item["table"]:
            idx = (index[sigma.target][b_lab],) + tuple(
                index[F][a] for F, a in zip(fibers, a_labs)
            )
            tab[idx] = -1 if val is None else index[sigma.source][val]
        mult[sigma] = tab
    return OperadTable(base, K, components, data["unit"], mult, data.get("name", ""))
