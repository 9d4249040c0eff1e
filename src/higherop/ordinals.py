"""Canonical n-ordinals, their morphisms, fibers and suspensions.

An n-ordinal is a finite set carrying n complementary antireflexive
relations <_0, ..., <_{n-1} such that every pair of distinct elements is
related at exactly one level and a <_p b, b <_q c force a <_{min(p,q)} c.
The union of the relations is a total order, so after renaming the
underlying set to {0, ..., k-1} in that order the whole structure is
determined by the levels of consecutive elements:

    profile[i] = the unique p with i <_p i+1,

and level(i, j) = min(profile[i:j]) for any i < j.  This module stores
ordinals in that canonical form, which is the linearised pruned-tree
picture: leaves are the elements, and leaves i, i+1 branch off each
other exactly below height profile[i].

The empty ordinal (size 0) and the one-element terminal ordinal both
have an empty profile, so the element count is kept explicitly.

Everything here is immutable and every operation is a pure function;
the enumeration caches are internal and safe for concurrent readers.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class NOrdinal:
    """Canonical n-ordinal: element count plus consecutive levels."""

    n: int
    profile: tuple[int, ...]
    size: int = -1  # -1 means "derive from the profile"

    def __post_init__(self) -> None:
        if self.size == -1:
            object.__setattr__(self, "size", len(self.profile) + 1)
        object.__setattr__(self, "profile", tuple(self.profile))
        if self.n < 0:
            raise ValueError(f"negative number of levels: {self.n}")
        if self.size < 0:
            raise ValueError(f"negative size: {self.size}")
        expected = max(self.size - 1, 0)
        if len(self.profile) != expected:
            raise ValueError(
                f"profile length {len(self.profile)} does not match size {self.size}"
            )
        for l in self.profile:
            if not 0 <= l <= self.n - 1:
                raise ValueError(f"profile level {l} outside [0, {self.n - 1}]")

    def __repr__(self) -> str:
        if self.size == 0:
            return f"NOrdinal(n={self.n}, empty)"
        return f"NOrdinal(n={self.n}, profile={self.profile})"


@dataclass(frozen=True)
class InfOrdinal:
    """Ordinal with levels in the nonpositive integers (the n -> oo limit)."""

    profile: tuple[int, ...]
    size: int = -1

    def __post_init__(self) -> None:
        if self.size == -1:
            object.__setattr__(self, "size", len(self.profile) + 1)
        object.__setattr__(self, "profile", tuple(self.profile))
        if len(self.profile) != max(self.size - 1, 0):
            raise ValueError("profile length does not match size")
        if any(l > 0 for l in self.profile):
            raise ValueError("levels of an infinite-type ordinal must be <= 0")


def ordinal(n: int, *profile: int) -> NOrdinal:
    """Shorthand constructor from explicit consecutive levels."""
    return NOrdinal(n, tuple(profile))


def empty_ordinal(n: int) -> NOrdinal:
    """The initial n-ordinal (no elements, degenerate root-only tree)."""
    return NOrdinal(n, (), 0)


def terminal_ordinal(n: int) -> NOrdinal:
    """The one-element terminal n-ordinal (linear tree with n levels)."""
    return NOrdinal(n, (), 1)


def cardinality(T: NOrdinal) -> int:
    """Number of elements of the underlying set."""
    return T.size


def level(T, i: int, j: int) -> int:
    """The unique p with i <_p j, namely min(profile[i:j]).

    Works for both NOrdinal and InfOrdinal values.

    >>> level(ordinal(2, 1, 0, 1, 1), 0, 2)
    0
    >>> level(ordinal(2, 1, 0, 1, 1), 0, 1)
    1
    """
    if not 0 <= i < j < T.size:
        raise ValueError(f"need 0 <= i < j < {T.size}, got ({i}, {j})")
    return min(T.profile[i:j])


def relations(T: NOrdinal) -> tuple[tuple[int, int, int], ...]:
    """All relations of T as triples (i, p, j) meaning i <_p j."""
    out = []
    for i in range(T.size):
        for j in range(i + 1, T.size):
            out.append((i, level(T, i, j), j))
    return tuple(out)


def enumerate_ordinals(n: int, k: int) -> list[NOrdinal]:
    """All canonical n-ordinals with k elements, in lexicographic profile order.

    There are n**(k-1) of them for k >= 1 and exactly one for k = 0.  For
    n = 0 no relations exist, so only k in {0, 1} produce anything.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k == 0:
        return [empty_ordinal(n)]
    if n == 0:
        return [terminal_ordinal(0)] if k == 1 else []
    return [NOrdinal(n, p) for p in itertools.product(range(n), repeat=k - 1)]


def is_morphism(f, T, S) -> bool:
    """Check the three morphism conditions for a candidate map f: T -> S.

    For every i <_p j in T one of the following must hold:
    f(i) <_r f(j) with r >= p, f(i) = f(j), or f(j) <_r f(i) with r > p
    (the reversal condition is strict).
    """
    f = tuple(f)
    if len(f) != T.size:
        raise ValueError(f"map length {len(f)} != source size {T.size}")
    if any(not 0 <= v < S.size for v in f):
        raise ValueError("map value outside the target")
    for i in range(T.size):
        for j in range(i + 1, T.size):
            p = min(T.profile[i:j])
            fi, fj = f[i], f[j]
            if fi == fj:
                continue
            if fi < fj:
                if min(S.profile[fi:fj]) < p:
                    return False
            else:
                if min(S.profile[fj:fi]) <= p:
                    return False
    return True


@dataclass(frozen=True)
class OrdinalMorphism:
    """A validated morphism of n-ordinals in canonical form."""

    source: NOrdinal
    target: NOrdinal
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "map", tuple(self.map))
        if self.source.n != self.target.n:
            raise ValueError("source and target live over different n")
        if not is_morphism(self.map, self.source, self.target):
            raise ValueError(
                f"{self.map} is not a morphism {self.source} -> {self.target}"
            )

    def __call__(self, i: int) -> int:
        return self.map[i]


def identity(T: NOrdinal) -> OrdinalMorphism:
    return OrdinalMorphism(T, T, tuple(range(T.size)))


def to_terminal(T: NOrdinal) -> OrdinalMorphism:
    """The unique morphism T -> U_n."""
    return OrdinalMorphism(T, terminal_ordinal(T.n), (0,) * T.size)


def _trusted_morphism(T: NOrdinal, S: NOrdinal, m: tuple[int, ...]) -> OrdinalMorphism:
    # no validation: searched maps, composites and restrictions are morphisms already
    f = object.__new__(OrdinalMorphism)
    object.__setattr__(f, "source", T)
    object.__setattr__(f, "target", S)
    object.__setattr__(f, "map", m)
    return f


def _allowed_values(S: NOrdinal) -> list[list[int]]:
    """allowed[a][p]: bitmask of the values v = f(j) that pass against one
    earlier f(i) = a with level(i, j) = p.

    v = a always passes, a < v needs level(a, v) >= p and a reversal
    v < a needs level(v, a) > p.
    """
    allowed = []
    for a in range(S.size):
        row = []
        for p in range(S.n):
            mask = 1 << a
            for v in range(S.size):
                if (v > a and min(S.profile[a:v]) >= p) or (
                    v < a and min(S.profile[v:a]) > p
                ):
                    mask |= 1 << v
            row.append(mask)
        allowed.append(row)
    return allowed


def _levels(T: NOrdinal) -> list[list[int]]:
    """levels[j][i] = level(i, j) in T, for i < j."""
    return [[min(T.profile[i:j]) for i in range(j)] for j in range(T.size)]


@functools.lru_cache(maxsize=None)
def _morphisms_cached(T: NOrdinal, S: NOrdinal) -> tuple[OrdinalMorphism, ...]:
    # depth first over f(0), f(1), ... with ascending values, so the maps
    # come out in lexicographic order; f(j) is pruned against f(0..j-1)
    allowed = _allowed_values(S)
    levels = _levels(T)
    out = []
    f = []

    def extend(j: int) -> None:
        if j == T.size:
            out.append(_trusted_morphism(T, S, tuple(f)))
            return
        mask = (1 << S.size) - 1
        for fi, p in zip(f, levels[j]):
            mask &= allowed[fi][p]
        for v in range(S.size):
            if mask >> v & 1:
                f.append(v)
                extend(j + 1)
                f.pop()

    extend(0)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def count_morphisms(T: NOrdinal, S: NOrdinal, surjective: bool = False,
                    limit: int | None = None) -> int:
    """len(enumerate_morphisms(T, S)), or the number of surjections among
    them, by the same pruned search with no map built.

    The last value of a map is not branched on: its allowed values are
    counted at once.  Prefixes that leave every later point the same
    values (and, for surjections, the same values to cover) have the same
    number of completions, which is counted once.  With a limit, the
    search stops as soon as a count passes it and returns limit + 1; a
    count up to the limit is exact.

    >>> T, S = ordinal(2, 0, 1), ordinal(2, 1)
    >>> count_morphisms(T, S), len(enumerate_morphisms(T, S)), count_morphisms(T, S, True)
    (6, 6, 4)
    >>> count_morphisms(T, S, limit=6), count_morphisms(T, S, limit=4)
    (6, 5)
    """
    if T.n != S.n:
        raise ValueError("source and target live over different n")
    if T.size == 0:
        return int(not surjective or S.size == 0)
    allowed = _allowed_values(S)
    levels = _levels(T)
    full = (1 << S.size) - 1
    known = {}

    def completions(j: int, missing: int, masks: tuple) -> int:
        """The maps that extend a prefix of length j, when points j, j + 1,
        ... may take the values in masks and must still cover `missing`."""
        if missing.bit_count() > T.size - j:
            return 0  # too few values left to cover the target
        key = (j, missing, masks)
        if key in known:
            return known[key]
        if j == T.size - 1:
            count = masks[0].bit_count() if not missing else int(
                missing & (missing - 1) == 0 and masks[0] & missing != 0)
        else:
            count = 0
            for v in range(S.size):
                if masks[0] >> v & 1:
                    later = tuple(m & allowed[v][levels[k][j]]
                                  for k, m in enumerate(masks[1:], j + 1))
                    count += completions(j + 1, missing & ~(1 << v), later)
                    if limit is not None and count > limit:
                        return count  # a part of the count, already past the limit
        known[key] = count
        return count

    count = completions(0, full if surjective else 0, (full,) * T.size)
    return count if limit is None else min(count, limit + 1)


def enumerate_morphisms(T: NOrdinal, S: NOrdinal) -> list[OrdinalMorphism]:
    """All morphisms T -> S in lexicographic order of the underlying map."""
    if T.n != S.n:
        raise ValueError("source and target live over different n")
    return list(_morphisms_cached(T, S))


@functools.lru_cache(maxsize=None)
def compose(g: OrdinalMorphism, f: OrdinalMorphism) -> OrdinalMorphism:
    """The composite g after f."""
    if f.target != g.source:
        raise ValueError("target of f differs from source of g")
    return _trusted_morphism(f.source, g.target, tuple(g.map[v] for v in f.map))


@functools.lru_cache(maxsize=None)
def fiber(f: OrdinalMorphism, i: int) -> NOrdinal:
    """Preimage of target element i with its induced ordinal structure.

    Consecutive preimage elements a < b contribute the level min over the
    whole interval [a, b) in the source.
    """
    if not 0 <= i < f.target.size:
        raise ValueError(f"target index {i} out of range")
    elems = [a for a, v in enumerate(f.map) if v == i]
    if not elems:
        return empty_ordinal(f.source.n)
    prof = tuple(
        min(f.source.profile[elems[t] : elems[t + 1]])
        for t in range(len(elems) - 1)
    )
    return NOrdinal(f.source.n, prof)


def fiber_elements(f: OrdinalMorphism, i: int) -> tuple[int, ...]:
    """Source positions mapping to target element i, ascending."""
    return tuple(a for a, v in enumerate(f.map) if v == i)


@functools.lru_cache(maxsize=None)
def restrict_to_fiber(
    sigma: OrdinalMorphism, omega: OrdinalMorphism, i: int
) -> OrdinalMorphism:
    """Restriction of sigma: T -> S over target element i of omega: S -> R.

    Returns the induced morphism fiber(omega o sigma, i) -> fiber(omega, i)
    with both sides renumbered canonically.
    """
    if sigma.target != omega.source:
        raise ValueError("sigma and omega are not composable")
    comp = compose(omega, sigma)
    src_elems = fiber_elements(comp, i)
    tgt_elems = fiber_elements(omega, i)
    tgt_rank = {e: r for r, e in enumerate(tgt_elems)}
    return _trusted_morphism(
        fiber(comp, i), fiber(omega, i), tuple(tgt_rank[sigma.map[a]] for a in src_elems)
    )


def suspend_p(T: NOrdinal, p: int) -> NOrdinal:
    """The p-suspension: an (n+1)-ordinal with level p freed up.

    Levels below p are kept, levels >= p are shifted up by one; the
    underlying set is unchanged.
    """
    if not 0 <= p <= T.n:
        raise ValueError(f"suspension index {p} outside [0, {T.n}]")
    return NOrdinal(T.n + 1, tuple(l if l < p else l + 1 for l in T.profile), T.size)


def suspend_morphism(f: OrdinalMorphism, p: int) -> OrdinalMorphism:
    """Apply the p-suspension to a morphism (same underlying map)."""
    return OrdinalMorphism(suspend_p(f.source, p), suspend_p(f.target, p), f.map)


def suspend_inf(T: NOrdinal) -> InfOrdinal:
    """Stable suspension: the top level n-1 is renormalised to 0.

    Level l becomes l - (n - 1), so iterating vertical suspensions first
    does not change the result.
    """
    if T.n == 0:
        return InfOrdinal((), T.size)
    return InfOrdinal(tuple(l - (T.n - 1) for l in T.profile), T.size)


# ---------------------------------------------------------------------------
# rendering and serialisation


def _blocks(profile, lo: int, hi: int, h: int):
    """Split [lo, hi) at the positions where consecutive elements branch at height h."""
    cuts = [i for i in range(lo, hi - 1) if profile[i] == h]
    bounds = [lo] + [c + 1 for c in cuts] + [hi]
    return list(zip(bounds[:-1], bounds[1:]))


def _ascii_block(T: NOrdinal, lo: int, hi: int, h: int) -> str:
    if h == T.n:
        return str(lo)
    inner = ",".join(_ascii_block(T, a, b, h + 1) for a, b in _blocks(T.profile, lo, hi, h))
    return f"[{inner}]"


def render(T: NOrdinal, format: str = "ascii") -> str:
    """Deterministic rendering of the pruned tree ("ascii" or "dot").

    The ascii form is the nested-bracket linearisation: brackets nest n
    deep and the leaves are the elements in canonical order.
    """
    if format == "ascii":
        if T.size == 0:
            return "[]"
        return _ascii_block(T, 0, T.size, 0)
    if format == "dot":
        lines = ["digraph ordinal {", '  rankdir="BT";']
        lines.append('  root [label="", shape=point];')

        def walk(lo: int, hi: int, h: int, parent: str) -> None:
            if h == T.n:
                name = f"leaf{lo}"
                lines.append(f'  {name} [label="{lo}", shape=none];')
                lines.append(f"  {name} -> {parent};")
                return
            for a, b in _blocks(T.profile, lo, hi, h):
                name = f"v{h + 1}_{a}_{b}"
                lines.append(f'  {name} [label="", shape=point];')
                lines.append(f"  {name} -> {parent};")
                walk(a, b, h + 1, name)

        if T.size > 0:
            walk(0, T.size, 0, "root")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown render format: {format!r}")


def ordinal_to_json(T: NOrdinal) -> dict:
    """JSON object for an ordinal; "size" disambiguates the empty ordinal."""
    return {"n": T.n, "profile": list(T.profile), "size": T.size}


def ordinal_from_json(data: dict) -> NOrdinal:
    profile = tuple(data["profile"])
    size = data.get("size", len(profile) + 1)
    return NOrdinal(data["n"], profile, size)


def morphism_to_json(f: OrdinalMorphism) -> dict:
    return {
        "source": ordinal_to_json(f.source),
        "target": ordinal_to_json(f.target),
        "map": list(f.map),
    }


def morphism_from_json(data: dict) -> OrdinalMorphism:
    return OrdinalMorphism(
        ordinal_from_json(data["source"]),
        ordinal_from_json(data["target"]),
        tuple(data["map"]),
    )


def ordinal_key(T: NOrdinal) -> str:
    """Canonical JSON string, used as a dictionary key in serialised tables."""
    return json.dumps(ordinal_to_json(T), sort_keys=True, separators=(",", ":"))
