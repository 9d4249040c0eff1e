"""Cellular homology of the classifier posets, exact over the integers.

The classifier at arity k is the face poset of a regular CW complex: a
cell per object (x, p), of dimension the level sum of p, and a product
of permutohedra read off the level tree of p (Milgram 1966; Berger
1997).  Facets and chain counts come from the identity labeling, so no
arrow is built.  Smith reduction makes ranks and torsion exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .operads import _MAX_DENSE_BYTES, within_budget
from .symmetrize import (_labelings, _moves, _perm_ranks, _profile_ranks, _terminal_arity,
                         classifier_objects)

_OVERFLOW_GUARD = 1 << 31


@dataclass
class ChainComplex:
    """Integer boundary matrices; boundaries[d] maps degree d+1 to degree d."""

    f_vector: tuple  # cells per degree
    boundaries: list  # boundaries[d]: ndarray of shape (f_d, f_{d+1})
    complete: bool  # False if cells above the top stored degree were cut
    chains: tuple = ()  # chains of d+1 objects per degree d: the nerve's f-vector


def _facets(p: tuple) -> list:
    """Facets (q, order, sign) of the cell (identity, p); order[j] is the old
    position at new position j.  A node at level l >= 1 is a maximal run of
    positions with inner gaps >= l, cut into children by the gaps equal to
    l.  A facet lists a nonempty part A of the children, then the rest B,
    with gap l inside a part and l - 1 between.  With deg c = l + the inner
    gaps of child c, the sign is (-1) to the gaps left of the node, plus
    deg c over A, plus deg a * deg b over a in A after b in B.

    >>> for facet in _facets((1, 1)):  # one node, three children
    ...     print(*facet)
    (0, 1) (0, 1, 2) -1
    (0, 1) (1, 0, 2) 1
    (1, 0) (0, 1, 2) 1
    (0, 1) (2, 0, 1) -1
    (1, 0) (0, 2, 1) -1
    (1, 0) (1, 2, 0) 1
    """
    out, k = [], len(p) + 1
    for l in range(1, max(p, default=0) + 1):
        s = 0
        for _, run in itertools.groupby(p, key=lambda gap: gap >= l):
            m = len(list(run))  # positions s..s+m, joined by the gaps p[s:s+m]
            cuts = [s] + [i + 1 for i in range(s, s + m) if p[i] == l] + [s + m + 1]
            kids = [range(a, b) for a, b in zip(cuts, cuts[1:])]
            deg = [l + sum(p[c.start:c.stop - 1]) for c in kids]
            for mask in range(1, 2 ** len(kids) - 1):
                A = [c for c in range(len(kids)) if mask >> c & 1]
                B = [c for c in range(len(kids)) if not mask >> c & 1]
                order = (*range(s), *(i for c in A + B for i in kids[c]), *range(s + m + 1, k))
                cut = s + sum(len(kids[c]) for c in A) - 1  # the gap between A and B
                q = tuple(min(p[min(a, b):max(a, b)]) - (j == cut)
                          for j, (a, b) in enumerate(zip(order, order[1:])))
                shuffle = sum(deg[a] * deg[b] for a in A for b in B if a > b)
                out.append((q, order, (-1) ** (sum(p[:s]) + sum(deg[c] for c in A) + shuffle)))
            s += m
    return out


def _chain_counts(n: int, k: int, dims: int) -> tuple:
    """Chains of d+1 objects for d < dims, exact past 2**63.  As many end
    at (x, p) as at (identity, p), and those one longer come from every
    profile at or above the target q of an identity move (g, p, q), but p.
    """
    g, p, q = _moves(n, k)
    counts = np.ones(n ** max(k - 1, 0), dtype=np.int64)
    chains = [math.factorial(k) * len(counts)]
    for _ in range(1, dims):
        if counts.dtype != object and int(counts.max()) * len(g) * len(counts) >> 63:
            counts = counts.astype(object)  # the next step could pass int64
        step = np.zeros_like(counts)
        np.add.at(step, q, counts[p])
        for axis in range(k - 1):  # on to the profiles at or above each target
            step = step.reshape((n,) * (k - 1)).cumsum(axis=axis)
        counts = step.ravel() - counts
        chains.append(math.factorial(k) * int(counts.sum()))
    return tuple(chains)


def cellular_complex(n: int, k: int, dmax: int | None = None) -> ChainComplex:
    """The arity-k classifier's cells of dimension <= dmax, in the objects'
    order, with their facets' signs.  Boundaries over _MAX_DENSE_BYTES are
    refused from the profiles before any is allocated, and dd = 0 is checked.

    >>> C = cellular_complex(2, 3)
    >>> C.f_vector, C.chains
    ((6, 12, 6), (24, 96, 72))
    """
    if dmax is not None and dmax < 0:
        raise ValueError("dmax must be nonnegative")
    t = _labelings(n, k)
    rank = t.profiles.sum(axis=1)
    top = (n - 1) * max(k - 1, 0)
    dims = top + 1 if dmax is None else min(top, dmax) + 1
    per_rank = np.bincount(rank)  # profiles per rank
    f = tuple(len(t.perms) * int(c) for c in per_rank[:dims])
    within_budget(8 * sum(a * b for a, b in zip(f, f[1:])), _MAX_DENSE_BYTES,
                  "dense boundaries of {} cells per degree need {n}", list(f), in_bytes=True)
    at = np.zeros(len(t.profiles), dtype=np.int64)  # each profile's place among its rank's
    for r, c in enumerate(per_rank):
        at[rank == r] = np.arange(c)
    bd = [np.zeros(s, dtype=np.int64) for s in zip(f, f[1:])]
    start = np.cumsum((0,) + f)  # each degree's first cell, numbering the cells of all degrees
    entries = []  # (row, column, sign) of every boundary entry, in that numbering
    for r in range(1, dims):
        # the facets of each (identity, p) of rank r, relabeled by every x
        p, q, order, sign = zip(*[(c, q, order, sign) for c in np.flatnonzero(rank == r).tolist()
                                  for q, order, sign in _facets(tuple(t.profiles[c].tolist()))])
        y = _perm_ranks(t, t.perms[:, list(order)])
        rows = y * per_rank[r - 1] + at[_profile_ranks(n, np.array(q))]
        cols = np.arange(len(t.perms))[:, None] * per_rank[r] + at[list(p)]
        bd[r - 1][rows, cols] = sign
        entries.append((rows + start[r - 1], cols + start[r], np.broadcast_to(sign, rows.shape)))
    if entries:
        bad = _square_misses(*(np.concatenate([e.ravel() for e in x]) for x in zip(*entries)),
                             int(start[-1]))
        if len(bad):
            d = int(np.searchsorted(start, bad[0], side="right")) - 1
            raise AssertionError(f"boundary squared is nonzero in degree {d}")
    return ChainComplex(f, bd, dmax is None or top <= dmax, _chain_counts(n, k, dims))


def _square_misses(row, col, value, cells: int) -> np.ndarray:
    """The cells c at which the boundary, given by its entries (r, c,
    value) over cells numbered across degrees, fails dd = 0 exactly, at a
    cost that grows with the entries, not the cells: each entry (i, c)
    meets the entries in column i, and their products are summed per (r,
    c).  A position listed twice fails too, as the dense boundary holds
    it once.

    >>> row, col = np.array([0, 0, 1, 2]), np.array([1, 2, 3, 3])  # 0 bounds 1, 2; they bound 3
    >>> _square_misses(row, col, np.array([1, 1, 1, -1]), 4), _square_misses(row, col, col > 0, 4)
    (array([], dtype=int64), array([3]))
    >>> _square_misses(np.array([0, 0]), np.array([1, 1]), np.array([1, 1]), 2)  # (0, 1) twice
    array([1])
    """
    at = col * cells + row
    order = np.argsort(at)  # the entries by column, then row
    at, row, col, value = at[order], row[order], col[order], value[order]
    twice = at[1:][at[1:] == at[:-1]] // cells
    lo = np.searchsorted(col, row)
    meet = np.searchsorted(col, row, side="right") - lo  # the entries in column row
    b = np.repeat(np.arange(len(row)), meet)
    a = np.arange(len(b)) - np.repeat(np.cumsum(meet) - meet - lo, meet)
    key = row[a] * cells + col[b]
    order = np.argsort(key)
    key, product = key[order], (value[a] * value[b])[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    square = np.add.reduceat(product, first) if len(first) else first
    return np.concatenate([twice, key[first][square != 0] % cells])


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(M) -> tuple:
    """The invariant factors d_1 | d_2 | ... of an integer matrix, zeros dropped.

    One elimination loop takes as pivot the smallest nonzero |entry| of the
    first nonzero column of the trailing block and clears its column and
    row, touching only rows and columns with a nonzero multiplier.  The
    input is checked once, then the overflow guard checks every block an
    elimination wrote and moves the matrix to Python integers once an
    entry reaches it.  The divisibility chain then comes from the diagonal
    alone: each pair d_i, d_j with d_i not dividing d_j becomes gcd, lcm,
    which is the Smith form of diag(d_i, d_j).

    >>> smith_normal_form([[2, 0], [0, 3]])
    (1, 6)
    >>> smith_normal_form([[1, 0], [0, 1]])
    (1, 1)
    >>> smith_normal_form([[0]])
    ()
    """
    A = np.array(M, dtype=np.int64)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    m, n = A.shape

    def check(block):
        # every entry below the guard before an operation keeps its results below 2**63
        nonlocal A
        if A.dtype != object and block.size and np.abs(block).max() >= _OVERFLOW_GUARD:
            A = A.astype(object)

    def eliminate(X, dst, src, q):
        """Subtract q[i] times line src from line dst[i]: rows of A, or of A.T for columns."""
        support = np.flatnonzero(X[src])
        cells = np.ix_(dst, support)
        X[cells] = block = X[cells] - np.multiply.outer(q, X[src, support])
        check(block)

    check(A)
    t = c = 0
    while t < min(m, n):
        # columns t..c-1 are zero in rows >= t: skipped, or a zero column swapped out
        while c < n and not A[t:, c].any():
            c += 1
        if c == n:
            break
        A[:, [t, c]] = A[:, [c, t]]
        while True:
            rows = t + np.flatnonzero(A[t:, t])
            p = int(rows[np.argmin(np.abs(A[rows, t]))])
            A[[t, p]] = A[[p, t]]
            if A[t, t] < 0:
                A[t] = -A[t]
            below = t + 1 + np.flatnonzero(A[t + 1 :, t])
            if len(below):
                eliminate(A, below, t, A[below, t] // A[t, t])
                if A[below, t].any():
                    continue  # a remainder is the new, smaller pivot
            right = t + 1 + np.flatnonzero(A[t, t + 1 :])
            if len(right):
                eliminate(A.T, right, t, A[t, right] // A[t, t])
                rest = right[A[t, right] != 0]
                if len(rest):
                    s = int(rest[np.argmin(np.abs(A[t, rest]))])
                    A[:, [t, s]] = A[:, [s, t]]
                    continue
            break
        t += 1
        c += 1

    d = [int(A[i, i]) for i in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            if d[j] % d[i]:
                g = math.gcd(d[i], d[j])
                d[i], d[j] = g, d[i] * d[j] // g
    return tuple(d)


# ---------------------------------------------------------------------------
# homology


@dataclass
class HomologyResult:
    betti: tuple  # entries may be None above the reliable range
    torsion: tuple  # per degree, the invariant factors > 1 of the next boundary
    computed_through: int

    def reduced_nontrivial_degrees(self):
        return [d for d, b in enumerate(self.betti) if b is not None
                and (b != (d == 0) or d < len(self.torsion) and self.torsion[d])]


def homology(C: ChainComplex) -> HomologyResult:
    """Exact Betti numbers and torsion from Smith reductions.

    For a complex truncated at its top stored dimension the top degree
    needs the missing next boundary, so its entries are reported as None.
    """
    factors = [smith_normal_form(M) for M in C.boundaries]
    ranks = [0, *map(len, factors), 0]  # of the boundaries into and out of each degree
    reliable = len(C.f_vector) - (1 if C.complete else 2)
    betti = tuple(f - ranks[d] - ranks[d + 1] if d <= reliable else None
                  for d, f in enumerate(C.f_vector))
    torsion = tuple(tuple(x for x in fs if x > 1) for fs in factors) + ((),)
    return HomologyResult(betti, torsion, reliable)


def components(n: int, k: int) -> int:
    """Connected components of the arity-k classifier poset: the classes of the
    one-point operad's quotient, whose generating arrows connect what all arrows do."""
    return _terminal_arity(n, k).class_count


def euler_characteristic(C: ChainComplex) -> int:
    return sum((-1) ** d * f for d, f in enumerate(C.f_vector))


# the keys of classifier_homology's payload, which a cached payload must have
PAYLOAD_FIELDS = ("n", "k", "fvector", "betti", "torsion", "components", "complete",
                  "computed_through")


def classifier_homology(n: int, k: int, dmax: int | None = None,
                        max_objects: int = 20000) -> dict:
    """The full pipeline: object count, cellular complex, homology, components.

    Returns the report payload used by the command line and the cache:
    the nerve's f-vector, Betti numbers (null above the reliable range),
    torsion lists and the component count.
    """
    classifier_objects(n, k, max_objects)
    CC = cellular_complex(n, k, dmax)
    H = homology(CC)
    return {"n": n, "k": k, "fvector": list(CC.chains), "betti": list(H.betti),
            "torsion": [list(t) for t in H.torsion], "components": components(n, k),
            "complete": CC.complete, "computed_through": H.computed_through}
