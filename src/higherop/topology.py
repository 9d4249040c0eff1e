"""Cellular homology of the classifier posets, exact over the integers.

The classifier posets are face posets of regular CW complexes, so their
homology is cellular: one cell per object, of dimension its rank (the
longest chain below it, here the level sum of its profile), with signs
on the covers propagated around diamonds (Bjorner 1984).  Ranking the
objects also counts the chains of each length: the nerve's f-vector.
Smith reduction over the integers makes ranks and torsion exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operads import _MAX_DENSE_BYTES, BudgetExceededError
from .symmetrize import ClassifierPoset, _terminal_arity, build_classifier

_OVERFLOW_GUARD = 1 << 31


@dataclass
class ChainComplex:
    """Integer boundary matrices; boundaries[d] maps degree d+1 to degree d."""

    f_vector: tuple  # cells per degree
    boundaries: list  # boundaries[d]: ndarray of shape (f_d, f_{d+1})
    complete: bool  # False if cells above the top stored degree were cut
    chains: tuple = ()  # chains of d+1 objects per degree d: the nerve's f-vector


def _grading(src, dst, n_obj: int, dmax: int | None):
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


def cellular_complex(P: ClassifierPoset, dmax: int | None = None) -> ChainComplex:
    """One cell per object of rank <= dmax, with +1/-1 incidences on the covers.

    Ranks and chain counts are read from the source and target columns of
    P.arrows, and the covers are the arrows whose rank steps by 1.  A cell's
    first facet gets +1, and each ridge passes the sign on so that both
    paths around its diamond cancel.  ValueError: a 1-cell without two
    vertices, a ridge not in two facets, a disconnected facet graph, or two
    diamonds disagreeing.
    Boundaries over _MAX_DENSE_BYTES are refused before any is allocated,
    and dd = 0 is checked on every pair of boundaries.

    >>> from .symmetrize import build_classifier
    >>> C = cellular_complex(build_classifier(2, 3))
    >>> C.f_vector, C.chains
    ((6, 12, 6), (24, 96, 72))
    """
    if dmax is not None and dmax < 0:
        raise ValueError("dmax must be nonnegative")
    src, dst = P.arrows.T
    rank, chains, complete = _grading(src, dst, len(P.objects), dmax)
    cells = [np.flatnonzero(rank == r) for r in range(len(chains))]
    f = tuple(map(len, cells))
    need = 8 * sum(a * b for a, b in zip(f, f[1:]))
    if need > _MAX_DENSE_BYTES:
        raise BudgetExceededError(f"dense boundaries of {list(f)} cells per degree need "
                                  f"{need / 2**30:.1f} GiB (ceiling {_MAX_DENSE_BYTES >> 20} MiB)")
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
    # exact in float64, and fast through BLAS: the entries are in {-1, 0, 1}, so each
    # entry of the product is a sum of at most f_d terms of size 1, far below 2**53
    for d in range(2, len(bd)):
        if np.any(bd[d - 1].astype(np.float64) @ bd[d].astype(np.float64)):
            raise AssertionError(f"boundary squared is nonzero in degree {d}")
    return ChainComplex(f, bd[1:], complete, chains)


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
        out = []
        for d, b in enumerate(self.betti):
            if b is None:
                continue
            expected = 1 if d == 0 else 0
            if b != expected or (d <= len(self.torsion) - 1 and self.torsion[d]):
                out.append(d)
        return out


def homology(C: ChainComplex) -> HomologyResult:
    """Exact Betti numbers and torsion from Smith reductions.

    For a complex truncated at its top stored dimension the top degree
    needs the missing next boundary, so its entries are reported as None.
    """
    dims = len(C.f_vector)
    ranks = [0] * (dims + 1)
    torsions = [()] * dims
    for d, M in enumerate(C.boundaries):
        factors = smith_normal_form(M)
        ranks[d + 1] = len(factors)
        torsions[d] = tuple(f for f in factors if f > 1)
    top = dims - 1
    reliable = top if C.complete else top - 1
    betti = []
    for d in range(dims):
        if d > reliable:
            betti.append(None)
        else:
            betti.append(C.f_vector[d] - ranks[d] - ranks[d + 1])
    return HomologyResult(tuple(betti), tuple(torsions), reliable)


def components(n: int, k: int) -> int:
    """Connected components of the arity-k classifier poset: the classes of the
    one-point operad's quotient, whose generating arrows connect what all arrows do."""
    return _terminal_arity(n, k).class_count


def euler_characteristic(C: ChainComplex) -> int:
    return sum((-1) ** d * f for d, f in enumerate(C.f_vector))


def classifier_homology(n: int, k: int, dmax: int | None = None,
                        max_objects: int = 20000) -> dict:
    """The full pipeline: poset, cellular complex, homology, components.

    Returns the report payload used by the command line and the cache:
    the nerve's f-vector, Betti numbers (null above the reliable range),
    torsion lists and the component count.
    """
    P = build_classifier(n, k, max_objects=max_objects)
    CC = cellular_complex(P, dmax)
    H = homology(CC)
    return {
        "n": n,
        "k": k,
        "fvector": list(CC.chains),
        "betti": [b for b in H.betti],
        "torsion": [list(t) for t in H.torsion],
        "components": components(n, k),
        "complete": CC.complete,
        "computed_through": H.computed_through,
    }
