"""Order complexes of classifier posets and exact integer homology.

The nerve of a poset needs no degeneracy bookkeeping: its nondegenerate
simplices are exactly the strictly increasing chains, so the complex is
built by extending chains along the successor lists.  Boundary matrices
carry the usual alternating signs, and homology is computed over the
integers with Smith reduction; ranks and torsion are exact.  One
elimination loop runs on int64 arrays, and the divisibility chain comes
from its diagonal alone.  The overflow guard checks every entry an
operation writes, in the matrix and in both certificate matrices, and
moves all three to Python integers together the moment one approaches
it, so results never silently wrap.

Chain enumeration can be split by starting vertex; each Smith reduction
is single-worker per matrix, and all returned values are immutable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .operads import _MAX_DENSE_BYTES, BudgetExceededError
from .symmetrize import ClassifierPoset

_OVERFLOW_GUARD = 1 << 31


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


def nerve(P: ClassifierPoset, dmax: int | None = None, max_simplices: int = 2_000_000) -> NerveComplex:
    """All chains of length <= dmax+1 (default: until they stop growing)."""
    if dmax is not None and dmax < 0:
        raise ValueError("dmax must be nonnegative")
    n_obj = len(P.objects)
    succ = [[] for _ in range(n_obj)]
    for i, j in P.arrows:
        succ[i].append(j)
    for lst in succ:
        lst.sort()
    simplices = [[(i,) for i in range(n_obj)]]
    total = n_obj
    d = 0
    complete = True
    while True:
        if dmax is not None and d >= dmax:
            # truncated only if a longer chain would exist
            complete = not any(succ[ch[-1]] for ch in simplices[d])
            break
        nxt = []
        for ch in simplices[d]:
            for j in succ[ch[-1]]:
                nxt.append(ch + (j,))
        if not nxt:
            break
        total += len(nxt)
        if total > max_simplices:
            raise BudgetExceededError(
                f"nerve exceeded {max_simplices} simplices at dimension {d + 1}"
            )
        simplices.append(nxt)
        d += 1
    return NerveComplex(simplices, complete)


@dataclass
class ChainComplex:
    """Integer boundary matrices; boundaries[d] maps degree d+1 to degree d."""

    f_vector: tuple
    boundaries: list  # boundaries[d]: ndarray of shape (f_d, f_{d+1})
    complete: bool


def boundary_matrices(C: NerveComplex) -> ChainComplex:
    """Alternating-sign boundaries of the chain complex; checks dd = 0.

    The matrices are dense, so a complex whose boundaries together need
    more than _MAX_DENSE_BYTES is refused before any is allocated.
    """
    f = C.f_vector()
    need = 8 * sum(a * b for a, b in zip(f, f[1:]))
    if need > _MAX_DENSE_BYTES:
        raise BudgetExceededError(
            f"dense boundaries of a nerve with f-vector {list(f)} need "
            f"{need / 2**30:.1f} GiB (ceiling {_MAX_DENSE_BYTES >> 20} MiB)"
        )
    out = []
    for d in range(1, len(C.simplices)):
        prev_index = {s: i for i, s in enumerate(C.simplices[d - 1])}
        M = np.zeros((len(C.simplices[d - 1]), len(C.simplices[d])), dtype=np.int64)
        for col, s in enumerate(C.simplices[d]):
            sign = 1
            for drop in range(len(s)):
                face = s[:drop] + s[drop + 1 :]
                M[prev_index[face], col] += sign
                sign = -sign
        out.append(M)
    for d in range(len(out) - 1):
        prod = out[d] @ out[d + 1]
        if np.any(prod):
            raise AssertionError(f"boundary squared is nonzero in degree {d + 2}")
    return ChainComplex(C.f_vector(), out, C.complete)


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass
class SmithNormalForm:
    factors: tuple  # nonzero invariant factors, each dividing the next
    U: np.ndarray | None
    V: np.ndarray | None

    def rank(self) -> int:
        return len(self.factors)


def smith_normal_form(M, want_certificate: bool = True) -> SmithNormalForm:
    """Diagonalise an integer matrix as U @ M @ V with unimodular U, V.

    Returns the invariant factors d_1 | d_2 | ... (zeros dropped).  One
    elimination loop takes as pivot the smallest nonzero |entry| of the
    first nonzero column of the trailing block and clears its column and
    row, touching only rows and columns with a nonzero multiplier.  Every
    row operation acts on A and U, every column operation on A and V, so
    U and V are products of elementary operations and unimodular by
    construction; when requested, U @ M @ V == diag is re-verified.  The
    divisibility chain then comes from the diagonal alone: each pair
    d_i, d_j with d_i not dividing d_j becomes gcd, lcm through one 2x2
    unimodular operation on each side.  The input is checked once, then
    the overflow guard checks every entry an operation wrote, in A, U
    and V alike, and moves all three to Python integers together.

    >>> smith_normal_form([[2, 0], [0, 3]]).factors
    (1, 6)
    >>> smith_normal_form([[1, 0], [0, 1]]).factors
    (1, 1)
    >>> smith_normal_form([[0]]).factors
    ()
    """
    A = np.array(M, dtype=np.int64)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    original = A.copy()
    m, n = A.shape
    mats = [A, np.eye(m, dtype=np.int64), np.eye(n, dtype=np.int64)] if want_certificate else [A]
    exact = False

    def check(blocks):
        # every entry below the guard before an operation keeps its results below 2**63
        nonlocal A, exact
        if not exact and any(b.size and np.abs(b).max() >= _OVERFLOW_GUARD for b in blocks):
            mats[:] = [X.astype(object) for X in mats]
            A, exact = mats[0], True

    def side(axis):
        # row operations (axis 0) act on A and U; column operations on A and V, as rows of X.T
        return mats[:2] if axis == 0 else [X.T for X in mats[::2]]

    def mix(axis, idx, W):
        """Replace lines idx by W @ lines idx, for a unimodular W of order <= 2."""
        check([np.array(W, dtype=object)])
        blocks = []
        for X in side(axis):
            X[idx] = b = np.array(W, dtype=X.dtype) @ X[idx]
            blocks.append(b)
        check(blocks)

    def eliminate(axis, dst, src, q):
        """Subtract q[i] times line src from line dst[i]."""
        blocks = []
        for X in side(axis):
            support = np.flatnonzero(X[src])
            cells = np.ix_(dst, support)
            X[cells] = b = X[cells] - np.multiply.outer(q, X[src, support])
            blocks.append(b)
        check(blocks)

    swap = [[0, 1], [1, 0]]
    check([A])
    t = c = 0
    while t < min(m, n):
        # columns t..c-1 are zero in rows >= t: skipped, or a zero column swapped out
        while c < n and not A[t:, c].any():
            c += 1
        if c == n:
            break
        if c != t:
            mix(1, [t, c], swap)
        while True:
            rows = t + np.flatnonzero(A[t:, t])
            p = int(rows[np.argmin(np.abs(A[rows, t]))])
            if p != t:
                mix(0, [t, p], swap)
            if A[t, t] < 0:
                mix(0, [t], [[-1]])
            below = t + 1 + np.flatnonzero(A[t + 1 :, t])
            if len(below):
                eliminate(0, below, t, A[below, t] // A[t, t])
                if A[below, t].any():
                    continue  # a remainder is the new, smaller pivot
            right = t + 1 + np.flatnonzero(A[t, t + 1 :])
            if len(right):
                eliminate(1, right, t, A[t, right] // A[t, t])
                rest = right[A[t, right] != 0]
                if len(rest):
                    mix(1, [t, int(rest[np.argmin(np.abs(A[t, rest]))])], swap)
                    continue
            break
        t += 1
        c += 1

    # d_1 | d_2 | ...: gcd and lcm replace each pair that breaks the chain
    for i in range(t):
        for j in range(i + 1, t):
            di, dj = int(A[i, i]), int(A[j, j])
            if dj % di:
                g = math.gcd(di, dj)
                s = pow(di // g, -1, dj // g)  # s*di + r*dj == g
                r = (g - s * di) // dj
                mix(0, [i, j], [[s, r], [-dj // g, di // g]])
                mix(1, [i, j], [[1, 1], [-r * dj // g, s * di // g]])
    factors = tuple(int(A[i, i]) for i in range(t))
    if not want_certificate:
        return SmithNormalForm(factors, None, None)
    U, V = mats[1:]
    D = (U.astype(object) @ original.astype(object)) @ V.astype(object)
    expect = np.zeros_like(D)
    for i, d in enumerate(factors):
        expect[i, i] = d
    if not np.array_equal(D, expect):
        raise AssertionError("smith reduction certificate failed")
    return SmithNormalForm(factors, U, V)


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
        snf = smith_normal_form(M, want_certificate=False)
        ranks[d + 1] = snf.rank()
        torsions[d] = tuple(f for f in snf.factors if f > 1)
    top = dims - 1
    reliable = top if C.complete else top - 1
    betti = []
    for d in range(dims):
        if d > reliable:
            betti.append(None)
        else:
            betti.append(C.f_vector[d] - ranks[d] - ranks[d + 1])
    return HomologyResult(tuple(betti), tuple(torsions), reliable)


def components(P: ClassifierPoset) -> int:
    """Connected components of the underlying undirected arrow graph."""
    from .symmetrize import UnionFind

    if not P.objects:
        return 0
    uf = UnionFind(len(P.objects))
    flat = np.fromiter(itertools.chain.from_iterable(P.arrows), np.int64, 2 * len(P.arrows))
    uf.union(flat[0::2], flat[1::2])
    return len(uf.classes())


def euler_characteristic(C: ChainComplex) -> int:
    return sum((-1) ** d * f for d, f in enumerate(C.f_vector))


def classifier_homology(n: int, k: int, dmax: int | None = None,
                        max_objects: int = 20000) -> dict:
    """The full pipeline: poset, nerve, boundaries, homology, components.

    Returns the report payload used by the command line and the cache:
    f-vector, Betti numbers (null above the reliable range), torsion
    lists and the component count.
    """
    from .symmetrize import build_classifier

    P = build_classifier(n, k, max_objects=max_objects)
    N = nerve(P, dmax)
    CC = boundary_matrices(N)
    H = homology(CC)
    return {
        "n": n,
        "k": k,
        "fvector": list(CC.f_vector),
        "betti": [b for b in H.betti],
        "torsion": [list(t) for t in H.torsion],
        "components": components(P),
        "complete": CC.complete,
        "computed_through": H.computed_through,
    }
