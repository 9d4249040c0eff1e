"""Order complexes of classifier posets and exact integer homology.

The nerve of a poset needs no degeneracy bookkeeping: its nondegenerate
simplices are exactly the strictly increasing chains, so the complex is
built by extending chains along the successor lists.  Boundary matrices
carry the usual alternating signs, and homology is computed over the
integers with Smith reduction; ranks and torsion are exact.  The
elimination runs on int64 arrays and falls back to Python-integer
arithmetic the moment entries approach the overflow guard, so results
never silently wrap.

Chain enumeration can be split by starting vertex; each Smith reduction
is single-worker per matrix, and all returned values are immutable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .operads import BudgetExceededError
from .symmetrize import ClassifierPoset

_OVERFLOW_GUARD = 1 << 31
_MAX_BOUNDARY_BYTES = 256 << 20  # all dense int64 boundaries of one complex


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
    more than _MAX_BOUNDARY_BYTES is refused before any is allocated.
    """
    f = C.f_vector()
    need = 8 * sum(a * b for a, b in zip(f, f[1:]))
    if need > _MAX_BOUNDARY_BYTES:
        raise BudgetExceededError(
            f"dense boundaries of a nerve with f-vector {list(f)} need "
            f"{need / 2**30:.1f} GiB (ceiling {_MAX_BOUNDARY_BYTES >> 20} MiB)"
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

    Returns the invariant factors d_1 | d_2 | ... (zeros dropped).  The
    certificate matrices are built from elementary operations, so their
    determinants are +-1 by construction; when requested, the identity
    U @ M @ V == diag is re-verified explicitly.  Arithmetic switches to
    arbitrary-precision integers if any entry approaches the int64 guard.

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
    U = np.eye(m, dtype=np.int64) if want_certificate else None
    V = np.eye(n, dtype=np.int64) if want_certificate else None
    exact = False

    def to_exact():
        nonlocal A, U, V, exact
        if not exact:
            A = A.astype(object)
            if U is not None:
                U = U.astype(object)
            if V is not None:
                V = V.astype(object)
            exact = True

    def guard():
        if not exact and A.size and int(np.abs(A).max()) >= _OVERFLOW_GUARD:
            to_exact()

    t = 0
    while t < min(m, n):
        guard()
        block = A[t:, t:]
        nz = np.nonzero(block)
        if len(nz[0]) == 0:
            break
        absvals = np.abs(block[nz]).astype(object if exact else np.int64)
        best = int(np.argmin(absvals))
        pi, pj = int(nz[0][best]) + t, int(nz[1][best]) + t
        if pi != t:
            A[[t, pi], :] = A[[pi, t], :]
            if U is not None:
                U[[t, pi], :] = U[[pi, t], :]
        if pj != t:
            A[:, [t, pj]] = A[:, [pj, t]]
            if V is not None:
                V[:, [t, pj]] = V[:, [pj, t]]
        if A[t, t] < 0:
            A[t, :] = -A[t, :]
            if U is not None:
                U[t, :] = -U[t, :]
        while True:
            guard()
            pivot = A[t, t]
            col = A[t + 1 :, t]
            if np.any(col):
                q = col // pivot
                A[t + 1 :, :] -= q[:, None] * A[t, :][None, :]
                if U is not None:
                    U[t + 1 :, :] -= q[:, None] * U[t, :][None, :]
                if np.any(A[t + 1 :, t]):
                    # a remainder became the new, strictly smaller pivot
                    rows = np.nonzero(A[t + 1 :, t])[0]
                    r = int(rows[np.argmin(np.abs(A[t + 1 :, t][rows]))]) + t + 1
                    A[[t, r], :] = A[[r, t], :]
                    if U is not None:
                        U[[t, r], :] = U[[r, t], :]
                    continue
            row = A[t, t + 1 :]
            if np.any(row):
                q = row // A[t, t]
                A[:, t + 1 :] -= A[:, t][:, None] * q[None, :]
                if V is not None:
                    V[:, t + 1 :] -= V[:, t][:, None] * q[None, :]
                if np.any(A[t, t + 1 :]):
                    cols = np.nonzero(A[t, t + 1 :])[0]
                    c = int(cols[np.argmin(np.abs(A[t, t + 1 :][cols]))]) + t + 1
                    A[:, [t, c]] = A[:, [c, t]]
                    if V is not None:
                        V[:, [t, c]] = V[:, [c, t]]
                    continue
            if np.any(A[t + 1 :, t]):
                continue
            break
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    r = t
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = A[i, i], A[i + 1, i + 1]
            if b % a != 0:
                changed = True
                # fold column i+1 into column i and rediagonalise the 2x2 block
                A[:, i] += A[:, i + 1]
                if V is not None:
                    V[:, i] += V[:, i + 1]
                _rediagonalise(A, U, V, i)
    for i in range(r):
        if A[i, i] < 0:
            A[i, :] = -A[i, :]
            if U is not None:
                U[i, :] = -U[i, :]
    factors = []
    for i in range(r):
        d = int(A[i, i])
        if d != 0:
            factors.append(d)
    factors.sort()
    snf = SmithNormalForm(tuple(factors), U, V)
    if want_certificate:
        D = (U.astype(object) @ original.astype(object)) @ V.astype(object)
        expect = np.zeros_like(D)
        for i, dgt in enumerate(factors):
            expect[i, i] = dgt
        if not np.array_equal(D, expect):
            raise AssertionError("smith reduction certificate failed")
    return snf


def _rediagonalise(A, U, V, t):
    """Clear row and column t again after a divisibility fold."""
    while True:
        if A[t, t] == 0:
            sub = A[t:, t:]
            nz = np.nonzero(sub)
            if len(nz[0]) == 0:
                return
            pi, pj = int(nz[0][0]) + t, int(nz[1][0]) + t
            A[[t, pi], :] = A[[pi, t], :]
            if U is not None:
                U[[t, pi], :] = U[[pi, t], :]
            A[:, [t, pj]] = A[:, [pj, t]]
            if V is not None:
                V[:, [t, pj]] = V[:, [pj, t]]
        if A[t, t] < 0:
            A[t, :] = -A[t, :]
            if U is not None:
                U[t, :] = -U[t, :]
        pivot = A[t, t]
        col = A[t + 1 :, t]
        row = A[t, t + 1 :]
        if not np.any(col) and not np.any(row):
            return
        if np.any(col):
            q = col // pivot
            A[t + 1 :, :] -= q[:, None] * A[t, :][None, :]
            if U is not None:
                U[t + 1 :, :] -= q[:, None] * U[t, :][None, :]
        if np.any(A[t + 1 :, t]):
            rows = np.nonzero(A[t + 1 :, t])[0]
            rr = int(rows[0]) + t + 1
            A[[t, rr], :] = A[[rr, t], :]
            if U is not None:
                U[[t, rr], :] = U[[rr, t], :]
            continue
        if np.any(row):
            q = row // pivot
            A[:, t + 1 :] -= A[:, t][:, None] * q[None, :]
            if V is not None:
                V[:, t + 1 :] -= V[:, t][:, None] * q[None, :]
        if np.any(A[t, t + 1 :]) or np.any(A[t + 1 :, t]):
            continue
        return


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
