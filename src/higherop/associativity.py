"""The associativity kernel of operads.check_operad_axioms.

decide_group compares the two sides of every associativity square of a
group of composable pairs whose tables share their shapes (see
operads._check_associativity), each distinct triple once.  It reads the
operad's tables concatenated in one flat array of the narrowest signed
integer type, int16 or int32, that holds every label and the hole -1,
with the offset of each morphism's table and whether it holds a hole,
and works on plain numpy arrays: the report and its messages are built
by operads._check_group.  Indices are always int64 (intp).

A group runs in three phases, each timed: its G rows are found and
numbered (rows_s), omega's cells are keyed to their triples row by row
(keys_s), and the triples are compared over every outer argument
(compare_s).
"""

from __future__ import annotations

import math
import time

import numpy as np


def decide_group(omega_map, flat, off, holes, shapes, rows, slab, scratch, cap: int,
                 clock: dict):
    """The comparisons of one group: m_sigma(m_omega(b; a); c) against
    m_tau(b; m_(block_i)(a_i; c|block_i)) over every (b, a, c) of every
    pair in the group, where tau = omega sigma is the composite.

    The left side depends on (v, c) alone, v = m_omega(b; a).  Over an
    empty fiber j of omega the block is the identity of the empty object,
    so m_(block_j)(a_j) takes no c.  Fixing those axes of tau's table at
    b leaves a row G(b, a_J) over the other axes I.  The distinct rows of
    a pair are numbered k = 0, 1, ..., and the right side depends on
    (k, a_I, c) alone.  Each distinct triple (pair and k, a_I, v) is
    compared once over all c, and its holes and instances count once per
    (b, a) cell that gives it.  A hole inside a block reads as a right
    side of -1, which is skipped like any other hole.

    Every (k, a_I) of a pair is the slot of some cell.  Omega's table is
    read as rows (pair, b, a_J) over a_I, all of whose cells lie in the
    slots of one slot row (k, pair); one such row gives each slot its
    first v, and only the cells that differ from it are tallied as
    further (slot, v).  The first v of every slot is compared
    with the right side taken over all slots at once: the pairs' G rows
    lie side by side, so one index per (pair, a_I, c) reads the rows of
    every k.  The other values of v met in a slot read the same right
    side.  Tables are stacked, or read in place for a single pair; cells
    are read, and slots compared, in slabs of at most `slab` cells.

    Returns the number of distinct triples, the instances skipped at a
    hole and the first `cap` failing instances (pair, b, a, c, lhs, rhs),
    a and c as flat indices, in (pair, b, a, c) order: the failing c of
    the first cells whose triple fails, whatever the slab size.  The
    seconds of each phase are added to `clock`.
    """
    start = time.perf_counter()
    P = len(rows)
    s0, w0, c0 = rows[0, :3].tolist()
    n_s, *c_sizes = shapes[s0]
    nb, *a_sizes = shapes[w0]
    x_sizes = shapes[c0][1:]  # the composite's fiber axes, one per fiber of omega
    r = len(a_sizes)
    fibers = [[] for _ in range(r)]  # omega's fibers, as points of sigma's fiber axes
    for e, i in enumerate(omega_map.tolist()):
        if i >= 0:
            fibers[i].append(e)
    J = [i for i in range(r) if not fibers[i]]  # omega's empty fibers
    I = [i for i in range(r) if fibers[i]]
    n_a, n_c, n_comp = math.prod(a_sizes), math.prod(c_sizes), math.prod(x_sizes)
    n_aJ = math.prod(a_sizes[j] for j in J)
    n_aI = math.prod(a_sizes[i] for i in I)
    n_x = math.prod(x_sizes[i] for i in I)  # the length of a G row
    triples, skipped, found = 0, 0, []
    masked = bool(holes[rows[:, :3 + r]].any())
    aJ_dig = _digits(scratch, [a_sizes[j] for j in J])
    aI_dig = _digits(scratch, [a_sizes[i] for i in I])
    i_blocks = []  # (table size, its shape over c's axes, stride in a G row)
    for k, i in enumerate(I):
        size = math.prod(shapes[int(rows[0, 3 + i])])
        spread = tuple(n if e in fibers[i] else 1 for e, n in enumerate(c_sizes))
        stride = math.prod(x_sizes[later] for later in I[k + 1:])
        i_blocks.append((size, spread, stride))

    def stacked(col: int, p0: int, p1: int, size: int) -> np.ndarray:
        if p1 - p0 == 1:
            o = int(off[rows[p0, col]])
            return flat[o:o + size].reshape(1, size)
        return flat[off[rows[p0:p1, col]][:, None] + np.arange(size)]

    # table cells per pair: sigma; omega, its rows when transposed, and each slot's
    # first v and int64 count (at most one slot per cell); the G rows and the blocks
    table_cells = (n_s * n_c + 7 * nb * n_a + nb * n_aJ * (1 + n_x)
                   + sum(size for size, _, _ in i_blocks) + sum(a_sizes[j] for j in J))
    # the pair column of a G row holds a pair's place in its slab in flat's type
    p_step = min(max(1, slab // table_cells), int(np.iinfo(flat.dtype).max) + 1)
    cell_step = max(1, slab // 16)  # cells keyed at once, at up to 8-byte keys and their sort
    n_p = min(P, p_step)
    # a_I at once in the mix, an eighth of a slab at 8 bytes a cell, which then
    # indexes the G rows of a slab of slots
    a_step = min(n_aI, max(1, slab // (8 * n_p * n_c)))
    for p0 in range(0, P, p_step):
        p1 = min(P, p0 + p_step)
        n_p = p1 - p0
        sig = stacked(0, p0, p1, n_s * n_c).reshape(-1, n_c)
        # the G row of (p, b, a_J) is tau's table at b with each J axis fixed at
        # m_(block_j)(a_j), or all -1 where one of those values is a hole
        x_J = np.zeros((n_p, n_aJ), dtype=np.int64)  # the fixed J axes, as one index
        hole_J = np.zeros((n_p, n_aJ), dtype=bool)
        for k, j in enumerate(J):
            x = stacked(3 + j, p0, p1, a_sizes[j])[:, aJ_dig[k]]
            x_J = x_J * x_sizes[j] + np.maximum(x, 0)
            hole_J |= x < 0
        comp = stacked(2, p0, p1, nb * n_comp).reshape((n_p * nb,) + x_sizes)
        comp = comp.transpose([0] + [1 + i for i in J + I])

        def g_rows():
            """The G rows in (p, b, a_J) order, each after its pair p, in parts
            of a sixteenth of a slab, as each part is copied, sorted and merged."""
            pb_step = max(1, slab // (16 * n_comp))
            for pb0 in range(0, n_p * nb, pb_step):
                pb1 = min(n_p * nb, pb0 + pb_step)
                p = np.arange(pb0, pb1) // nb
                at_b = comp[pb0:pb1].reshape(pb1 - pb0, n_aJ, n_x)
                out = np.empty((pb1 - pb0, n_aJ, 1 + n_x), dtype=flat.dtype)
                out[:, :, 0] = p[:, None]
                out[:, :, 1:1 + n_x] = at_b[np.arange(pb1 - pb0)[:, None], x_J[p]]
                if masked:
                    out[hole_J[p], 1:1 + n_x] = -1
                yield out.reshape(-1, 1 + n_x)

        G, g_of = _distinct_rows(g_rows())
        # number the distinct rows of each pair k = 0, 1, ..., and lay them side by side:
        # row k of pair p at G_side[k, p * n_x:(p + 1) * n_x], -1 past a pair's last row
        p_of = G[:, 0].astype(np.intp)
        by_pair = np.argsort(p_of, kind="stable")
        k_of = np.empty(len(G), dtype=np.intp)
        k_of[by_pair] = np.arange(len(G)) - np.searchsorted(p_of[by_pair], p_of[by_pair])
        n_k = int(k_of.max()) + 1
        G_side = np.full((n_k, n_p, n_x), -1, dtype=flat.dtype)
        G_side[k_of, p_of] = G[:, 1:1 + n_x]
        G_side = G_side.reshape(n_k, n_p * n_x)
        # the slot row (k, p) of each row (p, b, a_J) of omega's table
        row_g = k_of[g_of] * n_p + np.arange(n_p * nb * n_aJ) // (nb * n_aJ)
        # each block's values times their stride in a G row, over (p, a_i, c of fiber i)
        blocks = [np.multiply(stacked(3 + i, p0, p1, size), stride, dtype=np.intp)
                  .reshape(n_p, a_sizes[i], -1) for (size, _, stride), i in zip(i_blocks, I)]
        now = time.perf_counter()
        clock["rows_s"] = clock.get("rows_s", 0.0) + now - start
        start = now

        # omega's cells as rows (p, b, a_J) over a_I; some row of each slot row
        # gives its slots their first v
        W = stacked(1, p0, p1, nb * n_a).reshape((n_p * nb,) + tuple(a_sizes))
        W = W.transpose([0] + [1 + i for i in J + I]).reshape(-1, n_aI)
        n_g = n_k * n_p
        per_g = np.bincount(row_g, minlength=n_g)  # the rows of each slot row
        some = np.empty(n_g, dtype=np.intp)
        some[row_g] = np.arange(len(row_g))
        first_v = np.full((n_g, n_aI), -2, dtype=flat.dtype)  # -2: no cell
        first_v[per_g > 0] = W[some[per_g > 0]]
        # the cells that differ from the first v of their slot, as (slot, v) keys
        parts = []
        r_step = max(1, cell_step // n_aI)
        for r0 in range(0, len(W), r_step):
            g, v = row_g[r0:r0 + r_step], W[r0:r0 + r_step]
            at = np.flatnonzero(v != first_v[g])
            row, a = np.divmod(at, n_aI)
            parts.append(_tally((g[row] * n_aI + a) * (n_s + 1) + v.ravel()[at] + 1))
            if len(parts) > 1 and sum(len(k) for k, _ in parts[1:]) >= len(parts[0][0]):
                parts = [_tally(*map(np.concatenate, zip(*parts)))]
        keys, counts = _tally(*map(np.concatenate, zip(*parts))) if len(parts) > 1 else parts[0]
        count = np.repeat(per_g, n_aI)  # the cells of each slot, less those of other v
        np.subtract.at(count, keys // (n_s + 1), counts)
        count = count.reshape(n_g, n_aI)
        triples += int((per_g > 0).sum()) * n_aI + len(keys)
        if masked:  # omega's value is a hole: every c is skipped
            skipped += (int(count[first_v == -1].sum())
                        + int(counts[keys % (n_s + 1) == 0].sum())) * n_c
            keys, counts = keys[keys % (n_s + 1) > 0], counts[keys % (n_s + 1) > 0]
        weight = np.where(first_v >= 0, count, 0).reshape(n_k, n_p, n_aI)
        first_v = first_v.reshape(n_k, n_p, n_aI)
        now = time.perf_counter()
        clock["keys_s"] = clock.get("keys_s", 0.0) + now - start
        start = now

        def mix(p: slice, a: np.ndarray):
            """Where the right side of (pair p, a_I = a, c) lies in G_side's
            rows, over p x a x every c, and where a block value is a hole."""
            p = np.arange(n_p)[p]
            grid = (len(p), len(a)) + tuple(c_sizes)
            out = _buffer(scratch, "mix", grid, np.intp)
            out[...] = (p * n_x).reshape((-1,) + (1,) * (len(grid) - 1))
            hole = _buffer(scratch, "hole", grid, bool) if masked else None
            if masked:
                hole[...] = False
            for (_, spread, _), d, blk in zip(i_blocks, aI_dig, blocks):
                v = np.take(blk[p[0]:p[-1] + 1], d[a], axis=1).reshape(grid[:2] + spread)
                out += v
                if masked:
                    hole |= v < 0
            shape = (len(p), len(a), n_c)
            return out.reshape(shape), hole.reshape(shape) if masked else None

        # the other (slot, v), ordered by the slab of slots that holds them
        e_k, e_p, e_a = np.unravel_index(keys // (n_s + 1), (n_k, n_p, n_aI))
        k_step = min(n_k, max(1, slab // (n_p * a_step * n_c)))
        n_k_slabs = -(-n_k // k_step)
        slab_of = (e_a // a_step) * n_k_slabs + e_k // k_step
        order = np.argsort(slab_of, kind="stable")
        keys, counts, e_k, e_p, e_a, slab_of = (
            x[order] for x in (keys, counts, e_k, e_p, e_a, slab_of))
        e_row = e_p * n_s + keys % (n_s + 1) - 1
        bad_keys = []
        for a0 in range(0, n_aI, a_step):
            a1 = min(n_aI, a0 + a_step)
            index, hole = mix(slice(None), np.arange(a0, a1))
            for k0 in range(0, n_k, k_step):
                k1 = min(n_k, k0 + k_step)
                shape = (k1 - k0, n_p, a1 - a0)
                # an index made at a hole may point anywhere: mode="clip" reads it,
                # and the read is then overwritten by -1
                rhs = np.take(G_side[k0:k1], index, axis=1, mode="clip",
                              out=_buffer(scratch, "rhs", shape + (n_c,), flat.dtype))
                if masked:
                    np.copyto(rhs, -1, where=hole)
                v = first_v[k0:k1, :, a0:a1]
                lhs = np.take(sig, (np.arange(n_p) * n_s)[:, None] + v, axis=0, mode="clip",
                              out=_buffer(scratch, "lhs", shape + (n_c,), flat.dtype))
                bad = np.not_equal(lhs, rhs, out=_buffer(scratch, "bad", shape + (n_c,), bool))
                w = weight[k0:k1, :, a0:a1]
                if masked:
                    skip = (lhs < 0) | (rhs < 0)
                    skipped += int((skip.sum(axis=-1) * w).sum())
                    bad &= ~skip
                k, p, a = np.nonzero(bad.any(axis=-1) & (w > 0))
                bad_keys.append((((k + k0) * n_p + p) * n_aI + a + a0) * (n_s + 1)
                                + v[k, p, a] + 1)
                # the other values of v in these slots read the same right side
                here = (a0 // a_step) * n_k_slabs + k0 // k_step
                lo, hi = np.searchsorted(slab_of, [here, here + 1]).tolist()
                for t0 in range(lo, hi, max(1, slab // n_c)):
                    t1 = min(hi, t0 + max(1, slab // n_c))
                    at = ((e_k[t0:t1] - k0) * n_p + e_p[t0:t1]) * (a1 - a0) + e_a[t0:t1] - a0
                    R = rhs.reshape(-1, n_c)[at]
                    L = sig[e_row[t0:t1]]
                    bad = L != R
                    if masked:
                        skip = (L < 0) | (R < 0)
                        skipped += int(skip.sum(axis=1) @ counts[t0:t1])
                        bad &= ~skip
                    bad_keys.append(keys[t0:t1][bad.any(axis=1)])
        bad_keys = np.sort(np.concatenate(bad_keys)) if bad_keys else keys[:0]
        if len(bad_keys) and len(found) < cap:
            # the violations: the bad c of the first cells whose triple fails, in
            # (p, b, a) order, with a_at the flat a of each (a_J, a_I)
            a_at = np.arange(n_a).reshape(a_sizes).transpose(J + I).reshape(n_aJ, n_aI)
            rows_step = max(1, cell_step // n_a) * n_aJ  # whole (p, b), for the order of a
            for r0 in range(0, len(W), rows_step):
                r1 = min(len(W), r0 + rows_step)
                key = ((row_g[r0:r1, None] * n_aI + np.arange(n_aI)) * (n_s + 1)
                       + W[r0:r1] + 1)
                at = np.minimum(np.searchsorted(bad_keys, key), len(bad_keys) - 1)
                row, a_I = np.nonzero(bad_keys[at] == key)
                row += r0
                pb, a = row // n_aJ, a_at[row % n_aJ, a_I]
                for t in np.lexsort((a, pb))[: cap - len(found)].tolist():
                    (p, b), a_I_t = divmod(int(pb[t]), nb), int(a_I[t])
                    index, hole = mix(slice(p, p + 1), np.array([a_I_t]))
                    R = np.take(G_side[int(row_g[row[t]]) // n_p], index[0, 0], mode="clip")
                    if masked:
                        R[hole[0, 0]] = -1
                    L = sig[p * n_s + int(W[row[t], a_I_t])]
                    bad = np.flatnonzero((L != R) & (L >= 0) & (R >= 0))[: cap - len(found)]
                    found += [(p0 + p, b, int(a[t]), c, int(L[c]), int(R[c]))
                              for c in bad.tolist()]
                if len(found) >= cap:
                    break
        now = time.perf_counter()
        clock["compare_s"] = clock.get("compare_s", 0.0) + now - start
        start = now
    return triples, skipped, found


def _buffer(scratch: dict, name: str, shape, dtype) -> np.ndarray:
    """A view of the worker's buffer `name`, made anew only when too small.

    Made per slab, each array would be mapped and faulted in afresh
    whenever glibc's mmap threshold is below its size.
    """
    size = math.prod(shape)
    buf = scratch.get(name)
    if buf is None or buf.size < size:
        buf = scratch[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _digits(scratch: dict, sizes) -> list[np.ndarray]:
    """Row-major digit arrays of a box, flat index -> index on each axis,
    made once per worker and box."""
    key = ("digits", tuple(sizes))
    if key not in scratch:
        total = math.prod(sizes)
        scratch[key] = [(np.arange(total) // math.prod(sizes[i + 1:])) % s
                        for i, s in enumerate(sizes)]
    return scratch[key]


def _tally(keys: np.ndarray, counts: np.ndarray | None = None):
    """The distinct keys, ascending, with how often each occurs (or the sum
    of their counts).

    >>> [x.tolist() for x in _tally(np.array([5, 3, 5, 5]))]
    [[3, 5], [1, 3]]
    >>> [x.tolist() for x in _tally(np.array([5, 3, 5]), np.array([2, 7, 1]))]
    [[3, 5], [7, 3]]
    """
    order = np.argsort(keys)
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=keys[:1] - 1))
    if counts is None:
        return keys[first], np.diff(np.append(first, len(keys)))
    return keys[first], np.add.reduceat(counts[order], first)


def _distinct_rows(blocks):
    """The distinct rows among the blocks of rows, and the number of each
    row among them: each block is sorted alone, then the distinct rows of
    all blocks together.

    >>> G, number = _distinct_rows(iter([np.array([[1, 2], [0, 5]]), np.array([[1, 2]])]))
    >>> sorted(G.tolist()), [G[n].tolist() for n in number]
    ([[0, 5], [1, 2]], [[1, 2], [0, 5], [1, 2]])
    """
    parts, numbers, seen = [], [], 0
    for rows in blocks:
        distinct, number = _sort_rows(rows)
        parts.append(distinct)
        numbers.append(number + seen)
        seen += len(distinct)
    if len(parts) == 1:
        return parts[0], numbers[0]
    G, number = _sort_rows(np.concatenate(parts))
    return G, number[np.concatenate(numbers)]


def _sort_rows(rows: np.ndarray):
    """The distinct rows, sorted as byte strings, or as integers when a row
    is 4 or 8 bytes, and the number of each row."""
    rows = np.ascontiguousarray(rows)
    width = rows.itemsize * rows.shape[1]
    key = rows.view(f"i{width}" if width in (4, 8) else np.dtype((np.void, width))).ravel()
    order = np.argsort(key)
    key = key[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    number = np.empty(len(rows), dtype=np.int64)
    number[order] = np.cumsum(new) - 1
    return rows[order[new]], number
