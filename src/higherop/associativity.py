"""The associativity kernel of operads.check_operad_axioms.

decide_group compares the two sides of every associativity square of a
group of composable pairs whose tables share their shapes (see
operads._check_associativity), each distinct triple once.  It reads the
operad's tables concatenated in one flat int32 array, with the offset of
each morphism's table and whether it holds a hole (-1), and works on
plain numpy arrays: the report and its messages are built by
operads._check_group.
"""

from __future__ import annotations

import math

import numpy as np


def decide_group(omega_map, flat, off, holes, shapes, rows, slab, scratch, cap: int):
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

    Every (k, a_I) of a pair is the slot of some cell, and the first v
    seen there is compared with the right side taken over all slots at
    once: the pairs' G rows lie side by side, so one index per (pair,
    a_I, c) reads the rows of every k.  The other values of v met in a
    slot read the same right side.  Tables are stacked, or read in place
    for a single pair; cells are read, and slots compared, in slabs of at
    most `slab` cells.

    Returns the number of distinct triples, the instances skipped at a
    hole and the first `cap` failing instances (pair, b, a, c, lhs, rhs),
    a and c as flat indices, in (pair, b, a, c) order: the failing c of
    the first cells whose triple fails, whatever the slab size.
    """
    P = len(rows)
    s0, w0, c0 = rows[0, :3].tolist()
    r = len(shapes[w0]) - 1
    n_s, c_sizes = shapes[s0][0], shapes[s0][1:]
    nb, a_sizes = shapes[w0][0], shapes[w0][1:]
    n_a = math.prod(a_sizes)
    n_c = math.prod(c_sizes)
    triples, skipped, found = 0, 0, []
    masked = bool(holes[rows[:, :3 + r]].any())
    x_sizes = shapes[c0][1:]  # the composite's fiber axes, one per fiber of omega
    n_comp = math.prod(x_sizes)
    J = [i for i in range(r) if not (omega_map == i).any()]  # omega's empty fibers
    I = [i for i in range(r) if i not in J]
    n_aJ = math.prod(a_sizes[j] for j in J)
    n_aI = math.prod(a_sizes[i] for i in I)
    n_x = math.prod(x_sizes[i] for i in I)  # the length of a G row
    a_dig = _digits(n_a, a_sizes)
    c_dig = _digits(n_c, c_sizes)
    aJ_of = _fold(a_dig, a_sizes, J)  # cell a -> its a_J and its a_I
    aI_of = _fold(a_dig, a_sizes, I)
    aJ_dig = _digits(n_aJ, [a_sizes[j] for j in J])
    aI_dig = _digits(n_aI, [a_sizes[i] for i in I])
    i_blocks = []  # (table size, row length, flat block input per c, stride in a G row)
    for k, i in enumerate(I):
        size = math.prod(shapes[int(rows[0, 3 + i])])
        cblk = np.zeros(n_c, dtype=np.int64)
        for e in np.flatnonzero(omega_map == i).tolist():  # omega's fiber i
            cblk = cblk * c_sizes[e] + c_dig[e]
        stride = math.prod(x_sizes[later] for later in I[k + 1:])
        i_blocks.append((size, size // a_sizes[i], cblk, stride))

    def stacked(col: int, p0: int, p1: int, size: int) -> np.ndarray:
        if p1 - p0 == 1:
            o = int(off[rows[p0, col]])
            return flat[o:o + size].reshape(1, size)
        return flat[off[rows[p0:p1, col]][:, None] + np.arange(size)]

    # table cells per pair: sigma, omega, each slot's int64 first value and count (at
    # most one slot per cell), the G rows and the blocks
    table_cells = (n_s * n_c + 5 * nb * n_a + nb * n_aJ * (1 + n_x)
                   + sum(size for size, _, _, _ in i_blocks) + sum(a_sizes[j] for j in J))
    p_step = max(1, slab // table_cells)
    cell_step = max(1, slab // 16)  # cells keyed at once, by 8-byte keys and their sort
    n_p = min(P, p_step)
    # a_I at once in the mix, an eighth of a slab at 8 bytes a cell, which then
    # indexes the G rows of a slab of slots
    a_step = min(n_aI, max(1, slab // (8 * n_p * n_c)))
    a_sub = max(1, a_step // 8)  # a_I gathered at once into the mix, by an 8-byte index
    mix_buf = _buffer(scratch, "mix", (n_p, a_step, n_c), np.intp)
    at_buf = _buffer(scratch, "at", (a_sub, n_c), np.intp)
    block_buf = _buffer(scratch, "block", (n_p, a_sub, n_c), flat.dtype)
    if masked:
        hole_buf = _buffer(scratch, "hole", mix_buf.shape, bool)
    for p0 in range(0, P, p_step):
        p1 = min(P, p0 + p_step)
        n_p = p1 - p0
        sig = stacked(0, p0, p1, n_s * n_c).reshape(-1, n_c)
        om = stacked(1, p0, p1, nb * n_a).reshape(n_p * nb, n_a)  # cells in (p, b, a) order
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
                out[:, :, 1:] = at_b[np.arange(pb1 - pb0)[:, None], x_J[p]]
                if masked:
                    out[hole_J[p], 1:] = -1
                yield out.reshape(-1, 1 + n_x)

        G, g_of = _distinct_rows(g_rows())
        # number the distinct rows of each pair k = 0, 1, ..., and lay them side by side:
        # row k of pair p at G_side[k, p * n_x:(p + 1) * n_x], -1 past a pair's last row
        by_pair = np.argsort(G[:, 0], kind="stable")
        G = G[by_pair]
        g_of = np.argsort(by_pair)[g_of]
        p_of = G[:, 0].astype(np.int64)
        k_of = np.arange(len(G)) - np.searchsorted(p_of, p_of)
        n_k = int(k_of.max()) + 1
        G_side = np.full((n_k, n_p, n_x), -1, dtype=flat.dtype)
        G_side[k_of, p_of] = G[:, 1:]
        G_side = G_side.reshape(n_k, n_p * n_x)
        cell_k = k_of[g_of].reshape(n_p * nb, n_aJ)
        blocks = [stacked(3 + i, p0, p1, size) for (size, _, _, _), i in zip(i_blocks, I)]

        def cells():
            """(first (p, b) row, first a, slot, v) of each slab of cells, in
            (p, b, a) order; the slot of cell (p, b, a) is (k, p, a_I)."""
            a_len = min(n_a, cell_step)
            pb_len = max(1, cell_step // a_len)
            for pb0 in range(0, n_p * nb, pb_len):
                pb1 = min(n_p * nb, pb0 + pb_len)
                p = (np.arange(pb0, pb1) // nb)[:, None]
                first = (cell_k[pb0:pb1] * n_p + p) * n_aI  # the slot of (p, b, a_J, a_I = 0)
                for a0 in range(0, n_a, a_len):
                    a1 = min(n_a, a0 + a_len)
                    slot = np.take(first, aJ_of[a0:a1], axis=1)
                    slot += aI_of[a0:a1]
                    yield pb0, a0, slot, om[pb0:pb1, a0:a1]

        def mix(p: slice, a: np.ndarray):
            """Where the right side of (pair p, a_I = a, c) lies in G_side's
            rows, over p x a x every c, and where a block value is a hole."""
            p = np.arange(n_p)[p]
            out = mix_buf[: len(p), : len(a)]
            out[...] = (p * n_x)[:, None, None]
            hole = hole_buf[: len(p), : len(a)] if masked else None
            if masked:
                hole[...] = False
            for (size, row, cblk, stride), d, blk in zip(i_blocks, aI_dig, blocks):
                blk = blk[p[0]:p[-1] + 1]
                for lo in range(0, len(a), a_sub):
                    hi = min(len(a), lo + a_sub)
                    at = np.add((d[a[lo:hi]] * row)[:, None], cblk, out=at_buf[: hi - lo])
                    v = np.take(blk, at, axis=1, mode="clip", out=block_buf[: len(p), : hi - lo])
                    if masked:
                        hole[:, lo:hi] |= v < 0
                    v *= stride
                    out[:, lo:hi] += v
            return out, hole

        # the first v of every slot with its cells, and the other (slot, v) with theirs
        n_slot = n_k * n_p * n_aI
        first_v = np.full(n_slot, -2, dtype=np.int64)  # -2: no cell yet
        count = np.zeros(n_slot, dtype=np.int64)
        parts = []
        for _, _, slot, v in cells():
            slot, v = slot.ravel(), v.ravel()
            seen = first_v[slot]
            first_v[slot] = np.where(seen == -2, v, seen)  # kept from the first slab to reach it
            same = first_v[slot] == v
            np.add.at(count, slot[same], 1)
            parts.append(_tally(slot[~same] * (n_s + 1) + v[~same] + 1))
            if len(parts) > 1 and sum(len(k) for k, _ in parts[1:]) >= len(parts[0][0]):
                parts = [_tally(*map(np.concatenate, zip(*parts)))]
        keys, counts = _tally(*map(np.concatenate, zip(*parts))) if len(parts) > 1 else parts[0]
        triples += int((first_v > -2).sum()) + len(keys)
        if masked:  # omega's value is a hole: every c is skipped
            skipped += (int(count[first_v == -1].sum())
                        + int(counts[keys % (n_s + 1) == 0].sum())) * n_c
            keys, counts = keys[keys % (n_s + 1) > 0], counts[keys % (n_s + 1) > 0]
        weight = np.where(first_v >= 0, count, 0).reshape(n_k, n_p, n_aI)
        first_v = first_v.reshape(n_k, n_p, n_aI)
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
        if not len(bad_keys) or len(found) >= cap:
            continue
        # the violations: the bad c of the first cells whose triple fails
        for pb0, a0, slot, v in cells():
            key = slot * (n_s + 1) + v + 1
            at = np.minimum(np.searchsorted(bad_keys, key), len(bad_keys) - 1)
            for row, col in np.argwhere(bad_keys[at] == key)[: cap - len(found)].tolist():
                (p, b), a = divmod(pb0 + row, nb), a0 + col
                k, a_I = int(cell_k[pb0 + row, aJ_of[a]]), int(aI_of[a])
                index, hole = mix(slice(p, p + 1), np.array([a_I]))
                R = np.take(G_side[k], index[0, 0], mode="clip")
                if masked:
                    R[hole[0, 0]] = -1
                L = sig[p * n_s + int(v[row, col])]
                bad = np.flatnonzero((L != R) & (L >= 0) & (R >= 0))[: cap - len(found)]
                found += [(p0 + p, b, a, c, int(L[c]), int(R[c])) for c in bad.tolist()]
            if len(found) >= cap:
                break
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


def _fold(digits, sizes, axes) -> np.ndarray:
    """The row-major index over `axes` alone, from the digits of every axis."""
    out = np.zeros(len(digits[0]) if digits else 1, dtype=np.int64)
    for i in axes:
        out = out * sizes[i] + digits[i]
    return out


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
    """The distinct rows, sorted as byte strings, and the number of each row."""
    rows = np.ascontiguousarray(rows)
    width = rows.itemsize * rows.shape[1]  # rows of 8 bytes sort faster as integers
    key = rows.view(np.int64 if width == 8 else np.dtype((np.void, width))).ravel()
    order = np.argsort(key)
    key = key[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    number = np.empty(len(rows), dtype=np.int64)
    number[order] = np.cumsum(new) - 1
    return rows[order[new]], number


def _digits(total: int, sizes) -> list[np.ndarray]:
    """Row-major digit arrays: flat index -> per-axis index."""
    out = []
    stride = total
    for s in sizes:
        stride //= s
        out.append((np.arange(total, dtype=np.int64) // stride) % s)
    return out
