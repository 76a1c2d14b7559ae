"""The keyed midpoint layout of the bridge engines, ``grid_bridge`` and
``expmart``: their paths drawn coarse to fine from keyed normals, refined
only where a path can come near a level (``keyed_batch``).  The batch loop
and the hash uniforms are those of ``estimate``; this module is compiled
only once a keyed engine runs."""

from __future__ import annotations

import math

import numpy as np

from .estimate import _Q_MAX, _batch_from_chunks, _hash_uniforms
from .simulate import States, _Chunk, _inf_past_overflow

#: Largest |normal| of ``_keyed_normals``: sqrt(-2 ln 2^-53) = 8.57.
_NORMAL_MAX = 2.0 * math.sqrt(_Q_MAX)

#: Top cells of the keyed midpoint layout span 2**_TOP_LEVEL grid steps.
_TOP_LEVEL = 10


def _keyed_normals(seed: int, stream: int, counters: np.ndarray) -> np.ndarray:
    """One standard normal per counter (a multiple of 4), by the Box-Muller
    transform of the hash uniforms at the counter and the next one.  The
    radius uniform is at least 2^-53, so |normal| <= ``_NORMAL_MAX``."""
    u, v = _hash_uniforms(seed, stream, 0, np.add.outer(np.arange(2, dtype=np.uint64), counters))
    return np.sqrt(-2.0 * np.log1p(-u)) * np.cos(2.0 * math.pi * v)


def _levels_passed(levels: np.ndarray, x) -> np.ndarray:
    """``np.searchsorted(levels, x)`` for ascending ``levels``, by one
    comparison per level: how many levels each x is not at or below (NaN
    passes every level).  For the few levels of a request it costs under
    1 ns per key and level on a 2-vCPU x86_64 host, a binary search about
    11 ns per key."""
    q = np.full(np.shape(x), len(levels), dtype=np.intp)
    for v in levels:
        q -= x <= v
    return q


class _RecordChunk(_Chunk):
    """Whole keyed-layout paths, one row each, as the records of their
    computed keys in time order: row r holds the keys that pass a level
    none of its earlier keys passed, at their grid instants ``times`` (per
    row), padded with +inf.  The first crossings of the row's computed keys
    are those of these records.  ``z_T`` and ``half`` (the instant and its
    Z) come from the nodes at the horizon and at mid-horizon; ``finite``
    marks the rows whose computed keys are all finite."""

    values_by_column = False

    def __init__(self, key, times, ruin, z_T, finite, half):
        self.key, self.times, self.ruin = key, times, ruin
        self.z_T, self.finite, self.half = z_T, finite, half

    def crossing_key(self):
        return self.key

    def crossings(self, z, r, c, want_times):
        return self.times[r, c] if want_times else math.nan, 0.0, True

    def z_at(self, time):
        return self.half[1] if self.half is not None and time == self.half[0] else None


class _GridChunk(_Chunk):
    """A time block of whole keyed-layout paths, for a sink: the keys ``P``
    at the block's grid instants ``times`` (Z, or on expmart xi signed so
    that ruin lies below), which ``ruin`` maps to -Z, and xi there.  Its
    keys are P cut to its finite prefix, which ``keyed_batch`` lowers at
    the end of each step to its bridge extreme; a row is ``finite`` when Z
    and xi are finite throughout.  ``z_T`` is set on the block that ends at the horizon.
    Every crossing is continuous, with value 0, at the instant that ends
    it."""

    values_by_column = False

    def __init__(self, P, xi, times, ruin, last):
        self.xi, self.times, self.ruin = xi, times, ruin
        self.Z = -ruin(P)
        self.z_T = self.Z[:, -1] if last else None
        self.finite = np.isfinite(self.Z).all(axis=1) & np.isfinite(xi).all(axis=-1)
        self.key = P if self.finite.all() else _inf_past_overflow(P)

    def crossing_key(self):
        return self.key

    def crossings(self, z, r, c, want_times):
        return self.times[c] if want_times else math.nan, 0.0, True

    def states(self, z):
        """The block's grid instants, but its first when the block before
        ends there, with xi = gamma_xi t on ``grid_bridge``."""
        cut = 1 if self.times[0] > 0.0 else 0
        Z = self.Z[:, cut:]
        xi = np.broadcast_to(self.xi, self.Z.shape)[:, cut:]
        return States(np.broadcast_to(self.times[cut:], Z.shape), xi, Z, np.exp(xi) * (z + Z),
                      np.zeros(Z.shape, dtype=bool), np.full(len(Z), Z.shape[1]))


class _BridgeTree:
    """The keyed midpoint layout of a ``grid_bridge`` or ``expmart`` path.

    In accumulated-variance time the key K (Z, or on expmart xi signed so
    that ruin lies below) is D + W: D, the drift part, is known at every
    grid instant, and W is a Brownian motion with variance ``var[k]`` over
    step k.  The grid is cut into top cells of S = 2**_TOP_LEVEL steps from
    t = 0, whatever the horizon, and each cell into dyadic halves down to
    single steps.  W is drawn at the top nodes by a forward walk and at the
    midpoint of a cell by the bridge law given its ends, each node with the
    normal at counter (path << 32 | node << 2) of (seed, stream); the
    bridge extreme of step k takes the uniform at counter + 2 of node k.  A
    cell's variance is the sum of those of its steps, so a zero-variance
    cell draws nothing and an overflowed right end (past the horizon) does
    not reach the values left of it.

    ``reach[j][c]`` bounds how far below the lower end key of cell c of
    level j (2**j steps) any of its grid keys and bridge extremes lies:
    8.57 times the bridge deviation of each level below it, the drift's
    departure from the chord, and the leaf bound sqrt(_Q_MAX var)."""

    def __init__(self, t, engine, horizon, n_steps, seed, stream, sign):
        self.seed, self.stream = seed, stream
        self.n_top = -(-n_steps // (1 << _TOP_LEVEL))
        size = self.n_top << _TOP_LEVEL
        h = horizon / n_steps
        t_ext = np.arange(size + 1) * h  # the grid, continued past the horizon
        gx, gy = t.gamma_tilde
        if engine == "grid_bridge":
            disc = np.exp(-gx * t_ext[:-1])
            self.var = np.square(disc) * (max(0.0, t.sigma[1][1]) * h)
            self.D = np.concatenate([[0.0], np.cumsum(disc * gy * h)])
        else:
            self.var = np.full(size, t.sigma[0][0] * h)
            self.D = sign * gx * t_ext
        V = self.var
        self.lam, self.sd, self.reach = [None], [None], [np.sqrt(_Q_MAX * V)]
        for j in range(1, _TOP_LEVEL + 1):
            left, right, V = V[0::2], V[1::2], V[0::2] + V[1::2]
            lam, sd = left / V, np.sqrt(left * (right / V))
            lam[V == 0.0], sd[V == 0.0] = 0.0, 0.0
            over = np.isinf(V) & np.isfinite(left)  # the law of the left half alone
            lam[over], sd[over] = 0.0, np.sqrt(left[over])
            a = np.arange(len(V)) << j
            D = self.D
            departure = D[a + (1 << (j - 1))] - (D[a] + lam * (D[a + (1 << j)] - D[a]))
            below = self.reach[-1]
            self.reach.append(np.maximum(0.0, -departure) + _NORMAL_MAX * sd
                              + np.maximum(below[0::2], below[1::2]))
            self.lam.append(lam)
            self.sd.append(sd)
        self.top_sd = np.sqrt(V)

    def normals(self, ids, nodes):
        return _keyed_normals(self.seed, self.stream, (ids.astype(np.uint64) << np.uint64(32))
                              | (nodes.astype(np.uint64) << np.uint64(2)))

    def top(self, ids) -> np.ndarray:
        """W at the top nodes 0, S, ..., n_top S of paths ``ids``."""
        nodes = np.arange(1, self.n_top + 1) << _TOP_LEVEL
        draw = self.top_sd > 0.0
        g = np.zeros((len(ids), self.n_top))
        g[:, draw] = self.normals(ids[:, None], nodes[None, draw])
        W = np.zeros((len(ids), self.n_top + 1))
        np.cumsum(g * self.top_sd, axis=1, out=W[:, 1:])
        return W

    def mid(self, ids, j, c, wl, wr) -> np.ndarray:
        """W at the midpoints of cells ``c`` of level j of paths ``ids``,
        given W at their ends."""
        lam, sd = self.lam[j][c], self.sd[j][c]
        draw = np.flatnonzero(sd > 0.0)
        nodes = (c << j) + (1 << (j - 1))
        if len(draw) == len(c):
            g = self.normals(ids, nodes)
        else:
            g = np.zeros(len(c))
            g[draw] = self.normals(ids[draw], nodes[draw])
        shift = lam * (wr - wl)
        shift[lam == 0.0] = 0.0  # past an overflowed right end
        return wl + shift + sd * g

    def dense(self, ids, start, W) -> np.ndarray:
        """W at every node of the top cell from node ``start``, given W at
        its ends (one row per path of ``ids``)."""
        for level in range(_TOP_LEVEL, 0, -1):
            rows, cells = W.shape[0], W.shape[1] - 1
            c = (start >> level) + np.arange(cells)
            m = self.mid(ids.repeat(cells), level, np.tile(c, rows),
                         W[:, :-1].ravel(), W[:, 1:].ravel()).reshape(rows, cells)
            finer = np.empty((rows, 2 * cells + 1))
            finer[:, 0::2], finer[:, 1::2] = W, m
            W = finer
        return W

    def extremes(self, ids, k, left, right) -> np.ndarray:
        """The bridge minimum over step k of the keys ``left`` to
        ``right``, solved from the step's uniform."""
        counters = (ids.astype(np.uint64) << np.uint64(32)) | (k.astype(np.uint64) << np.uint64(2))
        q = -0.5 * np.log1p(-_hash_uniforms(self.seed, self.stream, 2, counters))
        half = 0.5 * (left - right)
        return 0.5 * (left + right) - np.sqrt(half * half + q * self.var[k])


def keyed_batch(t, engine, levels, times, n, seed, stream, sign, fire, want_times, sink, budget):
    """The batch of a ``grid_bridge`` or ``expmart`` driver on the grid
    ``times`` (``estimate._gaussian_grid_batch``): keys are Z, or on
    ``expmart`` xi times ``sign``, which ``fire`` maps to -Z.  ``budget`` is
    the batch loop's ``_CHUNK_ELEMS``.

    Without a sink, a range of paths is refined all at once, level by level:
    a cell is split (a step solved for its bridge extreme) only while its
    end keys lie within its reach of a level that no known key of the path
    has passed, or with times, no known key before the cell; and a cell is
    always split down to the horizon, and to mid-horizon for a request with
    no levels, for a path not yet ruined at every level.  No cell left
    whole can hold a crossing, so the hits, times and terminal values are
    those of the full grid.  A level pass counts the levels a key (a cell's
    lowest possible key, or a new node or extreme) has passed by one
    comparison per level (``_levels_passed``), and reads the first instant
    known to pass the deepest of them from a table of one row per path.  A
    path is lost when a key it computes within the horizon is not finite.
    With a sink, every node and, with levels,
    every bridge extreme is computed, and whole top cells come in time
    blocks of at most ``budget`` values."""
    n_steps = len(times) - 1
    half_idx = n_steps // 2
    n_levels = len(levels)

    # overflow here is caught by the rule on non-finite keys
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tree = _BridgeTree(t, engine, times[-1], n_steps, seed, stream, sign)
    D = tree.D
    want_half = not n_levels and sink is None
    top = 1 << _TOP_LEVEL

    def paths(i0, i1, res):
        ids = np.arange(i0, i1)
        rows = np.arange(len(ids))
        # column q + 1: the first instant known to pass level q (none: past
        # the horizon); column 0 stands for no level, passed before t = 0
        first = np.full((len(ids), n_levels + 1), n_steps + 1)
        first[:, 0] = -1
        flat_first = first.ravel()  # first[r, q] is flat_first[r * (n_levels + 1) + q]
        bad = np.zeros(len(ids), dtype=bool)
        # Z at the horizon, and at mid-horizon for a request with no levels
        z_at = {n_steps: np.full(len(ids), math.nan)}
        if want_half:
            z_at[half_idx] = np.full(len(ids), math.nan)
        found = []

        def enter(r, k, K, instants=()):
            """Take keys K at instants k <= n_steps of rows r: grid nodes,
            which may hold those of ``instants`` (keys of ``z_at``), or
            bridge extremes."""
            for i in instants:
                at = np.flatnonzero(k == i)
                z_at[i][r[at]] = -fire(K[at])
            ok = np.isfinite(K)
            if not ok.all():
                bad[r[~ok]] = True
            q = _levels_passed(levels, fire(K))
            # keys that pass a level before its first known instant (with
            # times; else anywhere); levels nest, so the deepest decides
            new = np.flatnonzero(ok & (flat_first[r * (n_levels + 1) + q]
                                       > (k if want_times else n_steps)))
            if len(new):
                r, k, K, q = r[new], k[new], K[new], q[new]
                found.append((r, k, K))
                col = np.arange(q.sum()) - (np.cumsum(q) - q).repeat(q) + 1
                np.minimum.at(first, (r.repeat(q), col), k.repeat(q))

        W = tree.top(ids)
        nodes = np.arange(tree.n_top + 1) << _TOP_LEVEL
        on = nodes <= n_steps
        enter(rows.repeat(on.sum()), np.tile(nodes[on], len(ids)),
              (D[nodes[on]] + W[:, on]).ravel(), z_at)
        # the cells to examine at level j, (row, cell, W at both ends),
        # examined in slices of at most ``budget`` cells
        cells = (rows.repeat(tree.n_top), np.tile(np.arange(tree.n_top), len(ids)),
                 W[:, :-1].ravel(), W[:, 1:].ravel())
        for j in range(_TOP_LEVEL, -1, -1):
            undecided = first[:, -1] > n_steps if n_levels else np.ones(len(ids), dtype=bool)
            held = [i for i in z_at if (i & -i).bit_length() == j]  # midpoints of level j
            halves = []
            for s in range(0, len(cells[0]), budget):
                r, c, wl, wr = (x[s:s + budget] for x in cells)
                a = c << j
                b = a + (1 << j)
                Ka, Kb = D[a] + wl, D[b] + wr
                # the lowest key the cell can hold, less a margin for rounding
                lo = np.minimum(Ka, Kb) - tree.reach[j][c] - 1e-9 * (np.abs(Ka) + np.abs(Kb))
                q = _levels_passed(levels, fire(lo))
                split = (np.isfinite(Ka) & (b <= n_steps) & (flat_first[r * (n_levels + 1) + q]
                                                            > (a + 1 if want_times else n_steps)))
                if j:  # a path not ruined at every level reaches the horizon
                    forced = b > n_steps
                    if want_half:
                        forced |= (a < half_idx) & (half_idx < b)
                    split |= forced & undecided[r]
                split = np.flatnonzero(split)
                r, c, wl, wr = r[split], c[split], wl[split], wr[split]
                a = c << j
                if not j:
                    enter(r, a + 1, tree.extremes(ids[r], a, D[a] + wl, D[a + 1] + wr))
                    continue
                m = a + (1 << (j - 1))
                wm = tree.mid(ids[r], j, c, wl, wr)
                # the midpoints up to the horizon, and the right halves that
                # start before it: all of them when every midpoint is before it
                at, on = ((slice(None),) * 2 if m.max(initial=-1) < n_steps
                          else (m <= n_steps, m < n_steps))
                enter(r[at], m[at], D[m[at]] + wm[at], held)
                halves.append((np.concatenate([r, r[on]]), np.concatenate([2 * c, 2 * c[on] + 1]),
                               np.concatenate([wl, wm[on]]), np.concatenate([wm, wr[on]])))
            if not halves:
                break
            cells = halves[0] if len(halves) == 1 else tuple(map(np.concatenate, zip(*halves)))

        # each row's keys in time order, lowest first at one instant, cut to
        # those that pass a level no earlier key passed
        r, k, K = (np.concatenate(x) for x in zip(*found)) if found else (rows[:0],) * 3
        order = np.lexsort((K, k, r))
        r, k, K = r[order], k[order], K[order]
        q = _levels_passed(levels, fire(K)) + r * (n_levels + 1)
        record = np.ones(len(q), dtype=bool)
        record[1:] = q[1:] > np.maximum.accumulate(q)[:-1]
        r, k, K = r[record], k[record], K[record]
        col = np.arange(len(r)) - np.searchsorted(r, r)
        key = np.full((len(ids), max(1, n_levels)), math.inf)
        when = np.full(key.shape, math.nan)
        key[r, col], when[r, col] = K, times[k]
        half = (times[half_idx], z_at[half_idx]) if want_half else None
        yield ids, _RecordChunk(key, when, fire, z_at[n_steps], ~bad, half)

    if sink is None:
        # a range holds its top nodes within ``budget`` values; with levels
        # a path may examine tens of cells at a level, so at most
        # budget // 32 paths
        rows = max(1, budget // (tree.n_top + 1))
        if n_levels:
            rows = max(1, min(rows, budget // 32))
        return _batch_from_chunks(engine, levels, n, rows, paths, want_times, None,
                                  times[half_idx])

    # whole top cells, yielded in time blocks of ``width`` steps
    rows = max(1, budget // (top + 1))
    width = max(1, budget // rows - 1)
    xi_det = t.gamma_tilde[0] * times

    def blocks(i0, i1, res):
        ids = np.arange(i0, i1)
        W = tree.top(ids)
        for cell in range(tree.n_top):
            s0 = cell << _TOP_LEVEL
            full = tree.dense(ids, s0, W[:, cell:cell + 2])
            for s in range(s0, min(s0 + top, n_steps), width):
                e = min(s + width, s0 + top, n_steps)
                K = D[s:e + 1] + full[:, s - s0:e - s0 + 1]
                xi = sign * K if engine == "expmart" else xi_det[s:e + 1]
                chunk = _GridChunk(K, xi, times[s:e + 1], fire, e == n_steps)
                if n_levels:
                    ext = tree.extremes(ids.repeat(e - s), np.tile(np.arange(s, e), len(ids)),
                                        K[:, :-1].ravel(), K[:, 1:].ravel()).reshape(len(ids), -1)
                    ok = np.isfinite(ext)
                    key = chunk.key.copy() if chunk.key is K else chunk.key
                    np.minimum(key[:, 1:], np.where(ok, ext, math.inf), out=key[:, 1:])
                    chunk.key = key
                    chunk.finite &= ok.all(axis=1)
                yield ids, chunk

    return _batch_from_chunks(engine, levels, n, rows, blocks, want_times, sink,
                              times[half_idx])
