"""Exact linear program behind the flat (bounded-Lipschitz) distance.

The distance between atomic measures mu, nu with union support points p_k
and signed weights b_k = mu_k - nu_k is

    sup { sum_k b_k phi_k : |phi_k| <= 1,  |phi_k - phi_l| <= |p_k - p_l| }.

On the line (d = 1) the constraints between sorted neighbours imply all
the others, so the program is a chain: maximise sum b_k phi_k over
|phi_k| <= 1 and |phi_{k+1} - phi_k| <= g_k, with g_k the gap between the
sorted points k and k + 1.  It is solved exactly by dynamic programming.
The best partial sum V_k(y) over phi_1..phi_k with phi_k = y is concave
and piecewise linear in y, and one step is

    V_k(y) = b_k y + max { V_{k-1}(z) : |z - y| <= g_{k-1} },  |y| <= 1:

the window max opens a flat top of width 2 g at the argmax (the
breakpoints left of it move left by g, those right of it move right), then
the linear term is added and the domain clipped to [-1, 1].  The
breakpoints are kept as two deques on either side of the argmax, each with
one lazy offset, so a step costs the breakpoints that cross the argmax.
The argmax m_k of each V_k is recorded, and the backtrack
phi_k = clip(m_k, phi_{k+1} - g_k, phi_{k+1} + g_k) recovers an optimal
potential.  The value is the exactly rounded sum of b_k phi_k.

In d >= 2 the program goes through its linear-programming dual, an
uncapacitated transshipment problem (the generalized Wasserstein distance
W^{1,1}_{1,1} of Piccoli and Rossi) on the support nodes plus a ground
node g of potential 0:

    arc k -> g   destroys mass at cost 1,
    arc g -> k   creates mass at cost 1,
    arc k -> l   moves mass at cost |p_k - p_l|,

with supply b_k at node k and the balancing supply -sum_k b_k at g.  Strong
duality gives equality of optima, and the node potentials of an optimal
basis (phi_i - phi_j = cost on every basic arc i -> j) are an optimal phi.
Arcs of length >= 2 are left out: destroying the mass at one end and
creating it at the other costs 2, so no optimal flow needs them, and their
dual constraints hold for any |phi| <= 1.

The d >= 2 solver is a primal network simplex whose bases are spanning
trees rooted at g, stored as parent pointers with the orientation, cost
and flow of each node's arc to its parent.  The starting tree hangs every
node off the ground by its destroy arc (b_k > 0) or its create arc
(b_k <= 0).  That tree is strongly feasible: every tree arc of zero flow
points away from the root.  The leaving arc follows Cunningham's rule: of
the arcs whose flow the pivot drives to zero first, the last one met when
the pivot cycle is walked from its apex against the direction of the
entering arc.  The rule keeps the tree strongly feasible, so a run of
degenerate pivots cannot return to an earlier tree and the simplex cannot
cycle.  A pivot re-hangs one subtree, and only that subtree's depths and
potentials are recomputed.  The pivot budget (``_pivot_budget``, then
``PivotBudgetExceeded``) applies to this simplex only; the line DP has no
pivots.

The K^2 arcs are never stored (column generation, as in Schmitzer's
sparse multiscale transport).  The simplex runs on a working arc set: the
2K ground arcs, the arcs from each node to its _NEIGHBOURS nearest nodes
closer than 2, and every arc that pricing has added since.  Entering
arcs come from a candidate pool: the _CANDIDATES most negative reduced
costs of the working set, refreshed as potentials change and rebuilt from
the working set when none of them is negative any more.  Only when no arc
of the working set prices below -_RC_TOL are all K^2 pairs priced, in
tiles of ``_tile_rows(K)`` grid rows whose separations come from
``pairs.separations`` with the same per-coordinate arithmetic as the full
grid and +inf on the self-arcs, which therefore never price negative and
are never among a node's nearest neighbours.  Each tile adds its
_TILE_ARCS most negative arcs to the working set (an arc priced negative
is never in it already, since the working set priced nonnegative at the
same potentials), and the simplex resumes from its current tree.  It
stops when a full pricing finds no negative arc, so the basis is optimal
for the whole arc set.

Memory is a few arrays of one tile's R K entries (R = _tile_rows(K), so
about pairs.TILE_ENTRIES) plus the working set: 2K ground arcs, at most
_NEIGHBOURS K neighbour arcs, and at most _TILE_ARCS arcs per tile per
full pricing.  No array with K^2 entries is built; two uniform clouds of
800 atoms each (K = 1600, d = 2) peak near 3 MB of traced allocations,
where the stored grid and its arc arrays took 146 MB.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .errors import PivotBudgetExceeded
from .pairs import TILE_ENTRIES, separations

_RC_TOL = 1e-11  # reduced-cost threshold for optimality
_CANDIDATES = 100  # arcs kept in the pricing list in d >= 2
_NEIGHBOURS = 8  # nearest neighbours per node in the starting working set
_TILE_ARCS = 64  # most negative arcs a pricing tile adds to the working set


def _pivot_budget(n_support: int) -> int:
    """Pivots allowed on a support of n_support atoms."""
    return 400 * n_support + 100_000


def _tile_rows(n_support: int) -> int:
    """Grid rows per pricing tile on a support of n_support atoms."""
    return max(1, TILE_ENTRIES // n_support)


def _tiles(points: np.ndarray):
    """Yield (first row, separation tile) over the rows of the separations
    grid of points (pairs.separations, +inf on the self-arcs),
    _tile_rows(K) rows at a time, in two reused buffers."""
    K = points.shape[0]
    R = min(_tile_rows(K), K)
    out, scratch = np.empty((R, K)), np.empty((R, K))
    for r0 in range(0, K, R):
        n = min(R, K - r0)
        rows = slice(r0, r0 + n)
        yield r0, separations(points, out=out[:n], scratch=scratch[:n], rows=rows)


def _starting_arcs(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tail, head, cost) of the starting working set: the destroy and
    create arcs (node K is the ground), then the arcs from each node to its
    _NEIGHBOURS nearest other nodes closer than 2."""
    K = points.shape[0]
    nodes, ground = np.arange(K), np.full(K, K)
    tail, head, length = [nodes, ground], [ground, nodes], [np.ones(2 * K)]
    nn = min(_NEIGHBOURS, K - 1)
    for r0, dist in _tiles(points) if nn else ():
        rows = np.arange(r0, r0 + dist.shape[0])
        j = np.argpartition(dist, nn - 1, axis=1)[:, :nn]
        tail.append(np.repeat(rows, nn))
        head.append(j.ravel())
        length.append(np.take_along_axis(dist, j, axis=1).ravel())
    tail, head, length = (np.concatenate(a) for a in (tail, head, length))
    keep = length < 2.0
    return tail[keep], head[keep], length[keep]


def _violated_arcs(
    points: np.ndarray, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tail, head, cost) of the arcs of length below 2 whose reduced cost
    under the potentials phi is below -_RC_TOL: the _TILE_ARCS most
    negative of each tile of the grid."""
    K = points.shape[0]
    pot = phi[:K]
    found = []
    for r0, dist in _tiles(points):
        n = dist.shape[0]
        rc = dist - pot[r0 : r0 + n, None]
        rc += pot
        neg = np.flatnonzero(rc < -_RC_TOL)
        length = dist.ravel()[neg]
        neg, length = neg[length < 2.0], length[length < 2.0]
        if neg.size > _TILE_ARCS:
            best = np.argpartition(rc.ravel()[neg], _TILE_ARCS)[:_TILE_ARCS]
            neg, length = neg[best], length[best]
        t, h = np.divmod(neg, K)
        found.append((t + r0, h, length))
    return tuple(np.concatenate(a) for a in zip(*found))


def _line_potential(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Optimal potential of the chain program on the points x (K,)."""
    order = np.argsort(x, kind="stable")
    gaps = np.diff(x[order]).tolist()
    w = b[order].tolist()
    K = len(w)
    # Breakpoints of V_k as (position - offset, slope drop), sorted by
    # position: left of the argmax in ``left``, at and right of it in
    # ``right``.  ``slope`` is V_k's slope between the two deques, and the
    # argmax is right[0] when it is positive, -1 when it is not (left is
    # then empty), and +1 when right is empty.
    left, right = deque(), deque()
    off_l = off_r = 0.0
    slope = w[0]
    m = [0.0] * K
    m[0] = 1.0 if slope > 0.0 else -1.0
    for k in range(1, K):
        g = gaps[k - 1]
        # Window max: open a flat top of width 2g at the argmax.  The slope
        # drop at an argmax breakpoint splits over the top's two ends.
        if slope <= 0.0:
            if slope < 0.0:
                right.appendleft((-1.0 - off_r, -slope))
        elif right:
            p, drop = right.popleft()
            p += off_r
            left.append((p - off_l, slope))
            if drop > slope:
                right.appendleft((p - off_r, drop - slope))
        else:
            left.append((1.0 - off_l, slope))
        off_l -= g
        off_r += g
        while left and left[0][0] + off_l <= -1.0:
            left.popleft()
        while right and right[-1][0] + off_r >= 1.0:
            right.pop()
        if not left:
            off_l = 0.0
        if not right:
            off_r = 0.0
        # Add b_k y to the flat top's zero slope, and move the argmax to
        # where the slope changes sign.
        slope = w[k]
        while slope <= 0.0 and left:
            p, drop = left.pop()
            right.appendleft((p + off_l - off_r, drop))
            slope += drop
        while slope > 0.0 and right and slope > right[0][1]:
            p, drop = right.popleft()
            left.append((p + off_r - off_l, drop))
            slope -= drop
        if slope <= 0.0:
            m[k] = -1.0
        elif right:
            m[k] = min(max(right[0][0] + off_r, -1.0), 1.0)
        else:
            m[k] = 1.0

    phi = m[:]
    for k in range(K - 2, -1, -1):
        nxt, g = phi[k + 1], gaps[k]
        phi[k] = min(max(m[k], nxt - g), nxt + g)
    out = np.empty(K)
    out[order] = phi
    return out


def solve_flat_lp(points: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Optimal flat-metric value and potential for signed weights b.

    Returns (value, phi) with phi the optimal potential per support point.
    No support size is refused: memory is O(K) (see the module docstring).
    The one failure is PivotBudgetExceeded, in d >= 2, when the simplex
    does not finish within ``_pivot_budget`` pivots.
    """
    points = np.asarray(points, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    K = points.shape[0]
    if K == 0:
        return 0.0, np.zeros(0)
    if points.shape[1] == 1:
        phi = _line_potential(points[:, 0], b)
        return math.fsum((b * phi).tolist()), phi

    tail, head, cost = _starting_arcs(points)
    budget = _pivot_budget(K)

    # The tree: node v < K reaches its parent through one arc, which points
    # up (v -> parent) or down (parent -> v) and carries flow[v] >= 0.
    root = K
    parent = [root] * K + [-1]
    up = [bool(bk > 0.0) for bk in b] + [False]
    flow = [abs(float(bk)) for bk in b] + [0.0]
    arc_cost = [1.0] * K + [0.0]
    depth = [1] * K + [0]
    children = [[] for _ in range(K)] + [list(range(K))]
    pot = [1.0 if u else -1.0 for u in up[:K]] + [0.0]
    phi = np.array(pot)

    # Candidate pool of entering arcs: the most negative arcs of the working
    # set at its last pricing.
    pool_t, pool_h, pool_c = (tail[:0],) * 3
    pivots = 0
    while True:
        rc = pool_c - phi[pool_t] + phi[pool_h]
        i = int(np.argmin(rc)) if rc.size else 0
        if not rc.size or rc[i] >= -_RC_TOL:
            rc_set = cost - phi[tail] + phi[head]
            sel = np.flatnonzero(rc_set < -_RC_TOL)
            if not sel.size:
                # the working set is optimal: price the whole grid
                added = _violated_arcs(points, phi)
                if not added[0].size:
                    break
                tail, head, cost = (
                    np.concatenate(a) for a in zip((tail, head, cost), added)
                )
                pool_t, pool_h, pool_c = (tail[:0],) * 3
                continue
            if sel.size > _CANDIDATES:
                best = np.argpartition(rc_set[sel], _CANDIDATES)
                sel = sel[best[:_CANDIDATES]]
            pool_t, pool_h, pool_c = tail[sel], head[sel], cost[sel]
            i = int(np.argmin(rc_set[sel]))

        if pivots >= budget:
            raise PivotBudgetExceeded(
                "flat-metric simplex exceeded its pivot budget",
                support=K,
                pivots=pivots,
                budget=budget,
            )
        pivots += 1

        # Entering arc k -> l closes the cycle k -> l -> ... -> apex -> ... -> k.
        k, l, c = int(pool_t[i]), int(pool_h[i]), float(pool_c[i])
        a, z = k, l
        while a != z:
            if depth[a] >= depth[z]:
                a = parent[a]
            else:
                z = parent[z]
        apex = a
        kpath = []
        v = k
        while v != apex:
            kpath.append(v)
            v = parent[v]
        lpath = []
        v = l
        while v != apex:
            lpath.append(v)
            v = parent[v]

        # Pushing flow along k -> l raises it on the down arcs of the k side
        # and the up arcs of the l side; the other arcs block.  Cunningham's
        # rule: of the blocking arcs with least flow, take the last one met
        # on the walk apex -> l, l -> k, k -> apex.
        theta = math.inf
        leave = -1
        for v in reversed(lpath):
            if not up[v] and flow[v] <= theta:
                theta, leave = flow[v], v
        for v in kpath:
            if up[v] and flow[v] <= theta:
                theta, leave = flow[v], v
        if theta > 0.0:
            for v in kpath:
                flow[v] += -theta if up[v] else theta
            for v in lpath:
                flow[v] += theta if up[v] else -theta

        # Cut the leaving arc and hang its subtree from the entering arc,
        # reversing the path between the entering endpoint and the cut.
        if leave in kpath:
            v, new_parent, new_up = k, l, True
        else:
            v, new_parent, new_up = l, k, False
        top = v
        new_flow, new_cost = theta, c
        while True:
            old_parent = parent[v]
            old_up, old_flow, old_cost = up[v], flow[v], arc_cost[v]
            children[old_parent].remove(v)
            children[new_parent].append(v)
            parent[v] = new_parent
            up[v], flow[v], arc_cost[v] = new_up, new_flow, new_cost
            if v == leave:
                break
            new_parent, new_up = v, not old_up
            new_flow, new_cost = old_flow, old_cost
            v = old_parent

        moved = []
        stack = [top]
        while stack:
            v = stack.pop()
            p = parent[v]
            depth[v] = depth[p] + 1
            pot[v] = pot[p] + arc_cost[v] if up[v] else pot[p] - arc_cost[v]
            moved.append(v)
            stack.extend(children[v])
        phi[moved] = [pot[v] for v in moved]

    value = math.fsum(arc_cost[v] * flow[v] for v in range(K))
    return value, phi[:K]
