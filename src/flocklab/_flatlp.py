"""Exact linear program behind the flat (bounded-Lipschitz) distance.

The distance between atomic measures mu, nu with union support points p_k
and signed weights b_k = mu_k - nu_k is

    sup { sum_k b_k phi_k : |phi_k| <= 1,  |phi_k - phi_l| <= |p_k - p_l| }.

Its linear-programming dual is an uncapacitated transshipment problem (the
generalized Wasserstein distance W^{1,1}_{1,1} of Piccoli and Rossi) on the
support nodes plus a ground node g of potential 0:

    arc k -> g   destroys mass at cost 1,
    arc g -> k   creates mass at cost 1,
    arc k -> l   moves mass at cost |p_k - p_l|,

with supply b_k at node k and the balancing supply -sum_k b_k at g.  Strong
duality gives equality of optima, and the node potentials of an optimal
basis (phi_i - phi_j = cost on every basic arc i -> j) are an optimal phi.

Arcs of length >= 2 are left out: destroying the mass at one end and
creating it at the other costs 2, so no optimal flow needs them, and their
dual constraints hold for any |phi| <= 1.  On the line only arcs between
sorted neighbours are kept as well, because every arc decomposes into
adjacent hops of the same total cost.  In d >= 2 the arcs come from the
dense distance grid of ``pairs.distances``.

The solver is a primal network simplex whose bases are spanning trees
rooted at g, stored as parent pointers with the orientation, cost and flow
of each node's arc to its parent.  The starting tree hangs every node off
the ground by its destroy arc (b_k > 0) or its create arc (b_k <= 0).  That
tree is strongly feasible: every tree arc of zero flow points away from the
root.  The leaving arc follows Cunningham's rule: of the arcs whose flow the
pivot drives to zero first, the last one met when the pivot cycle is walked
from its apex against the direction of the entering arc.  The rule keeps
the tree strongly feasible, so a run of degenerate pivots cannot return to
an earlier tree and the simplex cannot cycle.  A pivot re-hangs one
subtree, and only that subtree's depths and potentials are recomputed.  Entering arcs are priced from a candidate list: the
_CANDIDATES most negative reduced costs, refreshed as potentials change and
rebuilt from the whole arc set only when none of them is negative any more.
On the line the arc set is O(K), so every pivot prices all of it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PivotBudgetExceeded, SupportTooLarge
from .pairs import distances

_RC_TOL = 1e-11  # reduced-cost threshold for optimality
_CANDIDATES = 100  # arcs kept in the pricing list in d >= 2


def _pivot_budget(n_support: int) -> int:
    """Pivots allowed on a support of n_support atoms."""
    return 400 * n_support + 100_000


def _arcs(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tail, head, cost) of every arc; node K is the ground."""
    K, dim = points.shape
    if dim == 1:
        order = np.argsort(points[:, 0], kind="stable")
        gaps = np.diff(points[order, 0])
        keep = np.flatnonzero(gaps < 2.0)
        lo, hi, length = order[keep], order[keep + 1], gaps[keep]
        t = np.concatenate([lo, hi])
        h = np.concatenate([hi, lo])
        c = np.concatenate([length, length])
    else:
        dist = distances(points)
        near = dist < 2.0
        np.fill_diagonal(near, False)
        t, h = np.nonzero(near)
        c = dist[near]
    nodes = np.arange(K)
    ground = np.full(K, K)
    tail = np.concatenate([nodes, ground, t])
    head = np.concatenate([ground, nodes, h])
    cost = np.concatenate([np.ones(2 * K), c])
    return tail, head, cost


def solve_flat_lp(
    points: np.ndarray, b: np.ndarray, cap: int = 2000
) -> tuple[float, np.ndarray]:
    """Optimal flat-metric value and potential for signed weights b.

    Returns (value, phi) with phi the optimal potential per support point.
    Raises SupportTooLarge when the support exceeds ``cap`` atoms and
    PivotBudgetExceeded when the simplex does not finish within
    ``_pivot_budget`` pivots.
    """
    points = np.asarray(points, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    K = points.shape[0]
    if K > cap:
        raise SupportTooLarge(
            "union support exceeds the exact-program cap",
            support=K,
            cap=cap,
        )
    if K == 0:
        return 0.0, np.zeros(0)

    tail, head, cost = _arcs(points)
    line = points.shape[1] == 1
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

    # Candidate pool of entering arcs.  On the line it is the whole arc set;
    # in d >= 2 it holds the most negative arcs of the last full pricing.
    pool_t, pool_h, pool_c = (tail, head, cost) if line else (tail[:0],) * 3
    rc_all = np.empty(cost.size)
    pivots = 0
    while True:
        rc = pool_c - phi[pool_t] + phi[pool_h]
        i = int(np.argmin(rc)) if rc.size else 0
        if not rc.size or rc[i] >= -_RC_TOL:
            if line:
                break
            np.subtract(cost, phi[tail], out=rc_all)
            rc_all += phi[head]
            sel = np.flatnonzero(rc_all < -_RC_TOL)
            if not sel.size:
                break
            if sel.size > _CANDIDATES:
                best = np.argpartition(rc_all[sel], _CANDIDATES)
                sel = sel[best[:_CANDIDATES]]
            pool_t, pool_h, pool_c = tail[sel], head[sel], cost[sel]
            i = int(np.argmin(rc_all[sel]))

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
