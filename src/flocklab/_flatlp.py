"""Exact linear program behind the flat (bounded-Lipschitz) distance.

The distance between atomic measures mu, nu with union support points p_k
and signed weights b_k = mu_k - nu_k is

    sup { sum_k b_k phi_k : |phi_k| <= 1,  |phi_k - phi_l| <= |p_k - p_l| }.

Instead of attacking that program directly (its constraint count is
quadratic in the support size), we solve its linear-programming dual, a
transshipment problem on the support:

    min  sum_k (p_k + q_k) + sum_{k != l} d_kl g_kl
    s.t. p_k - q_k + sum_l (g_kl - g_lk) = b_k,   all variables >= 0,

where p_k / q_k absorb or create mass at unit cost and g_kl moves mass at
cost d_kl = |p_k - p_l|.  Strong duality gives equality of optima, and the
simplex multipliers at the optimum are exactly an optimal potential phi.

The solver is a dense revised simplex.  The starting basis absorbs every
excess locally (p_k or q_k per node), which is feasible outright with
objective equal to the total variation; transport arcs then only improve
it.  Entering columns follow Dantzig's rule until the objective stalls,
after which Bland's rule takes over to guarantee termination; leaving rows
always break ties by smallest basic column id.

On one-dimensional supports only arcs between neighbouring points (in
sorted order) are generated: on the line every arc decomposes into
adjacent hops of identical total cost, so the reduced program has the same
optimum while staying linear in the support size.
"""

from __future__ import annotations

import numpy as np

from .errors import PivotBudgetExceeded, SupportTooLarge

_RC_TOL = 1e-11  # reduced-cost threshold for optimality
_PIVOT_TOL = 1e-11  # smallest usable pivot magnitude
_REFACTOR_EVERY = 150


class _Columns:
    """Column pool: destroy/create columns plus transport arcs.

    Global id order: p_0..p_{K-1}, q_0..q_{K-1}, then arcs.  In full mode
    arc (k -> l) has id 2K + k*K + l (diagonal slots are never offered);
    in line mode arcs come in sorted-neighbour pairs.
    """

    def __init__(self, points: np.ndarray):
        self.K = points.shape[0]
        self.line = points.shape[1] == 1
        if self.line:
            self.order = np.argsort(points[:, 0], kind="stable")
            self.gaps = np.diff(points[self.order, 0])
            self.n_arcs = 2 * (self.K - 1)
        else:
            diff = points[:, None, :] - points[None, :, :]
            self.dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            self.n_arcs = self.K * self.K
        self.n_cols = 2 * self.K + self.n_arcs

    def cost(self, col: int) -> float:
        K = self.K
        if col < 2 * K:
            return 1.0
        a = col - 2 * K
        if self.line:
            return float(self.gaps[a // 2])
        return float(self.dist[a // K, a % K])

    def column(self, col: int) -> tuple[list[int], list[float]]:
        K = self.K
        if col < K:
            return [col], [1.0]
        if col < 2 * K:
            return [col - K], [-1.0]
        a = col - 2 * K
        if self.line:
            g, back = divmod(a, 2)
            k, l = self.order[g], self.order[g + 1]
            if back:
                k, l = l, k
        else:
            k, l = a // K, a % K
        return [int(k), int(l)], [1.0, -1.0]

    def entering(self, y: np.ndarray, bland: bool) -> int | None:
        """Id of an entering column with negative reduced cost, or None."""
        K = self.K
        rc_p = 1.0 - y
        rc_q = 1.0 + y
        if self.line:
            yo = y[self.order]
            rc_f = self.gaps - yo[:-1] + yo[1:]
            rc_b = self.gaps - yo[1:] + yo[:-1]
            rc_arcs = np.empty(self.n_arcs)
            rc_arcs[0::2] = rc_f
            rc_arcs[1::2] = rc_b
        else:
            rc_arcs = (self.dist - y[:, None] + y[None, :]).ravel()
            rc_arcs[:: K + 1] = np.inf  # never offer diagonal slots
        rc = np.concatenate([rc_p, rc_q, rc_arcs])
        if bland:
            hits = np.flatnonzero(rc < -_RC_TOL)
            return int(hits[0]) if hits.size else None
        j = int(np.argmin(rc))
        return j if rc[j] < -_RC_TOL else None


def solve_flat_lp(
    points: np.ndarray, b: np.ndarray, cap: int = 2000
) -> tuple[float, np.ndarray]:
    """Optimal flat-metric value and potential for signed weights b.

    Returns (value, phi) with phi the optimal potential per support point.
    Raises SupportTooLarge when the support exceeds ``cap`` atoms.
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

    cols = _Columns(points)
    basis = np.where(b >= 0, np.arange(K), K + np.arange(K)).astype(np.int64)
    binv = np.diag(np.where(b >= 0, 1.0, -1.0))
    x_b = np.abs(b).astype(np.float64)
    c_b = np.ones(K)

    def refactor():
        nonlocal binv, x_b
        bmat = np.zeros((K, K))
        for i, col in enumerate(basis):
            rows, vals = cols.column(int(col))
            bmat[rows, i] = vals
        binv = np.linalg.inv(bmat)
        x_b = binv @ b
        np.clip(x_b, 0.0, None, out=x_b)

    bland = False
    stall = 0
    best = float(c_b @ x_b)
    final_rounds = 0
    iters = 0
    max_iters = 400 * K + 100_000

    while True:
        iters += 1
        if iters > max_iters:
            raise PivotBudgetExceeded(
                "flat-metric simplex exceeded its pivot budget",
                support=K,
                pivots=iters - 1,
                budget=max_iters,
            )
        if iters % _REFACTOR_EVERY == 0:
            refactor()
        y = c_b @ binv
        j = cols.entering(y, bland)
        if j is None:
            refactor()
            y = c_b @ binv
            j = cols.entering(y, bland=True)
            if j is None or final_rounds >= 3:
                value = float(c_b @ x_b)
                return value, np.asarray(y, dtype=np.float64)
            final_rounds += 1

        rows, vals = cols.column(int(j))
        a_col = np.zeros(K)
        a_col[rows] = vals
        direction = binv @ a_col
        pos = np.flatnonzero(direction > _PIVOT_TOL)
        if pos.size == 0:
            # Cannot happen for this cost structure (all costs >= 0 bound
            # the minimum); treat as a numerical artefact and refactor.
            refactor()
            y = c_b @ binv
            direction = binv @ a_col
            pos = np.flatnonzero(direction > _PIVOT_TOL)
            if pos.size == 0:
                bland = True
                continue
        ratios = x_b[pos] / direction[pos]
        rmin = ratios.min()
        tied = pos[ratios <= rmin + 1e-15 * (1.0 + abs(rmin))]
        r = int(tied[np.argmin(basis[tied])])
        theta = x_b[r] / direction[r]

        x_b -= theta * direction
        x_b[r] = theta
        np.clip(x_b, 0.0, None, out=x_b)
        brow = binv[r, :] / direction[r]
        binv -= np.outer(direction, brow)
        binv[r, :] = brow
        basis[r] = j
        c_b[r] = cols.cost(int(j))

        obj = float(c_b @ x_b)
        if obj < best - 1e-15 * (1.0 + abs(best)):
            best = obj
            stall = 0
        else:
            stall += 1
            if stall > 3 * K + 50:
                bland = True
