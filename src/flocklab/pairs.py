"""Pair geometry of particle and atom clouds.

Every pair computation of the dynamics, the diagnostics and the weak forms
goes through this module, so each grid is built one way:

  squared distances  summed one coordinate at a time as (N, N) arrays,
                     never as (N, N, d) difference tensors; a row tile
                     (R, N) of the grid repeats its rows' arithmetic, and
                     stacked clouds (..., N, d) give stacked grids
                     (..., N, N) with each cloud's arithmetic;
  distances          |x_i - x_j| in d = 1, the square root of the squared
                     distances in d >= 2;
  separations        the distances with +inf on every self-pair, so a
                     minimum over the grid is one over distinct pairs and
                     r^(-alpha) is zero on the self-pairs; this is the
                     only place that sets a self-pair entry of a
                     distance grid (the kernel aside);
  kernel             r^(-alpha), unregularized, with self-pairs and
                     co-located pairs (r == 0) set to zero; the one
                     evaluation of psi for the force pass, the stiff
                     weights and the pair study;
  closing times      one division of the separations by the relative
                     speeds |v_i - v_j|: self-pairs give inf / 0 = inf,
                     pairs in lockstep r / 0 = inf, and a co-located
                     pair in lockstep 0 / 0 = nan, which an np.fmin
                     reduction skips;
  row sums           each row summed whole along its contiguous last axis
                     by numpy's pairwise reduction, whose error grows like
                     log N.

Every pair sum of the package is a plain numpy sum of that kind:
relative_sums sums each grid row, snapshot_series each snapshot's
off-diagonal terms as one row.  The reduction's order depends only on the
row length, so results are reproducible bit for bit, and a row tile
(R, N) sums its rows exactly as the full grid does.

snapshot_series is the one path from stacked snapshots to their pair
sums: the dissipation D, its higher moment D_alpha and the smallest pair
distance of each snapshot.  It works through groups of snapshots whose
grids together hold at most TILE_ENTRIES entries (one snapshot per group
once N^2 exceeds that), so it never holds an (S, N, N) array.
"""

from __future__ import annotations

import numpy as np

TILE_ENTRIES = 1 << 16  # grid entries per tile of a tiled pair pass


class Workspace:
    """Reusable (N, N) buffers for repeated pair computations at one N.

    dist  pair separations (distances, +inf on the diagonal), written by
          a force evaluation and read by the step cap that follows it
    a, b  scratch space for the intermediate grids

    Fresh (N, N) temporaries on every call cost page faults once they
    outgrow the allocator's reuse threshold; a workspace allocates once.
    """

    def __init__(self, n: int):
        self.dist = np.empty((n, n))
        self.a = np.empty((n, n))
        self.b = np.empty((n, n))


def outer_diff(
    col: np.ndarray, out: np.ndarray | None = None, rows: slice = slice(None)
) -> np.ndarray:
    """(..., N, N) array of col[..., i] - col[..., j] for an array col of
    shape (..., N); only the grid rows i in ``rows`` when given, an
    (..., R, N) array."""
    return np.subtract(col[..., rows, None], col[..., None, :], out=out)


def sq_distances(
    x: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
    rows: slice = slice(None),
) -> np.ndarray:
    """(N, N) squared Euclidean distances of the rows of x, zero diagonal;
    (..., N, N) for stacked clouds x of shape (..., N, d).

    Coordinates are added one at a time in index order.  ``out`` receives
    the result and ``scratch`` holds each coordinate's differences; both
    are allocated when not given.  ``rows`` restricts the grid to those
    rows, an (R, N) tile with the same values as the full grid's rows.
    """
    s = outer_diff(x[..., 0], out=out, rows=rows)
    s *= s
    for k in range(1, x.shape[-1]):
        t = outer_diff(x[..., k], out=scratch, rows=rows)
        t *= t
        s += t
    return s


def distances(
    x: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
    rows: slice = slice(None),
) -> np.ndarray:
    """(N, N) Euclidean distances of the rows of x, zero diagonal; an
    (R, N) tile of them when ``rows`` is given, and stacked grids for
    stacked clouds, as in sq_distances.

    In d = 1 this is |x_i - x_j|, one subtraction and one absolute value;
    it equals the square root of the square bit for bit unless the square
    underflows or overflows (gaps below 1e-154 or above 1e154).
    """
    if x.shape[-1] == 1:
        r = outer_diff(x[..., 0], out=out, rows=rows)
        return np.abs(r, out=r)
    r = sq_distances(x, out=out, scratch=scratch, rows=rows)
    return np.sqrt(r, out=r)


def separations(
    x: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
    rows: slice = slice(None),
) -> np.ndarray:
    """distances with every self-pair entry (i, i) set to +inf, for full
    grids, ``rows`` tiles and stacked clouds alike; every other entry is
    the distances entry bit for bit."""
    r = distances(x, out=out, scratch=scratch, rows=rows)
    i = np.arange(x.shape[-2])[rows]
    r[..., np.arange(i.size), i] = np.inf
    return r


def kernel(r: np.ndarray, alpha: float, out: np.ndarray | None = None) -> np.ndarray:
    """Pair kernel r^(-alpha) on a distance matrix, or on stacked ones
    (..., N, N).

    Self-pairs (the diagonal of the last two axes) are zero whatever r
    holds there, and so are co-located pairs (r == 0).
    """
    with np.errstate(divide="ignore"):
        out = np.power(r, -alpha, out=out)
    out[r == 0.0] = 0.0
    i = np.arange(r.shape[-1])
    out[..., i, i] = 0.0
    return out


def closing_times(
    r: np.ndarray,
    v: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """(N, N) closing times r_ij / |v_i - v_j| on a separations grid r.

    One division: self-pairs get inf / 0 = inf, and so does a pair in
    lockstep (r / 0) or one whose closing time overflows.  A co-located
    pair in lockstep gets 0 / 0 = nan, which an np.fmin reduction skips.
    ``scratch`` must not be r.
    """
    speed = distances(v, out=out, scratch=scratch)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(r, speed, out=speed)


def relative_sums(
    w: np.ndarray, u: np.ndarray, scratch: np.ndarray | None = None
) -> np.ndarray:
    """(N, k) array of sum_j w_ij (u_j - u_i), one component at a time,
    each row of the weighted differences summed whole."""
    out = np.empty(u.shape)
    for k in range(u.shape[1]):
        col = u[:, k]
        t = np.subtract(col[None, :], col[:, None], out=scratch)
        t *= w
        out[:, k] = t.sum(axis=1)
    return out


def snapshot_series(
    x: np.ndarray, v: np.ndarray, w: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair sums of every snapshot of the stacked (S, N, d) positions x and
    velocities v, at atom weights w (N,).  Returns three (S,) arrays:

      D        sum of w_a w_b |v_a - v_b|^2 / |x_a - x_b|^alpha
      D_alpha  sum of w_a w_b |v_a - v_b|^(alpha+2) / |x_a - x_b|^alpha
      r_min    smallest distance between two different atoms (inf below two)

    Both sums run over the off-diagonal pairs, each snapshot's in row-major
    order as one numpy sum along a contiguous row.  The kernel is zero at
    co-located pairs, so they add zero terms.  Snapshots go in groups of
    TILE_ENTRIES // N^2 (at least one).
    """
    s, n = x.shape[:2]
    group = max(1, TILE_ENTRIES // max(1, n * n))
    off = ~np.eye(n, dtype=bool)
    ww = w[:, None] * w[None, :]
    power = (alpha + 2.0) / 2.0
    dd, da, r_min = np.empty(s), np.empty(s), np.empty(s)
    for a in range(0, s, group):
        b = min(a + group, s)
        r = separations(x[a:b])
        s2 = sq_distances(v[a:b])
        # the full-shape mask keeps each snapshot's terms one contiguous row
        mask = np.broadcast_to(off, r.shape)
        kern = kernel(r, alpha)
        dd[a:b] = (ww * s2 * kern)[mask].reshape(b - a, -1).sum(axis=-1)
        da[a:b] = (ww * s2**power * kern)[mask].reshape(b - a, -1).sum(axis=-1)
        r_min[a:b] = r.min(axis=(-2, -1), initial=np.inf)
    return dd, da, r_min
