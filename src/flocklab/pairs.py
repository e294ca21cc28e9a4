"""Pair geometry of particle and atom clouds.

Every pair computation of the dynamics, the diagnostics and the weak forms
goes through this module, so each grid is built one way:

  squared distances  summed one coordinate at a time as (N, N) arrays,
                     never as (N, N, d) difference tensors;
  kernel             max(r, floor)^(-alpha) with self-pairs set to zero,
                     and co-located pairs (r == 0) set to zero when there
                     is no floor;
  closing times      r_ij / |v_i - v_j| for the pairs that move relative
                     to each other, inf for the others;
  row sums           fixed blocks of BLOCK columns, each block summed along
                     its contiguous row (numpy pairwise reduction), blocks
                     combined in order with Kahan compensation.

The block layout depends only on N, so every result is reproducible bit
for bit whatever the thread count or the BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCK = 32


class Workspace:
    """Reusable (N, N) buffers for repeated pair computations at one N.

    dist  pair distances, written by a force evaluation and read by the
          step cap that follows it
    a, b  scratch space for the intermediate grids

    Fresh (N, N) temporaries on every call cost page faults once they
    outgrow the allocator's reuse threshold; a workspace allocates once.
    """

    def __init__(self, n: int):
        self.dist = np.empty((n, n))
        self.a = np.empty((n, n))
        self.b = np.empty((n, n))


def outer_diff(col: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(N, N) array of col[i] - col[j] for a 1-D array col."""
    return np.subtract(col[:, None], col[None, :], out=out)


def sq_distances(
    x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """(N, N) squared Euclidean distances of the rows of x, zero diagonal.

    Coordinates are added one at a time in index order.  ``out`` receives
    the result and ``scratch`` holds each coordinate's differences; both
    are allocated when not given.
    """
    s = outer_diff(x[:, 0], out=out)
    s *= s
    for k in range(1, x.shape[1]):
        t = outer_diff(x[:, k], out=scratch)
        t *= t
        s += t
    return s


def distances(
    x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """(N, N) Euclidean distances of the rows of x, zero diagonal."""
    r = sq_distances(x, out=out, scratch=scratch)
    return np.sqrt(r, out=r)


def off_diagonal(a: np.ndarray) -> np.ndarray:
    """View of the N (N - 1) off-diagonal entries of a square array, as an
    (N - 1, N) array; no copy is made."""
    n = a.shape[0]
    return a.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]


def kernel(
    r: np.ndarray, alpha: float, floor: float = 0.0, out: np.ndarray | None = None
) -> np.ndarray:
    """Pair kernel max(r, floor)^(-alpha) on a distance matrix.

    Self-pairs (the diagonal) are zero whatever r holds there.  Without a
    floor, co-located pairs (r == 0) are zero too; with floor > 0 they
    count at the floor value.
    """
    if floor > 0.0:
        out = np.maximum(r, floor, out=out)
        np.power(out, -alpha, out=out)
    else:
        with np.errstate(divide="ignore"):
            out = np.power(r, -alpha, out=out)
        out[r == 0.0] = 0.0
    np.fill_diagonal(out, 0.0)
    return out


def closing_times(
    r: np.ndarray,
    v: np.ndarray,
    floor: float = 0.0,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """(N, N) closing times max(r_ij, floor) / |v_i - v_j|.

    Pairs at equal velocity (the diagonal included) never close; they get
    inf, as does any pair whose closing time overflows.  ``scratch`` must
    not be r.
    """
    speed = distances(v, out=out, scratch=scratch)
    rr = np.maximum(r, floor, out=scratch) if floor > 0.0 else r
    moving = speed > 0.0
    np.divide(rr, speed, out=speed, where=moving)
    np.copyto(speed, np.inf, where=~moving)
    return speed


def row_sums(a: np.ndarray) -> np.ndarray:
    """Compensated sums along the last axis of a (..., N) array.

    Full blocks of BLOCK columns are summed along their contiguous rows in
    one reduction; the blocks (and a shorter last block) are then combined
    in order with Kahan compensation.
    """
    n = a.shape[-1]
    full = n - n % BLOCK
    parts = []
    if full:
        head = a[..., :full].reshape(a.shape[:-1] + (full // BLOCK, BLOCK))
        parts.extend(np.moveaxis(head.sum(axis=-1), -1, 0))
    if full < n:
        parts.append(a[..., full:].sum(axis=-1))
    s = np.zeros(a.shape[:-1])
    c = np.zeros_like(s)
    for part in parts:
        y = part - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def relative_sums(
    w: np.ndarray, u: np.ndarray, scratch: np.ndarray | None = None
) -> np.ndarray:
    """(N, k) array of sum_j w_ij (u_j - u_i), one component at a time."""
    out = np.empty(u.shape)
    for k in range(u.shape[1]):
        col = u[:, k]
        t = np.subtract(col[None, :], col[:, None], out=scratch)
        t *= w
        out[:, k] = row_sums(t)
    return out


@dataclass(frozen=True)
class PairGrid:
    """Distances and squared relative speeds of one phase-space sample.

    r   (N, N) distances between positions, zero diagonal
    s2  (N, N) squared distances between velocities, zero diagonal
    """

    r: np.ndarray
    s2: np.ndarray

    @classmethod
    def of(cls, x: np.ndarray, v: np.ndarray) -> "PairGrid":
        return cls(distances(x), sq_distances(v))
