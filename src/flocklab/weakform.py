"""Weak-formulation residuals and compactly supported test functions.

Test functions are products  phi(t, x, v) = w(t) G(x) H(v)  built from C2
pieces with certified analytic bounds:

  window   w(t) = (1 - t/t_end)^3 on [0, t_end], zero after; w(0) = 1 and
           w, w', w'' all vanish at t_end, so boundary terms at the final
           time drop from every identity.  |w| <= 1, |w'| <= 3/t_end.
  bump     b(y) = (1 - |y - c|^2 / r^2)^3 inside the ball B(c, r), zero
           outside.  |b| <= 1, |grad b| <= 96/(25 sqrt 5)/r, and the
           Hessian norm is at most 6/r^2 (extremes at |y - c|^2/r^2 = 0
           and 1/5).
  plateau  radial quintic smoothstep: 1 on B(0, r_in), 0 outside
           B(0, r_out), 6u^5 - 15u^4 + 10u^3 in between.  |grad| <=
           (15/8)/(r_out - r_in); Hessian norm <= (10/sqrt 3)/(r_out -
           r_in)^2 for r_in >= r_out - r_in.

Residuals integrate the transported test function against snapshot data
with trapezoid quadrature in time.  For an exact solution each residual
vanishes up to quadrature and binning error; the pair interaction term
always enters with coefficient -1/2 after symmetrizing the force over
ordered pairs.

Field-based residuals read cell arrays: a grid is any object exposing h,
d, and the per-cell arrays barycenter (C, d), velocity (C, d) and mass
(C,), such as meanfield.FieldGrid.  Cells of zero mass may be present and
contribute nothing.

Both the kinetic and the field residuals are computed snapshot-major, for
a whole battery at once: kinetic_weak_residuals, and FieldBattery.residuals,
which gives the continuity and momentum residuals and the dissipation
margin in one walk over the field grids.  continuity_residuals,
momentum_residuals, dissipation_margin and the single-function forms are
wrappers of those.  A FieldBattery tabulates the windows w(t), w'(t) of
its F functions once on its snapshot times (scalars per function), so one
battery serves every trajectory sampled on those times.  The battery forms
give the per-function results bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import Trajectory
from .errors import GridMismatch
from .pairs import (
    Workspace,
    distances,
    kernel,
    outer_diff,
    relative_sums,
)
from .rng import CounterRNG

_BUMP_LIP = 96.0 / (25.0 * math.sqrt(5.0))  # max of 6 s (1-s^2)^2
_PLATEAU_LIP = 15.0 / 8.0
_PLATEAU_HESS = 10.0 / math.sqrt(3.0)


def _bump(z: np.ndarray, r2):
    """Cube bump and gradient at offsets z of shape (..., n, d), returned
    with shapes (..., n) and (..., n, d).

    r2 is the squared radius: a float, or an array of shape (..., 1) with
    one squared radius per stacked set of offsets.
    """
    s = np.einsum("...j,...j->...", z, z) / r2
    core = np.maximum(1.0 - s, 0.0)
    val = core**3
    grad = ((-6.0 / r2) * core**2)[..., None] * z
    return val, grad


def _plateau(y: np.ndarray, r_in: float, r_out: float):
    """Radial quintic plateau and gradient, shape (n, d) -> (n,), (n, d)."""
    s = np.sqrt(np.einsum("ij,ij->i", y, y))
    u = np.clip((r_out - s) / (r_out - r_in), 0.0, 1.0)
    val = u**3 * (10.0 - 15.0 * u + 6.0 * u**2)
    qp = 30.0 * u**2 * (1.0 - u) ** 2
    inside = (s > r_in) & (s < r_out) & (s > 0)
    coef = np.where(inside, -qp / (r_out - r_in) / np.where(s > 0, s, 1.0), 0.0)
    return val, coef[:, None] * y


def _window(t: float, t_end: float):
    if t >= t_end:
        return 0.0, 0.0
    u = 1.0 - t / t_end
    return u**3, -3.0 * u**2 / t_end


class TestFunction:
    """Scalar phase-space test function w(t) G(x) H(v).

    G is a cube bump at x_center with radius x_radius.  H is selected by
    v_kind: "const" (a velocity plateau, identically 1 wherever |v| stays
    below v_plateau_in), "linear" (v_component times the plateau),
    "energy" (|v|^2 times the plateau), or "bump" (cube bump at v_center).
    The whole product is rescaled so that
    max(sup |phi|, Lip_x, Lip_v) = 1; certified bounds are stored after
    scaling.
    """

    __test__ = False  # keep pytest collection away from the name

    def __init__(
        self,
        d: int,
        t_end: float,
        x_center,
        x_radius: float,
        v_kind: str,
        v_plateau: tuple = (1.0, 2.0),
        v_component: int = 0,
        v_center=None,
        v_radius: float = 1.0,
    ):
        if v_kind not in ("const", "linear", "energy", "bump"):
            raise ValueError(f"unknown v_kind {v_kind!r}")
        if v_kind == "linear" and not 0 <= v_component < d:
            raise ValueError("v_component out of range")
        self.d = d
        self.t_end = float(t_end)
        self.x_center = np.asarray(x_center, float)
        self.x_radius = float(x_radius)
        self.v_kind = v_kind
        self.v_plateau = (float(v_plateau[0]), float(v_plateau[1]))
        self.v_component = int(v_component)
        self.v_center = (
            np.zeros(d) if v_center is None else np.asarray(v_center, float)
        )
        self.v_radius = float(v_radius)

        r_in, r_out = self.v_plateau
        width = r_out - r_in
        if v_kind == "const":
            sup_h, lip_h = 1.0, _PLATEAU_LIP / width
        elif v_kind == "linear":
            sup_h = r_out
            lip_h = 1.0 + r_out * _PLATEAU_LIP / width
        elif v_kind == "energy":
            sup_h = r_out**2
            lip_h = 2.0 * r_out + r_out**2 * _PLATEAU_LIP / width
        else:
            sup_h, lip_h = 1.0, _BUMP_LIP / self.v_radius

        sup = sup_h
        lip_x = (_BUMP_LIP / self.x_radius) * sup_h
        lip_v = lip_h
        self.scale = 1.0 / max(sup, lip_x, lip_v)
        self.sup_value = sup * self.scale
        self.lip_x = lip_x * self.scale
        self.lip_v = lip_v * self.scale
        self.sup_dt = (3.0 / self.t_end) * sup_h * self.scale

    def _h(self, v: np.ndarray, plateau=None):
        r_in, r_out = self.v_plateau
        if self.v_kind == "bump":
            return _bump(v - self.v_center[None, :], self.v_radius**2)
        p, gp = _plateau(v, r_in, r_out) if plateau is None else plateau
        if self.v_kind == "const":
            return p, gp
        if self.v_kind == "linear":
            vk = v[:, self.v_component]
            val = vk * p
            grad = vk[:, None] * gp
            grad[:, self.v_component] += p
            return val, grad
        s2 = np.einsum("ij,ij->i", v, v)
        return s2 * p, s2[:, None] * gp + 2.0 * p[:, None] * v

    def _parts(self, t: float, x: np.ndarray, v: np.ndarray, plateau=None):
        w, wp = _window(t, self.t_end)
        g, gg = _bump(x - self.x_center[None, :], self.x_radius**2)
        h, gh = self._h(v, plateau)
        return w, wp, g, gg, h, gh

    def value(self, t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        w, _, g, _, h, _ = self._parts(t, x, v)
        return self.scale * w * g * h

    def derivatives(self, t: float, x: np.ndarray, v: np.ndarray, plateau=None):
        """(dt, grad_x, grad_v) from one evaluation of the window, the
        x-bump and the velocity factor.  plateau, when given, is
        _plateau(v, *self.v_plateau), shared by the functions of a battery
        at one snapshot."""
        w, wp, g, gg, h, gh = self._parts(t, x, v, plateau)
        return (
            self.scale * wp * g * h,
            self.scale * w * h[:, None] * gg,
            self.scale * w * g[:, None] * gh,
        )

    def dt(self, t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.derivatives(t, x, v)[0]

    def grad_x(self, t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.derivatives(t, x, v)[1]

    def grad_v(self, t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.derivatives(t, x, v)[2]


class MacroTestFunction:
    """Scalar space-time test function w(t) G(x) for the macro equations."""

    def __init__(self, d: int, t_end: float, x_center, x_radius: float):
        self.d = d
        self.t_end = float(t_end)
        self.x_center = np.asarray(x_center, float)
        self.x_radius = float(x_radius)
        lip = _BUMP_LIP / self.x_radius
        self.scale = 1.0 / max(1.0, lip)
        self.sup_value = self.scale
        self.lip_x = lip * self.scale
        self.sup_dt = (3.0 / self.t_end) * self.scale

    def value(self, t: float, x: np.ndarray) -> np.ndarray:
        w, _ = _window(t, self.t_end)
        g, _ = _bump(x - self.x_center[None, :], self.x_radius**2)
        return self.scale * w * g

    def dt(self, t: float, x: np.ndarray) -> np.ndarray:
        _, wp = _window(t, self.t_end)
        g, _ = _bump(x - self.x_center[None, :], self.x_radius**2)
        return self.scale * wp * g

    def grad_x(self, t: float, x: np.ndarray) -> np.ndarray:
        w, _ = _window(t, self.t_end)
        _, gg = _bump(x - self.x_center[None, :], self.x_radius**2)
        return self.scale * w * gg


class VectorTestFunction:
    """One-component vector test function phi = e_k w(t) G(x)."""

    def __init__(self, base: MacroTestFunction, component: int):
        if not 0 <= component < base.d:
            raise ValueError("component out of range")
        self.base = base
        self.component = component
        self.d = base.d
        self.sup_value = base.sup_value
        self.lip_x = base.lip_x
        self.sup_dt = base.sup_dt

    def value(self, t: float, x: np.ndarray) -> np.ndarray:
        out = np.zeros((x.shape[0], self.d))
        out[:, self.component] = self.base.value(t, x)
        return out

    def dt(self, t: float, x: np.ndarray) -> np.ndarray:
        out = np.zeros((x.shape[0], self.d))
        out[:, self.component] = self.base.dt(t, x)
        return out

    def conv(self, t: float, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """(u . grad) phi, shape (n, d)."""
        out = np.zeros((x.shape[0], self.d))
        g = self.base.grad_x(t, x)
        out[:, self.component] = np.einsum("ij,ij->i", u, g)
        return out


# ---- batteries ----


def _draw_radius(sub: CounterRNG, center: np.ndarray, T: float, M: float) -> float:
    """Bump radius in [min(0.4 M, r_cap), r_cap), where r_cap keeps the
    ball around center inside (T + 1) B(0, 2M)."""
    r_cap = min((1.0 + T) * M, 2.0 * (1.0 + T) * M - np.linalg.norm(center))
    if r_cap <= 0.0:
        raise ValueError("bump center leaves no room inside (T + 1) B(0, 2M)")
    return float(sub.uniform(1, min(0.4 * M, r_cap), r_cap)[0])


def kinetic_battery(d: int, T: float, M: float, size: int = 24, seed: int = 0):
    """Phase-space test functions with supports inside
    (T + 1) B(0, 2M) x B(0, 2M), kinds cycled, geometry drawn from the
    seeded counter stream."""
    rng = CounterRNG(seed)
    kinds = ["const"] + [("linear", k) for k in range(d)] + ["energy", "bump"]
    out = []
    for i in range(size):
        kind = kinds[i % len(kinds)]
        sub = rng.spawn(i)
        center = sub.uniform(d, -M, M)
        radius = _draw_radius(sub, center, T, M)
        t_end = float(sub.uniform(1, 0.6 * T, T)[0])
        common = dict(
            d=d,
            t_end=t_end,
            x_center=center,
            x_radius=radius,
            v_plateau=(M, 2.0 * M),
        )
        if kind == "const":
            out.append(TestFunction(v_kind="const", **common))
        elif kind == "energy":
            out.append(TestFunction(v_kind="energy", **common))
        elif kind == "bump":
            vc = sub.uniform(d, -M / 2, M / 2)
            vr = float(sub.uniform(1, 0.5 * M, M)[0])
            out.append(
                TestFunction(v_kind="bump", v_center=vc, v_radius=vr, **common)
            )
        else:
            out.append(TestFunction(v_kind="linear", v_component=kind[1], **common))
    return out


def macro_battery(d: int, T: float, M: float, size: int = 24, seed: int = 0):
    rng = CounterRNG(seed)
    out = []
    for i in range(size):
        sub = rng.spawn(i)
        center = sub.uniform(d, -M, M)
        radius = _draw_radius(sub, center, T, M)
        t_end = float(sub.uniform(1, 0.6 * T, T)[0])
        out.append(MacroTestFunction(d, t_end, center, radius))
    return out


def vector_battery(d: int, T: float, M: float, size: int = 24, seed: int = 0):
    scalars = macro_battery(d, T, M, size=size, seed=seed)
    return [
        VectorTestFunction(base, component=i % d)
        for i, base in enumerate(scalars)
    ]


# ---- residuals on trajectories ----


def cumulative_trapezoid(t, y) -> np.ndarray:
    """Trapezoid integrals of y over t from t[0] to each t[k]."""
    t = np.asarray(t, float)
    y = np.asarray(y, float)
    inc = 0.5 * (y[1:] + y[:-1]) * np.diff(t)
    return np.concatenate([[0.0], np.cumsum(inc)])


def kinetic_weak_residual(traj: Trajectory, phi: TestFunction) -> float:
    """Defect of the phase-space weak identity along one trajectory:

        | -phi(0) term - int (d_t phi + v . grad_x phi) d mu dt
          + 1/2 int sum_{pairs} (grad_v phi - grad_v phi') . (v - v') psi |

    evaluated on the snapshot grid with trapezoid quadrature.  Zero for an
    exact solution up to time-quadrature error.
    """
    return kinetic_weak_residuals(traj, [phi])[0]


def kinetic_weak_residuals(traj: Trajectory, phis) -> list:
    """kinetic_weak_residual for every test function of a battery.

    Snapshot-major: the pair kernel psi, the pair sums
    R_i = sum_j psi_ij (v_i - v_j) and the velocity plateau of each
    distinct v_plateau are built once per snapshot and shared by all test
    functions; each function's window, x-bump and velocity factor are
    built once per snapshot.  Since psi is symmetric, the pair term of each
    test function reduces to an atom sum,

        sum_{i,j} (g_i - g_j) . (v_i - v_j) psi_ij = 2 sum_i g_i . R_i,

    with g = grad_v phi.  Only one snapshot's pair arrays are alive at a
    time.
    """
    phis = list(phis)
    alpha = traj.params.alpha
    n = traj.params.N
    w = 1.0 / n
    times = traj.times
    a_vals = np.empty((len(phis), len(times)))
    b_vals = np.empty((len(phis), len(times)))
    work = Workspace(n)
    for k, t in enumerate(times.tolist()):
        x, v = traj.x[k], traj.v[k]
        r = distances(x, out=work.dist, scratch=work.a)
        psi = kernel(r, alpha, out=work.a)
        pull = relative_sums(psi, v, scratch=work.b)  # = -R
        plateaus = {p: _plateau(v, *p) for p in {phi.v_plateau for phi in phis}}
        for f, phi in enumerate(phis):
            dt, gx, gv = phi.derivatives(t, x, v, plateaus[phi.v_plateau])
            a_vals[f, k] = (dt + np.einsum("ij,ij->i", v, gx)).sum() * w
            b_vals[f, k] = -2.0 * w * w * np.einsum("ij,ij->", gv, pull)
    out = []
    for f, phi in enumerate(phis):
        phi0 = phi.value(times[0], traj.x[0], traj.v[0]).sum() * w
        a_int = np.trapezoid(a_vals[f], times)
        b_int = np.trapezoid(b_vals[f], times)
        out.append(float(abs(-phi0 - a_int + 0.5 * b_int)))
    return out


# ---- residuals on binned fields ----


def _check_grids(grids):
    if not grids:
        raise ValueError("need at least one field grid")
    h0, d0 = grids[0].h, grids[0].d
    for g in grids[1:]:
        if g.h != h0 or g.d != d0:
            raise GridMismatch(
                "field sequence mixes grids", h_left=h0, h_right=g.h
            )
    return h0, d0


class FieldBattery:
    """A battery of F vector test functions e_k w(t) G(x), evaluated
    together on a fixed grid of snapshot times.

    The continuity identity reads the scalar parts w G and the momentum
    identity the vector functions, so one battery serves both.  The scaled
    windows scale * w(t) and scale * w'(t) are tabulated once per snapshot
    time as (F, K) arrays; the bumps of all functions are evaluated in one
    call on stacked offsets.
    """

    def __init__(self, phis, times):
        bases = [phi.base for phi in phis]
        self.times = np.asarray(times, float)
        self.comp = [phi.component for phi in phis]
        self.center = np.array([phi.x_center for phi in bases])
        self.r2 = np.array([phi.x_radius**2 for phi in bases])[:, None]
        self.w = np.empty((len(bases), len(self.times)))
        self.wp = np.empty_like(self.w)
        for f, phi in enumerate(bases):
            for k, t in enumerate(self.times):
                w, wp = _window(t, phi.t_end)
                self.w[f, k] = phi.scale * w
                self.wp[f, k] = phi.scale * wp

    def _bumps(self, x: np.ndarray):
        """The bumps of all functions at points x (n, d): values (F, n) and
        gradients (F, n, d)."""
        center = self.center.reshape(len(self.comp), 1, x.shape[1])
        return _bump(x - center, self.r2)

    def residuals(self, grids, alpha: float, initial_atoms=None):
        """continuity_residual and momentum_residual of every function and
        dissipation_margin per snapshot, from one pass over the field grids.

        Each snapshot with occupied cells evaluates the bumps once, as
        (F, C) values and (F, C, d) gradients at its barycenters, and builds
        the cell weight (m m^T) psi and the (d, C, C) stack of velocity
        differences once.  Since each phi = e_k w G has one nonzero
        component k, its momentum pair term is a (C, C) product against
        that weight,

            sum_{c,c'} [(m m^T) psi]_cc' (phi_k(b_c) - phi_k(b_c'))
                                         (u_ck - u_c'k),

        formed for the whole battery as one (F, C, C) array; the
        dissipation D(t) sums the same weight against the squared velocity
        differences.  Returns (continuity, momentum, margins): one residual
        per function for each identity, and the margins as an array over
        the snapshot times.
        """
        if len(grids) != len(self.times):
            raise ValueError(
                f"{len(grids)} field grids for {len(self.times)} snapshot times"
            )
        _check_grids(grids)
        comp = self.comp
        cvals = np.zeros(self.w.shape)
        tvals = np.zeros(self.w.shape)
        svals = np.zeros(self.w.shape)
        energy = np.zeros(len(self.times))
        dissipation = np.zeros(len(self.times))
        # t = 0 moments of the first grid; initial_atoms replaces the momentum one
        mass0 = mom0 = np.zeros(len(comp))
        for k, grid in enumerate(grids):
            b, u, m = grid.barycenter, grid.velocity, grid.mass
            if not m.size:
                continue
            g, grad = self._bumps(b)
            w, wp = self.w[:, k, None], self.wp[:, k, None]
            val = w * g
            flux = wp * g + np.einsum("...j,...j->...", u, w[..., None] * grad)
            uc = u.T[comp]
            cvals[:, k] = (m * flux).sum(axis=1)
            tvals[:, k] = (m * (uc * flux)).sum(axis=1)
            if k == 0:
                mass0 = (m * val).sum(axis=1)
                mom0 = (m * (uc * val)).sum(axis=1)
            weight = (m[:, None] * m[None, :]) * kernel(distances(b), alpha)
            du = np.stack([outer_diff(col) for col in u.T])
            inner = val[:, :, None] - val[:, None, :]
            inner *= du[comp]
            inner *= weight
            svals[:, k] = inner.sum(axis=(1, 2))
            s2 = du[0] * du[0]
            for dc in du[1:]:
                s2 += dc * dc
            energy[k] = (m * np.einsum("ij,ij->i", u, u)).sum()
            dissipation[k] = (weight * s2).sum()
        if initial_atoms is not None:
            x0, v0, w0 = (np.asarray(a, float) for a in initial_atoms)
            val0 = self.w[:, 0, None] * self._bumps(x0)[0]
            mom0 = (w0 * (v0.T[comp] * val0)).sum(axis=1)
        times = self.times
        continuity = [
            float(abs(p + np.trapezoid(a, times))) for p, a in zip(mass0, cvals)
        ]
        momentum = [
            float(abs(p + np.trapezoid(a, times) - 0.5 * np.trapezoid(b, times)))
            for p, a, b in zip(mom0, tvals, svals)
        ]
        margins = (energy[0] - energy) - cumulative_trapezoid(times, dissipation)
        return continuity, momentum, margins


def continuity_residuals(times, grids, phis) -> list:
    """continuity_residual for every MacroTestFunction of a battery, through
    a FieldBattery of the functions (as components 0)."""
    vphis = [VectorTestFunction(phi, 0) for phi in phis]
    # the continuity identity has no pair term: any kernel exponent serves
    return FieldBattery(vphis, times).residuals(grids, 1.0)[0]


def continuity_residual(times, grids, phi: MacroTestFunction) -> float:
    """Defect of the weak continuity identity on binned fields:

        | phi(0) mass term + int sum_c m_c (d_t phi + u_c . grad phi)(b_c) dt |

    with phi evaluated at cell barycenters.  Converges to zero as the
    trajectory, grid, and time step refine together.
    """
    return continuity_residuals(times, grids, [phi])[0]


def momentum_residuals(times, grids, phis, alpha: float, initial_atoms=None) -> list:
    """momentum_residual for every VectorTestFunction of a battery, through
    a FieldBattery of the functions."""
    return FieldBattery(phis, times).residuals(grids, alpha, initial_atoms)[1]


def momentum_residual(
    times,
    grids,
    phi: VectorTestFunction,
    alpha: float,
    initial_atoms=None,
) -> float:
    """Defect of the weak momentum identity on binned fields:

        | phi(0) momentum term + int transport dt - 1/2 int singular dt |

    transport(t) = sum_c m_c u_c . (d_t phi + (u_c . grad) phi)(b_c)
    singular(t)  = sum_{c != c'} m_c m_c' psi(b_c, b_c')
                   (phi(b_c) - phi(b_c')) . (u_c - u_c')

    If initial_atoms = (x0, v0, w0) is given the t = 0 moment uses the
    unbinned atoms; otherwise the first grid supplies it.
    """
    return momentum_residuals(times, grids, [phi], alpha, initial_atoms)[0]


def dissipation_margin(times, grids, alpha: float) -> np.ndarray:
    """Energy drop minus integrated pair dissipation, per snapshot, on
    binned fields:

        margin(t) = (E(0) - E(t)) - int_0^t D(s) ds
        E(t) = sum_c m_c |u_c|^2
        D(t) = sum_{c != c'} m_c m_c' |u_c - u_c'|^2 psi(b_c, b_c')

    Binning discards in-cell variance from E, so on refined grids the
    margin approaches the true (nonnegative) defect from above or below
    only in the limit; values are reported raw.  This is the field pass of
    a FieldBattery without test functions.
    """
    return FieldBattery([], times).residuals(grids, alpha)[2]
