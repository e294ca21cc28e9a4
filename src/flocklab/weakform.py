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

The test-function classes are parameter records; the battery tables
(_tabulate, _bumps, TestFunction._h) are their only evaluators, and the
pointwise evaluation of one function is a test oracle (tests/oracles.py).

Residuals integrate the transported test function against snapshot data
with trapezoid quadrature in time.  For an exact solution each residual
vanishes up to quadrature and binning error; the pair interaction term
always enters with coefficient -1/2 after symmetrizing the force over
ordered pairs.

Every residual is one weak identity, evaluated by one pass over weighted
atoms (x, v, m), one set per snapshot, for a whole battery at once.
kinetic_weak_residuals passes the particles at m = 1/N with the H of each
TestFunction.  FieldBattery.residuals passes the cells of field grids
(any object exposing h, d and the cell arrays barycenter (C, d), velocity
(C, d) and mass (C,), such as meanfield.FieldGrid; zero-mass cells add
nothing) with H = 1 for the continuity identity and H = v_k for the
momentum identity; the same pass gives the energy and pair dissipation
behind the dissipation margins.  The pair terms read one pull vector per
snapshot, so no array has a battery axis and two atom axes.  The
single-function forms run these two on a battery of one function
(dissipation_margin on an empty one).  Each function is reduced along its
own row, so a battery gives the per-function results bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import Trajectory
from .errors import GridMismatch
from .pairs import distances, kernel, relative_sums
from .rng import CounterRNG

_BUMP_LIP = 96.0 / (25.0 * math.sqrt(5.0))  # max of 6 s (1-s^2)^2
_PLATEAU_LIP = 15.0 / 8.0


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


def _positive(name: str, value) -> float:
    value = float(value)
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite")
    return value


def _center(name: str, center, d: int) -> np.ndarray:
    center = np.asarray(center, float)
    if center.shape != (d,) or not np.isfinite(center).all():
        raise ValueError(f"{name} must be a finite array of shape ({d},)")
    return center


def _component(name: str, value, d: int) -> int:
    if not (isinstance(value, (int, np.integer)) and 0 <= value < d):
        raise ValueError(f"{name} must be an integer in [0, {d}), not {value!r}")
    return int(value)


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
    scaling.  t_end, x_radius and v_radius must be positive and finite,
    0 <= r_in < r_out for v_plateau = (r_in, r_out), each center a
    finite array of shape (d,), and v_component an integer in [0, d);
    other values raise ValueError.
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
        self.d = d
        self.t_end = _positive("t_end", t_end)
        self.x_center = _center("x_center", x_center, d)
        self.x_radius = _positive("x_radius", x_radius)
        self.v_kind = v_kind
        self.v_plateau = (float(v_plateau[0]), float(v_plateau[1]))
        self.v_component = _component("v_component", v_component, d)
        self.v_center = _center(
            "v_center", np.zeros(d) if v_center is None else v_center, d
        )
        self.v_radius = (
            _positive("v_radius", v_radius) if v_kind == "bump" else float(v_radius)
        )

        r_in, r_out = self.v_plateau
        if not 0.0 <= r_in < r_out < math.inf:
            raise ValueError("v_plateau must satisfy 0 <= r_in < r_out, finite")
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

    def _h(self, v: np.ndarray, plateau):
        """H and grad_v H at v (n, d), given _plateau(v, *v_plateau)."""
        if self.v_kind == "bump":
            return _bump(v - self.v_center[None, :], self.v_radius**2)
        p, gp = plateau
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


class MacroTestFunction:
    """Scalar space-time test function w(t) G(x) for the macro equations,
    rescaled so that max(sup |phi|, Lip_x) = 1.  t_end and x_radius must be
    positive and finite, and x_center a finite array of shape (d,)."""

    def __init__(self, d: int, t_end: float, x_center, x_radius: float):
        self.d = d
        self.t_end = _positive("t_end", t_end)
        self.x_center = _center("x_center", x_center, d)
        self.x_radius = _positive("x_radius", x_radius)
        lip = _BUMP_LIP / self.x_radius
        self.scale = 1.0 / max(1.0, lip)
        self.sup_value = self.scale
        self.lip_x = lip * self.scale
        self.sup_dt = (3.0 / self.t_end) * self.scale


class VectorTestFunction:
    """One-component vector test function phi = e_k w(t) G(x); base holds
    w G and its bounds."""

    def __init__(self, base: MacroTestFunction, component: int):
        self.base = base
        self.component = _component("component", component, base.d)


# ---- batteries ----


def _draw_support(sub: CounterRNG, d: int, T: float, M: float):
    """Bump center in [-M, M]^d, bump radius and window end t_end in
    [0.6 T, T), drawn in that order.  The radius lies in
    [min(0.4 M, r_cap), r_cap), where r_cap keeps the ball around the
    center inside (T + 1) B(0, 2M)."""
    center = sub.uniform(d, -M, M)
    r_cap = min((1.0 + T) * M, 2.0 * (1.0 + T) * M - math.hypot(*center))
    if r_cap <= 0.0:
        raise ValueError("bump center leaves no room inside (T + 1) B(0, 2M)")
    radius = float(sub.uniform(1, min(0.4 * M, r_cap), r_cap)[0])
    return center, radius, float(sub.uniform(1, 0.6 * T, T)[0])


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
        center, radius, t_end = _draw_support(sub, d, T, M)
        common = dict(
            d=d, t_end=t_end, x_center=center, x_radius=radius, v_plateau=(M, 2.0 * M)
        )
        if kind == "bump":
            vc = sub.uniform(d, -M / 2, M / 2)
            vr = float(sub.uniform(1, 0.5 * M, M)[0])
            out.append(TestFunction(v_kind=kind, v_center=vc, v_radius=vr, **common))
        elif kind in ("const", "energy"):
            out.append(TestFunction(v_kind=kind, **common))
        else:
            out.append(TestFunction(v_kind="linear", v_component=kind[1], **common))
    return out


def macro_battery(d: int, T: float, M: float, size: int = 24, seed: int = 0):
    rng = CounterRNG(seed)
    supports = (_draw_support(rng.spawn(i), d, T, M) for i in range(size))
    return [MacroTestFunction(d, t, c, r) for c, r, t in supports]


def vector_battery(d: int, T: float, M: float, size: int = 24, seed: int = 0):
    scalars = macro_battery(d, T, M, size=size, seed=seed)
    return [VectorTestFunction(base, i % d) for i, base in enumerate(scalars)]


# ---- the weak identity over weighted atoms ----


def cumulative_trapezoid(t, y) -> np.ndarray:
    """Trapezoid integrals of y over t from t[0] to each t[k]; t and y are
    1-D arrays of one length."""
    t = np.asarray(t, float)
    y = np.asarray(y, float)
    if t.ndim != 1 or y.shape != t.shape:
        raise ValueError(f"need t and y of one length, got {t.shape} and {y.shape}")
    inc = 0.5 * (y[1:] + y[:-1]) * np.diff(t)
    return np.concatenate([[0.0], np.cumsum(inc)])


def _tabulate(phis, times):
    """The tables of a battery on its snapshot times: the scaled windows
    scale * w(t) and scale * w'(t) as (F, K) arrays, and the centers and
    squared radii of the x-bumps."""
    times = np.asarray(times, float)
    windows = [[_window(t, phi.t_end) for t in times] for phi in phis]
    windows = np.array(windows).reshape(len(phis), len(times), 2)
    scale = np.array([phi.scale for phi in phis]).reshape(-1, 1)
    center = np.array([phi.x_center for phi in phis])
    r2 = np.array([phi.x_radius**2 for phi in phis]).reshape(-1, 1)
    return scale * windows[..., 0], scale * windows[..., 1], center, r2


def _check_dimension(phis, d: int):
    """Raise ValueError unless every test function has the data's
    dimension d."""
    for phi in phis:
        if phi.d != d:
            raise ValueError(
                f"test function of dimension {phi.d} on data of dimension {d}"
            )


def _bumps(tables, x: np.ndarray):
    """The x-bumps of a battery at points x (n, d): values (F, n) and
    gradients (F, n, d)."""
    center, r2 = tables[2:]
    return _bump(x - center.reshape(len(r2), 1, x.shape[1]), r2)


def _weak_terms(atoms, tables, factors, alpha: float):
    """The terms of the weak identity of F test functions
    phi_f = w_f(t) G_f(x) H_f(v), in one pass over the weighted atoms
    (x (n, d), v (n, d), m (n,)) of each snapshot.

    tables is _tabulate of the functions on the snapshot times.
    factors(v, P) gives H_f(v_i) and grad_v H_f(v_i) . P_i, both of shape
    (..., F, n), for the pull vector P_i = sum_j m_j psi_ij (v_j - v_i),
    one relative_sums call per snapshot.  With g = grad_v phi, the
    symmetry of psi turns the pair sums into atom sums:

        phi0 = sum_i m_i phi(0, x_i, v_i)                          (..., F)
        A    = sum_i m_i (d_t phi + v_i . grad_x phi)(x_i, v_i)    (..., F, K)
        B    = sum_{i,j} m_i m_j psi_ij (g_i - g_j) . (v_i - v_j)
             = -2 sum_i m_i g_i . P_i                              (..., F, K)
        E    = sum_i m_i |v_i|^2                                   (K,)
        D    = sum_{i,j} m_i m_j psi_ij |v_i - v_j|^2
             = -2 sum_i m_i v_i . P_i                              (K,)

    Each function is reduced along its own row.  A snapshot without atoms
    contributes zeros.
    """
    w_tab, wp_tab = tables[:2]
    a_vals, b_vals = [], []
    energy, dissipation = np.empty(w_tab.shape[1]), np.empty(w_tab.shape[1])
    for k, (x, v, m) in enumerate(atoms):
        g, grad = _bumps(tables, x)
        w, wp = w_tab[:, k, None], wp_tab[:, k, None]
        val = w * g
        flux = wp * g + np.einsum("...j,...j->...", v, w[..., None] * grad)
        weight = kernel(distances(x), alpha)
        weight *= m
        pull = relative_sums(weight, v)
        h, dh = factors(v, pull)
        if k == 0:
            phi0 = (m * (h * val)).sum(axis=-1)
        a_vals.append((m * (h * flux)).sum(axis=-1))
        b_vals.append(-2.0 * (m * (val * dh)).sum(axis=-1))
        energy[k] = (m * np.einsum("ij,ij->i", v, v)).sum()
        dissipation[k] = -2.0 * (m * np.einsum("ij,ij->i", v, pull)).sum()
    return phi0, np.stack(a_vals, -1), np.stack(b_vals, -1), energy, dissipation


def _defects(phi0, a_vals, b_vals, times) -> list:
    """|phi0 + int A dt - 1/2 int B dt| per function, by trapezoids."""
    return [
        float(abs(p + np.trapezoid(a, times) - 0.5 * np.trapezoid(b, times)))
        for p, a, b in zip(phi0, a_vals, b_vals)
    ]


# ---- residuals on trajectories ----


def kinetic_weak_residual(traj: Trajectory, phi: TestFunction) -> float:
    """Defect of the phase-space weak identity along one trajectory:

        | -phi(0) term - int (d_t phi + v . grad_x phi) d mu dt
          + 1/2 int sum_{pairs} (grad_v phi - grad_v phi') . (v - v') psi |

    evaluated on the snapshot grid with trapezoid quadrature.  Zero for an
    exact solution up to time-quadrature error.
    """
    return kinetic_weak_residuals(traj, [phi])[0]


def kinetic_weak_residuals(traj: Trajectory, phis) -> list:
    """kinetic_weak_residual for every test function of a battery: the
    weak-identity pass over the particles at weights 1/N.  The velocity
    plateau of each distinct v_plateau is built once per snapshot and
    shared by the functions that use it.
    """
    phis = list(phis)
    _check_dimension(phis, traj.params.d)
    m = np.full(traj.params.N, 1.0 / traj.params.N)

    def factors(v, pull):
        plateaus = {p: _plateau(v, *p) for p in {phi.v_plateau for phi in phis}}
        parts = [phi._h(v, plateaus[phi.v_plateau]) for phi in phis]
        h = np.array([p[0] for p in parts]).reshape(len(phis), len(v))
        gh = np.array([p[1] for p in parts]).reshape(len(phis), *v.shape)
        return h, (gh * pull).sum(axis=-1)

    atoms = ((x, v, m) for x, v in zip(traj.x, traj.v))
    terms = _weak_terms(atoms, _tabulate(phis, traj.times), factors, traj.params.alpha)
    return _defects(*terms[:3], traj.times)


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
    """A battery of F vector test functions e_k w(t) G(x), tabulated once
    on a fixed grid of snapshot times, so one battery serves every
    trajectory sampled on those times.

    The continuity identity tests with the scalar parts w G (velocity
    factor H = 1), the momentum identity with the vector functions
    (H = v_k), so one weak-identity pass over the cells serves both.
    The times must be finite and strictly increasing, as on a Trajectory.
    """

    def __init__(self, phis, times):
        self.times = np.asarray(times, float)
        if self.times.ndim != 1 or not (
            np.isfinite(self.times).all() and np.all(np.diff(self.times) > 0.0)
        ):
            raise ValueError("snapshot times must be finite and strictly increasing")
        self.bases = [phi.base for phi in phis]
        self.comp = [phi.component for phi in phis]
        self.tables = _tabulate(self.bases, self.times)

    def residuals(self, grids, alpha: float, initial_atoms=None):
        """continuity_residual and momentum_residual of every function and
        dissipation_margin per snapshot, from one pass over the cells
        (barycenter, velocity, mass) of the field grids.

        For phi = e_k w G, grad_v (v_k) . P = P_k, so each momentum pair
        term is -2 sum_c m_c w G(b_c) P_ck.  Returns (continuity, momentum,
        margins): one residual per function for each identity, and the
        margins as an array over the snapshot times.
        """
        if len(grids) != len(self.times):
            raise ValueError(
                f"{len(grids)} field grids for {len(self.times)} snapshot times"
            )
        d = _check_grids(grids)[1]
        _check_dimension(self.bases, d)
        comp = self.comp

        def factors(v, pull):
            vk = v.T[comp]
            h = np.stack([np.ones_like(vk), vk])
            return h, np.stack([np.zeros_like(vk), pull.T[comp]])

        atoms = ((g.barycenter, g.velocity, g.mass) for g in grids)
        terms = _weak_terms(atoms, self.tables, factors, alpha)
        phi0, a_vals, b_vals, energy, dissipation = terms
        if initial_atoms is not None:
            # the unbinned atoms give the t = 0 moment of the momentum rows
            x0, v0, w0 = (np.asarray(a, float) for a in initial_atoms)
            n = x0.shape[:1]
            if (x0.shape, v0.shape, w0.shape) != (n + (d,), n + (d,), n):
                raise ValueError(
                    f"initial atoms of shapes {x0.shape}, {v0.shape}, {w0.shape}"
                    f" on a battery of dimension {d}: need {n + (d,)} twice, {n}"
                )
            val0 = self.tables[0][:, 0, None] * _bumps(self.tables, x0)[0]
            phi0[1] = (w0 * (v0.T[comp] * val0)).sum(axis=1)
        continuity, momentum = (
            _defects(*rows, self.times) for rows in zip(phi0, a_vals, b_vals)
        )
        margins = (energy[0] - energy) - cumulative_trapezoid(self.times, dissipation)
        return continuity, momentum, margins


def continuity_residual(times, grids, phi: MacroTestFunction) -> float:
    """Defect of the weak continuity identity on binned fields:

        | phi(0) mass term + int sum_c m_c (d_t phi + u_c . grad phi)(b_c) dt |

    with phi evaluated at cell barycenters.  Converges to zero as the
    trajectory, grid, and time step refine together.
    """
    battery = FieldBattery([VectorTestFunction(phi, 0)], times)
    # the continuity identity has no pair term: any kernel exponent serves
    return battery.residuals(grids, 1.0)[0][0]


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
    return FieldBattery([phi], times).residuals(grids, alpha, initial_atoms)[1][0]


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
