"""Acceptance battery: every guarantee of the laboratory at its stated
tolerance, one test and one printed PASS line per guarantee (run with -s
to see the measured numbers on success).

The twenty-run ensemble and the field-residual study are module scoped;
the whole battery totals about a minute on a laptop.
"""

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from flocklab import cli
from flocklab.diagnostics import dalpha, enstrophy, eta_monokineticity
from flocklab.dynamics import ModelParams, ParticleState, integrate
from flocklab.meanfield import (
    InitialSpec,
    local_fields,
    pair_alignment_study,
    sample_initial,
)
from flocklab.measures import EmpiricalMeasure, dbl
from flocklab.weakform import (
    FieldBattery,
    dissipation_margin,
    kinetic_battery,
    kinetic_weak_residual,
    vector_battery,
)
from oracles import (
    beta_eta,
    beta_quadrature,
    energy_balance_residual,
    from_particles,
    line_invariant,
    marginal_x,
    mk_index,
    mp_margin,
    sf_modulus,
)

ENSEMBLE_TIMES = np.linspace(0.0, 0.8, 17)
ENSEMBLE_ALPHAS = (1.0, 1.5, 2.0)


def spearman(n_values, values):
    return float(stats.spearmanr(n_values, values).statistic)


@pytest.fixture(scope="module")
def ensemble():
    """Twenty seeded runs covering d in {1, 2} and alpha in {1, 1.5, 2},
    N = 12, T = 0.8, tol = 1e-9, snapshots every 0.05."""
    runs = []
    for i in range(20):
        d = 1 if i % 2 == 0 else 2
        alpha = ENSEMBLE_ALPHAS[i % 3]
        if d == 1:
            vel = {"amplitude": [0.4], "wavenumber": [2.0]}
        else:
            vel = {"amplitude": [0.4, 0.3], "wavenumber": [2.0, 3.0]}
        spec = InitialSpec(
            d=d,
            density="uniform-box",
            density_params={"center": [0.0] * d, "halfwidth": 0.8},
            velocity="sinusoid",
            velocity_params=vel,
            seed=100 + i,
        )
        x0, v0 = sample_initial(spec, 12, bound=2.0)
        params = ModelParams(d=d, alpha=alpha, N=12, T=0.8, M=2.0)
        runs.append(
            integrate(
                ParticleState(0.0, x0, v0),
                params,
                tol=1e-9,
                snapshot_times=ENSEMBLE_TIMES,
            )
        )
    return runs


def test_energy_balance_and_snapshot_refinement():
    # smooth ten-particle profile; trapezoid error dominates the 1e-9
    # integration tolerance, so halving the spacing divides the defect by 4
    start = time.perf_counter()
    x = np.linspace(-0.6, 0.6, 10)[:, None]
    v = 0.4 * np.sin(1.2 * x + 0.3)
    params = ModelParams(d=1, alpha=1.0, N=10, T=1.0, M=2.0)
    res = {}
    for count in (200, 399):
        traj = integrate(
            ParticleState(0.0, x, v),
            params,
            tol=1e-9,
            snapshot_times=np.linspace(0.0, 1.0, count),
        )
        res[count] = energy_balance_residual(traj)
    elapsed = time.perf_counter() - start
    ratio = res[200] / res[399]
    assert res[200] <= 1e-6
    assert ratio >= 3.0
    assert elapsed < 5.0
    print(
        f"PASS energy balance: residual {res[200]:.2e} <= 1e-06, "
        f"refinement ratio {ratio:.2f} >= 3, {elapsed:.2f}s"
    )


def test_speed_and_position_envelopes(ensemble):
    worst_speed = -np.inf
    worst_pos = -np.inf
    for traj in ensemble:
        # per snapshot: the largest speed and the largest |x|
        speed = np.sqrt((traj.v**2).sum(axis=2)).max(axis=1)
        pos = np.sqrt((traj.x**2).sum(axis=2)).max(axis=1)
        worst_speed = max(worst_speed, float((speed - speed[0]).max()))
        envelope = pos[0] + traj.times * speed[0]
        worst_pos = max(worst_pos, float((pos - envelope).max()))
    assert worst_speed <= 1e-8
    assert worst_pos <= 1e-8
    print(
        f"PASS propagation envelopes: speed excess {worst_speed:+.2e}, "
        f"position excess {worst_pos:+.2e} (<= 1e-08)"
    )


def test_collision_free_accepted_steps(ensemble):
    # the fixture itself fails the module if any run raises StepCollapse
    assert {t.params.alpha for t in ensemble} == set(ENSEMBLE_ALPHAS)
    worst = min(float(np.min(t.step_min_dist)) for t in ensemble)
    assert worst > 0.0
    print(
        f"PASS collision avoidance: min pair distance over all accepted "
        f"steps {worst:.2e} > 0, alphas {sorted(ENSEMBLE_ALPHAS)}"
    )


def block_scale_runs():
    """Two N = 200 runs, well above one 32-column block of the force sums:
    the stream-2d recipe (d = 2, two counter-streaming halves) and the top
    rung of refine-1d (d = 1, a sinusoid with stiff steps)."""
    stream = InitialSpec(
        d=2,
        density="uniform-box",
        density_params={"center": [0.0, 0.0], "halfwidth": 0.8},
        velocity="two-speed-split",
        velocity_params={"values": [[0.5, 0.0], [-0.5, 0.0]], "fraction": 0.5},
        seed=1,
    )
    rung = InitialSpec(
        d=1,
        density="uniform-box",
        density_params={"center": [0.0], "halfwidth": 1.0},
        velocity="sinusoid",
        velocity_params={"amplitude": [0.05], "wavenumber": [120.0]},
        seed=2,
    )
    runs = []
    for spec, alpha, tol, count in ((stream, 1.5, 1e-8, 9), (rung, 1.0, 1e-6, 65)):
        x0, v0 = sample_initial(spec, 200, bound=2.0)
        runs.append(integrate(
            ParticleState(0.0, x0, v0),
            ModelParams(d=spec.d, alpha=alpha, N=200, T=0.25, M=2.0),
            tol=tol,
            snapshot_times=np.linspace(0.0, 0.25, count),
        ))
    return runs


def test_momentum_conservation(ensemble):
    worst = -np.inf
    for traj in [*ensemble, *block_scale_runs()]:
        p = traj.v.sum(axis=1)  # (S, d) total momentum per snapshot
        n, m = traj.params.N, traj.params.M
        drift = np.sqrt(((p - p[0]) ** 2).sum(axis=1))
        worst = max(worst, float(drift.max()) / (n * m))
    assert worst <= 1e-10
    print(
        f"PASS momentum conservation: worst drift {worst:.2e} <= 1e-10 per N*M "
        f"(N = 12 ensemble, N = 200 in d = 1 and 2)"
    )


def test_line_invariant_and_order():
    # in d = 1 each I_i = v_i - (1/N) sum_j Psi(x_j - x_i) is constant in
    # time (Psi' = psi); crossing streams press many pairs together, and
    # the particles never pass one another
    start = time.perf_counter()
    n, alpha, tol = 100, 1.5, 1e-6
    spec = InitialSpec(
        d=1,
        density="uniform-box",
        density_params={"center": [0.0], "halfwidth": 1.0},
        velocity="two-speed-split",
        velocity_params={"values": [[0.5], [-0.5]], "fraction": 0.5},
        seed=4,
    )
    x0, v0 = sample_initial(spec, n, bound=2.0)
    traj = integrate(
        ParticleState(0.0, x0, v0),
        ModelParams(d=1, alpha=alpha, N=n, T=0.1, M=2.0),
        tol=tol,
        snapshot_times=np.linspace(0.0, 0.1, 11),
    )
    inv = np.array([line_invariant(x, v, alpha) for x, v in zip(traj.x, traj.v)])
    drift = float(np.abs(inv - inv[0]).max())
    ratio = drift / (tol * float(np.abs(inv[0]).max()))
    order = np.argsort(traj.x[0, :, 0])
    for x in traj.x:
        assert (np.diff(x[order, 0]) > 0.0).all()
    elapsed = time.perf_counter() - start
    assert ratio <= 50.0
    print(
        f"PASS line invariant: max |I(t) - I(0)| = {drift:.2e}, "
        f"{ratio:.1f} <= 50 tol max|I(0)|, order kept, {elapsed:.2f}s"
    )


def test_flat_metric_closed_form_and_axioms():
    start = time.perf_counter()
    rng = np.random.default_rng(501)

    worst_atom = 0.0
    for _ in range(50):
        a = rng.uniform(-3.0, 3.0, 3)
        b = rng.uniform(-3.0, 3.0, 3)
        got = dbl(
            EmpiricalMeasure(a[None, :], [1.0]),
            EmpiricalMeasure(b[None, :], [1.0]),
        )
        want = min(float(np.linalg.norm(a - b)), 2.0)
        worst_atom = max(worst_atom, abs(got - want))
    assert worst_atom <= 1e-8

    def draw():
        k = int(rng.integers(1, 4))
        pts = rng.uniform(-2.0, 2.0, (k, 2))
        w = rng.uniform(0.2, 1.0, k)
        return EmpiricalMeasure(pts, w / w.sum())

    worst_sym = 0.0
    worst_tri = -np.inf
    worst_self = 0.0
    for _ in range(100):
        mu, nu, kappa = draw(), draw(), draw()
        d_mn = dbl(mu, nu)
        worst_sym = max(worst_sym, abs(d_mn - dbl(nu, mu)))
        worst_tri = max(worst_tri, d_mn - (dbl(mu, kappa) + dbl(kappa, nu)))
        worst_self = max(worst_self, dbl(mu, mu))
    elapsed = time.perf_counter() - start
    assert worst_sym <= 1e-9
    assert worst_tri <= 1e-9
    assert worst_self <= 1e-12
    assert elapsed < 10.0
    print(
        f"PASS flat metric: atom defect {worst_atom:.1e} <= 1e-08, "
        f"symmetry {worst_sym:.1e}, triangle excess {worst_tri:+.1e} "
        f"(<= 1e-09), self {worst_self:.1e} <= 1e-12, {elapsed:.1f}s"
    )


def test_density_time_lipschitz(ensemble):
    rng = np.random.default_rng(601)
    worst = -np.inf
    for traj in ensemble:
        d = traj.params.d
        m = traj.params.M
        margs = [marginal_x(from_particles(s), d) for s in traj]
        times = traj.times
        for _ in range(100):
            i, j = rng.choice(len(margs), 2, replace=False)
            gap = dbl(margs[i], margs[j]) - 2.0 * m * abs(times[i] - times[j])
            worst = max(worst, gap)
    assert worst <= 1e-6
    print(
        f"PASS density time-Lipschitz: worst excess over 2M|t1-t2| "
        f"{worst:+.2e} <= 1e-06 (2000 snapshot pairs)"
    )


def test_colocated_deviation_domination():
    rng = np.random.default_rng(701)
    worst = -np.inf
    for case in range(50):
        d = 1 if case % 2 == 0 else 2
        sites = rng.uniform(-1.0, 1.0, (int(rng.integers(2, 4)), d))
        k = int(rng.integers(4, 9))
        pos = sites[rng.integers(0, len(sites), k)]  # forced duplicates
        vel = rng.uniform(-1.0, 1.0, (k, d))
        w = rng.uniform(0.2, 1.0, k)
        mu = EmpiricalMeasure(np.hstack([pos, vel]), w / w.sum())
        for eta in (1.0, 0.1, 0.01):
            for alpha in (1.0, 2.0):
                e = eta_monokineticity(mu, d, alpha, eta)
                bound = 2.0 ** (alpha + 1.0) * dalpha(mu, d, alpha, eta)
                assert e <= bound * (1.0 + 1e-12) + 1e-300
                if bound > 0:
                    worst = max(worst, e / bound)
    print(
        f"PASS convexity chain: deviation moment <= 2^(alpha+1) "
        f"dissipation moment on 50 colocated measures, worst ratio "
        f"{worst:.3f} (rel tol 1e-12)"
    )


def test_kernel_normalization_closed_forms():
    cases = [(1, 1.5), (1, 2.0), (1, 3.0), (2, 3.0)]
    worst_oracle = 0.0
    worst_scale = 0.0
    for d, alpha in cases:
        scaled = []
        for eta in (0.1, 0.01, 0.001):
            got = beta_eta(eta, alpha, d)
            want = beta_quadrature(eta, alpha, d)
            worst_oracle = max(worst_oracle, abs(got - want) / want)
            scaled.append(eta**alpha * got / eta**d)
        spread = (max(scaled) - min(scaled)) / max(scaled)
        worst_scale = max(worst_scale, spread)
    assert worst_oracle <= 1e-8
    assert worst_scale <= 1e-9
    print(
        f"PASS kernel normalization: oracle defect {worst_oracle:.1e} "
        f"<= 1e-08, scaling spread {worst_scale:.1e} <= 1e-09"
    )


def test_monokineticity_index_refines_with_n():
    # sub-cell oscillation: the kernel's near field destroys it at a rate
    # that grows with N, so the binned index falls as the cloud refines
    start = time.perf_counter()
    spec = InitialSpec(
        d=1,
        density="uniform-box",
        density_params={"center": [0.0], "halfwidth": 1.0},
        velocity="sinusoid",
        velocity_params={"amplitude": [0.05], "wavenumber": [120.0]},
        seed=3,
    )
    n_list = (50, 100, 200, 400)
    mks = []
    for n in n_list:
        x0, v0 = sample_initial(spec, n, bound=2.0)
        params = ModelParams(d=1, alpha=1.0, N=n, T=0.5, M=2.0)
        traj = integrate(
            ParticleState(0.0, x0, v0),
            params,
            tol=1e-6,
            snapshot_times=[0.0, 0.5],
        )
        mks.append(mk_index(from_particles(traj.state_at(0.5)), 1, 0.125))
    elapsed = time.perf_counter() - start
    corr = spearman(n_list, mks)
    assert mks[-1] < mks[0]
    assert corr < 0.0
    assert elapsed < 120.0
    print(
        f"PASS monokineticity trend: mk {['%.2e' % m for m in mks]}, "
        f"rank corr {corr:+.2f} < 0, N=400 below N=50, {elapsed:.1f}s"
    )


def test_kinetic_residual_refinement_order():
    x = np.linspace(-0.5, 0.5, 10)[:, None]
    v = 0.4 * np.cos(3.0 * x)
    params = ModelParams(d=1, alpha=1.5, N=10, T=0.5, M=2.0)
    battery = kinetic_battery(1, 0.5, 2.0, size=24, seed=0)
    res = {}
    for count in (26, 51, 101):
        traj = integrate(
            ParticleState(0.0, x, v),
            params,
            tol=1e-11,
            snapshot_times=np.linspace(0.0, 0.5, count),
        )
        res[count] = max(kinetic_weak_residual(traj, phi) for phi in battery)
    order = float(np.log2(res[26] / res[101]) / 2.0)
    assert order >= 1.8
    print(
        f"PASS kinetic residual refinement: residuals "
        f"{['%.2e' % res[c] for c in (26, 51, 101)]}, order {order:.2f} >= 1.8"
    )


@pytest.fixture(scope="module")
def field_study():
    """One oscillatory recipe integrated at N in {50,...,400} on a dense
    snapshot grid, with binned fields, residuals, and margins per N."""
    spec = InitialSpec(
        d=1,
        density="uniform-box",
        density_params={"center": [0.0], "halfwidth": 1.0},
        velocity="sinusoid",
        velocity_params={"amplitude": [0.05], "wavenumber": [120.0]},
        seed=2,
    )
    h, horizon, alpha = 0.125, 0.5, 1.0
    grid_t = np.linspace(0.0, horizon, 1025)
    probe_idx = (256, 512, 768, 1024)
    vb = vector_battery(1, horizon, 2.0, size=24, seed=0)
    out = {"n_list": (50, 100, 200, 400), "cont": [], "mom": [],
           "margin": [], "bound": [], "probe_idx": probe_idx}
    for n in out["n_list"]:
        x0, v0 = sample_initial(spec, n, bound=2.0)
        params = ModelParams(d=1, alpha=alpha, N=n, T=horizon, M=2.0)
        traj = integrate(
            ParticleState(0.0, x0, v0),
            params,
            tol=1e-6,
            snapshot_times=grid_t,
        )
        times = traj.times
        measures = [from_particles(s) for s in traj]
        grids = [local_fields(mu, 1, h) for mu in measures]
        w0 = np.full(n, 1.0 / n)
        # continuity tests with the scalar parts of vb, the macro battery
        cont, mom, _ = FieldBattery(vb, times).residuals(
            grids, alpha, initial_atoms=(x0, v0, w0)
        )
        out["cont"].append(max(cont))
        out["mom"].append(max(mom))
        margins = dissipation_margin(times, grids, alpha)
        # quadrature estimate: binned-away kinetic energy at the two ends
        # plus a trapezoid curvature term for the dissipation integral
        cells = [
            EmpiricalMeasure(np.hstack([g.barycenter, g.velocity]), g.mass)
            for g in grids
        ]
        dee = np.array([enstrophy(mu, 1, alpha) for mu in cells])
        dt = times[1] - times[0]
        curv = np.zeros(len(times))
        curv[2:] = np.cumsum(np.abs(np.diff(dee, 2)))
        mk0 = mk_index(measures[0], 1, h)
        for k in probe_idx:
            mk_t = mk_index(measures[k], 1, h)
            out["margin"].append(float(margins[k]))
            out["bound"].append(mk0 + mk_t + dt / 12.0 * float(curv[k]))
    return out


def test_field_residual_trends(field_study):
    n_list = field_study["n_list"]
    cont = field_study["cont"]
    mom = field_study["mom"]
    c_corr = spearman(n_list, cont)
    m_corr = spearman(n_list, mom)
    assert cont[-1] < cont[0]
    assert mom[-1] < mom[0]
    assert c_corr < 0.0
    assert m_corr < 0.0
    worst = min(
        m + b for m, b in zip(field_study["margin"], field_study["bound"])
    )
    assert worst >= 0.0
    print(
        f"PASS field residual trends: continuity "
        f"{['%.1e' % c for c in cont]} (corr {c_corr:+.2f}), momentum "
        f"{['%.1e' % m for m in mom]} (corr {m_corr:+.2f}), worst margin "
        f"plus estimate {worst:+.2e} >= 0"
    )


def test_unwind_modulus_and_mass_propagation(ensemble):
    rng = np.random.default_rng(801)
    pairs = []
    for _ in range(10):
        traj = ensemble[int(rng.integers(0, len(ensemble)))]
        t0 = float(rng.choice([0.1, 0.2, 0.3, 0.4, 0.5]))
        c = rng.uniform(-0.5, 0.5, traj.params.d)
        s = float(rng.uniform(0.3, 1.0))

        def phi_v(vv, c=c, s=s):
            return np.exp(-((vv - c) ** 2).sum(axis=1) / (2.0 * s * s))

        probes = [t0 + 0.2, t0 + 0.1, t0 + 0.05]
        out = sf_modulus(traj, t0, phi_v, probes)
        assert out[-1] < out[0]
        pairs.append((out[0], out[-1]))

    worst = np.inf
    grid = [float(t) for t in ENSEMBLE_TIMES]
    for _ in range(50):
        traj = ensemble[int(rng.integers(0, len(ensemble)))]
        t0, t1 = sorted(rng.choice(grid, 2, replace=False))
        center = rng.uniform(-1.2, 1.2, traj.params.d)
        radius = float(rng.uniform(0.1, 1.0))
        worst = min(worst, mp_margin(traj, t0, t1, center, radius))
    assert worst >= -1e-12
    print(
        f"PASS transport probes: unwind modulus shrank on 10/10 triples "
        f"(median far/near {np.median([a / max(b, 1e-300) for a, b in pairs]):.1f}x), "
        f"worst mass-propagation margin {worst:+.2e} >= -1e-12"
    )


def test_pair_halflife_and_dissipation_budget():
    eps_list = (0.5, 0.25, 0.125, 0.0625)
    study = pair_alignment_study(
        eps_list, [0.5], [-0.5], alpha=1.0, horizon=2.0,
        grid_points=16384, tol=1e-10,
    )
    halves = [row.t_half for row in study.rows]
    budget = 0.25 + 1e-6  # initial kinetic energy of the pair
    assert all(h is not None for h in halves)
    assert all(a > b for a, b in zip(halves, halves[1:]))
    assert all(row.d_integral <= budget for row in study.rows)
    assert all(row.min_distance > 0.0 for row in study.rows)
    print(
        f"PASS pair alignment: t_half {['%.4f' % h for h in halves]} "
        f"strictly decreasing, dissipation integral <= {budget} at every eps"
    )


def _stripped(path):
    doc = json.loads(path.read_text())
    doc.pop("generated_at", None)
    return json.dumps(doc, sort_keys=True)


def test_cli_reports_reproducible(tmp_path):
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "d": 1, "alpha": 1.5, "N": 8, "T": 0.4, "M": 2.0,
        "seed": 17, "tol": 1e-8, "snapshots": 9,
        "initial": {
            "density": "uniform-box",
            "density_params": {"center": [0.0], "halfwidth": 0.8},
            "velocity": "sinusoid",
            "velocity_params": {"amplitude": [0.4], "wavenumber": [2.0]},
        },
    }))
    mf_cfg = tmp_path / "mf.json"
    mf_cfg.write_text(json.dumps({
        "d": 1, "alpha": 1.0, "horizon": 0.2, "bound": 2.0, "seed": 21,
        "n_list": [6, 12, 24], "probe_times": [0.1, 0.2], "tol": 1e-7,
        "quad_points": 9, "battery_size": 4,
        "initial": {
            "density": "uniform-box",
            "density_params": {"center": [0.0], "halfwidth": 0.8},
            "velocity": "sinusoid",
            "velocity_params": {"amplitude": [0.4], "wavenumber": [2.0]},
        },
    }))

    repeat = {"a": [], "b": []}
    # only mfstudy takes --threads
    threads = {**repeat, "t1": ["--threads", "1"], "t4": ["--threads", "4"]}
    for args, out, runs in (
        (["simulate", "--config", str(sim_cfg)], "s", repeat),
        (["mfstudy", "--config", str(mf_cfg)], "m", threads),
    ):
        dirs = {key: tmp_path / f"{out}_{key}" for key in runs}
        for key, extra in runs.items():
            code = cli.main(args + ["--out", str(dirs[key])] + extra)
            assert code == 0
        for left, right in zip(list(runs)[::2], list(runs)[1::2]):
            left_files = sorted(p for p in dirs[left].rglob("*") if p.is_file())
            assert left_files
            for lf in left_files:
                rf = dirs[right] / lf.relative_to(dirs[left])
                if lf.suffix == ".json":
                    assert _stripped(lf) == _stripped(rf)
                else:
                    assert lf.read_bytes() == rf.read_bytes()
    print(
        "PASS reproducibility: simulate and study reports byte-identical "
        "across repeat runs and mfstudy thread counts 1 vs 4 (timestamp excluded)"
    )


def _cli_env() -> dict:
    """The environment of a CLI subprocess: this package's source first on
    the path, and one OpenBLAS thread."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        ),
    }


def _assert_same_reports(left: Path, right: Path) -> int:
    """Every file under left equals its twin under right, byte for byte
    apart from a JSON report's generated_at; returns the count."""
    files = sorted(p for p in left.rglob("*") if p.is_file())
    assert files
    for lf in files:
        rf = right / lf.relative_to(left)
        if lf.suffix == ".json":
            assert _stripped(lf) == _stripped(rf), lf.name
        else:
            assert lf.read_bytes() == rf.read_bytes(), lf.name
    return len(files)


def _openblas_on_x86() -> bool:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 only prints its config
        return False
    blas = config["Build Dependencies"].get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower() and (
        platform.machine().lower() in ("x86_64", "amd64")
    )


@pytest.mark.skipif(not _openblas_on_x86(), reason="needs OpenBLAS on x86-64")
def test_cli_reports_do_not_depend_on_the_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE picks the kernel OpenBLAS would pick on another
    # CPU; a product through the BLAS sums in that kernel's order
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "d": 2, "alpha": 1.5, "N": 100, "T": 0.05, "M": 2.0,
        "seed": 3, "tol": 1e-7, "snapshots": 3,
        "initial": {
            "density": "uniform-box",
            "density_params": {"center": [0.1, -0.2], "halfwidth": 0.8},
            "velocity": "sinusoid",
            "velocity_params": {
                "amplitude": [0.4, -0.3], "wavenumber": [2.0, 3.0],
            },
        },
    }))
    mf_cfg = tmp_path / "mf.json"
    mf_cfg.write_text(json.dumps({
        "d": 1, "alpha": 1.5, "horizon": 0.1, "bound": 2.0, "seed": 0,
        "n_list": [25, 50, 100], "probe_times": [0.0, 0.05, 0.1],
        "tol": 1e-7, "quad_points": 9, "battery_size": 4,
        "initial": {
            "density": "uniform-box",
            "density_params": {"center": [0.0], "halfwidth": 0.8},
            "velocity": "sinusoid",
            "velocity_params": {"amplitude": [0.4], "wavenumber": [2.0]},
        },
    }))
    base = _cli_env()
    base.pop("OPENBLAS_CORETYPE", None)
    kernels = {"default": base, "nehalem": {**base, "OPENBLAS_CORETYPE": "Nehalem"}}
    compared = 0
    for command, cfg in (("simulate", sim_cfg), ("mfstudy", mf_cfg)):
        dirs = {key: tmp_path / f"{command}_{key}" for key in kernels}
        for key, env in kernels.items():
            run = subprocess.run(
                [sys.executable, "-m", "flocklab.cli", command,
                 "--config", str(cfg), "--out", str(dirs[key])],
                env=env, capture_output=True, text=True,
            )
            assert run.returncode == 0, run.stdout + run.stderr
        compared += _assert_same_reports(dirs["default"], dirs["nehalem"])
    print(
        f"PASS BLAS independence: {compared} simulate and study files "
        "byte-identical under the default and the Nehalem OpenBLAS kernel "
        "(timestamp excluded)"
    )


# numpy's run-time dispatch: this switches its AVX-512 loops off, and it
# runs its AVX2 ones instead
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def _simd_found(env) -> list:
    """The SIMD targets numpy reports as found in a process with env."""
    probe = (
        "import json, numpy; print(json.dumps(numpy.show_config(mode='dicts')"
        ".get('SIMD Extensions', {}).get('found', [])))"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    return json.loads(run.stdout) if run.returncode == 0 else []


@pytest.fixture(scope="module")
def dispatch_envs():
    """Environments for the default loops and for the AVX2 loops; skips
    unless numpy finds X86_V4 here and NO_AVX512 switches it off."""
    base = _cli_env()
    base.pop("NPY_DISABLE_CPU_FEATURES", None)
    envs = {"default": base, "avx2": {**base, **NO_AVX512}}
    if "X86_V4" not in _simd_found(base):
        pytest.skip("numpy finds no X86_V4 (AVX-512) loops on this CPU")
    if "X86_V4" in _simd_found(envs["avx2"]):
        pytest.skip("NPY_DISABLE_CPU_FEATURES does not switch X86_V4 off")
    return envs


def _dispatch_case(case, tmp: Path) -> list:
    """Write the inputs of one case to tmp; return its command lines."""
    if case == "simulate-1d":
        # psi at alpha = 1 is np.power(r, -1.0), which both loops round
        # alike, and without a stiff step no exp runs
        (tmp / "sim.json").write_text(json.dumps({
            "d": 1, "alpha": 1.0, "N": 50, "T": 0.05, "M": 2.0,
            "seed": 3, "tol": 1e-6, "snapshots": 5,
            "initial": {
                "density": "uniform-box",
                "density_params": {"center": [0.0], "halfwidth": 0.8},
                "velocity": "sinusoid",
                "velocity_params": {"amplitude": [0.3], "wavenumber": [2.0]},
            },
        }))
        return [["simulate", "--config", "sim.json", "--out", "sim"]]
    if case == "dbl-2d":
        rng = np.random.default_rng(11)
        for name in ("a", "b"):
            pts = rng.uniform(-1.0, 1.0, (60, 2))
            rows = [f"{1 / 60!r},{p!r},{q!r}\n" for p, q in pts.tolist()]
            (tmp / f"{name}.csv").write_text("weight,p1,p2\n" + "".join(rows))
        return [["dbl", "a.csv", "b.csv", "--out", "dbl"]]
    # case "simulate-2d+residual": alpha = 1.5 in d = 2, then the battery
    (tmp / "sim.json").write_text(json.dumps({
        "d": 2, "alpha": 1.5, "N": 60, "T": 0.1, "M": 2.0,
        "seed": 1, "tol": 1e-8, "snapshots": 5,
        "initial": {
            "density": "uniform-box",
            "density_params": {"center": [0.0, 0.0], "halfwidth": 0.8},
            "velocity": "two-speed-split",
            "velocity_params": {
                "values": [[0.5, 0.0], [-0.5, 0.0]], "fraction": 0.5,
            },
        },
    }))
    (tmp / "res.json").write_text(json.dumps({
        "input": "sim/trajectory", "battery_size": 8, "battery_seed": 0,
        "h": 0.2,
    }))
    return [
        ["simulate", "--config", "sim.json", "--out", "sim"],
        ["residual", "--config", "res.json", "--out", "res"],
    ]


@pytest.mark.parametrize("case", [
    "simulate-1d",
    "dbl-2d",
    pytest.param("simulate-2d+residual", marks=pytest.mark.xfail(
        strict=True,
        reason="np.power, np.exp, np.log and np.log1p round differently in "
        "numpy's AVX-512 and AVX2 loops (ROADMAP item 16)",
    )),
])
def test_cli_reports_across_numpy_simd_dispatch(case, tmp_path, dispatch_envs):
    # the same command lines under numpy's default (AVX-512) loops and its
    # AVX2 loops; every report must keep its bytes, generated_at aside
    dirs = {}
    for key, env in dispatch_envs.items():
        dirs[key] = tmp_path / key
        dirs[key].mkdir()
        for argv in _dispatch_case(case, dirs[key]):
            run = subprocess.run(
                [sys.executable, "-m", "flocklab.cli", *argv],
                cwd=dirs[key], env=env, capture_output=True, text=True,
            )
            assert run.returncode == 0, run.stdout + run.stderr
    compared = _assert_same_reports(dirs["default"], dirs["avx2"])
    print(
        f"PASS SIMD dispatch: {case}, {compared} files byte-identical "
        "under numpy's AVX-512 and AVX2 loops (timestamp excluded)"
    )
