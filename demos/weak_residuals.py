"""Weak-identity residuals: the kinetic law on atoms, the fluid laws on bins.

Part one integrates a ten-particle run and tests it against a battery of
smooth compactly supported test functions in the kinetic weak identity.
The residual is pure time quadrature and falls at second order in the
snapshot spacing.

Part two bins a larger cloud into width-h cells and evaluates the
continuity and momentum identities on the binned fields.  Those residuals
measure how hydrodynamic the cloud is at scale h; they shrink as N grows.
"""

import numpy as np

from flocklab.dynamics import ModelParams, ParticleState, integrate
from flocklab.meanfield import InitialSpec, field_residuals, sample_initial
from flocklab.weakform import (
    FieldBattery,
    kinetic_battery,
    kinetic_weak_residuals,
    vector_battery,
)

# ---- kinetic identity on an atomic trajectory ----
x = np.linspace(-0.5, 0.5, 10)[:, None]
v = 0.4 * np.cos(3.0 * x)
params = ModelParams(d=1, alpha=1.5, N=10, T=0.5, M=2.0)
battery = kinetic_battery(1, 0.5, 2.0, size=12, seed=0)
print("snapshots  kinetic residual (battery max)")
for count in (26, 51, 101):
    traj = integrate(
        ParticleState(0.0, x, v),
        params,
        tol=1e-11,
        snapshot_times=np.linspace(0.0, 0.5, count),
    )
    r = max(kinetic_weak_residuals(traj, battery))
    print(f"{count:9d}  {r:.3e}")

# ---- fluid identities on binned fields ----
spec = InitialSpec(
    d=1,
    density="uniform-box",
    density_params={"center": [0.0], "halfwidth": 1.0},
    velocity="sinusoid",
    velocity_params={"amplitude": [0.05], "wavenumber": [120.0]},
    seed=2,
)
H, T = 0.125, 0.5
times = np.linspace(0.0, T, 1025)
# 24 vector test functions, seed 0, drawn from the runs' d, T and M
fields = FieldBattery(vector_battery(1, T, 2.0, 24, 0), times)
print("\n    N  continuity   momentum")
for n in (50, 100, 200, 400):
    x0, v0 = sample_initial(spec, n, bound=2.0)
    traj = integrate(
        ParticleState(0.0, x0, v0),
        ModelParams(d=1, alpha=1.0, N=n, T=T, M=2.0),
        tol=1e-6,
        snapshot_times=times,
    )
    _, cont, mom, _ = field_residuals(traj, H, fields)
    print(f"{n:5d}  {max(cont):.3e}    {max(mom):.3e}")
