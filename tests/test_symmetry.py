"""Symmetries of the model as exact gates.

The reflection (x, v) -> (-x, -v) maps a solution to a solution.  Every
step of the integrator either commutes with negation exactly (pair
differences, the force, the stage sums) or reads only distances and
speeds (the kernel, the stiff weights, the error norm and the step caps),
so the reflected run takes the same steps and gives the negated
trajectory bit for bit.  Through meanfield.snapshot_stats, the energy,
the pair sums D and D_alpha and the closest pair read distances and speeds
alone, so they are equal, and the momentum negates.  The binned columns
are left out: the cells are anchored at the origin, and the reflection
maps a cell [kh, (k+1)h) onto (-(k+1)h, -kh], a different cell of the
grid.

In d = 2 swapping the two coordinates and reflecting one axis are exact
too: a squared distance is a sum of two squares, which commutes, and each
coordinate's arithmetic is its own.  Both runs take the same steps and
give the mapped trajectory bit for bit, the pair instruments are equal,
the momentum maps like a velocity, and so does the flat distance between
the spatial marginals at t = 0 and t = T, whose cost |p - q| the map
keeps.

The kinetic weak residuals keep their bits under the reflection when the
battery is reflected with the run: each test function's centres negate,
its bumps and velocity plateau are even, and its linear factor v_k is
odd, which flips the sign of the defect but not of its magnitude.
"""

import numpy as np
import pytest

from flocklab.dynamics import ModelParams, ParticleState, integrate
from flocklab.meanfield import InitialSpec, sample_initial, snapshot_stats
from flocklab.measures import EmpiricalMeasure, dbl
from flocklab.weakform import TestFunction, kinetic_battery, kinetic_weak_residuals

# crossing streams: a uniform box of halfwidth and seed per dimension, one
# half of it moving at +0.5 e1 and the other at -0.5 e1
STREAMS = {1: (1.0, 4), 2: (0.8, 1)}


def crossing_streams(d: int, n: int):
    halfwidth, seed = STREAMS[d]
    e1 = [0.5] + [0.0] * (d - 1)
    spec = InitialSpec(
        d=d,
        density="uniform-box",
        density_params={"center": [0.0] * d, "halfwidth": halfwidth},
        velocity="two-speed-split",
        velocity_params={"values": [e1, [-c for c in e1]], "fraction": 0.5},
        seed=seed,
    )
    return sample_initial(spec, n, bound=2.0)


def assert_run_maps(d: int, g):
    """Integrates crossing streams and their image under the linear
    isometry g (acting on the last axis) and gates the image: the same
    steps, the mapped trajectory bit for bit, equal energy, D, D_alpha and
    r_min, and the mapped momentum.  Returns both trajectories."""
    n, horizon = 100, 0.05
    x0, v0 = crossing_streams(d, n)
    params = ModelParams(d=d, alpha=1.5, N=n, T=horizon, M=2.0)

    def run(x, v):
        return integrate(
            ParticleState(0.0, x, v),
            params,
            tol=1e-6,
            snapshot_times=np.linspace(0.0, horizon, 6),
        )

    traj, image = run(x0, v0), run(g(x0), g(v0))
    assert np.array_equal(image.step_t, traj.step_t)
    assert np.array_equal(image.times, traj.times)
    assert np.array_equal(image.x, g(traj.x))
    assert np.array_equal(image.v, g(traj.v))

    stats, mapped = (snapshot_stats(t, slice(None), ()) for t in (traj, image))
    for name in ("energy", "enstrophy", "dalpha", "min_distance"):
        assert np.array_equal(getattr(mapped, name), getattr(stats, name)), name
    assert np.array_equal(mapped.momentum, g(stats.momentum))
    # the streams cross: the run is not a trivial drift
    assert stats.enstrophy.max() > 0.0 and len(traj.step_t) > 5
    return traj, image


@pytest.mark.parametrize("d", [1, 2])
def test_reflection_negates_the_run_and_keeps_the_pair_instruments(d):
    assert_run_maps(d, np.negative)


def reflected(phi: TestFunction) -> TestFunction:
    """The test function (x, v) -> phi(-x, -v) up to its sign: the same
    function with both centres negated."""
    return TestFunction(
        phi.d, phi.t_end, -phi.x_center, phi.x_radius, phi.v_kind,
        v_plateau=phi.v_plateau, v_component=phi.v_component,
        v_center=-phi.v_center, v_radius=phi.v_radius,
    )


@pytest.mark.parametrize("d", [1, 2])
def test_reflection_keeps_the_kinetic_residuals(d):
    traj, image = assert_run_maps(d, np.negative)
    battery = kinetic_battery(d, traj.params.T, 2.0, size=24, seed=3)
    kinds = {phi.v_kind for phi in battery}
    assert kinds == {"const", "linear", "energy", "bump"}
    want = kinetic_weak_residuals(traj, battery)
    got = kinetic_weak_residuals(image, [reflected(phi) for phi in battery])
    assert got == want
    assert max(want) > 0.0


# linear isometries of the plane, on the last axis of (..., 2) arrays
PLANE_MAPS = {
    "coordinate-swap": lambda a: a[..., ::-1],
    "axis-reflection": lambda a: a * np.array([-1.0, 1.0]),
}


@pytest.mark.parametrize("name", sorted(PLANE_MAPS))
def test_plane_isometry_maps_the_run_and_keeps_the_instruments(name):
    traj, image = assert_run_maps(2, PLANE_MAPS[name])
    w = np.full(traj.params.N, 1.0 / traj.params.N)

    def drift(t):
        return dbl(EmpiricalMeasure(t.x[0], w), EmpiricalMeasure(t.x[-1], w))

    assert drift(image) == drift(traj) > 0.0
