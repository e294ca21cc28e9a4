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
"""

import numpy as np
import pytest

from flocklab.dynamics import ModelParams, ParticleState, integrate
from flocklab.meanfield import InitialSpec, sample_initial, snapshot_stats

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


@pytest.mark.parametrize("d", [1, 2])
def test_reflection_negates_the_run_and_keeps_the_pair_instruments(d):
    n, alpha, horizon = 100, 1.5, 0.05
    x0, v0 = crossing_streams(d, n)
    params = ModelParams(d=d, alpha=alpha, N=n, T=horizon, M=2.0)

    def run(x, v):
        return integrate(
            ParticleState(0.0, x, v),
            params,
            tol=1e-6,
            snapshot_times=np.linspace(0.0, horizon, 6),
        )

    traj, mirror = run(x0, v0), run(-x0, -v0)
    assert np.array_equal(mirror.step_t, traj.step_t)
    assert np.array_equal(mirror.times, traj.times)
    assert np.array_equal(mirror.x, -traj.x)
    assert np.array_equal(mirror.v, -traj.v)

    stats, back = (snapshot_stats(t, slice(None), ()) for t in (traj, mirror))
    for name in ("energy", "enstrophy", "dalpha", "min_distance"):
        assert np.array_equal(getattr(back, name), getattr(stats, name)), name
    assert np.array_equal(back.momentum, -stats.momentum)
    # the streams cross: the run is not a trivial drift
    assert stats.enstrophy.max() > 0.0 and len(traj.step_t) > 5
