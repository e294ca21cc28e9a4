"""One format for every report and table: the canonical JSON of the report
dataclasses and the bytes of each CSV writer."""

import math

import numpy as np
import pytest

from flocklab import storage
from flocklab.diagnostics import DiagnosticsReport
from flocklab.dynamics import ModelParams, Trajectory
from flocklab.meanfield import PairRow, PairStudy, StudyReport, StudyRow
from flocklab.measures import EmpiricalMeasure

from oracles import diagnostics_report_dict, pair_study_dict, study_report_dict

INF, NAN = math.inf, math.nan
COLLAPSE = {"error": "StepCollapse", "message": "step collapse", "detail": {"t": 0.1}}
CAP = {"error": "SupportTooLarge", "message": "support cap", "detail": {"cap": 10}}


def diagnostics_report():
    return DiagnosticsReport(
        times=np.array([0.0, 0.5]),
        energy=np.array([0.25, 0.2]),
        enstrophy=np.array([0.1, NAN]),
        dalpha=np.array([0.3, 0.2]),
        momentum=np.array([[0.1, -0.2], [0.1, -0.2]]),
        min_distance=np.array([INF, 0.75]),
        h_ladder=(0.5, 0.25),
        mkvar=np.array([[0.0, 0.0], [1e-3, 5e-4]]),
        max_cell_mass=np.array([[0.5, 0.25], [1.0, 0.5]]),
        energy_residual=1e-17,
    )


def study_report():
    # n = 16 failed, so the (8, 16) pair is None; the (4, 8) flat distance
    # failed with a record while its energies compare
    ok = dict(
        enstrophy=(0.75, NAN),
        dalpha=(0.5, 0.25),
        min_distance=(0.125, INF),
        mk=((0.1, 0.05, 0.0), (0.2, 0.1, INF)),
        max_cell_mass=((0.5, 0.25, 0.25), (0.5, 0.5, 0.25)),
        continuity=1e-3,
        margins=(0.0, -1e-4),
        error=None,
    )
    failed = dict(
        energy=None, enstrophy=None, dalpha=None, min_distance=None,
        mk=None, max_cell_mass=None, continuity=None,
        momentum=None, margins=None, error=COLLAPSE,
    )
    rows = (
        StudyRow(n=4, energy=(0.5, 0.25), momentum=2e-3, **ok),
        StudyRow(n=8, energy=(0.5, 0.125), momentum=NAN, **ok),
        StudyRow(n=16, **failed),
    )
    return StudyReport(
        n_list=(4, 8, 16),
        probe_times=(0.0, 0.5),
        h=0.25,
        h_ladder=(0.5, 0.25, 0.125),
        alpha=1.5,
        horizon=0.5,
        bound=2.0,
        seed=3,
        rows=rows,
        dbl_cauchy=(None, None),
        dbl_errors=(CAP, None),
        energy_cauchy=((0.0, 0.125), None),
    )


def pair_study():
    return PairStudy(
        alpha=1.5,
        horizon=8.0,
        rows=(
            PairRow(0.5, 1.25, 0.6931471805599453, 0.01, 0.4, None),
            PairRow(0.25, None, None, INF, 0.2, None),
            PairRow(0.125, None, None, None, None, COLLAPSE),
        ),
    )


@pytest.mark.parametrize(
    "report, oracle",
    [
        (diagnostics_report(), diagnostics_report_dict),
        (study_report(), study_report_dict),
        (pair_study(), pair_study_dict),
    ],
)
def test_dataclass_json_equals_the_to_dict_path(report, oracle):
    payload = {"config": {"seed": 3}, "report": report}
    want = {"config": {"seed": 3}, "report": oracle(report)}
    assert storage.canonical_json(payload) == storage.canonical_json(want)


def test_report_types_carry_no_serializer():
    for cls in (DiagnosticsReport, StudyRow, StudyReport, PairRow, PairStudy):
        assert not hasattr(cls, "to_dict")


def test_trajectory_csv_bytes(tmp_path):
    traj = Trajectory(
        params=ModelParams(d=1, alpha=1.5, N=2, T=0.5, M=2.0),
        times=np.array([0.0, 0.5]),
        x=np.array([[[-0.5], [0.5]], [[-0.25], [0.25]]]),
        v=np.array([[[0.5], [-0.5]], [[0.1], [-0.25]]]),
        step_t=np.zeros(0),
        step_h=np.zeros(0),
        step_err=np.zeros(0),
        step_min_dist=np.zeros(0),
        tol=1e-6,
    )
    csv_path, _ = storage.save_trajectory(traj, tmp_path / "run")
    assert csv_path.read_bytes() == (
        b"t,i,x1,v1\r\n"
        b"0.0,0,-0.5,0.5\r\n"
        b"0.0,1,0.5,-0.5\r\n"
        b"0.5,0,-0.25,0.1\r\n"
        b"0.5,1,0.25,-0.25\r\n"
    )


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
@pytest.mark.parametrize("field", ["x", "v"])
def test_trajectory_rejects_non_finite_snapshots(field, bad):
    # the CSV writer would leave an empty cell that no loader can read back
    arrays = {"x": np.array([[[-0.5], [0.5]]]), "v": np.array([[[0.5], [-0.5]]])}
    arrays[field][0, 1, 0] = bad
    with pytest.raises(ValueError, match="must be finite"):
        Trajectory(
            params=ModelParams(d=1, alpha=1.5, N=2, T=0.5, M=2.0),
            times=np.array([0.0]),
            step_t=np.zeros(0),
            step_h=np.zeros(0),
            step_err=np.zeros(0),
            step_min_dist=np.zeros(0),
            tol=1e-6,
            **arrays,
        )


def test_measure_csv_bytes(tmp_path):
    mu = EmpiricalMeasure(np.array([[0.5, -1.0], [0.0, 2.0]]), np.array([0.1, 1 / 3]))
    path = storage.save_measure(mu, tmp_path / "m.csv")
    assert path.read_bytes() == (
        b"weight,p1,p2\r\n"
        b"0.1,0.5,-1.0\r\n"
        b"0.3333333333333333,0.0,2.0\r\n"
    )


def test_diagnostics_csv_bytes(tmp_path):
    path = storage.save_diagnostics_csv(diagnostics_report(), tmp_path / "d.csv")
    assert path.read_bytes() == (
        b"t,E,D,Dalpha,mom1,mom2,min_distance\r\n"
        b"0.0,0.25,0.1,0.3,0.1,-0.2,\r\n"
        b"0.5,0.2,,0.2,0.1,-0.2,0.75\r\n"
    )


def test_study_table_bytes(tmp_path):
    paths = storage.save_study_tables(study_report(), tmp_path)
    got = {p.stem: p.read_bytes() for p in paths}
    assert list(got) == [
        "energy", "mk", "max_cell_mass", "margins", "residuals",
        "dbl_cauchy", "energy_cauchy",
    ]
    assert got["energy"] == (
        b"n,t,E\r\n"
        b"4,0.0,0.5\r\n4,0.5,0.25\r\n"
        b"8,0.0,0.5\r\n8,0.5,0.125\r\n"
        b"16,0.0,\r\n16,0.5,\r\n"
    )
    assert got["mk"] == (
        b"n,t,h,mk\r\n"
        + b"4,0.0,0.5,0.1\r\n4,0.0,0.25,0.05\r\n4,0.0,0.125,0.0\r\n"
        b"4,0.5,0.5,0.2\r\n4,0.5,0.25,0.1\r\n4,0.5,0.125,\r\n"
        + b"8,0.0,0.5,0.1\r\n8,0.0,0.25,0.05\r\n8,0.0,0.125,0.0\r\n"
        b"8,0.5,0.5,0.2\r\n8,0.5,0.25,0.1\r\n8,0.5,0.125,\r\n"
        + b"16,0.0,0.5,\r\n16,0.0,0.25,\r\n16,0.0,0.125,\r\n"
        b"16,0.5,0.5,\r\n16,0.5,0.25,\r\n16,0.5,0.125,\r\n"
    )
    assert got["max_cell_mass"].startswith(
        b"n,t,h,mass\r\n4,0.0,0.5,0.5\r\n4,0.0,0.25,0.25\r\n"
    )
    assert got["max_cell_mass"].endswith(b"16,0.5,0.125,\r\n")
    assert got["margins"] == (
        b"n,t,margin\r\n"
        b"4,0.0,0.0\r\n4,0.5,-0.0001\r\n"
        b"8,0.0,0.0\r\n8,0.5,-0.0001\r\n"
        b"16,0.0,\r\n16,0.5,\r\n"
    )
    assert got["residuals"] == (
        b"n,continuity,momentum\r\n"
        b"4,0.001,0.002\r\n"
        b"8,0.001,\r\n"
        b"16,,\r\n"
    )
    assert got["dbl_cauchy"] == (
        b"n_lo,n_hi,t,dbl\r\n"
        b"4,8,0.0,\r\n4,8,0.5,\r\n"
        b"8,16,0.0,\r\n8,16,0.5,\r\n"
    )
    assert got["energy_cauchy"] == (
        b"n_lo,n_hi,t,dE\r\n"
        b"4,8,0.0,0.0\r\n4,8,0.5,0.125\r\n"
        b"8,16,0.0,\r\n8,16,0.5,\r\n"
    )


def test_pair_table_bytes(tmp_path):
    path = storage.save_pair_table(pair_study(), tmp_path / "pairs.csv")
    assert path.read_bytes() == (
        b"eps,t_half,kernel_integral,d_integral,min_distance\r\n"
        b"0.5,1.25,0.6931471805599453,0.01,0.4\r\n"
        b"0.25,,,,0.2\r\n"
        b"0.125,,,,\r\n"
    )
