"""Command-line round trips, determinism, and error reporting."""

import functools
import itertools
import json
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocklab import _flatlp, cli, schemas, storage
from flocklab.dynamics import ModelParams, ParticleState, integrate
from flocklab.measures import EmpiricalMeasure

from oracles import w1_line


def sim_config(tmp_path, **overrides):
    cfg = {
        "d": 1,
        "alpha": 1.5,
        "N": 6,
        "T": 0.3,
        "M": 2.0,
        "seed": 42,
        "tol": 1e-6,
        "snapshots": 9,
        "initial": {
            "density": "uniform-box",
            "density_params": {"center": [0.0], "halfwidth": 0.8},
            "velocity": "linear-shear",
            "velocity_params": {"base": [0.1], "gradient": [[0.3]]},
        },
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def stripped(path):
    doc = json.loads(path.read_text())
    doc.pop("generated_at", None)
    return json.dumps(doc, sort_keys=True)


# ---- storage round trips ----


def test_trajectory_roundtrip(tmp_path):
    params = ModelParams(d=2, alpha=1.0, N=3, T=0.2, M=2.0)
    x = np.array([[0.0, 0.1], [0.5, -0.2], [-0.4, 0.3]])
    v = np.array([[0.1, 0.0], [-0.2, 0.1], [0.0, -0.1]])
    traj = integrate(
        ParticleState(0.0, x, v),
        params,
        tol=1e-8,
        snapshot_times=np.linspace(0.0, 0.2, 5),
    )
    storage.save_trajectory(traj, tmp_path / "run")
    back = storage.load_trajectory(tmp_path / "run")
    assert back.params == params
    assert back.tol == traj.tol
    assert len(back) == 5
    # the repr round trip is exact
    for name in ("times", "x", "v"):
        assert np.array_equal(getattr(back, name), getattr(traj, name))


def test_trajectory_arrays_are_read_only_and_states_view_them(tmp_path):
    params = ModelParams(d=2, alpha=1.5, N=4, T=0.2, M=2.0)
    x = np.array([[0.0, 0.1], [0.5, -0.2], [-0.4, 0.3], [0.2, 0.6]])
    traj = integrate(
        ParticleState(0.0, x, -0.5 * x), params, snapshot_times=[0.05, 0.1]
    )
    storage.save_trajectory(traj, tmp_path / "run")
    back = storage.load_trajectory(tmp_path / "run")
    for tr in (traj, back):
        assert tr.x.shape == tr.v.shape == (4, 4, 2)
        assert not any(a.flags.writeable for a in (tr.times, tr.x, tr.v))
        st = tr.state_at(0.1)
        assert st.t == 0.1
        assert np.shares_memory(st.x, tr.x) and np.shares_memory(st.v, tr.v)
        assert np.array_equal(st.x, tr.x[2])


def test_stiff_step_counts_stay_in_memory(tmp_path):
    params = ModelParams(d=1, alpha=1.0, N=3, T=0.5, M=2.0)
    x = np.array([[0.0], [1e-4], [0.6]])
    v = np.array([[0.3], [-0.2], [0.1]])
    traj = integrate(ParticleState(0.0, x, v), params, tol=1e-8)
    assert len(traj.step_stiff) == len(traj.step_t)
    assert traj.step_stiff.any()
    _, json_path = storage.save_trajectory(traj, tmp_path / "run")
    assert "stiff" not in json_path.read_text()
    assert storage.load_trajectory(tmp_path / "run").step_stiff.size == 0


def saved_trajectory(tmp_path):
    params = ModelParams(d=1, alpha=1.0, N=5, T=0.2, M=2.0)
    x = np.array([[0.0], [0.3], [0.5], [-0.4], [0.9]])
    v = np.array([[0.1], [-0.2], [0.0], [0.2], [-0.1]])
    traj = integrate(
        ParticleState(0.0, x, v), params, snapshot_times=np.linspace(0, 0.2, 3)
    )
    return storage.save_trajectory(traj, tmp_path / "run")


def test_trajectory_json_holds_no_integrator_mode_keys(tmp_path):
    _, json_path = saved_trajectory(tmp_path)
    doc = json.loads(json_path.read_text())
    assert "fixed_step" not in doc and "kernel_floor" not in doc


@pytest.mark.parametrize("cut, message", [
    (1, "particles 0..4"), (2, "particles 0..4"), (5, "holds 2 snapshots"),
    (0.5, "line 16"),
])
def test_trajectory_with_missing_rows_is_rejected(tmp_path, cut, message):
    # cut whole rows off the end, or half of the last row
    csv_path, _ = saved_trajectory(tmp_path)
    text = csv_path.read_text()
    if cut < 1:
        csv_path.write_text(text[: text.rindex(",")] + "\n")
    else:
        lines = text.splitlines(keepends=True)
        csv_path.write_text("".join(lines[:-cut]))
    with pytest.raises(ValueError, match=message):
        storage.load_trajectory(tmp_path / "run")


def test_trajectory_with_a_repeated_row_is_rejected(tmp_path):
    csv_path, _ = saved_trajectory(tmp_path)
    lines = csv_path.read_text().splitlines(keepends=True)
    lines[2] = lines[1]  # particle 0 twice, particle 1 missing
    csv_path.write_text("".join(lines))
    with pytest.raises(ValueError, match="particles 0..4"):
        storage.load_trajectory(tmp_path / "run")


def test_trajectory_out_of_time_order_is_rejected(tmp_path, capsys):
    # the snapshots at t = 0.1 and t = 0.2 swapped in the CSV: every other
    # check passes, and the residuals would integrate over times 0, 0.2, 0.1
    csv_path, _ = saved_trajectory(tmp_path)
    lines = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text("".join(lines[:6] + lines[11:] + lines[6:11]))
    message = "snapshot times must be strictly increasing"
    with pytest.raises(ValueError, match=message):
        storage.load_trajectory(tmp_path / "run")
    for command, extra in (("diagnose", {}), ("residual", {"battery_size": 2})):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({"input": str(tmp_path / "run"), **extra}))
        out = tmp_path / command
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert doc == {"error": {"type": "ValueError", "message": message}}
        assert json.loads((out / "error.json").read_text()) == doc


@pytest.mark.parametrize("column, value", [(2, "nan"), (3, "nan"), (3, "-inf")])
def test_trajectory_with_a_non_finite_coordinate_is_rejected(tmp_path, capsys,
                                                             column, value):
    # one position (column 2) or velocity (column 3) of the t = 0.1
    # snapshot set to nan or inf: every other check passes, and the
    # diagnostics would write empty cells and the residuals null
    csv_path, _ = saved_trajectory(tmp_path)
    lines = csv_path.read_text().splitlines(keepends=True)
    cells = lines[8].rstrip("\n").split(",")
    cells[column] = value
    lines[8] = ",".join(cells) + "\n"
    csv_path.write_text("".join(lines))
    message = "snapshot positions and velocities must be finite"
    with pytest.raises(ValueError, match=message):
        storage.load_trajectory(tmp_path / "run")
    for command, extra in (("diagnose", {}), ("residual", {"battery_size": 2})):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({"input": str(tmp_path / "run"), **extra}))
        out = tmp_path / command
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert doc == {"error": {"type": "ValueError", "message": message}}
        assert json.loads((out / "error.json").read_text()) == doc


def test_trajectory_without_snapshots_is_rejected(tmp_path, capsys):
    # the header alone and a summary that agrees: every other check passes,
    # and the diagnostics would index snapshot 0 and the residuals find no
    # initial moment
    csv_path, json_path = saved_trajectory(tmp_path)
    csv_path.write_text(csv_path.read_text().splitlines(keepends=True)[0])
    doc = json.loads(json_path.read_text())
    doc["snapshot_count"] = 0
    json_path.write_text(json.dumps(doc))
    message = "a trajectory needs at least one snapshot"
    with pytest.raises(ValueError, match=message):
        storage.load_trajectory(tmp_path / "run")
    for command, extra in (("diagnose", {}), ("residual", {"battery_size": 2})):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({"input": str(tmp_path / "run"), **extra}))
        out = tmp_path / command
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert doc == {"error": {"type": "ValueError", "message": message}}
        assert json.loads((out / "error.json").read_text()) == doc


def test_residual_of_one_snapshot_is_rejected(tmp_path, capsys):
    # the t = 0 rows alone load as a trajectory, but no weak identity
    # can be integrated over one time
    csv_path, json_path = saved_trajectory(tmp_path)
    lines = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text("".join(lines[:6]))  # the header and 5 particles
    doc = json.loads(json_path.read_text())
    doc["snapshot_count"] = 1
    json_path.write_text(json.dumps(doc))
    assert len(storage.load_trajectory(tmp_path / "run")) == 1
    cfg = tmp_path / "residual.json"
    cfg.write_text(json.dumps({"input": str(tmp_path / "run"), "h": 0.2}))
    out = tmp_path / "residual"
    assert cli.main(["residual", "--config", str(cfg), "--out", str(out)]) == 2
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    message = (
        "the weak identities need at least two snapshots; the trajectory has 1"
    )
    assert doc == {"error": {"type": "ValueError", "message": message}}
    assert json.loads((out / "error.json").read_text()) == doc
    assert not (out / "residuals.json").exists()


def test_fixed_step_trajectory_file_is_rejected(tmp_path, capsys):
    # earlier versions had a fixed-step mode, which wrote a null tol; every
    # trajectory now carries the tolerance it was integrated at
    _, json_path = saved_trajectory(tmp_path)
    doc = json.loads(json_path.read_text())
    doc.update(tol=None, fixed_step=0.05, kernel_floor=0.0)
    json_path.write_text(json.dumps(doc))
    with pytest.raises(schemas.ValidationError, match="None is not of type"):
        storage.load_trajectory(tmp_path / "run")
    for command, extra in (("diagnose", {}), ("residual", {"battery_size": 2})):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({"input": str(tmp_path / "run"), **extra}))
        out = tmp_path / command
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "ValidationError"
        assert err["error"]["message"].startswith(
            "None is not of type 'number'\n\nOn instance['tol']"
        )
        assert json.loads((out / "error.json").read_text()) == err


# a 401-digit JSON integer: exact in Python, beyond the float range
HUGE = 10**400


def run_cli(argv, out, capsys):
    """Run one subcommand with --out out; returns the exit status and, on
    status 2, the printed error document, which out/error.json must hold."""
    rc = cli.main([*argv, "--out", str(out)])
    if rc != 2:
        return rc, None
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert json.loads((out / "error.json").read_text()) == doc
    return rc, doc


def on_trajectory(command, wdir):
    """The arguments of diagnose or residual (with field residuals) on the
    trajectory wdir/run."""
    doc = {"input": str(wdir / "run")}
    if command == "residual":
        doc.update(battery_size=2, h=0.25)
    cfg = wdir / f"{command}.json"
    cfg.write_text(json.dumps(doc))
    return [command, "--config", str(cfg)]


@pytest.mark.parametrize("command", ["dbl", "diagnose", "residual"])
def test_empty_input_file_is_rejected(tmp_path, capsys, command):
    # a zero-byte measure or trajectory CSV has no header row to read
    if command == "dbl":
        empty, other = tmp_path / "a.csv", tmp_path / "b.csv"
        storage.save_measure(EmpiricalMeasure(np.zeros((1, 1)), [1.0]), other)
        argv = ["dbl", str(empty), str(other)]
    else:
        empty, _ = saved_trajectory(tmp_path)
        argv = on_trajectory(command, tmp_path)
    empty.write_text("")
    kind = "measure" if command == "dbl" else "trajectory"
    message = f"{kind} CSV {empty} has no header row"
    rc, doc = run_cli(argv, tmp_path / "out", capsys)
    assert rc == 2
    assert doc == {"error": {"type": "ValueError", "message": message}}


@pytest.mark.parametrize("key, value, message", [
    (None, None, "is not of type 'object'"),  # the summary as a JSON list
    ("snapshot_count", None, "None is not of type 'integer'"),
    ("N", 5.7, "5.7 is not of type 'integer'"),
    ("d", 1.9, "1.9 is not of type 'integer'"),
    ("snapshot_count", 3.2, "3.2 is not of type 'integer'"),
    ("tol", KeyError, "'tol' is a required property"),  # the key left out
    ("alpha", math.inf, "inf is not a finite number"),  # written as 1e400
    ("T", HUGE, f"{HUGE} is not a finite number"),  # beyond the float range
    ("T", "2", "'2' is not of type 'number'"),
])
def test_malformed_trajectory_summary_is_rejected(tmp_path, capsys, key, value,
                                                  message):
    # each once raised TypeError or OverflowError, gave KeyError('tol'), or
    # loaded silently, with int() truncating the value
    _, json_path = saved_trajectory(tmp_path)
    doc = json.loads(json_path.read_text())
    if key is None:
        doc = [doc]
    elif value is KeyError:
        del doc[key]
    else:
        doc[key] = value
    json_path.write_text(json.dumps(doc).replace("Infinity", "1e400"))
    with pytest.raises(schemas.ValidationError) as info:
        storage.load_trajectory(tmp_path / "run")
    assert info.value.message.endswith(message)
    for command in ("diagnose", "residual"):
        argv = on_trajectory(command, tmp_path)
        rc, doc = run_cli(argv, tmp_path / command, capsys)
        assert rc == 2
        assert doc["error"] == {"type": "ValidationError", "message": str(info.value)}


def test_trajectory_summary_with_a_huge_particle_count_is_rejected(tmp_path):
    # the rows of a snapshot are counted before the particle ids 0..N-1 are
    # listed, so a forged N allocates nothing
    _, json_path = saved_trajectory(tmp_path)
    doc = json.loads(json_path.read_text())
    doc["N"] = 2**62
    json_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="particles 0..4611686018427387903"):
        storage.load_trajectory(tmp_path / "run")


# the edits the property test makes: CSV cells and summary values (as JSON)
BAD_CELLS = ["", "nan", "1e400", "x", "1.5"]
BAD_VALUES = ["null", '"x"', "1.5", "1e400", str(HUGE), "[]", "{}"]


@st.composite
def edited(draw, name, data: bytes) -> bytes:
    """One edit of an input file: truncated at a byte, a line dropped, or
    one CSV cell or one summary value replaced."""
    op = draw(st.sampled_from(
        ["truncate", "drop", "value" if name.endswith(".json") else "cell"]
    ))
    if op == "truncate":
        return data[: draw(st.integers(0, len(data)))]
    lines = data.decode().splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    if op == "drop":
        return "".join(lines[:i] + lines[i + 1:]).encode()
    if op == "cell":
        body = lines[i].rstrip("\r\n")
        cells = body.split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(BAD_CELLS))
        lines[i] = ",".join(cells) + lines[i][len(body):]
        return "".join(lines).encode()
    doc = json.loads(data)
    doc[draw(st.sampled_from(sorted(doc)))] = "@edit@"
    text = json.dumps(doc, indent=2)
    return text.replace('"@edit@"', draw(st.sampled_from(BAD_VALUES))).encode()


def test_no_input_file_makes_a_subcommand_raise(tmp_path, capsys):
    # dbl on an edited measure CSV, and diagnose and residual on an edited
    # trajectory CSV or summary, exit 0, or 2 with an error.json
    base = tmp_path / "base"
    base.mkdir()
    params = ModelParams(d=1, alpha=1.5, N=3, T=0.2, M=2.0)
    x = np.array([[-0.3], [0.1], [0.4]])
    v = np.array([[0.2], [0.0], [-0.1]])
    traj = integrate(
        ParticleState(0.0, x, v), params, snapshot_times=np.linspace(0, 0.2, 3)
    )
    storage.save_trajectory(traj, base / "run")
    mu = EmpiricalMeasure(np.array([[0.0, 0.5], [0.2, -0.1], [0.7, 0.3]]),
                          [0.25, 0.25, 0.5])
    storage.save_measure(mu, base / "a.csv")
    files = {
        name: (base / name).read_bytes()
        for name in ("a.csv", "run.csv", "run.json")
    }
    examples = itertools.count()
    outcomes = []

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from(sorted(files)).flatmap(
        lambda name: st.tuples(st.just(name), edited(name, files[name]))
    ))
    def check(edit):
        name, data = edit
        wdir = tmp_path / f"ex{next(examples)}"
        wdir.mkdir()
        for other, original in files.items():
            (wdir / other).write_bytes(data if other == name else original)
        (wdir / "b.csv").write_bytes(files["a.csv"])
        if name == "a.csv":
            runs = [["dbl", str(wdir / "a.csv"), str(wdir / "b.csv")]]
        else:
            runs = [on_trajectory(cmd, wdir) for cmd in ("diagnose", "residual")]
        for argv in runs:
            rc, _ = run_cli(argv, wdir / f"out-{argv[0]}", capsys)
            assert rc in (0, 2), (argv, data)
            outcomes.append(rc)

    check()
    # the edits reach both outcomes
    assert {0, 2} <= set(outcomes)


def test_measure_roundtrip(tmp_path):
    mu = EmpiricalMeasure(
        np.array([[0.1, -0.2, 0.3], [1.0, 2.0, -3.0]]), [0.25, 0.5]
    )
    storage.save_measure(mu, tmp_path / "m.csv")
    back = storage.load_measure(tmp_path / "m.csv")
    assert np.array_equal(back.points, mu.points)
    assert np.array_equal(back.weights, mu.weights)
    header = (tmp_path / "m.csv").read_text().splitlines()[0]
    assert header == "weight,p1,p2,p3"


def test_empty_measure_roundtrip(tmp_path, capsys):
    # a header-only file is the empty measure, which dbl prices at its
    # mass difference
    empty = EmpiricalMeasure(np.empty((0, 2)), np.empty(0))
    storage.save_measure(empty, tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == "weight,p1,p2\n"
    back = storage.load_measure(tmp_path / "empty.csv")
    assert back.points.shape == (0, 2) and back.weights.shape == (0,)
    two = EmpiricalMeasure(np.array([[0.0, 0.0], [1.0, 0.5]]), [0.5, 0.5])
    storage.save_measure(two, tmp_path / "two.csv")
    rc = cli.main(["dbl", str(tmp_path / "empty.csv"), str(tmp_path / "two.csv")])
    assert rc == 0
    assert float(capsys.readouterr().out.splitlines()[0]) == 1.0


def test_measure_header_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("mass,p1\n0.5,0.0\n")
    with pytest.raises(ValueError, match="header"):
        storage.load_measure(bad)


@pytest.mark.parametrize("text", [
    "weight,p1\n0.5,0.0\nnan,1.0\n",  # a NaN weight
    "weight,p1\n0.5,0.0\n0.5,inf\n",  # an atom at infinity
    "weight,p1,p2\n0.5,0.0,0.0\n0.5,nan,1.0\n",  # a NaN coordinate
], ids=["nan-weight", "inf-atom", "nan-coordinate"])
def test_dbl_rejects_non_finite_measures(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    k = text.splitlines()[0].count(",")
    storage.save_measure(EmpiricalMeasure(np.zeros((1, k)), [1.0]), tmp_path / "a.csv")
    assert cli.main(["dbl", str(bad), str(tmp_path / "a.csv")]) == 2
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    message = "points and weights must be finite"
    assert doc == {"error": {"type": "ValueError", "message": message}}


@pytest.mark.parametrize("rows", [0, 2])
def test_dbl_rejects_measures_without_coordinates(tmp_path, capsys, rows):
    # a header of just "weight": measures with no coordinate column
    for name in ("a.csv", "b.csv"):
        (tmp_path / name).write_text("weight\n" + "0.5\n" * rows)
    rc = cli.main(["dbl", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    message = "points need at least one coordinate"
    assert doc == {"error": {"type": "ValueError", "message": message}}
    with pytest.raises(ValueError, match=message):
        EmpiricalMeasure(np.empty((2, 0)), [0.5, 0.5])


def test_dbl_past_the_old_cap_is_w1(tmp_path, capsys):
    # two 3200-atom measures on [-1, 1] of equal mass: K = 6400, and the
    # flat distance is W1; dbl.json echoes the two files and nothing else
    rng = np.random.default_rng(64)
    p1, p2 = rng.uniform(-1.0, 1.0, (2, 3200))
    w = np.full(3200, 1 / 3200)
    for name, p in (("a.csv", p1), ("b.csv", p2)):
        storage.save_measure(EmpiricalMeasure(p[:, None], w), tmp_path / name)
    argv = ["dbl", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 6400
    want = w1_line(p1, w, p2, w)
    assert float(lines[0]) == pytest.approx(want, abs=1e-12)
    doc = json.loads((tmp_path / "o" / "dbl.json").read_text())
    assert doc["config"] == {"a": argv[1], "b": argv[2]}


@pytest.mark.parametrize("kind, key, value", [
    ("mfstudy", "dbl_cap", 2000),
    ("mfstudy", "kernel_floor", 0.0),
    ("diagnose", "eta_ladder", [1.0, 0.3, 0.1, 0.03, 0.01]),
])
def test_retired_mfstudy_and_diagnose_keys_are_rejected(tmp_path, capsys,
                                                        kind, key, value):
    # keys an earlier version accepted and ignored, at their old defaults:
    # the schema error names the key, and nothing is read or written
    out = tmp_path / "o"
    if kind == "mfstudy":
        cfg = mf_config(tmp_path, **{key: value})
    else:
        cfg = tmp_path / "diag.json"
        cfg.write_text(json.dumps({"input": str(tmp_path / "run"), key: value}))
    assert cli.main([kind, "--config", str(cfg), "--out", str(out)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "ValidationError"
    assert doc["error"]["message"].startswith(
        f"Additional properties are not allowed ({key!r} was unexpected)"
    )
    assert json.loads((out / "error.json").read_text()) == doc
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


@pytest.mark.parametrize("cap", ["0", "-1", "5"])
def test_dbl_cap_below_one_is_rejected_before_reading(tmp_path, capsys, cap):
    # dbl has no --cap: argparse rejects it at any value before a file is
    # read, and the missing files show nothing was
    with pytest.raises(SystemExit) as info:
        cli.main(["dbl", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                  "--cap", cap, "--out", str(tmp_path / "o")])
    assert info.value.code == 2
    assert "unrecognized arguments: --cap" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_canonical_json_is_deterministic_and_plain():
    payload = {
        "b": np.float64(0.5),
        "a": np.array([1.0, np.inf]),
        "c": {"n": np.int64(3), "flag": np.bool_(True)},
    }
    text = storage.canonical_json(payload)
    assert text == storage.canonical_json(payload)
    doc = json.loads(text)
    assert doc["a"] == [1.0, None]  # non-finite floats become null
    assert doc["c"] == {"flag": True, "n": 3}
    assert list(doc.keys()) == ["a", "b", "c"]


# ---- simulate ----


def test_simulate_writes_artifacts_and_is_deterministic(tmp_path):
    cfg = sim_config(tmp_path)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("trajectory.csv", "trajectory.json", "diagnostics.csv",
                 "report.json"):
        assert (out1 / name).exists()
    assert (out1 / "trajectory.csv").read_bytes() == (
        out2 / "trajectory.csv"
    ).read_bytes()
    assert stripped(out1 / "report.json") == stripped(out2 / "report.json")
    doc = json.loads((out1 / "report.json").read_text())
    assert doc["schema_version"] == "1"
    assert doc["kind"] == "simulate"
    assert doc["config"]["seed"] == 42
    assert doc["regimes"] == {"monokinetic": True, "meanfield": True}
    assert len(doc["diagnostics"]["energy"]) == 9


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = sim_config(tmp_path)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    cli.main(["simulate", "--config", str(cfg), "--out", str(out1)])
    cli.main(["simulate", "--config", str(cfg), "--out", str(out2),
              "--seed", "7"])
    assert (out1 / "trajectory.csv").read_bytes() != (
        out2 / "trajectory.csv"
    ).read_bytes()
    doc = json.loads((out2 / "report.json").read_text())
    assert doc["config"]["seed"] == 7


# ---- dbl ----


def test_dbl_identical_files_prints_zero(tmp_path, capsys):
    mu = EmpiricalMeasure(np.array([[0.0, 0.1], [1.0, -0.2]]), [0.5, 0.5])
    storage.save_measure(mu, tmp_path / "a.csv")
    rc = cli.main(["dbl", str(tmp_path / "a.csv"), str(tmp_path / "a.csv")])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0.0"


def test_dbl_prints_distance_and_potential(tmp_path, capsys):
    mu = EmpiricalMeasure(np.array([[0.0]]), [1.0])
    nu = EmpiricalMeasure(np.array([[0.75]]), [1.0])
    storage.save_measure(mu, tmp_path / "a.csv")
    storage.save_measure(nu, tmp_path / "b.csv")
    rc = cli.main([
        "dbl", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0]) == pytest.approx(0.75, abs=1e-12)
    assert len(lines) == 3  # two union atoms follow
    doc = json.loads((tmp_path / "o" / "dbl.json").read_text())
    assert doc["distance"] == pytest.approx(0.75, abs=1e-12)
    phi = np.array(doc["potential"])
    b = np.array([1.0, -1.0])
    assert float(b @ phi) == pytest.approx(0.75, abs=1e-12)


def test_dbl_pivot_budget_is_a_typed_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(_flatlp, "_pivot_budget", lambda n_support: 1)
    # in the plane: the line DP has no pivots to budget
    mu = EmpiricalMeasure(np.array([[0.0, 0.0], [0.5, 0.5]]), [0.5, 0.5])
    nu = EmpiricalMeasure(np.array([[0.25, 0.0], [0.75, 0.5]]), [0.5, 0.5])
    storage.save_measure(mu, tmp_path / "a.csv")
    storage.save_measure(nu, tmp_path / "b.csv")
    rc = cli.main(["dbl", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")])
    assert rc == 2
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["error"]["error"] == "PivotBudgetExceeded"
    assert payload["error"]["detail"] == {"support": 4, "pivots": 1, "budget": 1}


# ---- diagnose / residual on saved trajectories ----


@pytest.fixture()
def saved_run(tmp_path):
    cfg = sim_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_diagnose_roundtrip(saved_run, tmp_path):
    dcfg = tmp_path / "d.json"
    dcfg.write_text(json.dumps({"input": str(saved_run / "trajectory")}))
    out = tmp_path / "diag"
    assert cli.main(["diagnose", "--config", str(dcfg), "--out", str(out)]) == 0
    doc = json.loads((out / "diagnostics.json").read_text())
    assert doc["kind"] == "diagnose"
    assert len(doc["diagnostics"]["times"]) == 9
    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert header == "t,E,D,Dalpha,mom1,min_distance"


def test_residual_report(saved_run, tmp_path):
    rcfg = tmp_path / "r.json"
    rcfg.write_text(json.dumps({
        "input": str(saved_run / "trajectory"),
        "battery_size": 3,
        "h": 0.2,
    }))
    out = tmp_path / "res"
    assert cli.main(["residual", "--config", str(rcfg), "--out", str(out)]) == 0
    doc = json.loads((out / "residuals.json").read_text())
    assert len(doc["kinetic"]["residuals"]) == 3
    assert doc["kinetic"]["max"] == max(doc["kinetic"]["residuals"])
    assert doc["fields"]["continuity"]["max"] >= 0
    assert doc["fields"]["momentum"]["max"] >= 0
    assert doc["quadrature"]["snapshot_count"] == 9


# ---- studies ----


def mf_config(tmp_path, **overrides):
    cfg = {
        "d": 1,
        "alpha": 1.0,
        "horizon": 0.15,
        "bound": 2.0,
        "seed": 21,
        "n_list": [6, 12],
        "probe_times": [0.15],
        "tol": 1e-6,
        "quad_points": 7,
        "battery_size": 3,
        "initial": {
            "density": "uniform-box",
            "density_params": {"center": [0.0], "halfwidth": 0.8},
            "velocity": "linear-shear",
            "velocity_params": {"base": [0.1], "gradient": [[0.3]]},
        },
    }
    cfg.update(overrides)
    path = tmp_path / "mf.json"
    path.write_text(json.dumps(cfg))
    return path


def test_mfstudy_threads_and_config_roundtrip(tmp_path):
    cfg = mf_config(tmp_path)
    o1, o4 = tmp_path / "t1", tmp_path / "t4"
    assert cli.main(["mfstudy", "--config", str(cfg), "--out", str(o1),
                     "--threads", "1"]) == 0
    assert cli.main(["mfstudy", "--config", str(cfg), "--out", str(o4),
                     "--threads", "4"]) == 0
    assert stripped(o1 / "study.json") == stripped(o4 / "study.json")
    for f in sorted((o1 / "tables").glob("*.csv")):
        assert f.read_bytes() == (o4 / "tables" / f.name).read_bytes()
    # a report is itself a valid config source (embedded config reuse)
    o5 = tmp_path / "replay"
    assert cli.main(["mfstudy", "--config", str(o1 / "study.json"),
                     "--out", str(o5)]) == 0
    assert stripped(o1 / "study.json") == stripped(o5 / "study.json")
    doc = json.loads((o1 / "study.json").read_text())
    assert "threads" not in doc["config"]
    assert doc["config"]["h"] is not None  # default h resolved and embedded


def test_mfstudy_same_bytes_for_threads_1_and_2(tmp_path):
    # --threads is inert: no count, and none given, change a byte; rows
    # follow n_list
    cfg = mf_config(tmp_path, n_list=[12, 6, 24])
    runs = {"none": [], "t1": ["--threads", "1"], "t2": ["--threads", "2"],
            "t3": ["--threads", "3"]}
    for name, flag in runs.items():
        assert cli.main(["mfstudy", "--config", str(cfg),
                         "--out", str(tmp_path / name), *flag]) == 0
    want = stripped(tmp_path / "none" / "study.json")
    for name in runs:
        assert stripped(tmp_path / name / "study.json") == want
        for f in sorted((tmp_path / "none" / "tables").glob("*.csv")):
            assert f.read_bytes() == (tmp_path / name / "tables" / f.name).read_bytes()
    rows = json.loads((tmp_path / "t1" / "study.json").read_text())["study"]["rows"]
    assert [row["n"] for row in rows] == [12, 6, 24]


def test_pairstudy_cli(tmp_path):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({
        "alpha": 1.5,
        "eps_list": [0.5],
        "v1": [0.3, 0.2],
        "v2": [0.3, -0.2],
        "horizon": 3.0,
        "grid_points": 256,
    }))
    out = tmp_path / "pair"
    assert cli.main(["pairstudy", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "pairstudy.json").read_text())
    assert doc["study"]["rows"][0]["t_half"] > 0
    lines = (out / "pairs.csv").read_text().splitlines()
    assert lines[0] == "eps,t_half,kernel_integral,d_integral,min_distance"
    assert len(lines) == 2


def test_pairstudy_velocities_of_different_lengths(tmp_path, capsys):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps(
        {"alpha": 1.5, "eps_list": [0.5], "v1": [0.5, 0.0], "v2": [-0.5]}
    ))
    out = tmp_path / "pair"
    assert cli.main(["pairstudy", "--config", str(cfg), "--out", str(out)]) == 2
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc == {"error": {
        "type": "ValueError",
        "message": "v1 and v2 differ in length: 2 and 1",
    }}


# ---- errors ----


def test_missing_config_gives_json_error_and_exit_2(tmp_path, capsys):
    out = tmp_path / "o"
    rc = cli.main(["diagnose", "--config", str(tmp_path / "nope.json"),
                   "--out", str(out)])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "FileNotFoundError"
    saved = json.loads((out / "error.json").read_text())
    assert saved == doc


def test_schema_violation_rejected(tmp_path, capsys):
    cfg = sim_config(tmp_path, alpha=-1.0)
    rc = cli.main(["simulate", "--config", str(cfg), "--out",
                   str(tmp_path / "o")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("params, key", [
    ("density_params", "center"),
    ("velocity_params", "gradient"),
])
def test_missing_recipe_parameter_is_named(tmp_path, capsys, params, key):
    cfg = json.loads(sim_config(tmp_path).read_text())
    del cfg["initial"][params][key]
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    rc = cli.main(["simulate", "--config", str(tmp_path / "config.json"),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "ValueError"
    assert f"{key!r} is missing" in doc["error"]["message"]


@pytest.mark.parametrize("key, value", [("fixed_step", 0.01),
                                        ("kernel_floor", 0.5),
                                        ("eta_ladder", [0.5, 0.1]),
                                        ("fixed_step", None),
                                        ("kernel_floor", 0),
                                        ("eta_ladder",
                                         [1.0, 0.3, 0.1, 0.03, 0.01])])
def test_removed_integrator_modes_are_schema_errors(tmp_path, capsys, key,
                                                    value):
    # the keys of removed modes and of the removed eta ladder are rejected
    # at any value, their old defaults included, and the error names them
    out = tmp_path / "o"
    rc = cli.main(["simulate", "--config",
                   str(sim_config(tmp_path, **{key: value})), "--out", str(out)])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "ValidationError"
    assert doc["error"]["message"].startswith(
        f"Additional properties are not allowed ({key!r} was unexpected)"
    )
    assert not (out / "report.json").exists()


def test_report_with_the_removed_keys_at_defaults_reproduces(saved_run,
                                                             tmp_path):
    # a report carries none of the removed keys, and reproduces from itself
    report = saved_run / "report.json"
    config = json.loads(report.read_text())["config"]
    assert not {"fixed_step", "kernel_floor", "eta_ladder"} & config.keys()
    out = tmp_path / "again"
    assert cli.main(["simulate", "--config", str(report), "--out", str(out)]) == 0
    assert stripped(out / "report.json") == stripped(report)


def test_vector_parameter_of_the_wrong_length_is_a_domain_error(tmp_path,
                                                               capsys):
    cfg = sim_config(tmp_path, d=2, initial={
        "density": "uniform-box",
        "density_params": {"center": [0.3], "halfwidth": 0.5},
        "velocity": "constant",
        "velocity_params": {"value": [0.1, 0.0]},
    })
    rc = cli.main(["simulate", "--config", str(cfg), "--out",
                   str(tmp_path / "o")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "ValueError"
    assert "'center'" in doc["error"]["message"]


def test_nan_tolerance_override_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "o"
    rc = cli.main(["simulate", "--config", str(sim_config(tmp_path)),
                   "--out", str(out), "--tol", "nan"])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "ValidationError"
    assert doc["error"]["message"].startswith("nan is not a finite number")
    assert "['tol']" in doc["error"]["message"]
    assert json.loads((out / "error.json").read_text()) == doc
    assert not (out / "report.json").exists()


def test_nan_in_config_is_a_validation_error(tmp_path, capsys):
    # Python's JSON reader accepts the NaN token, and NaN passes every bound
    cfg = sim_config(tmp_path, T=float("nan"))
    assert "NaN" in cfg.read_text()
    rc = cli.main(["simulate", "--config", str(cfg), "--out",
                   str(tmp_path / "o")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "ValidationError"
    assert "['T']" in doc["error"]["message"]


@pytest.mark.parametrize("command", ["simulate", "mfstudy", "pairstudy"])
def test_alpha_below_one_is_a_schema_error(tmp_path, capsys, command):
    # the particle model needs alpha >= 1; the schema says so up front
    configs = {
        "simulate": json.loads(sim_config(tmp_path).read_text()),
        "mfstudy": {
            "d": 1, "horizon": 0.1, "bound": 2.0, "seed": 1,
            "n_list": [4, 8], "probe_times": [0.1],
            "initial": json.loads(sim_config(tmp_path).read_text())["initial"],
        },
        "pairstudy": {"eps_list": [0.5], "v1": [0.5], "v2": [-0.5]},
    }
    cfg = dict(configs[command], alpha=0.5)
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "ValidationError"
    assert doc["error"]["message"].startswith("0.5 is less than the minimum of 1")


def test_domain_error_is_machine_readable(tmp_path, capsys):
    # recipe escapes the speed bound: flagged before any integration
    cfg = sim_config(
        tmp_path,
        initial={
            "density": "uniform-box",
            "density_params": {"center": [0.0], "halfwidth": 0.8},
            "velocity": "constant",
            "velocity_params": {"value": [5.0]},
        },
    )
    rc = cli.main(["simulate", "--config", str(cfg), "--out",
                   str(tmp_path / "o")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "ValueError"
    assert "bound" in doc["error"]["message"]


def config_of(command, tmp_path):
    """A valid config of a config subcommand; the trajectory that diagnose
    and residual name does not exist."""
    if command == "simulate":
        return sim_config(tmp_path)
    if command == "mfstudy":
        return mf_config(tmp_path)
    doc = {"input": str(tmp_path / "run" / "trajectory")}
    if command == "pairstudy":
        doc = {"alpha": 1.5, "eps_list": [0.5], "v1": [0.3], "v2": [-0.3]}
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("command, path", [
    ("simulate", ["alpha"]),
    ("simulate", ["T"]),
    ("simulate", ["M"]),
    ("simulate", ["tol"]),
    ("simulate", ["initial", "density_params", "halfwidth"]),
    ("mfstudy", ["horizon"]),
    ("pairstudy", ["eps_list", 0]),
    ("pairstudy", ["horizon"]),
    ("pairstudy", ["v1", 0]),
])
def test_integer_beyond_the_float_range_is_a_validation_error(
        tmp_path, capsys, command, path):
    # each once raised OverflowError converting the value to a float
    cfg = config_of(command, tmp_path)
    doc = json.loads(cfg.read_text())
    *parents, key = path
    functools.reduce(operator.getitem, parents, doc)[key] = HUGE
    cfg.write_text(json.dumps(doc))
    rc, err = run_cli([command, "--config", str(cfg)], tmp_path / "o", capsys)
    assert rc == 2
    where = "".join(f"[{key!r}]" for key in path)
    message = f"{HUGE} is not a finite number\n\nOn instance{where}:\n    {HUGE}"
    assert err["error"] == {"type": "ValidationError", "message": message}


@pytest.mark.parametrize("command, flag, value, message", [
    ("simulate", "--seed", "-1", "-1 is less than the minimum of 0"),
    ("simulate", "--tol", "-1", "-1.0 is less than or equal to the minimum of 0"),
    ("mfstudy", "--threads", "0", "0 is less than the minimum of 1"),
])
def test_overrides_are_schema_checked(tmp_path, capsys, command, flag,
                                      value, message):
    # an override is part of the document the schema sees, not patched in
    # after validation
    cfg = config_of(command, tmp_path)
    out = tmp_path / "o"
    rc = cli.main([command, "--config", str(cfg), "--out", str(out),
                   flag, value])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "ValidationError"
    assert doc["error"]["message"].startswith(message + "\n")
    assert json.loads((out / "error.json").read_text()) == doc
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("diagnose", "--seed", "3"),
    ("residual", "--seed", "5"),
    ("diagnose", "--tol", "1e-3"),
    ("residual", "--tol", "0.5"),
    ("pairstudy", "--seed", "1"),
    # only mfstudy's schema has threads
    ("simulate", "--threads", "2"),
    ("diagnose", "--threads", "2"),
    ("residual", "--threads", "2"),
    ("pairstudy", "--threads", "2"),
])
def test_override_without_a_schema_key_is_a_usage_error(tmp_path, capsys,
                                                        command, flag, value):
    # an override whose key the schema lacks would be dropped unseen; the
    # residual battery's seed is battery_seed, not --seed
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(tmp_path / "c.json"), flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + flag in capsys.readouterr().err
