import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from afgeo import analysis, cli, corner, flow
from afgeo.grid import RadialGrid, sphere_area


def test_parse_grid_and_metric():
    g = cli.parse_grid("staggered:rmax=40,num=256")
    assert isinstance(g, RadialGrid)
    assert g.r_max < 40.0 and g.num == 256
    m = cli.parse_metric("schwarzschild:m=2", cli.parse_grid(
        "uniform:rmin=0.5,rmax=40,num=256"))
    assert m.A[0] == pytest.approx((1.0 + 2.0) ** 4)
    with pytest.raises(cli.ConfigError):
        cli.parse_metric("wormhole", g)
    with pytest.raises(cli.ConfigError):
        cli.parse_grid("uniform:num=256")


def test_mass_subcommand(tmp_path):
    code = cli.run(["mass", "--metric", "schwarzschild:m=1",
                    "--grid", "staggered:rmax=300,num=2048",
                    "--radii", "50,100,200", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "mass.txt").read_text()
    assert "config.metric=schwarzschild:m=1" in text
    m = float([l for l in text.splitlines() if l.startswith("mass=")][0]
              .split("=")[1])
    assert abs(m - 16 * np.pi) / (16 * np.pi) < 1e-3


def test_flow_subcommand_and_determinism(tmp_path):
    argv = ["flow", "--metric", "conformal:c=0.2", "--grid",
            "staggered:rmax=40,num=256", "--T", "1e-3",
            "--monitor-every", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.run(argv + ["--out", str(a)]) == 0
    assert cli.run(argv + ["--out", str(b)]) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_unknown_metric_exits_config(tmp_path):
    assert cli.run(["mass", "--metric", "nope", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("dim", [4, 5])
def test_schwarzschild_mass_at_other_dim(dim, tmp_path):
    # m = 1 in the flux normalisation is 2 (n - 1) |S^(n-1)|
    assert cli.run(["mass", "--dim", str(dim), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "mass.txt").read_text().splitlines()
    assert "converged=True" in lines
    m = float(next(l for l in lines if l.startswith("mass=")).split("=")[1])
    target = 2 * (dim - 1) * sphere_area(dim)
    assert abs(m - target) / target <= 1e-6


def test_heat_demo_x_max_without_an_annulus_exits_config(tmp_path, capsys):
    # below x_max = 80 no annulus [X, 2X], X >= 10, fits in x_max / 4: the
    # run died on "min() arg is an empty sequence"
    assert cli.run(["heat-demo", "--x-max", "79.9", "--times", "0.1",
                    "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "--x-max 79.9" in err and "80" in err
    assert not list(tmp_path.iterdir())
    assert cli.run(["heat-demo", "--x-max", "80", "--times", "0.1",
                    "--out", str(tmp_path)]) == 0


def test_heat_demo_at_other_dim_exits_config(tmp_path):
    assert cli.run(["heat-demo", "--dim", "5", "--times", "0.5",
                    "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "heat_demo.txt").exists()


@pytest.mark.parametrize("grid", ["uniform:rmin=0,rmax=300,num=2048",
                                  "geometric:rmin=0,rmax=300,num=2048"])
def test_grid_with_a_node_at_the_origin_exits_config(grid, tmp_path, capsys):
    # mass on such a grid ran on a 0/0 fill at r = 0; a staggered grid
    # reaches the origin
    assert cli.run(["mass", "--grid", grid, "--metric", "conformal:c=0.5",
                    "--out", str(tmp_path)]) == 2
    assert "staggered" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    with pytest.raises(ValueError, match="staggered"):
        RadialGrid(np.linspace(0.0, 1.0, 64))


def test_flow_grid_through_origin_exits_config(tmp_path):
    assert cli.run(["zero-mass", "--grid", "uniform:rmin=0,rmax=20,num=64",
                    "--T", "1e-3", "--out", str(tmp_path)]) == 2


def test_verify_checks_schwarzschild_probe_at_other_dim(tmp_path):
    assert cli.run(["verify", "--dim", "4", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "verify.txt").read_text().splitlines()
    assert "passed=True" in lines
    rows = [l for l in lines if l.startswith("schwarzschild_")]
    assert len(rows) == 8  # 2 radii x (R, ric2, H, W)
    assert max(float(l.rsplit("rel=", 1)[1]) for l in rows) < 1e-5


def test_flow_reports_count_steps_and_rhs_evals(tmp_path):
    code = cli.run(["zero-mass", "--T", "0.025", "--monitor-every", "5",
                    "--grid", "staggered:rmax=60,num=256", "--kink", "3.0",
                    "--amp", "0.01", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "zero_mass.txt").read_text().splitlines()
    assert "steps=14" in lines and "rhs_evals=28" in lines
    # three snapshot intervals, each one RK4 step of the gauge map
    assert "map_rk4_steps=3" in lines


def test_zero_mass_defaults_take_fewer_map_steps_than_eight_per_interval(
        tmp_path):
    assert cli.run(["zero-mass", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "zero_mass.txt").read_text().splitlines()
    n = int(next(l for l in lines if l.startswith("map_rk4_steps="))[14:])
    rows = (tmp_path / "zero_mass.csv").read_text().splitlines()
    # one CSV row per snapshot under the header
    assert 1 <= n < 8 * (len(rows) - 2)


def test_flow_max_eta_covers_both_components(tmp_path):
    # at the defaults max|eta_B| exceeds max|eta_A|, so the report must
    # read both components
    assert cli.run(["flow", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "flow.txt").read_text().splitlines()
    g = cli.parse_metric("conformal:c=0.2",
                         cli.parse_grid("staggered:rmax=60,num=1024"))
    last = flow.evolve(g, g, flow.FlowConfig(T_final=0.01)).snapshots[-1]
    sup_A, sup_B = (float(np.max(np.abs(e))) for e in last.eta.T)
    assert sup_B > sup_A
    assert f"max_eta={sup_B:.12g}" in lines


def test_unfair_background_exits_numeric(tmp_path, capsys):
    code = cli.run(["flow", "--metric", "conformal:c=0.5",
                    "--background", "flat",
                    "--grid", "staggered:rmax=40,num=256",
                    "--T", "1e-3", "--out", str(tmp_path)])
    assert code == 3
    # the abort line names where: the initial data, the node and field of
    # the extreme ratio g/h (A = B on a conformal metric: A is named), the
    # ratio range, and the least A and B of the initial data (flat h = 1:
    # the least ratio)
    err = capsys.readouterr().err
    assert err.startswith("numerical abort: background not 1.1-fair")
    assert err.rstrip().endswith(" t=0 step=0 node=0 field=A "
                                 "ratio_lo=1.05103 ratio_hi=5.04203 "
                                 "min_A=1.05103 min_B=1.05103")


def test_corner_invalid_strength_fails_certificate(tmp_path):
    code = cli.run(["corner", "--strength", "-0.3", "--eps", "1e-1,1e-2",
                    "--out", str(tmp_path)])
    assert code == 1
    text = (tmp_path / "corner.txt").read_text()
    assert "condition_ok=False" in text


def test_corner_valid_passes(tmp_path):
    code = cli.run(["corner", "--strength", "0.1", "--eps", "1e-1",
                    "--out", str(tmp_path)])
    assert code == 0
    assert "condition_ok=True" in (tmp_path / "corner.txt").read_text()


def test_heat_demo_subcommand(tmp_path):
    code = cli.run(["heat-demo", "--times", "0.5", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "heat_decay.csv").read_text().splitlines()
    assert lines[0] == "t,X,sup_k0,sup_k1,sup_k2"
    assert "passed=True" in (tmp_path / "heat_demo.txt").read_text()


def test_verify_subcommand(tmp_path):
    code = cli.run(["verify", "--grid", "uniform:rmin=0.5,rmax=40,num=768",
                    "--out", str(tmp_path)])
    assert code == 0
    assert "passed=True" in (tmp_path / "verify.txt").read_text()


def test_mass_constancy_subcommand(tmp_path):
    code = cli.run(["mass-constancy", "--grid",
                    "uniform:rmin=0.5,rmax=120,num=1024",
                    "--T", "2e-3", "--monitor-every", "2",
                    "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "mass_constancy.txt").read_text()
    assert "passed=True" in text
    assert (tmp_path / "mass_constancy.csv").exists()


def test_mass_liminf_failed_certificate_aborts(tmp_path, capsys):
    # the reversed jump violates H(-) >= H(+): no collar is certified, a
    # monitor failure, as for `corner`; the report names the refused
    # epsilon with the certificate line `corner` prints for it
    assert cli.run(["mass-liminf", "--strength", "-0.1",
                    "--out", str(tmp_path / "liminf")]) == 1
    assert cli.run(["corner", "--strength", "-0.1", "--eps", "1e-1",
                    "--out", str(tmp_path / "corner")]) == 1
    assert capsys.readouterr().err == ""
    text = (tmp_path / "liminf" / "mass_liminf.txt").read_text()
    assert "passed=False" in text.splitlines()
    assert not (tmp_path / "liminf" / "mass_liminf.csv").exists()  # no rows
    refused = [x for x in text.splitlines() if x.startswith("eps=")]
    cert = [x for x in (tmp_path / "corner" / "corner.txt").read_text()
            .splitlines() if x.startswith("eps=")]
    assert refused == cert and cert[0].startswith("eps=0.1 epsilon=0.1 ")
    assert cert[0].endswith(" satisfied=False")


def test_mass_liminf_defaults_pass(tmp_path):
    assert cli.run(["mass-liminf", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "mass_liminf.txt").read_text()
    assert "config.T=0.2" in text and "passed=True" in text
    # the default grid has no node within sigma of r0 = 4 at any epsilon
    assert "collar_nodes_min=0" in text.splitlines()
    csv = (tmp_path / "mass_liminf.csv").read_text().splitlines()
    assert csv[0] == "eps,t,mass,mass_err,collar_nodes"
    assert {row.split(",")[-1] for row in csv[1:]} == {"0"}


def test_mass_reports_carry_mass_err(tmp_path):
    # every reported ADM mass has its leave-one-out error next to it: in
    # the reports and in each CSV row that carries a mass
    def report(name):
        text = (tmp_path / f"{name}.txt").read_text().splitlines()
        return dict(line.split("=", 1) for line in text if "=" in line)

    def csv_column(name, col):
        head, *rows = (tmp_path / f"{name}.csv").read_text().splitlines()
        i = head.split(",").index(col)
        return [float(row.split(",")[i]) for row in rows]

    assert cli.run(["mass-constancy", "--T", "1e-3", "--radii", "30,40,50",
                    "--grid", "uniform:rmin=0.5,rmax=120,num=256",
                    "--out", str(tmp_path)]) in (0, 1)
    assert cli.run(["zero-mass", "--T", "1e-3",
                    "--grid", "staggered:rmax=60,num=128",
                    "--out", str(tmp_path)]) in (0, 1)
    assert cli.run(["mass-liminf", "--eps", "1e-1", "--T", "1e-3",
                    "--grid", "uniform:rmin=0.5,rmax=300,num=320",
                    "--out", str(tmp_path)]) in (0, 1)
    errs = [float(report("mass_constancy")[k])
            for k in ("mass_err_initial", "mass_err_final")]
    errs += [float(report("zero_mass")["mass_err"])]
    errs += csv_column("mass_constancy", "mass_err")
    errs += csv_column("mass_liminf", "mass_err")
    assert len(errs) >= 5
    assert all(np.isfinite(e) and e >= 0 for e in errs), errs
    # the masses beside them keep their keys
    assert "mass_final" in report("mass_constancy")
    assert "mass" in report("zero_mass")


def test_mass_liminf_counts_collar_nodes(tmp_path):
    # spacing 0.5 from 0.5: a node sits at r0 = 4
    assert cli.run(["mass-liminf", "--eps", "1e-1", "--T", "1e-3",
                    "--grid", "uniform:rmin=0.5,rmax=300,num=600",
                    "--out", str(tmp_path)]) in (0, 1)
    text = (tmp_path / "mass_liminf.txt").read_text()
    n = int(text.split("collar_nodes_min=")[1].splitlines()[0])
    assert n >= 1


def test_mass_liminf_counts_only_the_nodes_the_collar_moves(tmp_path):
    # spacing 1/8 from 0.5, sigma = 0.25: |r - r0| < sigma holds 3.875, 4
    # and 4.125, and the report said 3; but 4.125 sits at s = 1/2, where
    # the mollifier leaves the corner as it is
    assert cli.run(["mass-liminf", "--eps", "0.5", "--T", "1e-3",
                    "--grid", "uniform:rmin=0.5,rmax=300.5,num=2401",
                    "--out", str(tmp_path)]) in (0, 1)
    text = (tmp_path / "mass_liminf.txt").read_text()
    assert "collar_nodes_min=2" in text.splitlines()


@pytest.mark.parametrize("command", ["corner", "mass-liminf"])
@pytest.mark.parametrize("eps", ["0", "-0.01", "nan", "inf"])
def test_epsilon_not_finite_positive_exits_config(command, eps, tmp_path,
                                                   capsys):
    # before the check, eps = 0 ran the whole sigma ladder and read as a
    # failed certificate (exit 1, or 3 from mass-liminf)
    assert cli.run([command, f"--eps={eps}", "--out", str(tmp_path)]) == 2
    assert "epsilon must be finite and > 0" in capsys.readouterr().err


def test_corner_refuses_a_collar_outside_the_corner(tmp_path, capsys):
    # r0 = 4, r_min = 0.5: epsilon = 2 gives sigma = 4, whose collar reads
    # down to r = -2; before the check it divided by zero at r = 0 and
    # exited 0.  epsilon = 1 reads down to 2.5 and runs as before; the
    # polynomial bump's certificate passes at its first collar, sigma = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(["corner", "--eps", "2", "--out", str(tmp_path)]) == 2
        assert "r0 - 3 sigma/2 = -2" in capsys.readouterr().err
        assert cli.run(["corner", "--eps", "1", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "corner.txt").read_text()
    assert "eps=1 epsilon=1 sigma=1 " in text and "satisfied=True" in text


@pytest.mark.parametrize("command", ["corner", "mass-liminf"])
@pytest.mark.parametrize("flag, value", [
    ("--outer-num", "0"), ("--outer-num", "-5"),
    ("--fine-density", "0"), ("--fine-density", "-32")])
def test_bad_corner_grid_exits_config(command, flag, value, tmp_path, capsys):
    # before the check, 0 raised ZeroDivisionError and a negative value
    # IndexError: a traceback and exit 1, the code of a failed monitor
    assert cli.run([command, flag, value, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and value in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["corner", "mass-liminf"])
def test_empty_epsilon_list_exits_config(command, tmp_path, capsys):
    # before the check, corner wrote a report with no certificate (exit 0)
    # and mass-liminf died on an AttributeError after an empty ladder
    assert cli.run([command, "--eps=", "--out", str(tmp_path)]) == 2
    assert "expected a list of numbers, got ''" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# every case exited 0, 1 or 3, or died on a traceback, before the checks
NOT_A_NUMBER = [
    ["flow", "--T", "nan"],                 # exit 0: steps=0 T_final=0
    ["flow", "--fairness", "nan"],          # exit 3: nan passed fairness < 1
    ["flow", "--metric", "conformal:c=nan"],  # a nan A passed A <= 0
    ["flow", "--grid", "staggered:rmax=inf,num=256"],  # exit 3: not fair
    ["zero-mass", "--amp", "nan"],
    ["zero-mass", "--kink", "nan"],
    ["corner", "--strength", "nan"],        # exit 1
    ["corner", "--r0", "nan"],
    ["corner", "--r0", "inf"],              # OverflowError from round()
    ["corner", "--rmin", "inf"],            # OverflowError from round()
    ["corner", "--rmax", "inf"],            # a RuntimeWarning, then refused
    ["corner", "--rmax", "5"],              # a RuntimeWarning, then blamed
                                            # the outer cells
    ["corner", "--rmin", "0"],              # blamed a staggered grid
    ["corner", "--rmin", "13"],             # IndexError: no fine lattice
    ["corner", "--fine-density", "3"],      # named no value
    ["mass-liminf", "--r0", "inf"],         # OverflowError from round()
    ["mass-constancy", "--T", "nan"],
    ["heat-demo", "--dx", "0"],             # ZeroDivisionError
    ["heat-demo", "--dx", "inf"],
    ["heat-demo", "--dx", "300"],           # 2 nodes
    ["heat-demo", "--x-max", "0"],          # IndexError
    ["heat-demo", "--x-max", "1e308"],      # OverflowError from round()
    ["heat-demo", "--dx", "100"],           # no node in [10, 20]: numpy's
                                            # zero-size maximum
    ["heat-demo", "--times", "nan"],        # exit 0
]


@pytest.mark.parametrize("argv", NOT_A_NUMBER, ids=" ".join)
def test_non_finite_or_degenerate_numbers_exit_config(argv, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(("config error: ", cli.USAGE)), err
    assert not list(tmp_path.iterdir())


# each refusal and the value it names
REFUSED_GRIDS = {
    ("corner", "--r0", "inf"): "r0=inf",
    ("corner", "--rmin", "inf"): "r_min=inf",
    ("mass-liminf", "--rmax", "inf"): "r_max=inf",
    ("corner", "--rmax", "5"):
        "r_max=5 must lie past 12, where the fine lattice ends near 3 r0 = 12",
    ("corner", "--rmin", "0"): "0 < r_min < r0, got r_min=0, r0=4",
    ("mass-liminf", "--fine-density", "3"):
        "r0=4 must sit on the fine lattice r_min + k fine_dr, r_min=0.5, "
        "fine_dr=0.333333",
    ("heat-demo", "--x-max", "1e308"): "--x-max 1e+308",
    ("heat-demo", "--dx", "100"): "--dx 100 leaves the annulus [10, 20]"}


@pytest.mark.parametrize("argv", REFUSED_GRIDS, ids=" ".join)
def test_refused_grid_names_its_value(argv, monkeypatch, tmp_path, capsys):
    # each is refused before a grid is built from it: heat-demo builds no
    # profile of more than the 4 cells of --dx 100
    from afgeo import heatdemo

    cells, build = [], heatdemo.initial_profile

    def counted(x_max, dx):
        cells.append(2 * x_max / dx)
        return build(x_max=x_max, dx=dx)

    monkeypatch.setattr(heatdemo, "initial_profile", counted)
    assert cli.run([*argv, "--out", str(tmp_path)]) == 2
    assert REFUSED_GRIDS[argv] in capsys.readouterr().err
    assert all(c <= 4 for c in cells)


# each node count beyond MAX_NODES and the input its refusal names; before
# the bound, numpy's _ArrayMemoryError: a traceback and exit 1
UNBUILDABLE_GRIDS = {
    ("flow", "--grid", "staggered:rmax=60,num=1e12"): "num=1000000000000",
    ("mass", "--grid", "uniform:rmax=300,num=1e12"): "num=1000000000000",
    ("corner", "--fine-density", "1e12"): "(density 1e+12)",
    ("corner", "--fine-density", "1e308"): "(density 1e+308)",
    ("mass-liminf", "--outer-num", "1000000000000"):
        "outer_num=1000000000000",
    ("heat-demo", "--x-max", "1e12"): "x_max=1e+12 over dx=0.05"}


@pytest.mark.parametrize("argv", UNBUILDABLE_GRIDS, ids=" ".join)
def test_unbuildable_node_count_exits_config(argv, tmp_path, capsys):
    # refused from the count alone: the run allocates no grid
    tracemalloc.start()
    try:
        assert cli.run([*argv, "--out", str(tmp_path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "MAX_NODES" in err
    assert UNBUILDABLE_GRIDS[argv] in err
    assert peak < 2 ** 20
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("radii", ["50,100,1e9", "50,nan,200", "-1,100,200"])
def test_mass_radius_off_the_grid_exits_config(radii, tmp_path, capsys):
    # before the check, 1e9 snapped to the last node, r = 300, and the
    # ladder reported converged=True; nan snapped to the first node
    assert cli.run(["mass", "--radii", radii, "--out", str(tmp_path)]) == 2
    assert "off the grid" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, key", [
    (["mass", "--metric", "angular-bump:width=-1"], "width"),  # ran width=1
    (["mass", "--metric", "angular-bump:width=0"], "width"),   # ran flat
    (["mass", "--metric", "angular-bump:width=nan"], "width"),
    (["mass", "--metric", "distorted-flat:kink=-3"], "kink"),  # ran kink=3
    (["mass", "--metric", "distorted-flat:kink=inf"], "kink"),
    (["zero-mass", "--kink", "-3"], "kink"),  # "map not monotone"
    # the last of a repeated key won: r_max = 200, m = 3
    (["mass", "--grid", "uniform:rmin=0.5,rmax=300,rmax=200,num=2048"],
     "rmax"),
    (["mass", "--metric", "schwarzschild:m=1,m=3"], "m"),
    # "could not convert string to float", naming neither key nor spec
    (["mass", "--metric", "schwarzschild:m"], "m"),
    (["mass", "--grid", "uniform:rmax=,num=2048"], "rmax")],
    ids=["width-negative", "width-0", "width-nan", "kink-negative",
         "kink-inf", "zero-mass-kink-negative", "grid-key-twice",
         "metric-key-twice", "metric-value-missing", "grid-value-empty"])
def test_spec_value_that_would_mean_another_exits_config(argv, key, tmp_path,
                                                         capsys):
    assert cli.run(argv + ["--out", str(tmp_path)]) == 2
    assert f"{key}=" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# each float input a computation overflowed on, and the flag or spec key its
# refusal names; before the checks, a traceback and exit 1 (read as a failed
# monitor), numpy RuntimeWarnings, or a message that named another input
OVERFLOWING_INPUTS = [
    (["zero-mass", "--amp", "1e154"], "--amp"),     # (1 - 2 amp)^2
    (["zero-mass", "--amp", "-1e308"], "--amp"),    # (1 + amp)^2
    (["zero-mass", "--kink", "1e308"], "kink="),    # kink^2
    (["zero-mass", "--kink", "1e-308"], "kink="),   # (r / kink)^2: warnings
    (["corner", "--strength", "-inf"], "strength="),   # warnings
    (["corner", "--strength", "-1e308"], "strength="),
    # U^4 is finite, dV/dr overflows: warnings, exit 1
    (["corner", "--strength", "-1e30"], "--strength=-1e+30"),
    # dV/dr overflows and R is NaN: warnings, exit 1
    (["corner", "--strength", "-1e70"], "--strength=-1e+70"),
    # "kink amplitude too large: map not monotone"
    (["zero-mass", "--amp", "1e150"], "--amp=1e+150"),
    (["corner", "--fine-density", "inf"], "--fine-density"),  # "fine_dr=0"
    # "grid radii must be finite"
    (["mass", "--grid", "geometric:rmax=300,num=2048,ratio=nan"], "ratio="),
    # ratio^2046 overflows: warnings
    (["mass", "--grid", "geometric:rmax=300,num=2048,ratio=1.5"], "ratio="),
    # the first cells vanish against r_max - r_min: "strictly increasing"
    (["mass", "--grid", "geometric:rmax=300,num=2048,ratio=1.3"], "ratio=")]


@pytest.mark.parametrize("argv, named", OVERFLOWING_INPUTS,
                         ids=[" ".join(a) for a, _ in OVERFLOWING_INPUTS])
def test_overflowing_input_exits_config_naming_it(argv, named, tmp_path,
                                                   capsys):
    assert cli.run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err, err
    assert not list(tmp_path.iterdir())


def test_zero_mass_amplitude_past_the_kinks_slope_still_runs(tmp_path):
    # 1 - 2 amp < 0: the kink's resolved slope keeps the sampled map
    # monotone, and the monitor, not the configuration, fails
    assert cli.run(["zero-mass", "--amp", "0.6", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("argv", [
    ["mass", "--radii", "50,abc,200"],  # "could not convert string to float"
    ["mass", "--radii", "50,,100,200"],  # ran three radii, exit 0
    ["corner", "--eps", "0.1,"],         # ran eps = 0.1 alone, exit 0
    ["heat-demo", "--times", ",0.5"],
    # a decreasing time: "T must be finite and >= 0, got -0.25"
    ["heat-demo", "--times", "0.5,0.25"],
    ["heat-demo", "--times", "-0.5"],
    # a NaN passed the decreasing-list check: "T must be finite ..., got nan"
    ["heat-demo", "--times", "nan"],
    ["heat-demo", "--times", "inf"],
    ["heat-demo", "--times", "0.1,nan,0.2"]], ids=" ".join)
def test_list_item_that_is_not_a_number_exits_config(argv, tmp_path, capsys):
    assert cli.run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {argv[1]} ") and "item" in err
    assert not list(tmp_path.iterdir())


def test_monitor_every_zero_exits_config(tmp_path):
    assert cli.run(["zero-mass", "--monitor-every", "0", "--T", "1e-3",
                    "--grid", "staggered:rmax=60,num=256",
                    "--out", str(tmp_path)]) == 2


def test_unknown_flag_exits_config(tmp_path, capsys):
    assert cli.run(["mass", "--warp", "9", "--out", str(tmp_path)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_dim_choice_exits_config(tmp_path, capsys):
    assert cli.run(["mass", "--dim", "7", "--out", str(tmp_path)]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "mass.txt").exists()


def test_help_exits_ok(capsys):
    assert cli.run(["mass", "--help"]) == 0
    assert "--radii" in capsys.readouterr().out
    assert cli.run(["--help"]) == 0
    assert "{" + ",".join(cli.SUBCOMMANDS) + "}" in capsys.readouterr().out


def test_zero_mass_defaults_pass(tmp_path):
    assert cli.run(["zero-mass", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "zero_mass.txt").read_text()
    assert "config.T=0.05" in text and "passed=True" in text
    # the fairness derived from --amp 0.05: 1.05 / (1 - 2 amp)^2
    assert "config.fairness=1.2962962962962963" in text.splitlines()


# cheap flags for each subcommand; every other option runs at its default
ECHO_RUNS = {
    "mass": ["--radii", "40,80,160", "--dim", "4"],
    "flow": ["--T", "1e-3", "--grid", "staggered:rmax=40,num=128",
             "--background", "conformal:c=0.2"],
    "corner": ["--eps", "1e-1", "--outer-num", "256"],
    "mass-constancy": ["--T", "1e-3", "--radii", "30,40,50", "--grid",
                       "uniform:rmin=0.5,rmax=120,num=256"],
    "mass-liminf": ["--eps", "1e-1", "--T", "1e-3",
                    "--grid", "uniform:rmin=0.5,rmax=300,num=320"],
    "zero-mass": ["--T", "1e-3", "--grid", "staggered:rmax=60,num=128",
                  "--fairness", "1.5", "--monitor-every", "3"],
    "heat-demo": ["--times", "0.1", "--dx", "0.1"],
    "verify": ["--grid", "uniform:rmin=0.5,rmax=40,num=256"]}


@pytest.mark.parametrize("name", list(cli.SUBCOMMANDS))
def test_report_echoes_every_option(name, tmp_path):
    # each option of the subcommand's row and --dim, in table order, each
    # with the value the run used; --out is not echoed
    argv = ECHO_RUNS[name]
    assert cli.run([name, *argv, "--out", str(tmp_path)]) in (0, 1)
    text = (tmp_path / f"{name.replace('-', '_')}.txt").read_text()
    echoed = [l for l in text.splitlines() if l.startswith("config.")]
    given = dict(zip(argv[::2], argv[1::2]))
    want = []
    for flag, default in {**cli.SUBCOMMANDS[name][1], "--dim": 3}.items():
        kind = float if default is None else type(default)
        value = kind(given[flag]) if flag in given else default
        want.append(f"config.{flag[2:]}={value}")
    assert echoed == want
    assert text.startswith("".join(f"{line}\n" for line in want))
    # every gate states its tolerance; flow has no gate
    if name != "flow":
        assert any(l.startswith("tol_") for l in text.splitlines())


@pytest.mark.parametrize("name", list(cli.SUBCOMMANDS))
def test_retired_flags_exit_config(name, capsys):
    # the gate bounds and the Heun CFL are constants; no file holds flags
    retired = ("--cfl", "--K", "--tol", "--r-floor", "--config")
    assert cli.run([name, "--help"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("  --")]
    assert listed and not set(listed) & set(retired)
    for flag in retired:
        assert cli.run([name, flag, "1"]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("value, want", [
    (flow.CFL, 0.2), (corner.K_TARGET, 10.0),
    (analysis.MASS_DRIFT_TOL, 1e-2), (analysis.R_FLOOR_TOL, 1e-4),
    (cli.VERIFY_TOL, 1e-5)],
    ids=["CFL", "K_TARGET", "MASS_DRIFT_TOL", "R_FLOOR_TOL", "VERIFY_TOL"])
def test_gate_bounds_are_fixed(value, want):
    # loosening a gate, or the step, takes an edit here
    assert value == want


def _fresh_interpreter(script):
    """stdout lines of `script` run by a new interpreter on this afgeo."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", script], check=True,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True).stdout.splitlines()


def test_subcommands_other_than_verify_never_load_scipy(tmp_path):
    # scipy costs most of the start-up; only the oracle of `verify` needs
    # it, and only the oracle's quadrature needs numpy.polynomial
    runs = [["mass"],
            ["flow", "--T", "1e-3", "--grid", "staggered:rmax=40,num=128"],
            ["zero-mass", "--T", "1e-3", "--grid", "staggered:rmax=60,num=128"],
            ["mass-constancy", "--T", "1e-3", "--radii", "30,40,50",
             "--grid", "uniform:rmin=0.5,rmax=120,num=256"],
            ["corner", "--eps", "1e-1"],
            ["mass-liminf", "--eps", "1e-1", "--T", "1e-3",
             "--grid", "uniform:rmin=0.5,rmax=300,num=320"],
            ["heat-demo", "--times", "0.1"]]
    script = f"""
import sys
import afgeo.cli as cli
loaded = lambda: sorted(m for m in sys.modules
                        if m.split('.')[0] == 'scipy'
                        or m.startswith('numpy.polynomial'))
print('import', loaded())
for argv in {runs!r}:
    rc = cli.run(argv + ['--out', {str(tmp_path)!r}])
    print(argv[0], rc, loaded())
"""
    out = _fresh_interpreter(script)
    assert len(out) == 1 + len(runs)
    for line in out:
        name, *rest = line.split(" ", 2)
        # every run reached its report: exit 0, or 1 for a failed monitor
        assert rest[-1] == "[]", line
        assert name == "import" or rest[0] in ("0", "1"), line


def test_verify_loads_no_scipy(tmp_path):
    # the oracle's quintic spline is grid.interp_spline, so verify reads no
    # scipy
    script = f"""
import sys
import afgeo.cli as cli
rc = cli.run(['verify', '--out', {str(tmp_path)!r}])
print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
    assert _fresh_interpreter(script) == ["0 []"]


class _PastFirstCheck(Exception):
    pass


def test_zero_mass_default_fairness_clears_fine_grid(tmp_path, monkeypatch):
    # the kink's continuum min A is (1 - 2 amp)^2 = 0.81 < 1/1.2 at the
    # default amp 0.05; the sampled min reaches 0.824 at N = 4096.  Stop at
    # the first step, after the t = 0 fairness check, instead of running to T
    def stop(*args, **kwargs):
        raise _PastFirstCheck

    monkeypatch.setattr(flow, "h_flow_step", stop)
    argv = ["zero-mass", "--T", "0.05", "--grid", "staggered:rmax=60,num=4096",
            "--out", str(tmp_path)]
    with pytest.raises(_PastFirstCheck):
        cli.run(argv)
    # an explicit --fairness still wins
    assert cli.run(argv + ["--fairness", "1.2"]) == 3


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # the corner's Gauss-Legendre rule is built on first use
    out = _fresh_interpreter("import sys, afgeo.cli; "
                             "print('numpy.polynomial' in sys.modules)")
    assert out == ["False"]


def test_cli_import_leaves_heatdemo_and_oracle_unloaded():
    # only heat-demo and verify read them: no other subcommand compiles them
    out = _fresh_interpreter(
        "import sys, afgeo.cli; print(sorted(m for m in sys.modules "
        "if m in ('afgeo.heatdemo', 'afgeo.oracle')))")
    assert out == ["[]"]


def test_import_freezes_and_collection_still_runs():
    out = _fresh_interpreter("""
import gc, weakref
import afgeo.cli
class Node:
    pass
a = Node()
a.me = a
ref = weakref.ref(a)
del a
gc.collect()
print(gc.get_freeze_count() > 0, gc.isenabled(), ref() is None)
""")
    assert out == ["True True True"]


def _record_handler(monkeypatch, name):
    """The arguments of each call of subcommand `name`'s handler, which now
    only records them and returns 0."""
    seen = []
    func, opts = cli.SUBCOMMANDS[name]
    monkeypatch.setitem(cli.SUBCOMMANDS, name,
                        (lambda args: seen.append(vars(args)) or 0, opts))
    return seen


@pytest.mark.parametrize("name", list(cli.SUBCOMMANDS))
def test_one_subparser_parses_like_all(name, tmp_path, monkeypatch, capsys):
    # a subcommand's row of SUBCOMMANDS is all its parse reads: with no
    # flags its handler gets every option at its default, typed by it
    func, opts = cli.SUBCOMMANDS[name]
    seen = _record_handler(monkeypatch, name)
    assert cli.run([name]) == 0
    defaults = {"out": "", "dim": 3,
                **{f[2:].replace("-", "_"): d for f, d in opts.items()}}
    assert seen[0] == {"command": name, "func": cli.SUBCOMMANDS[name][0],
                       **defaults}
    # the subcommand's first own option, at its default, and --dim
    flag, default = next(iter(opts.items()))
    assert cli.run([name, flag, str(default), "--dim", "4",
                    "--out", str(tmp_path)]) == 0
    assert seen[1] == {**seen[0], "dim": 4, "out": str(tmp_path)}
    # help lists every flag with its default
    capsys.readouterr()
    assert cli.run([name, "--help"]) == 0
    listed = {line.split()[0]: line for line in
              capsys.readouterr().out.splitlines() if line.startswith("  --")}
    for flag, default in {**cli.COMMON_OPTS, **opts}.items():
        assert repr(default) in listed[flag], flag
    # errors keep the full usage line, which offers every subcommand
    assert cli.run([name, "--warp", "9"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [cli.USAGE, "afgeo: error: unrecognized arguments: --warp"]
    assert "{" + ",".join(cli.SUBCOMMANDS) + "}" in err[0]
    assert len(seen) == 2


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--dim", "7", "corner"]])
def test_no_subcommand_word_exits_config(argv, capsys):
    # the error is the one usage line, which offers every subcommand, and
    # the reason
    assert cli.run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == cli.USAGE
    assert "{" + ",".join(cli.SUBCOMMANDS) + "}" in err[0]
    assert err[1].startswith("afgeo: error: ")


# argv, the exit code and the handler's arguments (a dict), the error (a
# str) or help (None)
FLAG_GRAMMAR = [
    (["corner", "--strength", "-0.1"], 0, {"strength": -0.1}),
    (["corner", "--eps=1e-1"], 0, {"eps": "1e-1", "strength": 0.1}),
    (["corner", "--r0", "3", "--r0=5"], 0, {"r0": 5.0}),
    (["corner", "--str", "0.1"], 2, "unrecognized arguments: --str"),
    (["flow", "--T"], 2, "argument --T: expected one argument"),
    (["flow", "--monitor-every", "2.5"], 2,
     "argument --monitor-every: invalid int value: '2.5'"),
    (["flow", "--T", "fast"], 2, "argument --T: invalid float value: 'fast'"),
    (["flow", "--dim=7"], 2,
     "argument --dim: invalid choice: 7 (choose from 3, 4, 5)"),
    (["corner", "-h"], 0, None),
]


@pytest.mark.parametrize("argv, code, expect", FLAG_GRAMMAR,
                         ids=[" ".join(c[0]) for c in FLAG_GRAMMAR])
def test_flag_grammar(argv, code, expect, monkeypatch, capsys):
    seen = _record_handler(monkeypatch, argv[0])
    assert cli.run(argv) == code
    out, err = capsys.readouterr()
    if isinstance(expect, dict):
        assert seen and {k: seen[0][k] for k in expect} == expect
        return
    assert not seen
    if isinstance(expect, str):
        assert err.splitlines() == [cli.USAGE, f"afgeo: error: {expect}"]
    else:
        assert out.startswith(f"usage: afgeo {argv[0]} ")
        assert "--strength" in out


@pytest.mark.parametrize("spec", [
    "metric=schwarzschild:mass=2", "grid=staggered:rmax=300,nmu=3,num=256",
    "grid=staggered:rmax=300,num=256.7", "grid=staggered:rmax=300,num=nan",
    "grid=uniform:num=256", "metric=flat:c=1"])
def test_spec_refuses_what_it_cannot_honour(spec, tmp_path, capsys):
    # before the check, schwarzschild:mass=2 ran m = 1, an unknown grid key
    # was ignored and num=256.7 ran 256 nodes
    kind, text = spec.split("=", 1)
    with pytest.raises(cli.ConfigError):
        if kind == "grid":
            cli.parse_grid(text)
        else:
            cli.parse_metric(text, cli.parse_grid("staggered:rmax=40,num=64"))
    assert cli.run(["mass", f"--{kind}", text, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not list(tmp_path.iterdir())


def test_cli_run_loads_no_argparse(tmp_path):
    # argparse's parser cost about 4 ms per process: gettext's first lookup
    # imports locale, and argparse compiles its regexes
    script = f"""
import sys
import afgeo.cli as cli
for argv in (['heat-demo', '--times', '0.1'], ['corner', '--str', '0.1'],
             ['mass', '--help']):
    rc = cli.run(argv + ['--out', {str(tmp_path)!r}])
    print('rc', rc, sorted(m for m in ('argparse', 'gettext', 'locale')
                           if m in sys.modules))
"""
    lines = [l for l in _fresh_interpreter(script) if l.startswith("rc ")]
    assert lines == ["rc 0 []", "rc 2 []", "rc 0 []"]
