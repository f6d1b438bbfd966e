import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from afgeo import cli, flow
from afgeo.grid import RadialGrid


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


def test_schwarzschild_at_other_dim_exits_config(tmp_path):
    assert cli.run(["mass", "--dim", "5", "--out", str(tmp_path)]) == 2
    grid = cli.parse_grid("uniform:rmin=0.5,rmax=40,num=256")
    with pytest.raises(cli.ConfigError):
        cli.parse_metric("schwarzschild:m=1", grid, dim=5)


def test_heat_demo_at_other_dim_exits_config(tmp_path):
    assert cli.run(["heat-demo", "--dim", "5", "--times", "0.5",
                    "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "heat_demo.txt").exists()


def test_flow_grid_through_origin_exits_config(tmp_path):
    assert cli.run(["zero-mass", "--grid", "uniform:rmin=0,rmax=20,num=64",
                    "--T", "1e-3", "--out", str(tmp_path)]) == 2


def test_verify_skips_schwarzschild_probe_at_other_dim(tmp_path):
    assert cli.run(["verify", "--dim", "4", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "verify.txt").read_text().splitlines()
    assert "skipped_probe=schwarzschild (dim=4)" in lines
    assert not any(l.startswith("schwarzschild_") for l in lines)


def test_flow_reports_count_steps_and_rhs_evals(tmp_path):
    code = cli.run(["zero-mass", "--T", "0.025", "--monitor-every", "5",
                    "--grid", "staggered:rmax=60,num=256", "--kink", "3.0",
                    "--amp", "0.01", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "zero_mass.txt").read_text().splitlines()
    assert "steps=14" in lines and "rhs_evals=28" in lines


def test_unfair_background_exits_numeric(tmp_path):
    code = cli.run(["flow", "--metric", "conformal:c=0.5",
                    "--background", "flat",
                    "--grid", "staggered:rmax=40,num=256",
                    "--T", "1e-3", "--out", str(tmp_path)])
    assert code == 3


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


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("radii = 30,40,50\nmetric = flat\n")
    out = tmp_path / "rep"
    code = cli.run(["mass", "--config", str(cfg),
                    "--metric", "schwarzschild:m=1",
                    "--grid", "staggered:rmax=120,num=1024",
                    "--out", str(out)])
    assert code == 0
    text = (out / "mass.txt").read_text()
    # flag value wins over the file, file fills the rest
    assert "config.metric=schwarzschild:m=1" in text
    assert "config.radii=30,40,50" in text


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("warp = 9\n")
    assert cli.run(["mass", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 2


def test_heat_demo_subcommand(tmp_path):
    code = cli.run(["heat-demo", "--times", "0.5", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "heat_decay.csv").read_text().splitlines()
    assert lines[0] == "t,X,sup_k0,sup_k1,sup_k2"
    assert "floor_ok=True" in (tmp_path / "heat_demo.txt").read_text()


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


def test_mass_liminf_reads_K(tmp_path, capsys):
    # K = 1e-6 is below the collar's inf R (about -0.022), so the first
    # certificate fails
    assert cli.run(["mass-liminf", "--K", "1e-6", "--out", str(tmp_path)]) == 3
    assert "smoothing certificate failed at eps=0.1" in capsys.readouterr().err


def test_mass_liminf_defaults_pass(tmp_path):
    assert cli.run(["mass-liminf", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "mass_liminf.txt").read_text()
    assert "config.T=0.2" in text and "passed=True" in text
    # the default grid has no node within sigma of r0 = 4 at any epsilon
    assert "collar_nodes_min=0" in text.splitlines()
    csv = (tmp_path / "mass_liminf.csv").read_text().splitlines()
    assert csv[0] == "eps,t,mass,collar_nodes"
    assert {row.split(",")[-1] for row in csv[1:]} == {"0"}


def test_mass_liminf_counts_collar_nodes(tmp_path):
    # spacing 0.5 from 0.5: a node sits at r0 = 4
    assert cli.run(["mass-liminf", "--eps", "1e-1", "--T", "1e-3",
                    "--grid", "uniform:rmin=0.5,rmax=300,num=600",
                    "--out", str(tmp_path)]) in (0, 1)
    text = (tmp_path / "mass_liminf.txt").read_text()
    n = int(text.split("collar_nodes_min=")[1].splitlines()[0])
    assert n >= 1


@pytest.mark.parametrize("command", ["corner", "mass-liminf"])
@pytest.mark.parametrize("eps", ["0", "-0.01", "nan", "inf"])
def test_epsilon_not_finite_positive_exits_config(command, eps, tmp_path,
                                                   capsys):
    # before the check, eps = 0 ran the whole sigma ladder and read as a
    # failed certificate (exit 1, or 3 from mass-liminf)
    assert cli.run([command, f"--eps={eps}", "--out", str(tmp_path)]) == 2
    assert "epsilon must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["corner", "mass-liminf"])
def test_empty_epsilon_list_exits_config(command, tmp_path, capsys):
    # before the check, corner wrote a report with no certificate (exit 0)
    # and mass-liminf died on an AttributeError after an empty ladder
    assert cli.run([command, "--eps=", "--out", str(tmp_path)]) == 2
    assert "expected a list of numbers, got ''" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_monitor_every_zero_exits_config(tmp_path):
    assert cli.run(["zero-mass", "--monitor-every", "0", "--T", "1e-3",
                    "--grid", "staggered:rmax=60,num=256",
                    "--out", str(tmp_path)]) == 2


def test_config_file_values_checked_like_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim = 7\n")
    assert cli.run(["zero-mass", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "zero_mass.txt").exists()


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
             "--grid", "uniform:rmin=0.5,rmax=300,num=256"],
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
    # an explicit --fairness, or a --config line, still wins
    assert cli.run(argv + ["--fairness", "1.2"]) == 3
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fairness = 1.2\n")
    assert cli.run(argv + ["--config", str(cfg)]) == 3


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # the corner's Gauss-Legendre rule is built on first use
    out = _fresh_interpreter("import sys, afgeo.cli; "
                             "print('numpy.polynomial' in sys.modules)")
    assert out == ["False"]


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


def _parsed(parser, argv):
    args = vars(cli._parse(parser, argv))
    return {**args, "func": args["func"].__name__}


@pytest.mark.parametrize("name", list(cli.SUBCOMMANDS))
def test_one_subparser_parses_like_all(name, tmp_path, capsys):
    one, full = cli.build_parser(name), cli.build_parser()
    assert _parsed(one, [name]) == _parsed(full, [name])
    # the subcommand's first own option, at its default, and --dim from a file
    flag, default = next(iter(cli.SUBCOMMANDS[name][1].items()))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dim = 4\n{flag[2:]} = {default}\n")
    argv = [name, "--config", str(cfg), "--out", str(tmp_path)]
    assert _parsed(one, argv) == _parsed(full, argv)
    assert _parsed(one, argv)["dim"] == 4
    capsys.readouterr()
    assert cli.run([name, "--help"]) == 0
    text = capsys.readouterr().out
    for flag in ["--out", "--config", "--dim", *cli.SUBCOMMANDS[name][1]]:
        assert flag in text
    with pytest.raises(SystemExit):
        full.parse_args([name, "--help"])
    assert capsys.readouterr().out == text
    # errors keep the full usage line
    assert cli.run([name, "--warp", "9"]) == 2
    err = capsys.readouterr().err
    with pytest.raises(SystemExit):
        full.parse_args([name, "--warp", "9"])
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--dim", "7", "corner"]])
def test_no_subcommand_word_exits_config(argv, capsys):
    # the error is the full parser's: every subcommand is offered
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert "{" + ",".join(cli.SUBCOMMANDS) + "}" in err
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    assert capsys.readouterr().err == err
