import numpy as np
import pytest

from afgeo import cli
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
