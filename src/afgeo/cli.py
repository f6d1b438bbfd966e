"""Batch front end: build metrics, run experiments, write reports.

Exit codes: 0 all monitors pass, 1 monitor failure, 2 configuration error,
3 numerical abort (NaN / positivity / fairness loss).
"""

import argparse
import gc
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, corner, curvature, flow, heatdemo, mass, metrics
from .grid import RadialGrid

# the ~22 000 objects the imports leave live as long as the process: keep
# them out of every later collection
gc.freeze()

ENV_OUTDIR = "AFGEO_OUTDIR"

EXIT_OK = 0
EXIT_MONITOR = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


def _parse_kv(body):
    out = {}
    if not body:
        return out
    for item in body.split(","):
        if "=" not in item:
            raise ConfigError(f"expected key=value, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = float(v)
    return out


def parse_grid(spec):
    """Grid constructors: staggered:rmax=..,num=.. | uniform:rmin=..,rmax=..,num=.."""
    name, _, body = spec.partition(":")
    kv = _parse_kv(body)
    try:
        if name == "staggered":
            return RadialGrid.staggered(kv["rmax"], int(kv["num"]))
        if name == "uniform":
            return RadialGrid.uniform(kv.get("rmin", 0.5), kv["rmax"],
                                      int(kv["num"]))
        if name == "geometric":
            return RadialGrid.geometric(kv.get("rmin", 0.5), kv["rmax"],
                                        int(kv["num"]), kv.get("ratio", 1.005))
    except KeyError as e:
        raise ConfigError(f"grid spec {spec!r} missing {e}")
    raise ConfigError(f"unknown grid type {name!r}")


def parse_metric(spec, grid, dim=3):
    """Metric constructors addressable as name:key=value,..."""
    name, _, body = spec.partition(":")
    kv = _parse_kv(body)
    if name == "flat":
        return metrics.build_flat(dim, grid)
    if name == "schwarzschild":
        if dim != 3:
            raise ConfigError(f"metric {spec!r} exists for n = 3 only, "
                              f"not --dim {dim}")
        return metrics.build_schwarzschild_isotropic(kv.get("m", 1.0), grid)
    if name == "conformal":
        return metrics.build_conformal(kv.get("c", 0.4), dim, grid)
    if name == "distorted-flat":
        return metrics.build_distorted_flat(dim, grid,
                                            kink_radius=kv.get("kink", 3.0),
                                            amp=kv.get("amp", 0.05))
    if name == "angular-bump":
        return metrics.build_angular_bump(kv.get("c", 0.2), dim, grid,
                                          width=kv.get("width", 1.0))
    raise ConfigError(f"unknown metric {name!r}")


def _float_list(text):
    if not (values := [float(x) for x in text.split(",") if x]):
        raise ConfigError(f"expected a list of numbers, got {text!r}")
    return values


def _outdir(args):
    path = args.out or os.environ.get(ENV_OUTDIR) or "reports"
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_report(outdir, name, config_lines, body_lines):
    path = outdir / f"{name}.txt"
    with open(path, "w") as fh:
        for line in config_lines:
            fh.write(f"config.{line}\n")
        for line in body_lines:
            fh.write(line + "\n")
    return path


def _config_lines(args, keys):
    return [f"{k}={getattr(args, k.replace('-', '_'))}" for k in keys]


def _flow_config(args):
    return flow.FlowConfig(T_final=args.T, cfl=args.cfl,
                           monitor_every=args.monitor_every,
                           fairness=args.fairness)


# -- subcommands ------------------------------------------------------------

def cmd_mass(args):
    grid = parse_grid(args.grid)
    g = parse_metric(args.metric, grid, args.dim)
    rep = mass.adm_mass(g, grid.snap(_float_list(args.radii)))
    out = _outdir(args)
    _write_report(out, "mass",
                  _config_lines(args, ["metric", "grid", "radii", "dim"]),
                  rep.lines())
    return EXIT_OK if rep.converged else EXIT_MONITOR


def cmd_flow(args):
    grid = parse_grid(args.grid)
    g = parse_metric(args.metric, grid, args.dim)
    h = parse_metric(args.background, grid, args.dim) if args.background else g
    traj = flow.evolve(g, h, _flow_config(args))
    out = _outdir(args)
    with open(out / "trajectory.csv", "w") as fh:
        traj.dump(fh)
    last = traj.snapshots[-1]
    body = [f"steps={traj.steps}",
            f"rhs_evals={traj.rhs_evals}",
            f"T_final={last.t:.12g}",
            f"max_eta={float(np.max(np.abs(last.eta_A))):.12g}",
            f"max_grad_eta={last.diagnostics['max_grad_eta']:.12g}"]
    _write_report(out, "flow",
                  _config_lines(args, ["metric", "background", "grid", "T",
                                       "cfl", "monitor-every"]), body)
    return EXIT_OK


def _corner(args):
    """The example corner metric of the corner options."""
    grid = corner.make_corner_grid(args.rmin, args.r0, args.rmax,
                                   fine_dr=1.0 / args.fine_density,
                                   outer_num=args.outer_num)
    base = parse_metric(args.base, grid, args.dim)
    return corner.corner_example(base, args.r0, args.strength)


def cmd_corner(args):
    cm = _corner(args)
    Hm, Hp, ok = corner.corner_condition(cm)
    body = [f"H_minus={Hm:.12g}", f"H_plus={Hp:.12g}", f"condition_ok={ok}"]
    all_ok = True
    for eps in _float_list(args.eps):
        _, cert = corner.mollify(cm, eps, K_target=args.K)
        body.append(f"eps={eps:g} " + " ".join(cert.lines()))
        all_ok = all_ok and cert.satisfied
    out = _outdir(args)
    _write_report(out, "corner",
                  _config_lines(args, ["base", "r0", "strength", "eps", "K"]),
                  body)
    return EXIT_OK if all_ok else EXIT_MONITOR


def _finish_monitor(args, name, report, keys, traj=None):
    out = _outdir(args)
    body = report.lines()
    if traj is not None:
        body += [f"steps={traj.steps}", f"rhs_evals={traj.rhs_evals}"]
    _write_report(out, name, _config_lines(args, keys), body)
    with open(out / f"{name}.csv", "w") as fh:
        report.write_csv(fh)
    return EXIT_OK if report.passed else EXIT_MONITOR


def cmd_mass_constancy(args):
    grid = parse_grid(args.grid)
    g = parse_metric(args.metric, grid, args.dim)
    h = parse_metric(args.background, grid, args.dim) if args.background else g
    rep, traj = analysis.mass_constancy_experiment(
        g, h, _flow_config(args), radii=tuple(_float_list(args.radii)),
        rel_tol=args.tol)
    return _finish_monitor(args, "mass_constancy", rep,
                           ["metric", "grid", "T", "radii", "tol"], traj)


def cmd_mass_liminf(args):
    rep, _ = analysis.mass_liminf_experiment(
        _corner(args), _float_list(args.eps), _flow_config(args),
        radii=tuple(_float_list(args.radii)), rel_tol=args.tol,
        r_floor_tol=args.r_floor, grid=parse_grid(args.grid),
        K_target=args.K)
    return _finish_monitor(args, "mass_liminf", rep,
                           ["base", "r0", "strength", "eps", "grid", "T"])


def cmd_zero_mass(args):
    if args.fairness is None:
        # 5 % beyond the kinked data's continuum A: (1 - 2 amp)^2 to (1 + amp)^2
        lo, hi = sorted(((1 + args.amp) ** 2, (1 - 2 * args.amp) ** 2))
        args.fairness = max(1.2, 1.05 * max(hi, 1 / lo)) if lo > 0 else 1.2
    rep, traj = analysis.zero_mass_experiment(
        _flow_config(args), kink_radius=args.kink, amp=args.amp,
        grid=parse_grid(args.grid), n=args.dim)
    return _finish_monitor(args, "zero_mass", rep,
                           ["kink", "amp", "grid", "T", "dim"], traj)


def cmd_heat_demo(args):
    if args.dim != 3:
        raise ConfigError(f"heat-demo is one-dimensional; --dim {args.dim} "
                          "has no meaning there")
    times = _float_list(args.times)
    if times[0] != 0.0:
        times.insert(0, 0.0)
    p = heatdemo.initial_profile(x_max=args.x_max, dx=args.dx)
    profiles = [p]
    for t0, t1 in zip(times, times[1:]):
        p = heatdemo.heat_evolve(p, t1 - t0)
        profiles.append(p)
    out = _outdir(args)
    with open(out / "heat_decay.csv", "w") as fh:
        rows = heatdemo.decay_table(profiles, fh)
    k0 = [r["sup_k0"] for r in rows]
    ok = min(k0) >= 0.05 and max(k0) <= 1.1
    _write_report(out, "heat_demo",
                  _config_lines(args, ["times", "x-max", "dx"]),
                  [f"sup_k0_min={min(k0):.6g}", f"sup_k0_max={max(k0):.6g}",
                   f"floor_ok={ok}"])
    return EXIT_OK if ok else EXIT_MONITOR


def cmd_verify(args):
    # the oracle brings in scipy, which no other subcommand loads
    from . import oracle

    grid = parse_grid(args.grid)
    probes = [
        ("flat", metrics.build_flat(args.dim, grid)),
        # isotropic Schwarzschild exists for n = 3 only
        ("schwarzschild", metrics.build_schwarzschild_isotropic(1.0, grid)
         if args.dim == 3 else None),
        ("conformal", metrics.build_conformal(0.4, args.dim, grid)),
        ("angular-bump", metrics.build_angular_bump(0.2, args.dim, grid)),
        ("distorted-flat", metrics.build_distorted_flat(args.dim, grid,
                                                        kink_radius=3.0,
                                                        amp=0.03)),
    ]
    flat_bg = metrics.build_flat(args.dim, grid)
    radii = grid.snap((10.0, 20.0))
    body = [f"skipped_probe={name} (dim={args.dim})"
            for name, g in probes if g is None]
    worst = 0.0
    for name, g in probes:
        if g is None:
            continue
        R = curvature.scalar_curvature(g)
        Rn = curvature.ricci_norm_sq(g)
        W = flow.deturck_vector(g, flow.Background(flat_bg))
        for r0 in radii:
            i = grid.node_at(r0)
            pairs = [
                ("R", R[i], oracle.scalar_curvature_oracle(g, r0)),
                ("ric2", Rn[i], oracle.ricci_norm_sq_oracle(g, r0)),
                ("H", curvature.mean_curvature_sphere(g, r0),
                 oracle.mean_curvature_oracle(g, r0)),
                ("flux", mass.adm_mass_flux(g, r0),
                 oracle.flux_quadrature(g, r0, npoints=3000)),
                ("W", W[i], oracle.deturck_vector_oracle(g, flat_bg, r0)),
            ]
            for label, got, ref in pairs:
                # near-zero quantities are held to a 1e-2 scale floor so that
                # oracle roundoff does not masquerade as relative error
                rel = abs(got - ref) / max(abs(ref), abs(got), 1e-2)
                worst = max(worst, rel)
                body.append(f"{name}_r{r0:g}_{label}: value={got:.10g} "
                            f"oracle={ref:.10g} rel={rel:.3e}")
    ok = worst < args.tol
    body.append(f"worst_rel={worst:.3e}")
    body.append(f"passed={ok}")
    _write_report(_outdir(args), "verify",
                  _config_lines(args, ["grid", "tol"]), body)
    return EXIT_OK if ok else EXIT_MONITOR


# -- argument plumbing ------------------------------------------------------

# an option's type is that of its default
_FLOW_OPTS = {"--T": 0.01, "--cfl": 0.2, "--monitor-every": 10,
              "--fairness": 1.1}
_CORNER_OPTS = {"--base": "schwarzschild:m=1", "--r0": 4.0, "--strength": 0.1,
                "--rmin": 0.5, "--rmax": 300.0, "--fine-density": 32.0,
                "--outer-num": 512, "--eps": "1e-1,1e-2,1e-3", "--K": 10.0}

# every subcommand: its handler and its options besides --out, --config, --dim
SUBCOMMANDS = {
    "mass": (cmd_mass, {"--metric": "schwarzschild:m=1",
                        "--grid": "staggered:rmax=300,num=2048",
                        "--radii": "50,100,200"}),
    "flow": (cmd_flow, {**_FLOW_OPTS, "--metric": "conformal:c=0.2",
                        "--background": "",
                        "--grid": "staggered:rmax=60,num=1024"}),
    "corner": (cmd_corner, _CORNER_OPTS),
    "mass-constancy": (cmd_mass_constancy, {
        **_FLOW_OPTS, "--metric": "schwarzschild:m=1", "--background": "",
        "--grid": "uniform:rmin=0.5,rmax=300,num=2048",
        "--radii": "60,80,100", "--tol": 1e-2}),
    # at T = 0.01 the flow has not yet lifted R above the floor
    "mass-liminf": (cmd_mass_liminf, {
        **_FLOW_OPTS, "--T": 0.2, **_CORNER_OPTS,
        "--grid": "uniform:rmin=0.5,rmax=300,num=1024",
        "--radii": "60,80,100", "--tol": 1e-2, "--r-floor": 1e-4}),
    # fairness None: derived from --amp.  At T = 0.01 the flow has not yet
    # brought sup|R| below R_tol
    "zero-mass": (cmd_zero_mass, {
        **_FLOW_OPTS, "--T": 0.05, "--fairness": None, "--kink": 3.0,
        "--amp": 0.05, "--grid": "staggered:rmax=60,num=512"}),
    "heat-demo": (cmd_heat_demo, {"--times": "0.25,0.5,1.0", "--x-max": 200.0,
                                  "--dx": 0.05}),
    "verify": (cmd_verify, {"--grid": "uniform:rmin=0.5,rmax=40,num=1024",
                            "--tol": 1e-5}),
}


def build_parser(only=None):
    """The CLI's parser; with `only`, the one subcommand it names is all it
    parses."""
    top = argparse.ArgumentParser(prog="afgeo")
    # the full choice list keeps the usage line with one subparser
    sub = top.add_subparsers(dest="command", required=True, metavar=(
        "{%s}" % ",".join(SUBCOMMANDS) if only else None))
    for name, (func, opts) in SUBCOMMANDS.items():
        if only not in (None, name):
            continue
        p = sub.add_parser(name)
        p.add_argument("--out", default=None, help="output directory "
                       f"(default ${ENV_OUTDIR} or ./reports)")
        p.add_argument("--config", default=None,
                       help="key=value file; command-line flags win")
        p.add_argument("--dim", type=int, default=3, choices=(3, 4, 5))
        for flag, default in opts.items():
            p.add_argument(flag, default=default,
                           type=float if default is None else type(default))
        p.set_defaults(func=func)
    return top


def _config_flags(args):
    """The lines `key = value` of the --config file as `--key=value` flags."""
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    flags = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r}")
        k, v = (s.strip() for s in line.split("=", 1))
        if not hasattr(args, k.replace("-", "_")):
            raise ConfigError(f"unknown config key {k!r}")
        flags.append(f"--{k.replace('_', '-')}={v}")
    return flags


def _parse(parser, argv):
    """The arguments, with the --config lines read as flags."""
    args = parser.parse_args(argv)
    if args.config:
        # file lines become flags after the command word: later flags win
        i = argv.index(args.command) + 1
        args = parser.parse_args(argv[:i] + _config_flags(args) + argv[i:])
    return args


def run(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # without a subcommand word, help and errors list all eight
    parser = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
    try:
        try:
            args = _parse(parser, argv)
        except SystemExit as e:
            # argparse has printed why: 0 after --help, 2 for input it rejects
            return EXIT_OK if e.code == 0 else EXIT_CONFIG
        return args.func(args)
    except flow.FlowAbort as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def main():
    sys.exit(run())
