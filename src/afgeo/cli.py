"""Batch front end: build metrics, run experiments, write reports.

Exit codes: 0 all monitors pass, 1 monitor failure, 2 configuration error,
3 numerical abort (NaN / positivity / fairness loss).
"""

import gc
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import analysis, corner, curvature, flow, mass, metrics
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


# each grid and metric constructor: its keys and their defaults, None for a
# key the spec must give; a grid's keys in the order of its arguments
GRID_KEYS = {"staggered": {"rmax": None, "num": None},
             "uniform": {"rmin": 0.5, "rmax": None, "num": None},
             "geometric": {"rmin": 0.5, "rmax": None, "num": None,
                           "ratio": 1.005}}
METRIC_KEYS = {"flat": {}, "schwarzschild": {"m": 1.0},
               "conformal": {"c": 0.4},
               "angular-bump": {"c": 0.2, "width": 1.0},
               "distorted-flat": {"kink": 3.0, "amp": 0.05}}


def _parse_spec(spec, table, kind):
    """The name in `name:key=value,...` and all its keys, as numbers."""
    name, _, body = spec.partition(":")
    if name not in table:
        raise ConfigError(f"unknown {kind} {name!r}")
    kv, given = dict(table[name]), set()
    for item in body.split(",") if body else ():
        k, _, v = item.partition("=")
        if (k := k.strip()) not in kv:
            raise ConfigError(f"{kind} {name!r} has no key {k!r} "
                              f"(its keys: {', '.join(kv) or 'none'})")
        if k in given:
            raise ConfigError(f"{kind} spec {spec!r} gives {k}= twice")
        given.add(k)
        kv[k] = float(v)
    if missing := [k for k, v in kv.items() if v is None]:
        raise ConfigError(f"{kind} spec {spec!r} missing {missing[0]!r}")
    return name, kv


def parse_grid(spec):
    """Grid constructors: staggered:rmax=..,num=.. | uniform:rmin=..,rmax=..,
    num=.. | geometric:rmin=..,rmax=..,num=..,ratio=.."""
    name, kv = _parse_spec(spec, GRID_KEYS, "grid type")
    if not kv["num"].is_integer():
        raise ConfigError(f"grid spec {spec!r}: num is not an integer")
    kv["num"] = int(kv["num"])
    return getattr(RadialGrid, name)(*kv.values())


def parse_metric(spec, grid, dim=3):
    """Metric constructors addressable as name:key=value,..."""
    name, kv = _parse_spec(spec, METRIC_KEYS, "metric")
    if name == "flat":
        return metrics.build_flat(dim, grid)
    if name == "schwarzschild":
        return metrics.build_schwarzschild_isotropic(kv["m"], dim, grid)
    if name == "conformal":
        return metrics.build_conformal(kv["c"], dim, grid)
    if name == "distorted-flat":
        return metrics.build_distorted_flat(dim, grid, kink_radius=kv["kink"],
                                            amp=kv["amp"])
    return metrics.build_angular_bump(kv["c"], dim, grid, width=kv["width"])


def _float_list(text):
    if not (values := [float(x) for x in text.split(",") if x]):
        raise ConfigError(f"expected a list of numbers, got {text!r}")
    return values


def _outdir(args):
    out = Path(args.out or os.environ.get(ENV_OUTDIR) or "reports")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(args, name, keys, body_lines):
    """Write `name`.txt: the options `keys`, then the body; return its dir."""
    out = _outdir(args)
    lines = [f"config.{k}={getattr(args, k.replace('-', '_'))}" for k in keys]
    (out / f"{name}.txt").write_text("".join(f"{line}\n"
                                             for line in lines + body_lines))
    return out


def _flow_config(args):
    return flow.FlowConfig(T_final=args.T, cfl=args.cfl,
                           monitor_every=args.monitor_every,
                           fairness=args.fairness)


# -- subcommands ------------------------------------------------------------

def cmd_mass(args):
    grid = parse_grid(args.grid)
    g = parse_metric(args.metric, grid, args.dim)
    rep = mass.adm_mass(g, grid.snap(_float_list(args.radii)))
    _write_report(args, "mass", ["metric", "grid", "radii", "dim"],
                  rep.lines())
    return EXIT_OK if rep.converged else EXIT_MONITOR


def cmd_flow(args):
    grid = parse_grid(args.grid)
    g = parse_metric(args.metric, grid, args.dim)
    h = parse_metric(args.background, grid, args.dim) if args.background else g
    traj = flow.evolve(g, h, _flow_config(args))
    last = traj.snapshots[-1]
    body = [f"steps={traj.steps}", f"rhs_evals={traj.rhs_evals}",
            f"T_final={last.t:.12g}",
            f"max_eta={float(np.max(np.abs(last.eta_A))):.12g}",
            f"max_grad_eta={last.diagnostics['max_grad_eta']:.12g}"]
    out = _write_report(args, "flow", ["metric", "background", "grid", "T",
                                       "cfl", "monitor-every"], body)
    with open(out / "trajectory.csv", "w") as fh:
        traj.dump(fh)
    return EXIT_OK


def _corner(args):
    """The example corner metric of the corner options."""
    if not args.fine_density > 0:
        raise ConfigError(f"--fine-density {args.fine_density:g} is not > 0")
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
    _write_report(args, "corner", ["base", "r0", "strength", "eps", "K"],
                  body)
    return EXIT_OK if all_ok else EXIT_MONITOR


def _finish_monitor(args, name, report, keys, traj=None):
    body = report.lines()
    if traj is not None:
        body += [f"steps={traj.steps}", f"rhs_evals={traj.rhs_evals}"]
    out = _write_report(args, name, keys, body)
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
    from . import heatdemo  # only heat-demo needs it

    if args.dim != 3:
        raise ConfigError(f"heat-demo is one-dimensional; --dim {args.dim} "
                          "has no meaning there")
    times = _float_list(args.times)
    if times[0] != 0.0:
        times.insert(0, 0.0)
    p = heatdemo.initial_profile(x_max=args.x_max, dx=args.dx)
    if not heatdemo.dyadic_annuli(args.x_max):
        raise ConfigError(f"--x-max {args.x_max:g} must be >= 80 to hold an annulus")
    profiles = [p]
    for t0, t1 in zip(times, times[1:]):
        p = heatdemo.heat_evolve(p, t1 - t0)
        profiles.append(p)
    with open(_outdir(args) / "heat_decay.csv", "w") as fh:
        rows = heatdemo.decay_table(profiles, fh)
    k0 = [r["sup_k0"] for r in rows]
    ok = min(k0) >= 0.05 and max(k0) <= 1.1
    _write_report(args, "heat_demo", ["times", "x-max", "dx"],
                  [f"sup_k0_min={min(k0):.6g}", f"sup_k0_max={max(k0):.6g}",
                   f"floor_ok={ok}"])
    return EXIT_OK if ok else EXIT_MONITOR


def cmd_verify(args):
    # only verify needs the oracle
    from . import oracle

    grid = parse_grid(args.grid)
    body = []
    probes = [(spec.partition(":")[0], parse_metric(spec, grid, args.dim))
              for spec in ("flat", "schwarzschild", "conformal",
                           "angular-bump", "distorted-flat:amp=0.03")]
    flat_bg = metrics.build_flat(args.dim, grid)
    radii = grid.snap((10.0, 20.0))
    worst = 0.0
    for name, g in probes:
        R = curvature.scalar_curvature(g)
        Rn = curvature.ricci_norm_sq(g)
        jet = curvature.jet(grid, g.A, g.B)
        W = flow.deturck_vector(g, flow.Background(flat_bg))
        refs = zip(oracle.scalar_curvature_oracle(g, radii),
                   oracle.ricci_norm_sq_oracle(g, radii),
                   oracle.mean_curvature_oracle(g, radii),
                   oracle.flux_quadrature(g, radii, npoints=3000),
                   oracle.deturck_vector_oracle(g, flat_bg, radii))
        for r0, ref_row in zip(radii, refs):
            i = grid.node_at(r0)
            got_row = (R[i], Rn[i], curvature.mean_curvature(
                g.n, r0, [f[i] for f in jet]), mass.adm_mass_flux(g, r0), W[i])
            for label, got, ref in zip(("R", "ric2", "H", "flux", "W"),
                                       got_row, ref_row):
                # near-zero quantities are held to a 1e-2 scale floor so that
                # oracle roundoff does not masquerade as relative error
                rel = abs(got - ref) / max(abs(ref), abs(got), 1e-2)
                worst = max(worst, rel)
                body.append(f"{name}_r{r0:g}_{label}: value={got:.10g} "
                            f"oracle={ref:.10g} rel={rel:.3e}")
    ok = worst < args.tol
    body += [f"worst_rel={worst:.3e}", f"passed={ok}"]
    _write_report(args, "verify", ["grid", "tol"], body)
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


# the options of every subcommand besides its own; --dim is 3, 4 or 5
COMMON_OPTS = {"--out": "", "--config": "", "--dim": 3}
USAGE = ("usage: afgeo {%s} [--flag VALUE | --flag=VALUE]..."
         % ",".join(SUBCOMMANDS))


class UsageError(ConfigError):
    """Input the flag grammar refuses; reported under the usage line."""


def _typed(flag, default, text):
    """`text` as a value of `flag`: of its default's type, float for None."""
    kind = float if default is None else type(default)
    try:
        value = kind(text)
        if value != value:  # a NaN is no number to run with either
            raise ValueError
    except ValueError:
        raise UsageError(f"argument {flag}: invalid {kind.__name__} value: "
                         f"{text!r}") from None
    if flag == "--dim" and value not in (3, 4, 5):
        raise UsageError(f"argument --dim: invalid choice: {value} "
                         "(choose from 3, 4, 5)")
    return value


def _config_flags(path, opts):
    """The `key = value` lines of a --config file as {flag: value}."""
    if not Path(path).is_file():
        raise ConfigError(f"config file {path!r} does not exist")
    flags = {}
    for line in Path(path).read_text().splitlines():
        if not (line := line.strip()) or line.startswith("#"):
            continue
        k, eq, v = (s.strip() for s in line.partition("="))
        if not eq:
            raise ConfigError(f"bad config line {line!r}")
        flag = "--" + k.replace("_", "-")
        if flag not in opts or flag == "--config":
            raise ConfigError(f"unknown config key {k!r}")
        flags[flag] = v
    return flags


def _parse(argv):
    """The handler's arguments: each option's default, overridden by the
    --config file's lines, in turn by the flags; None after --help."""
    name, *rest = argv or [""]
    if name in ("-h", "--help"):
        print(USAGE)
        return None
    if name not in SUBCOMMANDS:
        raise UsageError(f"invalid choice of subcommand: {name!r}" if name
                         else "the subcommand is missing")
    opts = {**COMMON_OPTS, **SUBCOMMANDS[name][1]}
    flags, tokens = {}, iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            print(f"usage: afgeo {name} [--flag VALUE | --flag=VALUE]...",
                  "", "flags and their defaults:", sep="\n")
            for flag, default in opts.items():
                print(f"  {flag:<16}{default!r}")
            return None
        flag, eq, value = token.partition("=")
        if flag not in opts:
            raise UsageError(f"unrecognized arguments: {token}")
        # the value is always the next token: --strength -0.1 is a value
        if not eq and (value := next(tokens, None)) is None:
            raise UsageError(f"argument {flag}: expected one argument")
        flags[flag] = value
    if "--config" in flags:
        flags = {**_config_flags(flags["--config"], opts), **flags}
    return SimpleNamespace(command=name, func=SUBCOMMANDS[name][0], **{
        flag[2:].replace("-", "_"):
        _typed(flag, d, flags[flag]) if flag in flags else d
        for flag, d in opts.items()})


def run(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return EXIT_OK if args is None else args.func(args)
    except UsageError as e:
        print(f"{USAGE}\nafgeo: error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except flow.FlowAbort as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def main():
    sys.exit(run())
