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
from .grid import RadialGrid, sphere_area

# the ~22 000 objects the imports leave live as long as the process: keep
# them out of every later collection
gc.freeze()

ENV_OUTDIR = "AFGEO_OUTDIR"

EXIT_OK = 0
EXIT_MONITOR = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

VERIFY_TOL = 1e-5  # the worst relative error verify accepts against the oracle


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
        kv[k] = _number(v, f"{kind} spec {spec!r}: {k}=")
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


def _number(text, what):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{what} is not a number: {text!r}") from None


def _float_list(args, key):
    """The comma-separated numbers of option `key`; no item may be empty."""
    text, flag = getattr(args, key), f"--{key}"
    if not text:
        raise ConfigError(f"{flag}: expected a list of numbers, got ''")
    return [_number(x, f"{flag} {text!r}: item {i}")
            for i, x in enumerate(text.split(","), 1)]


def _write_report(args, body_lines):
    """Write the subcommand's report: every option but --out, then the body;
    return its directory."""
    out = Path(args.out or os.environ.get(ENV_OUTDIR) or "reports")
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"config.{f[2:]}={getattr(args, f[2:].replace('-', '_'))}"
             for f in [*SUBCOMMANDS[args.command][1], "--dim"]]
    (out / f"{args.command.replace('-', '_')}.txt").write_text(
        "".join(f"{line}\n" for line in lines + body_lines))
    return out


def _flow_config(args):
    return flow.FlowConfig(T_final=args.T, monitor_every=args.monitor_every,
                           fairness=args.fairness)


# -- subcommands ------------------------------------------------------------

def cmd_mass(args):
    grid = parse_grid(args.grid)
    g = parse_metric(args.metric, grid, args.dim)
    rep = mass.adm_mass(g, grid.snap(_float_list(args, "radii")))
    _write_report(args, [f"tol_rel={mass.MASS_REL_TOL:g}", *rep.lines()])
    return EXIT_OK if rep.converged else EXIT_MONITOR


def cmd_flow(args):
    grid = parse_grid(args.grid)
    g = parse_metric(args.metric, grid, args.dim)
    h = parse_metric(args.background, grid, args.dim) if args.background else g
    traj = flow.evolve(g, h, _flow_config(args))
    last = traj.snapshots[-1]
    body = [f"steps={traj.steps}", f"rhs_evals={traj.rhs_evals}",
            f"T_final={last.t:.12g}",
            f"max_eta={float(np.max(np.abs(last.eta))):.12g}",
            f"max_grad_eta={last.diagnostics['wnorm1']:.12g}"]
    out = _write_report(args, body)
    with open(out / "trajectory.csv", "w") as fh:
        traj.dump(fh)
    return EXIT_OK


def _corner(args):
    """The example corner metric of the corner options."""
    if not 0 < args.fine_density < np.inf:
        raise ConfigError(f"--fine-density {args.fine_density:g} is not "
                          "finite and > 0")
    grid = corner.make_corner_grid(args.rmin, args.r0, args.rmax,
                                   fine_dr=1.0 / args.fine_density,
                                   outer_num=args.outer_num)
    base = parse_metric(args.base, grid, args.dim)
    try:
        return corner.corner_example(base, args.r0, args.strength)
    except metrics.InputRefused as e:
        raise ConfigError(f"--{e}") from None


def cmd_corner(args):
    cm = _corner(args)
    Hm, Hp, ok, dm = corner.corner_condition(cm)
    body = [f"tol_K={corner.K_TARGET:g}", f"H_minus={Hm:.12g}",
            f"H_plus={Hp:.12g}", f"condition_ok={ok}",
            # in the units of `mass`'s mass=
            f"mass_jump={2 * (cm.n - 1) * sphere_area(cm.n) * dm:.12g}"]
    all_ok = True
    for eps in _float_list(args, "eps"):
        _, cert = corner.mollify(cm, eps)
        body.append(f"eps={eps:g} " + " ".join(cert.lines()))
        all_ok = all_ok and cert.satisfied
    _write_report(args, body)
    return EXIT_OK if all_ok else EXIT_MONITOR


def _finish_monitor(args, report, traj=None):
    body = report.lines()
    if traj is not None:
        body += [f"steps={traj.steps}", f"rhs_evals={traj.rhs_evals}"]
    out = _write_report(args, body)
    if report.series:  # a refused mass-liminf certificate has no rows
        with open(out / f"{report.monitor}.csv", "w") as fh:
            report.write_csv(fh)
    return EXIT_OK if report.passed else EXIT_MONITOR


def cmd_mass_constancy(args):
    grid = parse_grid(args.grid)
    g = parse_metric(args.metric, grid, args.dim)
    h = parse_metric(args.background, grid, args.dim) if args.background else g
    rep, traj = analysis.mass_constancy_experiment(
        g, h, _flow_config(args), radii=tuple(_float_list(args, "radii")))
    return _finish_monitor(args, rep, traj)


def cmd_mass_liminf(args):
    rep, _ = analysis.mass_liminf_experiment(
        _corner(args), _float_list(args, "eps"), _flow_config(args),
        radii=tuple(_float_list(args, "radii")), grid=parse_grid(args.grid))
    return _finish_monitor(args, rep)


def cmd_zero_mass(args):
    if args.fairness is None:
        # 5 % beyond the kinked data's continuum A: (1 - 2 amp)^2 to (1 + amp)^2
        try:
            lo, hi = sorted(((1 + args.amp) ** 2, (1 - 2 * args.amp) ** 2))
        except OverflowError:
            raise ConfigError(f"--amp {args.amp:g}: (1 - 2 amp)^2, for the "
                              "default --fairness, overflows") from None
        args.fairness = max(1.2, 1.05 * max(hi, 1 / lo)) if lo > 0 else 1.2
    try:
        rep, traj = analysis.zero_mass_experiment(
            _flow_config(args), kink_radius=args.kink, amp=args.amp,
            grid=parse_grid(args.grid), n=args.dim)
    except metrics.InputRefused as e:
        raise ConfigError(f"--{e}") from None
    return _finish_monitor(args, rep, traj)


def cmd_heat_demo(args):
    from . import heatdemo  # only heat-demo needs it

    if args.dim != 3:
        raise ConfigError(f"heat-demo is one-dimensional; --dim {args.dim} "
                          "has no meaning there")
    times = _float_list(args, "times")
    # each time from the one before it, the first from the initial time 0
    for i, (t0, t1) in enumerate(zip([0.0, *times], times), 1):
        if not np.isfinite(t1):
            raise ConfigError(f"--times {args.times!r}: item {i} is not finite")
        if t1 < t0:
            raise ConfigError(f"--times {args.times!r}: item {i} ({t1:g}) "
                              f"is less than the time before it ({t0:g})")
    if times[0] != 0.0:
        times.insert(0, 0.0)
    x_max, dx = args.x_max, args.dx
    if not (x_max < np.inf and heatdemo.dyadic_annuli(x_max)):
        raise ConfigError(f"--x-max {x_max:g} must be finite and >= 80 to "
                          "hold an annulus")
    # the grid's 2 x_max / dx cells, counted before numpy allocates them
    if not (0 < dx < np.inf and 2 * x_max / dx < np.inf):
        raise ConfigError(f"--dx {dx:g} must be finite and > 0, and leave "
                          f"--x-max {x_max:g} a finite number of cells")
    profiles = [heatdemo.initial_profile(x_max=x_max, dx=dx)]
    x = np.abs(profiles[0].x)
    for lo, hi in heatdemo.dyadic_annuli(x_max):
        if not np.any((x >= lo) & (x <= hi)):
            raise ConfigError(f"--dx {dx:g} leaves the annulus [{lo:g}, "
                              f"{hi:g}] of --x-max {x_max:g} without a node")
    for t0, t1 in zip(times, times[1:]):
        profiles.append(heatdemo.heat_evolve(profiles[-1], t1 - t0))
    rows = heatdemo.decay_table(profiles)
    k0 = [r["sup_k0"] for r in rows]
    lo, hi = heatdemo.SUP_K0_BAND
    return _finish_monitor(args, analysis.MonitorReport(
        "heat_decay", lo <= min(k0) and max(k0) <= hi,
        {"sup_k0_min": lo, "sup_k0_max": hi},
        {"sup_k0_min": min(k0), "sup_k0_max": max(k0)}, rows))


def cmd_verify(args):
    # only verify needs the oracle
    from . import oracle

    grid = parse_grid(args.grid)
    body = []
    probes = [(spec.partition(":")[0], parse_metric(spec, grid, args.dim))
              for spec in ("flat", "schwarzschild", "conformal",
                           "angular-bump", "distorted-flat:amp=0.03")]
    flat_bg = metrics.build_flat(args.dim, grid)
    bg = flow.Background(flat_bg)
    radii = grid.snap((10.0, 20.0))
    worst = 0.0
    for name, g in probes:
        R = curvature.scalar_curvature(g)
        Rn = curvature.ricci_norm_sq(g)
        jet = curvature.jet(grid, g.A, g.B)
        W = flow.deturck_vector(g, bg)
        refs = zip(oracle.scalar_curvature_oracle(g, radii),
                   oracle.ricci_norm_sq_oracle(g, radii),
                   oracle.mean_curvature_oracle(g, radii),
                   oracle.deturck_vector_oracle(g, flat_bg, radii))
        for r0, ref_row in zip(radii, refs):
            i = grid.node_at(r0)
            got_row = (R[i], Rn[i], curvature.mean_curvature(
                g.n, r0, jet[:, i]), W[i])
            for label, got, ref in zip(("R", "ric2", "H", "W"),
                                       got_row, ref_row):
                # near-zero quantities are held to a 1e-2 scale floor so that
                # oracle roundoff does not masquerade as relative error
                rel = abs(got - ref) / max(abs(ref), abs(got), 1e-2)
                worst = max(worst, rel)
                body.append(f"{name}_r{r0:g}_{label}: value={got:.10g} "
                            f"oracle={ref:.10g} rel={rel:.3e}")
    ok = worst < VERIFY_TOL
    body += [f"worst_rel={worst:.3e}", f"passed={ok}"]
    _write_report(args, [f"tol_rel={VERIFY_TOL:g}", *body])
    return EXIT_OK if ok else EXIT_MONITOR


# -- argument plumbing ------------------------------------------------------

# an option's type is that of its default
_FLOW_OPTS = {"--T": 0.01, "--monitor-every": 10, "--fairness": 1.1}
_CORNER_OPTS = {"--base": "schwarzschild:m=1", "--r0": 4.0, "--strength": 0.1,
                "--rmin": 0.5, "--rmax": 300.0, "--fine-density": 32.0,
                "--outer-num": 512, "--eps": "1e-1,1e-2,1e-3"}

# every subcommand: its handler and its options besides --out and --dim
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
        "--radii": "60,80,100"}),
    # at T = 0.01 the flow has not yet lifted R above the floor
    "mass-liminf": (cmd_mass_liminf, {
        **_FLOW_OPTS, "--T": 0.2, **_CORNER_OPTS,
        "--grid": "uniform:rmin=0.5,rmax=300,num=1024",
        "--radii": "60,80,100"}),
    # fairness None: derived from --amp.  At T = 0.01 the flow has not yet
    # brought sup|R| below R_tol
    "zero-mass": (cmd_zero_mass, {
        **_FLOW_OPTS, "--T": 0.05, "--fairness": None, "--kink": 3.0,
        "--amp": 0.05, "--grid": "staggered:rmax=60,num=512"}),
    "heat-demo": (cmd_heat_demo, {"--times": "0.25,0.5,1.0", "--x-max": 200.0,
                                  "--dx": 0.05}),
    "verify": (cmd_verify, {"--grid": "uniform:rmin=0.5,rmax=40,num=1024"}),
}


# the options of every subcommand besides its own; --dim is 3, 4 or 5
COMMON_OPTS = {"--out": "", "--dim": 3}
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


def _parse(argv):
    """The handler's arguments: each option's default, overridden by its
    flag; None after --help."""
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
        print(f"numerical abort: {e}", *filter(None, [e.where()]),
              file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def main():
    sys.exit(run())
