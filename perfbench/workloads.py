"""The benchmark workloads: CLI invocations, seed jitter, output checks.

A workload is a list of `afgeo` CLI invocations run one after another, each
in a fresh interpreter.  Seed 0 is the reference configuration; other seeds
jitter physical parameters through existing CLI flags only, within ranges on
which the gated accuracy value stays within about 2 % of its seed-0 value
(see README.md for the measured sensitivities).
"""

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

SIXTEEN_PI = 16.0 * math.pi  # unnormalised mass of Schwarzschild m = 1, n = 3


@dataclass
class Invocation:
    argv: list               # CLI arguments, without --out
    expect_rc: int           # required exit code
    report: str              # report file the CLI writes, without .txt
    nodes: int = 0           # grid size of the flow, 0 if there is none


@dataclass
class Workload:
    name: str
    seed: int
    params: dict
    invocations: list = field(default_factory=list)


def _flow(rng):
    # Sizes keep one pass near 1 s of solve, so a run holds many passes
    # (README "Steadiness").  zero-mass: flat background through the origin,
    # then diffeomorphism extraction and pullback.  sup_R_final moves by 4 %
    # per node spacing the kink moves, and by up to 23 % when the kink moves
    # off its phase against the grid, so the kink stays at 3.0 and only the
    # amplitude is jittered (sup_R_final is close to linear in it); amp 0.01
    # keeps sup_R_final under the monitor's 1e-4 tolerance at N = 256.
    # mass-constancy: 3x the grid, curved and excised, a snapshot and mass
    # ladder every step; mass_true_err grows like m^2 near m = 1.
    amp = 0.01 if rng is None else round(rng.uniform(0.0098, 0.01), 6)
    m = 1.0 if rng is None else round(rng.uniform(0.995, 1.005), 6)
    return {"kink": 3.0, "amp": amp, "m": m}, [
        Invocation(["zero-mass", "--T", "0.025", "--monitor-every", "5",
                    "--grid", "staggered:rmax=60,num=256",
                    "--kink", "3.0", "--amp", repr(amp)], 0, "zero_mass",
                   256),
        Invocation(["mass-constancy",
                    "--grid", "uniform:rmin=0.5,rmax=300,num=768",
                    "--T", "0.02", "--monitor-every", "1",
                    "--radii", "100,150,200",
                    "--metric", f"schwarzschild:m={m!r}"], 0,
                   "mass_constancy", 768)]


def _corner_ladder(rng):
    s = 0.1 if rng is None else round(rng.uniform(0.05, 0.1), 6)
    # the reversed jump violates H(-) >= H(+): it must be refused.  Its
    # sigma-halving loop costs about 2.5 s per epsilon, so it runs at the
    # largest epsilon only and a pass stays near 3 s
    return {"strength": s}, [
        Invocation(["corner", "--strength", repr(s)], 0, "corner"),
        Invocation(["corner", "--strength", repr(-s), "--eps", "1e-1"], 1,
                   "corner")]


def _verify(rng):
    # verify takes no physical input, so every seed runs the same problem.
    # Its solve is a fixed 8 to 13 s, too few passes per run to be steady on
    # a shared host, so it is run by hand only and is not in BENCHMARK.json
    return {}, [Invocation(["verify"], 0, "verify")]


BUILDERS = {"flow": _flow, "corner_ladder": _corner_ladder,
            "verify": _verify}


def make(name, seed):
    """The workload `name` for `seed`; seed 0 is the reference configuration."""
    rng = None if seed == 0 else random.Random(f"{name}:{seed}")
    params, invs = BUILDERS[name](rng)
    return Workload(name, seed, params, invs)


# -- report parsing and checks ----------------------------------------------

def read_report(path):
    """key=value pairs of a CLI report; corner lines `eps=.. k=v ..` become
    one dict per epsilon under the key 'eps'."""
    out = {"eps": []}
    for line in Path(path).read_text().splitlines():
        if line.startswith("eps="):
            out["eps"].append(dict(kv.split("=", 1) for kv in line.split()))
        elif "=" in line:
            k, v = line.split("=", 1)
            out[k] = v
    return out


class Checks:
    """Counts correctness checks; failures are kept with a reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def number(self, report, key, what):
        """Parse report[key] as a finite float; a failed parse is a failed
        check and yields nan."""
        try:
            v = float(report[key])
        except (KeyError, TypeError, ValueError):
            v = math.nan
        self.check(math.isfinite(v), f"{what}: {key} missing or not finite")
        return v


def accuracy(workload, reports, checks):
    """Accuracy values of one pass over the workload's invocations.

    `reports` holds the parsed report of each invocation (None when it was
    not written).  Returns {name: value}; every value is checked finite.
    """
    w = workload.name
    if any(r is None for r in reports):
        checks.check(False, f"{w}: report missing")
        return {}
    rep = reports[0]
    if w == "flow":
        zm, mc = reports
        exact = SIXTEEN_PI * workload.params["m"]
        final = checks.number(mc, "mass_final", w)
        return {k: checks.number(zm, k, w) for k in
                ("sup_R_final", "roundtrip_c0", "map_recovery_c0")} | {
            "flat_mass_err": abs(checks.number(zm, "mass", w)) / SIXTEEN_PI,
            "mass_true_err": abs(final - exact) / SIXTEEN_PI,
            "mass_drift_rel": checks.number(mc, "drift_rel", w)}
    if w == "corner_ladder":
        valid, invalid = reports
        ratios = [checks.number(e, "neg_part", w)
                  / checks.number(e, "epsilon", w) for e in valid["eps"]]
        checks.check(valid["eps"] and all(
            e.get("satisfied") == "True" for e in valid["eps"]),
            f"{w}: valid corner not certified at every epsilon")
        checks.check(invalid["eps"] and all(
            e.get("satisfied") == "False" for e in invalid["eps"]),
            f"{w}: invalid corner certified at some epsilon")
        floor = min((checks.number(e, "neg_part", w) for e in invalid["eps"]),
                    default=math.nan)
        return {"cert_neg_part_rel": max(ratios, default=math.nan),
                "invalid_neg_part_floor": floor}
    if w == "verify":
        return {"oracle_worst_rel": checks.number(rep, "worst_rel", w)}
    raise KeyError(w)


# The one accuracy value per workload that the benchmark gates: the error of
# the certified result against its exact or independent answer.
GATED = {"flow": "sup_R_final", "corner_ladder": "cert_neg_part_rel",
         "verify": "oracle_worst_rel"}
