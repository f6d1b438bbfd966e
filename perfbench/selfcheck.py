"""Self-check of the benchmark on tiny problem sizes (about 40 s).

    python3 perfbench/selfcheck.py

For each workload, at a tiny size, runs an untraced and a traced pass and
checks that every metric BENCHMARK.json names is emitted and finite, that
every span's self time is non-negative, and that the self times of an
invocation never add up to more than its traced solve time.  Exit code 0
when all hold, 1 otherwise.
"""

import json
import math
import sys

import run
from layertrace import self_times
from workloads import Invocation, Workload

# (rounding slack for self times made of float sums of child intervals)
SLACK_S = 1e-9

TINY = [
    Workload("flow", 0, {"m": 1.0}, [
        Invocation(["zero-mass", "--T", "0.05", "--monitor-every", "4",
                    "--grid", "staggered:rmax=60,num=128"], 0, "zero_mass",
                   128),
        Invocation(["mass-constancy",
                    "--grid", "uniform:rmin=0.5,rmax=300,num=512",
                    "--T", "0.02", "--monitor-every", "1",
                    "--radii", "100,150,200"], 0, "mass_constancy", 512)]),
    Workload("corner_ladder", 0, {}, [
        Invocation(["corner", "--strength", "0.1", "--eps", "1e-1",
                    "--outer-num", "128"], 0, "corner"),
        Invocation(["corner", "--strength", "-0.1", "--eps", "1e-1",
                    "--outer-num", "128"], 1, "corner")]),
    Workload("verify", 0, {}, [Invocation(
        ["verify", "--grid", "uniform:rmin=0.5,rmax=40,num=256"], 0,
        "verify")]),
]


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    problems = []
    for wl in TINY:
        result, record = run.run_workload(wl, 0, trace=True)
        got = {k: v["value"] for k, v in result["metrics"].items()}
        for names, values, kind in ((e2e_names, record["end_to_end"], "e2e"),
                                    (layer_names, got, "per-layer")):
            for n in sorted(names):
                if n not in values or not math.isfinite(values[n]):
                    problems.append(f"{wl.name}: {kind} metric {n} missing "
                                    "or not finite")
        self_sum = 0.0
        for p in record["traced_passes"]:
            for inv in p["invocations"]:
                st = self_times([tuple(s) for s in inv["trace"]["spans"]])
                self_sum += sum(st.values())
                if min(st.values()) < -SLACK_S:
                    problems.append(f"{wl.name}: negative self time "
                                    f"{min(st.values())}")
                if sum(st.values()) > inv["solve_s"] + SLACK_S:
                    problems.append(f"{wl.name}: self times {sum(st.values())}"
                                    f" exceed solve_s {inv['solve_s']}")
        if got.get("flow.rhs.calls") != 2 * got.get("flow.steps", 0):
            problems.append(f"{wl.name}: flow.rhs.calls != 2 flow.steps")
        print(f"{wl.name}: {len(got)} per-layer metrics, "
              f"solve {got['trace.solve_s']:.2f} s, "
              f"self sum {self_sum:.2f} s")
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
