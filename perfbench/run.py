"""afgeo benchmark: CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, seed 0

Run from anywhere inside a checkout; the package is imported from its `src/`.
Each invocation of the `afgeo` CLI runs in a fresh interpreter, one after
another (a closed loop with one client), so every pass pays set-up the way a
CLI user does.  Passes repeat while the next one is expected to end within
S seconds; timings are medians over passes.  With --trace 0 the last stdout line carries the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced pass (each traced
pass follows an untraced one, for the tracing overhead).
The full run record goes to `.perfbench/records/`; the stdout line before
the result names it.  See perfbench/README.md.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 1        # set-up-only interpreters per run, besides passes

# end-to-end quantities printed per workload ("-" where the workload does
# not produce one); the gated ones are in BENCHMARK.json
SUMMARY = [("setup_s", "s"), ("solve_ref", "ref_loop"), ("solve_s", "s"),
           ("peak_rss_mb", "MiB"),
           ("fail_frac", "ratio"), ("sup_R_final", "1"),
           ("roundtrip_c0", "1"), ("map_recovery_c0", "1"),
           ("flat_mass_err", "1"), ("mass_true_err", "1"),
           ("mass_drift_rel", "1"), ("oracle_worst_rel", "1"),
           ("cert_neg_part_rel", "1")]


class BenchError(RuntimeError):
    """The benchmark cannot measure: no result is printed."""


def spawn(result_dir, tag, flags, argv, cpu):
    """Run child.py once, pinned to `cpu`; returns its result dict."""
    result = result_dir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py")]
    t0 = time.monotonic_ns()
    proc = subprocess.run(cmd + [str(t0), str(SRC), str(result), *flags,
                                 "--", *argv],
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=result_dir,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"child {tag} failed (exit {proc.returncode}):\n"
                         + proc.stderr[-2000:])
    out = json.loads(result.read_text())
    if not Path(out["afgeo_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported afgeo from {out['afgeo_file']}, not {SRC}")
    out["stderr"] = proc.stderr[-2000:]
    out["cpu"] = cpu
    return out


def run_pass(wl, tmp, k, checks, cpu, trace=False):
    """One pass over the workload's invocations, on `cpu`.  Returns the pass
    record."""
    invs, reports = [], []
    for j, inv in enumerate(wl.invocations):
        outdir = tmp / f"p{k}-{j}"
        outdir.mkdir()
        flags = ["--trace"] if trace else []
        res = spawn(tmp, f"p{k}-{j}", flags, inv.argv + ["--out", str(outdir)],
                    cpu)
        checks.check(res["rc"] == inv.expect_rc,
                     f"{' '.join(inv.argv)}: exit {res['rc']}, "
                     f"expected {inv.expect_rc}")
        report = outdir / f"{inv.report}.txt"
        reports.append(workloads.read_report(report) if report.exists()
                       else None)
        res["argv"] = inv.argv
        invs.append(res)
    acc = workloads.accuracy(wl, reports, checks)
    return {"invocations": invs, "accuracy": acc,
            "solve_s": sum(i["solve_s"] for i in invs),
            "solve_ref": sum(i["solve_s"] / i["ref_s"] for i in invs),
            "peak_rss_mb": max(i["peak_rss_mb"] for i in invs)}


def host_record():
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for p in sorted((SRC / "afgeo").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "git_sha": sha, "src_sha256": digest.hexdigest(),
            "env": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}}


def run_workload(wl, seconds, trace):
    """Measure one workload; returns (result dict, record dict)."""
    name = wl.name
    checks = workloads.Checks()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    cpus = sorted(os.sched_getaffinity(0))
    try:
        # byte-compile, warm caches
        spawn(tmp, "warmup", ["--setup-only"], [], cpus[0])
        start = time.monotonic()
        setups = [spawn(tmp, f"setup{i}", ["--setup-only"], [],
                        cpus[i % len(cpus)])
                  for i in range(SETUP_SAMPLES)]
        passes, traced = [], []
        k = 0
        while True:
            # Each child is pinned, so its reference loop runs on the CPU its
            # solve ran on; passes take turns over the CPUs, and a traced
            # pass runs where its untraced partner ran.
            cpu = cpus[(k // 2) % len(cpus)]
            t_pass = time.monotonic()
            passes.append(run_pass(wl, tmp, k, checks, cpu))
            if trace:
                traced.append(run_pass(wl, tmp, k + 1, checks, cpu,
                                       trace=True))
            k += 2
            now = time.monotonic()
            # start no pass expected to end after the deadline
            if 2 * now - t_pass > start + seconds:
                break
        measured_s = time.monotonic() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    every = passes + traced
    first = every[0]["accuracy"]
    checks.check(all(p["accuracy"] == first for p in every),
                 "accuracy values differ between passes")
    setup_samples = [s["setup_s"] for s in setups] + [
        i["setup_s"] for p in passes for i in p["invocations"]]
    # The host's speed swings by up to 1.9x for minutes at a time, so the
    # gated solve time is in units of the reference loop timed around each
    # solve (README "Steadiness"); the wall time is recorded beside it.
    e2e = {"setup_s": statistics.median(setup_samples),
           "solve_ref": statistics.median(p["solve_ref"] for p in passes),
           "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
    acc = dict(first)
    gated = acc.get(workloads.GATED[name], math.nan)
    # a value the CLI failed to produce is as bad as any value can be
    e2e["accuracy_err"] = gated if math.isfinite(gated) else sys.float_info.max

    units = {"setup_s": "s", "solve_ref": "ref_loop", "peak_rss_mb": "MiB",
             "accuracy_err": "1"}
    if trace:
        per_pass, missing = [], []
        for p, t in zip(passes, traced):
            m, missing = layertrace.layer_metrics(
                [i["trace"] for i in t["invocations"]],
                [inv.nodes for inv in wl.invocations],
                t["solve_s"], p["solve_s"])
            per_pass.append(m)
        metrics = {key: {"value": statistics.median(m[key][0]
                                                    for m in per_pass),
                         "unit": unit}
                   for key, (_, unit) in per_pass[0].items()}
    else:
        missing = []
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}

    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures), "metrics": metrics}
    record = {"workload": name, "seed": wl.seed, "trace": int(trace),
              "params": wl.params, "seconds": seconds,
              "measured_s": measured_s,
              "seed_note": ("verify has no physical input to jitter; every "
                            "seed runs the same problem")
              if name == "verify" else None,
              "host": host_record(),
              "calib_s": statistics.median(s["calib_s"] for s in setups),
              "calib_samples": [s["calib_s"] for s in setups],
              "setup_samples": setup_samples,
              "end_to_end": e2e,
              "solve_s": statistics.median(p["solve_s"] for p in passes),
              "accuracy": acc,
              "fail_frac": len(checks.failures) / checks.attempted,
              "failures": checks.failures, "missing_targets": missing,
              "passes": passes, "traced_passes": traced, "result": result}
    return result, record


def summary_rows(record):
    vals = dict(record["end_to_end"], solve_s=record["solve_s"])
    vals.update(record["accuracy"])
    vals["fail_frac"] = record["fail_frac"]
    return [(k, vals.get(k), u) for k, u in SUMMARY]


def write_record(record):
    """Write the record under .perfbench/records/, and the spans of traced
    passes next to it as `<record>-spans.json`."""
    rec_dir = WORK / "records"
    rec_dir.mkdir(parents=True, exist_ok=True)
    stem = (f"{record['workload']}-seed{record['seed']}"
            f"-trace{record['trace']}")
    spans = []
    for k, p in enumerate(record["traced_passes"]):
        for j, inv in enumerate(p["invocations"]):
            spans += [{"workload": record["workload"], "pass": k,
                       "invocation": j, "id": sid, "parent": parent,
                       "name": name, "start": t0, "end": t1, "thread": th}
                      for sid, parent, name, t0, t1, th
                      in inv["trace"]["spans"]]
    if spans:
        (rec_dir / f"{stem}-spans.json").write_text(json.dumps(spans))

    def strip(p):
        return p | {"invocations": [{k: v for k, v in i.items()
                                     if k != "trace"}
                                    for i in p["invocations"]]}

    slim = record | {key: [strip(p) for p in record[key]]
                     for key in ("passes", "traced_passes")}
    path = rec_dir / f"{stem}.json"
    path.write_text(json.dumps(slim, indent=1))
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(workloads.BUILDERS) + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "afgeo" / "cli.py").is_file():
        print(f"perfbench: no afgeo package under {SRC}", file=sys.stderr)
        return 2
    names = (tuple(workloads.BUILDERS) if args.workload == "all"
             else [args.workload])
    results = {}
    try:
        for name in names:
            result, record = run_workload(workloads.make(name, args.seed),
                                          args.seconds, bool(args.trace))
            path = write_record(record)
            print(f"== {name} seed={args.seed} record={path}")
            for k, v, unit in summary_rows(record):
                print(f"  {k:<18} {'-' if v is None else f'{v:.6g}':>12} "
                      f"{unit}")
            for f in record["failures"]:
                print(f"  FAILED: {f}")
            if args.trace:
                for k, m in result["metrics"].items():
                    print(f"  {k:<30} {m['value']:>12.6g} {m['unit']}")
            results[name] = result
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps({"run_record": str(path)}))
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
