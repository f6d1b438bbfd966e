"""One afgeo invocation in a fresh interpreter, as a CLI user runs it.

    python3 child.py SPAWN_NS SRC RESULT [--setup-only | --trace] -- ARGV...

SPAWN_NS is the parent's time.monotonic_ns() just before it started this
process, so the set-up time counts interpreter start, imports (numpy and
scipy included) and everything up to the call of `afgeo.cli.run`.  The
result (timings, exit code, peak RSS, and spans when traced) is written as
JSON to RESULT.  The fixed numpy reference loop is timed just before and
just after `cli.run`, in the same process on the same CPU, so that the solve
time can be expressed in host speed (see README "Steadiness").
`--setup-only` stops after the import and times the reference loop once.
"""

import json
import resource
import sys
import time


def calibrate():
    """Seconds for a fixed pure-numpy loop: the host's current speed."""
    import numpy as np
    x = np.random.default_rng(0).standard_normal((512, 3, 3, 3))
    t0 = time.perf_counter()
    for _ in range(300):
        np.einsum("Nabc,Nabd->Ncd", x, x)
    return time.perf_counter() - t0


def main(argv):
    spawn_ns, src, result_path, *rest = argv
    sep = rest.index("--")
    flags, cli_argv = rest[:sep], rest[sep + 1:]
    sys.path.insert(0, src)
    import afgeo.cli as cli
    setup_s = (time.monotonic_ns() - int(spawn_ns)) * 1e-9
    out = {"setup_s": setup_s, "afgeo_file": cli.__file__}
    if "--setup-only" in flags:
        out["calib_s"] = calibrate()
    else:
        tracer = None
        if "--trace" in flags:
            from layertrace import Tracer
            tracer = Tracer()
            tracer.install()
        ref_before = calibrate()
        t0 = time.perf_counter()
        rc = cli.run(cli_argv)
        out["solve_s"] = time.perf_counter() - t0
        out["ref_s"] = (ref_before + calibrate()) / 2
        out["rc"] = rc
        if tracer is not None:
            out["trace"] = tracer.dump()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
