"""One pass of one workload, in a fresh process started by run.py.

Usage: python3 perfbench/child.py '<json>' with the keys workload, seed,
threads, cpus, trace and dir.  The pass restricts itself to ``cpus``
before numpy is imported, runs the workload into ``dir/out``, and writes
``dir/timing.json`` (clock readings on the shared monotonic clock, peak
RSS, exit status) and, when traced, ``dir/trace.json``.
"""
import contextlib
import io
import json
import os
import resource
import sys
import time


def main():
    args = json.loads(sys.argv[1])
    os.sched_setaffinity(0, args["cpus"])
    t_import = time.perf_counter()
    import stackmf
    import_s = time.perf_counter() - t_import

    import workloads
    from tracer import Tracer

    name = args["workload"]
    spec = workloads.WORKLOADS[name]
    out = os.path.join(args["dir"], "out")
    tracer = Tracer() if args["trace"] else None
    with tracer or contextlib.nullcontext():
        if workloads.kind(name) == "cli":
            cfg = workloads.config(name)
            violations = stackmf.cli.validate_config(cfg)
            if violations:
                print("\n".join(violations), file=sys.stderr)
                return 2
            t_run = time.perf_counter()
            status = stackmf.cli.run_experiment(
                cfg, threads=args["threads"], seed=args["seed"], out_dir=out,
                stream=io.StringIO())
        else:
            t_run = time.perf_counter()
            means, stderrs = stackmf.measures.empirical_rate_curve(
                spec["dim"], spec["Ns"], list(spec["reps"]), seed=args["seed"])
            os.makedirs(out)
            with open(os.path.join(out, "curve.json"), "w") as fh:
                json.dump({"Ns": list(spec["Ns"]), "means": means.tolist(),
                           "stderrs": stderrs.tolist()}, fh)
            status = 0
        t_end = time.perf_counter()
    if tracer is not None:
        tracer.write(os.path.join(args["dir"], "trace.json"))
    timing = {"import_s": import_s, "t_run": t_run, "t_end": t_end,
              "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "status": status}
    with open(os.path.join(args["dir"], "timing.json"), "w") as fh:
        json.dump(timing, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
