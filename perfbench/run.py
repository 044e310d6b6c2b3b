"""stackmf benchmark: one workload, timed from outside the program.

    python3 perfbench/run.py --workload cost-gap-linear --seed 5 \\
        --seconds 30 --trace 0

Each round runs the workload in fresh processes (perfbench/child.py):
untraced, one pass with one core and ``threads=1`` and one pass with two
cores and ``threads=2``; traced (``--trace 1``), one untraced and one
traced pass, both on one core.  Rounds repeat while another round fits in
``--seconds``.  Every pass must exit 0 and write the same output bytes as
the run's first pass, whose outputs are checked by workloads.check; a pass
that does not counts as failed.  The last line of stdout is one JSON
object: correct, attempted, failed, and the medians over the rounds of the
end-to-end metrics (untraced) or of the per-layer metrics (traced).
"""
import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"
PASS_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import TARGETS, self_times  # noqa: E402

# per-layer metrics reported as calls and self seconds; the rates
# experiment functions are summed into rates.self_s
FUNCTION_LAYERS = [label for _, _, label in TARGETS
                   if not label.startswith(("rates.", "cli."))]
CLI_LAYERS = ["cli.validate_config", "cli.build_objects", "cli.run_experiment"]


def run_pass(name, seed, threads, cpus, trace, pass_dir):
    """Run one pass in a fresh process; returns its measurements."""
    pass_dir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    args = {"workload": name, "seed": seed, "threads": threads,
            "cpus": cpus, "trace": trace, "dir": str(pass_dir)}
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                               json.dumps(args)], env=env, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name} pass killed after {PASS_TIMEOUT_S} s", file=sys.stderr)
        return None
    timing_file = pass_dir / "timing.json"
    if proc.returncode != 0 or not timing_file.exists():
        sys.stderr.write(f"{name} pass exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
        return None
    timing = json.loads(timing_file.read_text())
    result = {"setup_s": timing["t_run"] - t_spawn,
              "run_s": timing["t_end"] - timing["t_run"],
              "peak_rss_mb": timing["maxrss_kib"] / 1024.0,
              "import_s": timing["import_s"],
              "t_run": timing["t_run"]}
    if trace:
        result["trace"] = json.loads((pass_dir / "trace.json").read_text())
    return result


def output_digest(name, pass_dir):
    h = hashlib.sha256()
    for fname in workloads.OUTPUT_FILES[workloads.kind(name)]:
        h.update((pass_dir / "out" / fname).read_bytes())
    return h.hexdigest()


def layer_metrics(name, traced, plain):
    """Per-layer metrics: medians over the traced passes."""
    per_pass = []
    for p in traced:
        spans = p["trace"]["spans"]
        counters = p["trace"]["counters"]
        totals = self_times(spans)
        in_run = self_times(spans, since=p["t_run"])
        values = {"cli.import_s": p["import_s"],
                  "trace_run_s": p["run_s"],
                  "trace_spans_s": sum(s for _, s in in_run.values())}
        for label in FUNCTION_LAYERS:
            calls, self_s = totals.get(label, (0, 0.0))
            values[f"{label}.calls"] = calls
            values[f"{label}.self_s"] = self_s
        for label in CLI_LAYERS:
            values[f"{label}.self_s"] = totals.get(label, (0, 0.0))[1]
        values["rates.self_s"] = sum(
            s for label, (_, s) in totals.items() if label.startswith("rates."))
        values["rng.streams_per_rep"] = (
            values["rng.generator.calls"] / workloads.WORKLOADS[name]["units"])
        values["meanfield.picard_iterations"] = counters["picard_iterations"]
        values["meanfield.picard_unconverged"] = counters["picard_unconverged"]
        per_pass.append(values)
    # counts repeat exactly from pass to pass; keep them whole numbers
    metrics = {key: (statistics.median_low if isinstance(value, int)
                     else statistics.median)(v[key] for v in per_pass)
               for key, value in per_pass[0].items()}
    metrics["trace_overhead_s"] = metrics["trace_run_s"] - statistics.median(
        p["run_s"] for p in plain)
    return metrics


def unit_of(key):
    if key.endswith(".calls") or key.startswith("meanfield.picard"):
        return "count"
    if key.endswith("_per_rep"):
        return "count/rep"
    return "s"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "stackmf" / "__init__.py").is_file():
        print(f"stackmf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cpus = sorted(os.sched_getaffinity(0))
    if args.trace:
        round_spec = [("plain", 1, cpus[:1], False), ("traced", 1, cpus[:1], True)]
    else:
        round_spec = [("1t", 1, cpus[:1], False), ("2t", 2, cpus[:2], False)]

    run_dir = RUNS / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    passes = {label: [] for label, *_ in round_spec}
    attempted = failed = 0
    check_failed = False
    reference = None            # (digest, error list) of the first good pass
    start = time.perf_counter()
    try:
        for round_no in itertools.count():
            r0 = time.perf_counter()
            for label, threads, pass_cpus, trace in round_spec:
                attempted += 1
                pass_dir = run_dir / f"{round_no:03d}-{label}"
                res = run_pass(args.workload, args.seed, threads, pass_cpus,
                               trace, pass_dir)
                if res is None:
                    failed += 1
                    continue
                digest = output_digest(args.workload, pass_dir)
                if reference is None:
                    errors = workloads.check(args.workload, pass_dir / "out",
                                             args.seed)
                    reference = (digest, errors)
                    for e in errors:
                        print(f"check failed: {e}", file=sys.stderr)
                elif digest != reference[0]:
                    errors = [f"{label} pass output bytes differ"]
                    print(errors[0], file=sys.stderr)
                else:
                    errors = reference[1]
                if errors:
                    failed += 1
                    check_failed = True
                print(f"round {round_no} {label}: run_s {res['run_s']:.3f} "
                      f"setup_s {res['setup_s']:.3f}", file=sys.stderr)
                passes[label].append(res)
                shutil.rmtree(pass_dir)
            now = time.perf_counter()
            if now - start + (now - r0) > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if any(not p for p in passes.values()):
        print("no pass of some kind completed; no metrics", file=sys.stderr)
        return 1
    if args.trace:
        values = layer_metrics(args.workload, passes["traced"], passes["plain"])
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in sorted(values.items())}
    else:
        one, two = passes["1t"], passes["2t"]
        med = statistics.median
        metrics = {
            "run_s": {"value": med(p["run_s"] for p in one), "unit": "s"},
            "run_s_2t": {"value": med(p["run_s"] for p in two), "unit": "s"},
            "setup_s": {"value": med(p["setup_s"] for p in one + two),
                        "unit": "s"},
            "peak_rss_mb": {"value": med(p["peak_rss_mb"] for p in one),
                            "unit": "MiB"},
        }
    print(json.dumps({"correct": not check_failed, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
