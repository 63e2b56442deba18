"""Benchmark of the moment-angle library: one workload per process, threads=1.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,ring,tor,corpus} --seed N \\
        --seconds S --trace {0,1} [--corpus-seed N]
    python3 perfbench/run.py --workload all     # every workload, one process each

A run runs passes over the workload's inputs until the next pass would end
after ``--seconds``.  Before each untraced pass it times the set-up (import
plus building the inputs) once in a fresh interpreter, so the set-up probes
are spread over the run like the passes.  Each pass builds fresh
inputs, so per-complex caches never carry over.  Every operation's answer is
checked against ``golden.json`` or an oracle outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``tracing.Tracer``, plus the tracing overhead (traced minus untraced pass
time); its spans go to ``.bench_out/``.

``--seed`` fixes the order the inputs run in.  ``--corpus-seed`` picks the
random complexes of ``corpus`` (default ``corpus.DEFAULT_SEED``): a corpus
seed changes the work by up to 4x, so it is an explicit choice, not the
per-run seed.  The last line of stdout is one JSON object; the lines before
it are the human-readable report.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 170
# the host-speed kernel runs at least this often, between inputs
HOST_SAMPLE_EVERY_S = 0.25

END_TO_END = {
    "wall_s": "s",
    "item_p50_s": "s",
    "item_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=None)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    """Import moment_angle from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "moment_angle" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no library source at {src / 'moment_angle'}")
    sys.path.insert(0, str(src))
    import moment_angle

    location = Path(moment_angle.__file__).resolve()
    if src.resolve() not in location.parents:
        raise SystemExit(f"benchmark: imported moment_angle from {location}, not {src}")
    return moment_angle


# -- set-up ---------------------------------------------------------------------


def setup_probe(args) -> int:
    """Child side: time the import and the building of the inputs."""
    start = time.perf_counter()
    import_library()
    workloads.build_inputs(args.workload, args.corpus_seed)
    print(time.perf_counter() - start)
    return 0


def measure_setup(args) -> float:
    """Time the set-up once in a fresh interpreter, at nominal host speed."""
    command = [
        sys.executable, __file__, "--setup-probe", "--workload", args.workload,
        "--corpus-seed", str(args.corpus_seed),
    ]
    before = hostspeed.sample()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    after = hostspeed.sample()
    if done.returncode != 0:
        raise SystemExit(f"benchmark: set-up probe failed: {done.stderr.strip()}")
    return hostspeed.normalised(float(done.stdout.split()[-1]), (before + after) / 2)


# -- one pass ---------------------------------------------------------------------


def fresh_items(args) -> list:
    """The workload's items on freshly built inputs, in the seed's order."""
    gc.collect()
    inputs = workloads.build_inputs(args.workload, args.corpus_seed)
    items = workloads.build_items(args.workload, inputs, args.corpus_seed, ROOT)
    return workloads.ordered(items, args.seed)


def run_pass(items: list, golden: dict, tracer=None) -> dict:
    """Run every operation on the items, then check the answers untimed.

    Between inputs, at least every HOST_SAMPLE_EVERY_S, the host-speed kernel
    runs; each input's latency is also given at nominal host speed, using the
    mean of the kernel times just before and just after it.
    """
    latencies, normalised, failures, digests = {}, {}, [], {}
    attempted = 0
    reference, pending = hostspeed.sample(), []
    if tracer is not None:
        tracer.install()
    try:
        for index, item in enumerate(items):
            results, error = {}, None
            with tracer.item(item.name) if tracer is not None else nullcontext():
                start = time.perf_counter()
                for step in item.steps:
                    try:
                        results[step.name] = step.call(item.complex, results)
                    except Exception as exc:  # a failed operation is counted, not fatal
                        error = f"{step.name} raised {type(exc).__name__}: {exc}"
                        break
                latencies[item.name] = time.perf_counter() - start
            pending.append(item.name)
            attempted += len(item.steps)
            for step in item.steps:
                key = f"{item.golden_prefix}/{step.name}"
                if step.name not in results:
                    failures.append((key, error or "not run"))
                    continue
                reason = check(step, item, results[step.name], golden.get(key), digests, key)
                if reason:
                    failures.append((key, reason))
            del results
            if index == len(items) - 1 or sum(latencies[name] for name in pending) >= HOST_SAMPLE_EVERY_S:
                after = hostspeed.sample()
                for name in pending:
                    normalised[name] = hostspeed.normalised(latencies[name], (reference + after) / 2)
                reference, pending = after, []
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "traced": tracer is not None,
        "wall": sum(latencies.values()),
        "latencies": latencies,
        "normalised": normalised,
        "attempted": attempted,
        "failures": failures,
        "digests": digests,
        "layers": tracer.layer_metrics() if tracer is not None else None,
    }


def check(step, item, result, want, digests, key) -> str | None:
    got = workloads.digest(step.payload(result))
    digests[key] = got
    if want is None and item.needs_golden:
        return "no golden digest"
    if want is not None and got != want:
        return f"digest {got[:12]} differs from golden {want[:12]}"
    if step.oracle is not None:
        return step.oracle(item.complex, result)
    return None


# -- statistics and report ------------------------------------------------------------


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values: list, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": args.seed,
        "corpus_seed": args.corpus_seed,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def end_to_end(passes: list, setup: list) -> tuple:
    """Medians over passes of the latencies at nominal host speed (see hostspeed)."""
    walls = [p["wall"] for p in passes]
    names = list(passes[0]["latencies"])
    latencies = [statistics.median(p["normalised"][name] for p in passes) for name in names]
    raw = [statistics.median(p["latencies"][name] for p in passes) for name in names]
    least = [min(p["latencies"][name] for p in passes) for name in names]
    metrics = {
        "wall_s": sum(latencies),
        "item_p50_s": percentile(latencies, 50),
        "item_p90_s": percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    lines = [
        "at nominal host speed, each input's latency the median of {} passes:".format(len(walls)),
        "wall_s      {:.4f} s  item_p50_s {:.6f} s  item_p90_s {:.6f} s  n={} inputs".format(
            metrics["wall_s"], metrics["item_p50_s"], metrics["item_p90_s"], len(names)
        ),
        "setup_s     {:.4f} s  q1 {:.4f} q3 {:.4f}  n={} probes".format(metrics["setup_s"], *quartiles(setup)[::2], len(setup)),
        "as measured: wall_s {:.4f} s (least {:.4f})  item_p50_s {:.6f} s  item_p90_s {:.6f} s".format(
            sum(raw), sum(least), percentile(raw, 50), percentile(raw, 90)
        ),
        "pass times  {}  (q1 {:.4f} median {:.4f} q3 {:.4f})".format(
            " ".join(f"{w:.4f}" for w in walls), *quartiles(walls)
        ),
        "peak_rss_mb {:.1f} MB".format(metrics["peak_rss_mb"]),
    ]
    return metrics, lines


def per_layer(plain: list, traced: list) -> tuple:
    def at_nominal_speed(p, name):
        # a layer's time is scaled like its pass's time (see hostspeed); counts are not
        value = p["layers"][name]
        return value * sum(p["normalised"].values()) / p["wall"] if tracing.unit_of(name) == "s" else value

    names = list(traced[0]["layers"])
    metrics = {name: statistics.median(at_nominal_speed(p, name) for p in traced) for name in names}
    traced_wall = statistics.median(sum(p["normalised"].values()) for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(sum(p["normalised"].values()) for p in plain)
    lines = [f"{name:40s} {value:>14.6g} {tracing.unit_of(name):5s} moves {tracing.moves(name)}" for name, value in metrics.items()]
    return metrics, lines


def write_spans(args, tracer) -> Path:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.json"
    payload = {
        "spans": [list(span) for span in tracer.spans if span is not None],
        "aggregates": [[name, parent, *row] for (name, parent), row in sorted(tracer.agg.items())],
        "counts": dict(tracer.counts),
    }
    path.write_text(json.dumps(payload))
    return path


# -- entry points -----------------------------------------------------------------------


def run_workload(args) -> int:
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    from moment_angle.errors import TorsionWarning

    warnings.simplefilter("ignore", TorsionWarning)
    golden = workloads.load_golden()
    deadline = time.perf_counter() + args.seconds
    passes, costs, setup, last_tracer = [], [], [], None
    while True:
        tracer = tracing.Tracer() if args.trace and len(passes) % 2 == 1 else None
        start = time.perf_counter()
        if not args.trace:
            setup.append(measure_setup(args))
        passes.append(run_pass(fresh_items(args), golden, tracer))
        costs.append(time.perf_counter() - start)
        last_tracer = tracer or last_tracer
        if args.trace and len(passes) < 2:
            continue
        if time.perf_counter() + max(costs) > deadline:
            break

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failures = [f for p in passes for f in p["failures"]]
    # tracing must not change a single answer
    for p in traced:
        for key, value in p["digests"].items():
            if plain[0]["digests"].get(key, value) != value:
                failures.append((key, "traced digest differs from untraced"))
    attempted = sum(p["attempted"] for p in passes)

    print(f"moment-angle benchmark: workload={args.workload} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(environment(args)))
    print(f"operations: attempted={attempted} failed={len(failures)} fail_frac={len(failures) / attempted:.6f} ratio")
    for key, reason in failures[:20]:
        print(f"  FAILED {key}: {reason}")
    if args.trace:
        metrics, lines = per_layer(plain, traced)
        lines.append(f"spans written to {write_spans(args, last_tracer).relative_to(ROOT)}")
        units = {name: tracing.unit_of(name) for name in metrics}
    else:
        metrics, lines = end_to_end(plain, setup)
        units = END_TO_END
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; prints one table at the end."""
    results = {}
    for workload in workloads.WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--corpus-seed", str(args.corpus_seed),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[workload] = json.loads(done.stdout.splitlines()[-1])
    names = list(results[workloads.WORKLOADS[0]]["metrics"])
    print()
    print(f"{'metric':40s}" + "".join(f"{w:>14s}" for w in results) + "  unit")
    rows = [("fail_frac", "ratio", {w: r["failed"] / r["attempted"] for w, r in results.items()})]
    for name in names:
        unit = results[workloads.WORKLOADS[0]]["metrics"][name]["unit"]
        rows.append((name, unit, {w: r["metrics"][name]["value"] for w, r in results.items()}))
    for name, unit, values in rows:
        print(f"{name:40s}" + "".join(f"{values[w]:>14.6g}" for w in results) + f"  {unit}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        sys.stderr.write("benchmark: refusing to run under python -O, which strips the library's asserts\n")
        return 2
    if args.setup_probe:
        return setup_probe(args)
    ma = import_library()
    if args.corpus_seed is None:
        args.corpus_seed = ma.corpus.DEFAULT_SEED
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
