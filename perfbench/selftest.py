"""Self-test of the benchmark itself; takes about ten seconds.

    python3 perfbench/selftest.py

Shows that the benchmark notices a wrong answer and a raising call
(fail_frac > 0), that tracing changes no answer and leaves the library as
it found it, that the memory-light ring payload equals ``ring_json_obj``,
that the metric names agree with BENCHMARK.json, that every input gets a
latency at nominal host speed, and that ``python -O`` is refused.
"""

from __future__ import annotations

import json
import subprocess
import sys
import warnings

import hostspeed
import run
import tracing
import workloads

FAILURES = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILURES.append(what)


def tor_items(ma, names):
    inputs = [pair for pair in workloads.build_inputs("tor", None) if pair[0] in names]
    return workloads.build_items("tor", inputs, None, run.ROOT)


def wrong_answers_are_counted(ma, golden) -> None:
    items = tor_items(ma, {"p28"})
    items[0].steps[0].call = lambda _c, _r: ma.cross_check(ma.polygon(5), threads=1)
    result = run.run_pass(items, golden)
    expect(len(result["failures"]) == 1 and result["attempted"] == 1, "a wrong p28 answer is one failed operation")

    items = tor_items(ma, {"p28"})
    items[0].steps[0].call = lambda _c, _r: ma.polygon(2)  # raises ParameterOutOfRange
    result = run.run_pass(items, golden)
    expect(len(result["failures"]) == 1, "a raising call is one failed operation")

    items = tor_items(ma, {"p28"})
    result = run.run_pass(items, golden)
    expect(not result["failures"], "the right p28 answer passes")


def tracing_changes_no_answer(ma, golden) -> None:
    seed = ma.corpus.DEFAULT_SEED
    inputs = workloads.build_inputs("corpus", seed)[:16]
    plain = run.run_pass(workloads.build_items("corpus", inputs, seed, run.ROOT), golden)
    originals = {name: getattr(ma.snf, name) for name in ("invariant_factors_sparse", "_diag_snf")}
    tracer = tracing.Tracer()
    inputs = workloads.build_inputs("corpus", seed)[:16]
    traced = run.run_pass(workloads.build_items("corpus", inputs, seed, run.ROOT), golden, tracer)
    expect(not plain["failures"] and not traced["failures"], "16 corpus inputs pass, traced and untraced")
    expect(plain["digests"] == traced["digests"], "traced digests equal untraced digests")
    expect(
        all(getattr(ma.snf, name) is fn for name, fn in originals.items())
        and ma.homology.invariant_factors_sparse is originals["invariant_factors_sparse"],
        "uninstall restores every patched name",
    )
    layers = traced["layers"]
    touched = ("snf.sparse.calls", "ring.star_product.calls", "resolutions.taylor.monomials", "reproduction.checklist_s")
    expect(all(layers[name] > 0 for name in touched), "the traced pass reaches snf, ring, resolutions, reproduction")


def counts_are_exact(ma, golden) -> None:
    tracer = tracing.Tracer()
    run.run_pass(tor_items(ma, {"p28", "7-cycle+chords{1,4}{2,6}"}), golden, tracer)
    layers = tracer.layer_metrics()
    expect(layers["hochster.subsets_visited"] == 2**8 + 2**7, "one sweep visits 2^m subsets")
    expect(layers["resolutions.taylor.monomials"] == 2**10 + 2**12, "Taylor builds 2^|missing faces| monomials")
    expect(layers["resolutions.koszul.calls"] == 2, "one Koszul computation per cross_check")


def ring_payload_is_ring_json(ma) -> None:
    from moment_angle.ring import ring_json_obj

    for complex_ in (ma.construct_p28_8(), ma.polygon(7), ma.random_complexes(3, seed=1)[2]):
        presentation = ma.ring_presentation(complex_, threads=1)
        same = workloads.digest(workloads.ring_payload(presentation)) == workloads.digest(ring_json_obj(presentation))
        expect(same, f"ring payload equals ring_json_obj on {complex_!r}"[:100])


def names_match_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer_names = list(tracing.Tracer().layer_metrics()) + ["trace.wall_s", "trace.overhead_s"]
    expect([m["name"] for m in spec["per_layer"]] == layer_names, "per_layer names match tracing.py")
    expect(
        all(m["unit"] == tracing.unit_of(m["name"]) for m in spec["per_layer"]),
        "per_layer units match tracing.py",
    )
    expect([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END), "end_to_end names match run.py")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workload names match workloads.py")


def every_input_is_normalised(ma, golden) -> None:
    result = run.run_pass(tor_items(ma, {"p28", "rp2_6"}), golden)
    expect(set(result["normalised"]) == set(result["latencies"]), "every input gets a latency at nominal host speed")
    expect(hostspeed.kernel() == hostspeed.kernel(), "the host-speed kernel does the same work every time")


def optimized_python_is_refused() -> None:
    command = [sys.executable, "-O", str(run.ROOT / "perfbench" / "run.py"), "--workload", "tor"]
    done = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True, timeout=60)
    expect(done.returncode == 2 and not done.stdout, "python -O is refused with exit code 2")


def main() -> int:
    ma = run.import_library()
    warnings.simplefilter("ignore", ma.errors.TorsionWarning)
    golden = workloads.load_golden()
    wrong_answers_are_counted(ma, golden)
    tracing_changes_no_answer(ma, golden)
    counts_are_exact(ma, golden)
    ring_payload_is_ring_json(ma)
    names_match_benchmark_json()
    every_input_is_normalised(ma, golden)
    optimized_python_is_refused()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
