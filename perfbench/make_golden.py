"""Regenerate golden.json from the library in this checkout.

    python3 perfbench/make_golden.py

Golden digests pin the library's answers, so regenerate them only when a
change means to alter an answer, and say why.  Every answer must also pass
its oracle (three-method agreement, the paper checklist, the p28 test
table); the script refuses to write anything otherwise.
"""

from __future__ import annotations

import json
import sys
import warnings

import run
import workloads


def main() -> int:
    ma = run.import_library()
    warnings.simplefilter("ignore", ma.errors.TorsionWarning)
    golden = {}
    jobs = [(w, None) for w in workloads.WORKLOADS if w != "corpus"]
    jobs += [("corpus", seed) for seed in (ma.corpus.DEFAULT_SEED, 7)]
    for workload, corpus_seed in jobs:
        inputs = workloads.build_inputs(workload, corpus_seed)
        for item in workloads.build_items(workload, inputs, corpus_seed, run.ROOT):
            results = {}
            for step in item.steps:
                result = step.call(item.complex, results)
                results[step.name] = result
                reason = step.oracle(item.complex, result) if step.oracle else None
                if reason:
                    sys.stderr.write(f"{item.golden_prefix}/{step.name}: {reason}\n")
                    return 1
                golden[f"{item.golden_prefix}/{step.name}"] = workloads.digest(step.payload(result))
        print(f"{workload} {corpus_seed or ''}: {len(golden)} digests so far")
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
