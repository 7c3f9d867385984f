#!/usr/bin/env python3
"""Self-test of the gkval benchmark.

    python3 perfbench/selftest.py

For each workload, at the default seed: two traced runs must report
identical per-layer counts, and both must pass the correctness checks (the traced
outputs are checked like the untimed ones).  One untraced run must pass too.
Each run reports exactly the metrics BENCHMARK.json lists.  A run of
--seconds 0 makes one pass, so the whole test takes one to two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from run import DEFAULT_SEED, WORKLOADS  # noqa: E402


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(DEFAULT_SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    errors = []
    for workload in WORKLOADS:
        runs = {0: [bench(workload, 0)], 1: [bench(workload, 1), bench(workload, 1)]}
        for trace, results in runs.items():
            for result in results:
                if not result["correct"] or result["failed"]:
                    errors.append(f"{workload} trace={trace}: {result['failed']} failed operations")
                if sorted(result["metrics"]) != sorted(listed[trace]):
                    errors.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
        first, second = (r["metrics"] for r in runs[1])
        for name, entry in first.items():
            exact = entry["unit"] in ("count", "ratio")
            if exact and entry["value"] != second[name]["value"]:
                errors.append(f"{workload}: {name} is {entry['value']} then "
                              f"{second[name]['value']} with the same seed")
        print(f"{workload}: checked", flush=True)
    for error in errors:
        print(f"FAIL {error}")
    print("self-test passed" if not errors else f"self-test failed: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
