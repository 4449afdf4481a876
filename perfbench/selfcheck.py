"""Quick self-check: every workload, timed and traced, at a tiny scale.

    python3 perfbench/selfcheck.py

Runs each workload to its end with the same output checks as the real
benchmark, at scales small enough that the whole check takes well under
a minute, and verifies that each run prints exactly the metrics
``BENCHMARK.json`` lists (every end-to-end metric untraced, above 0;
every per-layer metric traced), that every check passed and that no
operation failed.  Exits 0 when all is well.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import run  # noqa: E402

#: Seconds each tiny run measures.
SECONDS = 2.0


def _declared():
    spec = common.read_json(common.ROOT / "BENCHMARK.json")
    return (
        {entry["name"]: entry["unit"] for entry in spec["end_to_end"]},
        {entry["name"]: entry["unit"] for entry in spec["per_layer"]},
    )


def main() -> int:
    end_to_end, per_layer = _declared()
    problems = []
    for workload in run.WORKLOADS:
        for trace, declared in ((False, end_to_end), (True, per_layer)):
            label = f"{workload} trace={int(trace)}"
            result = run.run_workload(workload, seed=7, seconds=SECONDS, trace=trace, tiny=True)
            common.log(f"{label}: {json.dumps(result, sort_keys=True)}")
            metrics = result["metrics"]
            if set(metrics) != set(declared):
                problems.append(f"{label}: metrics {sorted(metrics)} != {sorted(declared)}")
            for name, value in metrics.items():
                if declared.get(name) != value["unit"]:
                    problems.append(f"{label}: {name} in {value['unit']}, declared {declared.get(name)}")
                if not trace and not value["value"] > 0:
                    problems.append(f"{label}: {name} reads {value['value']}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
