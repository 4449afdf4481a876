"""Benchmark entry point.

    python3 perfbench/run.py --workload bundle|archive_build|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it prints every
end-to-end metric ``BENCHMARK.json`` declares; with ``--trace 1`` a
separate traced run prints every per-layer metric, reading 0 for the
layers the workload never calls.  Progress goes to stderr; the last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each metric a ``value`` and a ``unit``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("bundle", "archive_build", "serve_mix")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; ``tiny`` shrinks its scale for the self-check."""
    common.require_source()
    if name == "bundle":
        import bundle as workload
    elif name == "archive_build":
        import archive_build as workload
    else:
        import serve_mix as workload
    scale = workload.TINY_SCALE if tiny else workload.SCALE
    result = workload.run(seed, seconds, trace, scale=scale)
    if trace:
        # A layer this workload never calls did no work in it.
        declared = common.read_json(common.ROOT / "BENCHMARK.json")["per_layer"]
        for entry in declared:
            result["metrics"].setdefault(entry["name"], common.metric(0.0, entry["unit"]))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so servers and children are stopped.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        common.log(f"host: {common.host_info()}")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
