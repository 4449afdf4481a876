"""One measured task in a fresh process.

    python3 perfbench/child.py setup   --timings F
    python3 perfbench/child.py bundle  --out DIR --scale S --timings F [--spans F]
    python3 perfbench/child.py archive --out DIR --scale S --timings F
                                       [--spans F | --setup-only]

The child writes monotonic timestamps to ``--timings``: ``ready`` once
the program is imported and set up (the parent's spawn time to ``ready``
is set-up time) and ``done`` when the result is complete.  With
``--spans`` it wraps the layers' public functions first and writes the
recorded spans when it ends.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import baseline_spec, now, require_source, write_json  # noqa: E402
from spans import Tracer  # noqa: E402


def _repro_modules():
    return [
        module for name, module in sorted(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def trace_world(tracer: Tracer) -> None:
    """Spans for the world build: population, flows, the rest of sim."""
    import repro.experiments.context as context
    import repro.sim.conflict as conflict
    import repro.sim.flows as flows

    tracer.span(context, "build_scenario", "sim.world_s")
    tracer.span(conflict, "build_world", "sim.world_s")
    tracer.span(conflict, "DomainPopulation", "registry.population_s")
    tracer.span(flows.FlowEngine, "run", "sim.flows_s")


def trace_bundle(tracer: Tracer) -> None:
    import repro.ctlog.monitor as monitor
    import repro.dns.idna as idna
    import repro.experiments.base as base
    import repro.experiments.registry as registry
    import repro.measurement.sweep as sweep
    import repro.pki.certificate  # noqa: F401  (imports to_ascii)
    import repro.registry.tld  # noqa: F401  (imports to_ascii)
    import repro.scanner.cuids as cuids
    import repro.scanner.tls as tls
    import repro.sim.conflict as conflict

    trace_world(tracer)
    tracer.span(
        conflict, "simulate_pki", "pki.issue_s",
        on_result=lambda pki: tracer.count("pki.certificates", len(pki.store)),
    )
    tracer.counter_everywhere(idna.to_ascii, _repro_modules(), "dns.to_ascii_calls")
    tracer.span(cuids.UniversalScanDataset, "run_sweeps", "scanner.scan_s")
    tracer.counter(tls.TlsScanner, "scan", "scanner.scans")
    tracer.span(
        monitor.CtMonitor, "poll", "ctlog.poll_s",
        on_result=lambda matched: tracer.count("ctlog.entries", matched),
    )
    tracer.span(
        sweep.SweepEngine, "run", "measurement.sweep_s",
        on_result=lambda records: tracer.count("measurement.snapshots", len(records)),
    )
    for key in list(registry.EXPERIMENTS):
        tracer.span(registry.EXPERIMENTS, key, "experiments.run_s")
    tracer.span(base.ExperimentResult, "render", "experiments.write_s")
    tracer.span(base.ExperimentResult, "write_csv", "experiments.write_s")


def trace_archive(tracer: Tracer) -> None:
    import repro.archive.builder as builder
    import repro.archive.manifest as manifest
    import repro.archive.shard as shard
    import repro.measurement.fast as fast

    trace_world(tracer)
    tracer.span_iteration(fast.FastCollector, "sweep", "measurement.collect_s")
    tracer.span(builder, "summarize_snapshot", "archive.summarize_s")
    tracer.span(shard.DayShardRecord, "from_snapshot", "archive.encode_s")
    tracer.span(shard, "encode_shard", "archive.encode_s")
    tracer.span(shard, "atomic_write_bytes", "archive.fs_write_s")
    tracer.span(manifest.Manifest, "save", "archive.fs_write_s")
    tracer.counter(builder, "write_shard", "archive.shards")


def run_bundle(args, tracer) -> dict:
    from repro import cli

    if tracer is not None:
        trace_bundle(tracer)
    argv = ["--scale", str(args.scale), "bundle", "--output", args.out]
    ready = now()
    if tracer is not None:
        code = tracer.call("bundle", cli.main, argv)
    else:
        code = cli.main(argv)
    done = now()
    if code != 0:
        raise SystemExit(f"repro bundle exited {code}")
    return {"ready": ready, "done": done}


def run_archive(args, tracer) -> dict:
    from repro.archive.builder import ArchiveBuilder

    if tracer is not None:
        trace_archive(tracer)
    builder = ArchiveBuilder(args.out, baseline_spec(args.scale).compile())

    def empty_manifest():
        # Builds the world and writes a manifest with no days, the state
        # every from-scratch build passes through before its first shard.
        builder._load_or_create_manifest().save(builder.directory)

    if tracer is not None:
        tracer.call("archive.setup", empty_manifest)
    else:
        empty_manifest()
    ready = now()
    if args.setup_only:
        return {"ready": ready}
    if tracer is not None:
        report = tracer.call("archive.build", builder.build_standard)
    else:
        report = builder.build_standard()
    done = now()
    return {
        "ready": ready, "done": done,
        "written": [day.isoformat() for day in report.written],
        "bytes_written": report.bytes_written,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("task", choices=("setup", "bundle", "archive"))
    parser.add_argument("--out")
    parser.add_argument("--scale", type=float, default=250.0)
    parser.add_argument("--timings", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    require_source()
    tracer = Tracer() if args.spans else None
    if args.task == "setup":
        import repro.cli  # noqa: F401  (the import is the set-up)

        timings = {"ready": now()}
    elif args.task == "bundle":
        timings = run_bundle(args, tracer)
    else:
        timings = run_archive(args, tracer)
    write_json(args.timings, timings)
    if tracer is not None:
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
