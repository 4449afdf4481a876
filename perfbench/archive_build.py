"""Workload ``archive_build``: a from-scratch ``ArchiveBuilder.build_standard``.

The full study at weekly cadence plus the conflict window daily, at
1:2000 without PKI (three rounds fit in a 20 s run), each round in a
fresh process and a fresh directory.
Set-up time runs from process start through the world build and an
empty manifest; wall time from there to the finished archive.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

import numpy as np

import common
from common import log, median, metric

SCALE = 2000
#: Scale of the self-check (perfbench/selfcheck.py).
TINY_SCALE = 20000
#: Extra set-up-only processes per run for the set-up median.
SETUP_ONLY = 2
#: Days per run compared with a live collection.
SAMPLE_DATES = 3
#: Domains per sampled day whose full measurement is compared.
SAMPLE_DOMAINS = 200


class Checker:
    """Checks an archive against the plan and a live collection."""

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.problems: List[str] = []
        self._live = None

    def live(self):
        """A world and collector built apart from the archive path."""
        if self._live is None:
            from repro.measurement.fast import FastCollector
            from repro.sim.conflict import build_world

            world = build_world(common.baseline_spec(self.scale).compile())
            self._live = (world, FastCollector(world))
        return self._live

    def check(self, directory: Path) -> bool:
        from repro.archive.builder import standard_plan_dates
        from repro.archive.store import ArchiveCollector, MeasurementArchive

        before = len(self.problems)
        archive = MeasurementArchive(str(directory))
        problems = archive.verify()
        if problems:
            self.problems.append(f"archive verify: {problems[:3]}")
        plan = set(standard_plan_dates())
        if set(archive.manifest.days) != plan:
            self.problems.append(
                f"archive holds {len(archive.manifest.days)} days, plan has {len(plan)}"
            )
        shards = {path.name for path in directory.glob("*.shard")}
        if shards != {entry.file for entry in archive.manifest.days.values()}:
            self.problems.append("shard files differ from the manifest")
        world, collector = self.live()
        archived = ArchiveCollector(archive, world)
        rng = common.seeded(self.seed, "archive_build", "dates")
        for date in rng.sample(sorted(plan), SAMPLE_DATES):
            self._day(archive, archived, collector, world, date, rng)
        return len(self.problems) == before

    def _day(self, archive, archived, collector, world, date, rng) -> None:
        from repro.archive.kernel import full_record_from_summary, recent_record_from_summary
        from repro.core.reducers import FullSweepReducer, RecentWindowReducer
        from repro.experiments.context import FIG4_PROVIDERS

        live = collector.collect(date)
        stored = archived.collect(date)
        same = (
            np.array_equal(live.measured, stored.measured)
            and np.array_equal(live.measured_dns_ids(), stored.measured_dns_ids())
            and np.array_equal(live.measured_hosting_ids(), stored.measured_hosting_ids())
        )
        if same:
            indices = [int(i) for i in live.measured]
            for index in rng.sample(indices, min(SAMPLE_DOMAINS, len(indices))):
                if live.measurement_for(index) != stored.measurement_for(index):
                    same = False
                    break
        if not same:
            self.problems.append(f"{date}: archived snapshot differs from a live collection")
        summary = archive.load_summary(date)
        asns = [world.catalog.get(key).primary_asn for key in FIG4_PROVIDERS]
        full = FullSweepReducer().reduce_day(live)
        recent = RecentWindowReducer(asns, world.sanctioned_indices).reduce_day(live)
        if summary is None or full_record_from_summary(summary) != full:
            self.problems.append(f"{date}: stored summary differs from the full-sweep fold")
        elif _recent_fields(recent_record_from_summary(summary, asns)) != _recent_fields(recent):
            self.problems.append(f"{date}: stored summary differs from the recent-window fold")


def _recent_fields(record) -> tuple:
    # RecentDayRecord defines no equality; compare what it carries.
    return (
        record.date, record.measured_count,
        {int(asn): int(count) for asn, count in record.asn_counts.items()},
        tuple(int(value) for value in record.sanctioned), int(record.listed_count),
    )


def _archive_child(work: Path, name: str, scale: float, *extra: str):
    timings = work / f"{name}.timings.json"
    child = common.run_child(
        ["archive", "--out", str(work / name), "--scale", str(scale),
         "--timings", str(timings), *extra],
        work / f"{name}.log", "archive build",
    )
    return child, common.read_json(timings)


def _domain_days(directory: Path) -> int:
    manifest = common.read_json(directory / "manifest.json")
    return sum(entry["records"] for entry in manifest["days"].values())


def run(seed: int, seconds: float, trace: bool, scale: float = SCALE) -> dict:
    work = common.fresh_dir("archive_build")
    checker = Checker(seed, scale)
    if trace:
        return _traced(work, checker, scale)
    setups, walls, rss, sizes = [], [], [], []
    failed = attempted = 0
    for round_ in common.repeat_for(seconds):
        name = f"archive{round_}"
        child, timings = _archive_child(work, name, scale)
        setups.append(timings["ready"] - child.started)
        walls.append(timings["done"] - timings["ready"])
        rss.append(child.peak_rss_mb)
        sizes.append(common.dir_bytes(work / name) / 2**20)
        attempted += 1
    for extra in range(SETUP_ONLY):
        child, timings = _archive_child(work, f"setup{extra}", scale, "--setup-only")
        setups.append(timings["ready"] - child.started)
    for round_ in range(attempted):
        if not checker.check(work / f"archive{round_}"):
            failed += 1
    for problem in checker.problems[:10]:
        log(f"archive_build check: {problem}")
    log(f"archive_build: {attempted} rounds, wall {['%.2f' % w for w in walls]} s")
    common.tidy([work])
    return {
        "correct": not checker.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": metric(median(setups), "s"),
            "p50_ms": metric(median(walls) * 1e3, "ms"),
            "peak_rss_mb": metric(median(rss), "MiB"),
            "disk_mb": metric(median(sizes), "MiB"),
        },
    }


LAYERS = (
    "registry.population_s", "sim.flows_s", "sim.world_s",
    "measurement.collect_s", "archive.summarize_s", "archive.encode_s",
    "archive.fs_write_s",
)


def _traced(work: Path, checker: Checker, scale: float) -> dict:
    """One untraced and one traced build; layer self times and counts."""
    from spans import load, self_times

    _child, plain = _archive_child(work, "plain", scale)
    _child, traced = _archive_child(
        work, "traced", scale, "--spans", str(work / "traced.spans.json")
    )
    spans, counts = load(work / "traced.spans.json")
    selfs = self_times(spans)
    failed = sum(0 if checker.check(work / name) else 1 for name in ("plain", "traced"))
    metrics = {name: metric(selfs.get(name, 0.0), "s") for name in LAYERS}
    metrics["archive.shards"] = metric(counts.get("archive.shards", 0), "count")
    metrics["archive.bytes_per_domain_day"] = metric(
        common.dir_bytes(work / "traced") / max(_domain_days(work / "traced"), 1),
        "B/domain-day",
    )
    metrics["archive.unclaimed_s"] = metric(selfs.get("archive.build", 0.0), "s")
    metrics["trace.overhead_s"] = metric(
        (traced["done"] - traced["ready"]) - (plain["done"] - plain["ready"]), "s"
    )
    common.tidy([work])
    return {
        "correct": not checker.problems,
        "attempted": 2,
        "failed": failed,
        "metrics": metrics,
    }
