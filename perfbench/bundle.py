"""Workload ``bundle``: a cold ``repro bundle`` at 1:250 with PKI, no archive.

Each round runs the bundle in a fresh process, as a reader reproducing
the paper does.  Set-up time (process start to the start of work) is
also sampled from processes that only import the program.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List

import common
from common import log, median, metric

SCALE = 250
#: Scale of the self-check (perfbench/selfcheck.py).
TINY_SCALE = 5000
#: Extra import-only processes per run for the set-up median.
SETUP_ONLY = 3
#: Dates per run on which per-TLD counts are checked.
SAMPLE_DATES = 4
#: Composition CSVs whose shares must sum to 100 per date.
COMPOSITION_CSVS = ("fig1_series.csv", "fig2_series.csv", "fig5_series.csv")
#: Two-decimal rounding of three shares is off by at most 0.015.
SHARE_SLACK = 0.02


def _rows(path: Path) -> List[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class Checker:
    """Checks bundle outputs against the registry and the population."""

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self._context = None
        self.problems: List[str] = []

    def context(self):
        """A live context apart from the bundle's process and path."""
        if self._context is None:
            from repro.experiments.context import ExperimentContext

            self._context = ExperimentContext(scenario=common.baseline_spec(self.scale))
        return self._context

    def check(self, out: Path) -> bool:
        before = len(self.problems)
        self._manifest(out)
        self._shares(out)
        self._tld_counts(out)
        return len(self.problems) == before

    def _manifest(self, out: Path) -> None:
        from repro.experiments.registry import EXPERIMENTS

        manifest = common.read_json(out / "bundle.json")
        listed = [entry["id"] for entry in manifest["experiments"]]
        if sorted(listed) != sorted(EXPERIMENTS):
            self.problems.append(f"bundle.json lists {listed}, registry has {sorted(EXPERIMENTS)}")
        files = [name for entry in manifest["experiments"] for name in entry["files"]]
        for name in files + list(manifest["extra_files"]):
            path = out / name
            if not path.is_file() or path.stat().st_size == 0:
                self.problems.append(f"{name} is listed but missing or empty")

    def _shares(self, out: Path) -> None:
        for name in COMPOSITION_CSVS:
            for row in _rows(out / name):
                total = sum(float(row[key]) for key in ("full_pct", "part_pct", "non_pct"))
                if abs(total - 100.0) > SHARE_SLACK:
                    self.problems.append(f"{name} {row['date']}: shares sum to {total}")

    def _tld_counts(self, out: Path) -> None:
        """Active domains per TLD on seeded dates, counted straight from
        the population's ``is_rf`` flags, must equal each TLD's
        ``matched_total`` from a live records query (``.рф`` spelled in
        Unicode), and their sum the bundle's domain series.

        The bundle itself writes no per-TLD domain counts, so the
        records query is the program's own per-TLD figure.
        """
        from repro.api.facade import execute_query

        rows = _rows(out / "fig1_series.csv")
        rng = common.seeded(self.seed, "bundle", "dates")
        context = self.context()
        population = context.world.population
        for row in rng.sample(rows, min(SAMPLE_DATES, len(rows))):
            active = population.active_indices(row["date"])
            rf = int(population.is_rf[active].sum())
            counted = {"ru": len(active) - rf, "рф": rf}
            if sum(counted.values()) != int(row["domains"]):
                self.problems.append(
                    f"fig1_series {row['date']}: {row['domains']} domains, "
                    f"population has {counted}"
                )
            for tld, count in counted.items():
                spec = {"kind": "records", "date": row["date"], "tld": tld, "limit": 1}
                data = execute_query(context, spec).data
                if data["matched_total"] != count:
                    self.problems.append(
                        f"{row['date']} .{tld}: records query matched "
                        f"{data['matched_total']}, population has {count}"
                    )


def _bundle_child(work: Path, name: str, scale: float, spans: bool = False):
    out = work / name
    args = ["bundle", "--out", str(out), "--scale", str(scale),
            "--timings", str(work / f"{name}.timings.json")]
    if spans:
        args += ["--spans", str(work / f"{name}.spans.json")]
    child = common.run_child(args, work / f"{name}.log", "repro bundle")
    timings = common.read_json(work / f"{name}.timings.json")
    return out, child, timings


def run(seed: int, seconds: float, trace: bool, scale: float = SCALE) -> dict:
    work = common.fresh_dir("bundle")
    checker = Checker(seed, scale)
    if trace:
        return _traced(work, checker, scale)
    setups, walls, rss, sizes, outputs = [], [], [], [], []
    for round_ in common.repeat_for(seconds):
        out, child, timings = _bundle_child(work, f"out{round_}", scale)
        setups.append(timings["ready"] - child.started)
        walls.append(timings["done"] - timings["ready"])
        rss.append(child.peak_rss_mb)
        sizes.append(common.dir_bytes(out) / 2**20)
        outputs.append(out)
    for extra in range(SETUP_ONLY):
        path = work / f"setup{extra}.json"
        child = common.run_child(
            ["setup", "--timings", str(path)], work / f"setup{extra}.log", "set-up"
        )
        setups.append(common.read_json(path)["ready"] - child.started)
    failed = sum(0 if checker.check(out) else 1 for out in outputs)
    for problem in checker.problems[:10]:
        log(f"bundle check: {problem}")
    log(f"bundle: {len(outputs)} rounds, wall {['%.2f' % w for w in walls]} s")
    common.tidy(outputs)
    return {
        "correct": not checker.problems,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": {
            "setup_s": metric(median(setups), "s"),
            "p50_ms": metric(median(walls) * 1e3, "ms"),
            "peak_rss_mb": metric(median(rss), "MiB"),
            "disk_mb": metric(median(sizes), "MiB"),
        },
    }


#: Per-layer span names, as printed.
LAYERS = (
    "registry.population_s", "sim.flows_s", "sim.world_s", "pki.issue_s",
    "scanner.scan_s", "ctlog.poll_s", "measurement.sweep_s",
    "experiments.run_s", "experiments.write_s",
)
COUNTS = (
    "pki.certificates", "dns.to_ascii_calls", "scanner.scans",
    "ctlog.entries", "measurement.snapshots",
)


def _traced(work: Path, checker: Checker, scale: float) -> dict:
    """One untraced and one traced bundle; layer self times and counts."""
    from spans import load, self_times

    plain_out, _child, plain = _bundle_child(work, "plain", scale)
    traced_out, _child, traced = _bundle_child(work, "traced", scale, spans=True)
    spans, counts = load(work / "traced.spans.json")
    selfs = self_times(spans)
    failed = sum(0 if checker.check(out) else 1 for out in (plain_out, traced_out))
    metrics = {name: metric(selfs.get(name, 0.0), "s") for name in LAYERS}
    metrics.update({name: metric(counts.get(name, 0), "count") for name in COUNTS})
    metrics["bundle.unclaimed_s"] = metric(selfs.get("bundle", 0.0), "s")
    metrics["trace.overhead_s"] = metric(
        (traced["done"] - traced["ready"]) - (plain["done"] - plain["ready"]), "s"
    )
    return {
        "correct": not checker.problems,
        "attempted": 2,
        "failed": failed,
        "metrics": metrics,
    }
