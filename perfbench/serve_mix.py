"""Workload ``serve_mix``: ``repro serve --archive`` under open-loop load.

One single-process server answers a standard-plan archive at 1:1000
(no PKI).  The load is a zipf-skewed hot head of dashboard queries,
which the result LRU answers after warm-up, plus a cold tail of
distinct record pages over many archived dates, which reads and decodes
shards.  See README.md for the make-up and the rates.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, quote, urlsplit

import common
import loadgen
from common import BenchError, Child, log, median, metric, now, percentile

SCALE = 1000
#: Scale of the self-check (perfbench/selfcheck.py).
TINY_SCALE = 20000
#: Fresh server processes per timed run.  Each serves an equal slice of
#: the fixed-rate load, so one process's luck (placement, hash seed, memory
#: layout) is pooled with the others'; set-up time is their median.
SERVERS = 3
#: Offered rate (requests/s) at which p50/p99/miss p50 are measured: the
#: traffic model's own default (``repro loadgen --rate``).
NOMINAL_RATE = 50.0
#: Share of the traced run spent at the nominal rate; the rest climbs
#: the ladder.  The timed run spends all of its time at the nominal rate.
NOMINAL_SHARE = 0.7
#: Ladder rates as multiples of the nominal rate, tried in order.  The
#: cold tail costs about 35 ms a page, so the server saturates near 5x.
LADDER = (3.6, 4.2, 4.8, 5.4, 6.0, 6.8)
#: Step of the draw sequence: the golden ratio's fractional part.
GOLDEN = (5 ** 0.5 - 1) / 2
#: p99 latency limit (ms) a ladder step must meet to count as sustained.
LIMIT_MS = 150.0
#: Cold-tail records compared byte for byte with a live computation.
COLD_SAMPLE = 40

#: The query spec of each hot-head entry of ``repro.loadgen.default_mix``,
#: by its label, for the byte-for-byte check; None = the event page.
HOT_SPECS: Dict[str, Optional[dict]] = {
    "headline": {"kind": "headline"},
    "catalog": {"kind": "catalog"},
    "experiment:headline": {"kind": "experiment", "experiment": "headline"},
    "series:tld_composition": {"kind": "series", "series": "tld_composition"},
    "series:ns_composition:window": {
        "kind": "series", "series": "ns_composition",
        "start": "2022-02-01", "end": "2022-04-30",
    },
    "series:asn_shares:window": {
        "kind": "series", "series": "asn_shares",
        "start": "2022-03-01", "end": "2022-03-15",
    },
    "events:page": None,
    "experiment:fig1": {"kind": "experiment", "experiment": "fig1"},
    "series:sanctioned_composition": {
        "kind": "series", "series": "sanctioned_composition",
    },
}
ENVELOPE_KEYS = ("schema_version", "kind", "spec", "data")
EVENTS_ENVELOPE_KEYS = ("schema_version", "since", "next", "events")
#: Records pages to draw offsets from, per TLD (.ru dwarfs .рф).
TLD_PAGES = {"ru": 200, "xn--p1ai": 8}
#: The A-label of each TLD filter spelling the mix uses.
A_LABEL = {"ru": "ru", "xn--p1ai": "xn--p1ai", "рф": "xn--p1ai"}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def plan_dates() -> List[str]:
    from repro.archive.builder import standard_plan_dates

    return [day.isoformat() for day in standard_plan_dates()]


def traffic() -> List[Tuple[str, str, Optional[dict], float]]:
    """The repo's own dashboard traffic model, ``repro.loadgen.default_mix``.

    Returns (path, hot spec, records query, zipf share) per entry, hot
    first.  A records entry keeps its TLD filter, spelled as the model
    spells it; its date, offset and page size become the template of
    distinct cold pages.
    """
    from repro.loadgen import ZIPF_EXPONENT, default_mix

    mix = default_mix()
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(mix))]
    total = sum(weights)
    entries = []
    for (label, path), weight in zip(mix, weights):
        split = urlsplit(path)
        if split.path.startswith("/v1/records/"):
            query = {key: values[0] for key, values in parse_qs(split.query).items()}
            records = {"tld": query["tld"], "limit": int(query["limit"])}
            entries.append((path, None, records, weight / total))
        elif label in HOT_SPECS:
            entries.append((path, HOT_SPECS[label], None, weight / total))
        else:
            raise BenchError(f"default_mix entry {label!r} has no spec to check against")
    return entries


def hot_paths() -> List[str]:
    return [path for path, _spec, records, _share in traffic() if records is None]


class Mix:
    """The seeded request stream: the traffic model's zipf draws, with
    each records draw turned into a distinct cold page.

    The draws are a golden-ratio (Weyl) sequence from a seeded start
    rather than independent: every stretch of the schedule then holds
    the model's shares, and two cold pages never land back to back by
    chance.  With independent draws such pairs queue behind each other,
    and how many a run happens to get set its p99 (spread 0.375 over
    five seeds) and its miss p50 (0.21).
    """

    def __init__(self, seed: int, dates: Sequence[str]) -> None:
        self._rng = common.seeded(seed, "serve_mix", "mix")
        self._point = self._rng.random()
        self._entries = traffic()
        self._cumulative = []
        running = 0.0
        for *_rest, share in self._entries:
            running += share
            self._cumulative.append(running)
        self._dates = list(dates)
        self._seen = set()
        self.cold: Dict[str, dict] = {}

    def _draw(self) -> str:
        self._point = (self._point + GOLDEN) % 1.0
        draw = self._point
        for (path, _spec, records, _share), edge in zip(self._entries, self._cumulative):
            if draw <= edge:
                break
        return path if records is None else self._cold(records)

    def _cold(self, records: dict) -> str:
        tld, limit = records["tld"], records["limit"]
        while True:
            date = self._rng.choice(self._dates)
            offset = limit * self._rng.randrange(TLD_PAGES[A_LABEL[tld]])
            if (date, A_LABEL[tld], offset, limit) not in self._seen:
                break
        self._seen.add((date, A_LABEL[tld], offset, limit))
        path = f"/v1/records/{date}?tld={quote(tld)}&offset={offset}&limit={limit}"
        self.cold[path] = {
            "kind": "records", "date": date, "tld": tld,
            "offset": offset, "limit": limit,
        }
        return path

    def schedule(self, rate: float, seconds: float) -> List[Tuple[float, str]]:
        """Evenly spaced arrivals at ``rate`` for ``seconds``, each the
        next draw from the mix."""
        return [(index / rate, self._draw()) for index in range(int(rate * seconds))]


# ----------------------------------------------------------------------
# The archive and the server
# ----------------------------------------------------------------------


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((common.SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(common.SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def served_archive(scale: float) -> Path:
    """The standard-plan archive the server reads, built once per source.

    Its build is what ``archive_build`` measures; it is not timed here.
    """
    target = common.WORK / "archives" / f"s{scale:g}-{_source_digest()}"
    if (target / "manifest.json").is_file():
        return target
    # Archives of other source trees at this scale are stale: drop them.
    common.tidy([old for old in target.parent.glob(f"s{scale:g}-*") if old != target])
    log(f"building the served archive at 1:{scale:g} (once per checkout)")
    staging = common.fresh_dir("archives", "staging")
    common.run_child(
        ["archive", "--out", str(staging / "a"), "--scale", str(scale),
         "--timings", str(staging / "timings.json")],
        staging / "build.log", "serve archive build",
    )
    (staging / "a").rename(target)
    common.tidy([staging])
    return target


class Server:
    """``python -m repro serve`` in a child process."""

    def __init__(self, archive: Path, scale: float, log_path: Path) -> None:
        self.child = Child(
            [sys.executable, "-m", "repro", "--scale", str(scale), "--no-pki",
             "serve", "--archive", str(archive), "--host", "127.0.0.1",
             "--port", "0"],
            stdout=subprocess.PIPE, log=log_path,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        stream = self.child.proc.stdout
        ready, _, _ = select.select([stream], [], [], 120.0)
        line = stream.readline().decode("utf-8", "replace") if ready else ""
        if "serving on http://" not in line:
            self.child.terminate()
            self.child.check("repro serve start-up")
            raise BenchError(f"repro serve printed no banner: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def stop(self) -> float:
        """SIGTERM, reap; returns the server's peak RSS in MiB."""
        code = self.child.terminate()
        if code != 0:
            self.child.check("repro serve")
        return self.child.peak_rss_mb

    def metrics(self) -> dict:
        outcome = loadgen.get(self.port, "/metrics")
        if not outcome.ok:
            raise BenchError(f"/metrics failed: {outcome.status} {outcome.error}")
        return json.loads(outcome.body)


def warm_path(dates: Sequence[str]) -> str:
    # limit=1 keeps this key apart from every cold-tail page (limit=20).
    return f"/v1/records/{dates[0]}?tld=ru&limit=1"


def start_ready(archive: Path, scale: float, dates, log_path: Path):
    """Start a server and bring it to the state timed load begins from.

    Returns (server, set-up seconds, warm-up outcomes).
    """
    started = now()
    server = Server(archive, scale, log_path)
    # The first records query builds the world lazily; then one pass
    # over the hot head fills the result LRU.
    warm = [loadgen.get(server.port, warm_path(dates))]
    warm.extend(loadgen.get(server.port, path) for path in hot_paths())
    return server, now() - started, warm


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


class Checker:
    """Checks response bodies; hot-head and sampled cold bodies are
    compared byte for byte with ``execute_query`` on a live context."""

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.problems: List[str] = []

    def envelope(self, outcome: loadgen.Outcome) -> bool:
        if not outcome.ok:
            self.problems.append(
                f"{outcome.path}: status {outcome.status} {outcome.error or ''}"
            )
            return False
        try:
            payload = json.loads(outcome.body)
        except ValueError:
            self.problems.append(f"{outcome.path}: body is not JSON")
            return False
        keys = EVENTS_ENVELOPE_KEYS if outcome.path.startswith("/v1/events") else ENVELOPE_KEYS
        if not isinstance(payload, dict) or any(key not in payload for key in keys):
            self.problems.append(f"{outcome.path}: body lacks its envelope")
            return False
        return True

    def run(self, outcomes: Sequence[loadgen.Outcome], cold_specs: Dict[str, dict]) -> int:
        """Returns the number of failed requests."""
        from repro.api.facade import execute_query
        from repro.experiments.context import ExperimentContext

        failed = set()
        first: Dict[str, bytes] = {}
        for outcome in outcomes:
            seen = first.get(outcome.path)
            if seen is not None and outcome.ok and outcome.body == seen:
                continue  # byte-equal to an already checked body
            if not self.envelope(outcome):
                failed.add(outcome.index)
                continue
            if outcome.path in first:
                self.problems.append(f"{outcome.path}: body changed between requests")
                failed.add(outcome.index)
                continue
            first[outcome.path] = outcome.body
        context = ExperimentContext(scenario=common.baseline_spec(self.scale))
        hot_specs = {
            path: spec for path, spec, _records, _share in traffic() if spec is not None
        }
        cold_paths = sorted(path for path in first if path in cold_specs)
        sample = common.seeded(self.seed, "serve_mix", "sample").sample(
            cold_paths, min(COLD_SAMPLE, len(cold_paths))
        )
        expected = {path: hot_specs[path] for path in first if path in hot_specs}
        expected.update({path: cold_specs[path] for path in sample})
        wrong = set()
        for path, spec in expected.items():
            want = execute_query(context, spec).to_json().encode("utf-8")
            if first[path] != want:
                self.problems.append(f"{path}: body differs from a live computation")
                wrong.add(path)
        for outcome in outcomes:
            if outcome.path in wrong:
                failed.add(outcome.index)
        return len(failed)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


class Step:
    """One offered rate of the ladder and how the server kept up."""

    def __init__(self, rate: float, outcomes: Sequence[loadgen.Outcome]) -> None:
        self.rate = rate
        latencies = [o.latency for o in outcomes]
        self.p99_ms = percentile(latencies, 99) * 1000.0
        tenth = max(1, len(outcomes) // 10)
        queued = [o.sent - o.due for o in outcomes]
        self.backlog_grew = (
            median(queued[-tenth:]) > median(queued[:tenth]) + LIMIT_MS / 2000.0
        )
        failed = any(not o.ok for o in outcomes)
        self.sustained = self.p99_ms <= LIMIT_MS and not self.backlog_grew and not failed
        span = max(o.done for o in outcomes) - min(o.due for o in outcomes)
        #: Completions per second over the step; with a growing backlog
        #: the server is saturated and this is its capacity.
        self.achieved = len(outcomes) / span

    def __str__(self) -> str:
        verdict = "ok" if self.sustained else "over"
        return f"{self.rate:.0f}/s p99 {self.p99_ms:.1f} ms {verdict}"


def max_rate(steps: Sequence[Step]) -> float:
    """The highest sustained offered rate, between the last step that
    held and the first that did not.

    A step whose backlog grew saturated the server, so its completion
    rate is the answer.  Otherwise the rate where p99 crosses the limit
    is interpolated linearly between the two steps.  If every step held,
    the top step's completion rate is the best lower bound there is.
    """
    last_ok: Optional[Step] = None
    for step in steps:
        if step.sustained:
            last_ok = step
            continue
        if step.backlog_grew:
            return step.achieved
        if last_ok is None:
            return step.rate * LIMIT_MS / max(step.p99_ms, LIMIT_MS)
        share = (LIMIT_MS - last_ok.p99_ms) / max(step.p99_ms - last_ok.p99_ms, 1e-9)
        return last_ok.rate + (step.rate - last_ok.rate) * min(max(share, 0.0), 1.0)
    log("serve_mix: every ladder step was sustained; max_qps is a lower bound")
    return last_ok.achieved


def _connections() -> int:
    return max(1, os.cpu_count() or 1)


def _send(port: int, schedule, everything: List[loadgen.Outcome]) -> List[loadgen.Outcome]:
    """Run one schedule; its outcomes join ``everything`` with fresh indices."""
    outcomes = loadgen.run_schedule(port, schedule, _connections())
    for outcome in outcomes:
        outcome.index += len(everything)
    everything.extend(outcomes)
    return outcomes


def _number_warm_ups(warm: Sequence[loadgen.Outcome]) -> None:
    for position, outcome in enumerate(warm):
        outcome.index = -1 - position


def run(seed: int, seconds: float, trace: bool, scale: float = SCALE) -> dict:
    archive = served_archive(scale)
    dates = plan_dates()
    work = common.fresh_dir("serve_mix")
    mix = Mix(seed, dates)
    if trace:
        return _traced(seed, scale, archive, dates, work, mix, seconds)
    parts = [mix.schedule(NOMINAL_RATE, seconds / SERVERS) for _ in range(SERVERS)]

    setups, peaks, warm, everything = [], [], [], []
    for number, part in enumerate(parts):
        server, setup, warmed = start_ready(archive, scale, dates, work / f"serve{number}.log")
        setups.append(setup)
        warm.extend(warmed)
        try:
            _send(server.port, part, everything)
        finally:
            peaks.append(server.stop())
    _number_warm_ups(warm)

    checker = Checker(seed, scale)
    failed = checker.run(warm + everything, mix.cold)
    for problem in checker.problems[:10]:
        log(f"serve_mix check: {problem}")
    late = [o.late for o in everything]
    cold = [o.latency for o in everything if o.path in mix.cold]
    log(
        f"serve_mix: {len(everything)} requests, {failed} failed, "
        f"cold p50 {median(cold) * 1e3:.1f} ms, "
        f"generator late p50 {median(late) * 1e3:.3f} ms / max {max(late) * 1e3:.3f} ms"
    )
    return {
        "correct": not checker.problems,
        "attempted": len(warm) + len(everything),
        "failed": failed,
        "metrics": {
            "setup_s": metric(median(setups), "s"),
            "p50_ms": metric(median([o.latency for o in everything]) * 1e3, "ms"),
            "peak_rss_mb": metric(median(peaks), "MiB"),
            "disk_mb": metric(common.dir_bytes(archive) / 2**20, "MiB"),
        },
    }


def _traced(seed, scale, archive, dates, work, mix, seconds) -> dict:
    """Per-layer figures: the tail and the rate ladder at the client,
    the service split from the server's own /metrics, then the cold
    tail replayed in-process against the facade."""
    nominal = mix.schedule(NOMINAL_RATE, seconds * NOMINAL_SHARE)
    step_seconds = seconds * (1.0 - NOMINAL_SHARE) / len(LADDER)
    ladder = [
        (NOMINAL_RATE * factor, mix.schedule(NOMINAL_RATE * factor, step_seconds))
        for factor in LADDER
    ]
    server, _setup, warm = start_ready(archive, scale, dates, work / "serve.log")
    _number_warm_ups(warm)
    everything: List[loadgen.Outcome] = []
    try:
        before = server.metrics()
        measured = _send(server.port, nominal, everything)
        after = server.metrics()
        steps = [Step(NOMINAL_RATE, measured)]
        for rate, schedule in ladder:
            if not steps[-1].sustained:
                break
            steps.append(Step(rate, _send(server.port, schedule, everything)))
    finally:
        server.stop()
    log("serve_mix: ladder " + ", ".join(str(step) for step in steps))
    checker = Checker(seed, scale)
    failed = checker.run(warm + everything, mix.cold)
    for problem in checker.problems[:10]:
        log(f"serve_mix check: {problem}")

    def delta(path: Sequence[str]) -> float:
        def dig(doc):
            for key in path:
                doc = doc.get(key, {}) if isinstance(doc, dict) else {}
            return doc if isinstance(doc, (int, float)) else 0
        return dig(after) - dig(before)

    endpoints = set(after["metrics"].get("endpoints", {})) - {"metrics"}
    server_seconds = sum(
        delta(("metrics", "endpoints", name, "wall_seconds")) for name in endpoints
    )
    server_count = sum(delta(("metrics", "endpoints", name, "requests")) for name in endpoints)
    hits = delta(("metrics", "caches", "query_results", "hits"))
    misses = delta(("metrics", "caches", "query_results", "misses"))
    hot_hits = [o for o in measured if o.headers.get("x-cache") == "hit"]
    latencies = [o.latency for o in measured]
    cold = [o.latency for o in measured if o.path in mix.cold]
    per_layer = {
        "client.p99_ms": metric(percentile(latencies, 99) * 1e3, "ms"),
        "client.miss_p50_ms": metric(median(cold) * 1e3, "ms"),
        "client.max_qps": metric(max_rate(steps), "1/s"),
        "client.late_ms": metric(percentile([o.late for o in measured], 99) * 1e3, "ms"),
        "service.connect_ms": metric(median([o.connected - o.sent for o in measured]) * 1e3, "ms"),
        "service.hit_ms": metric(median([o.service_time for o in hot_hits]) * 1e3, "ms"),
        "service.overhead_ms": metric(
            (sum(o.service_time for o in measured) / len(measured)
             - server_seconds / max(server_count, 1)) * 1e3, "ms"),
        "service.result_hit_ratio": metric(hits / max(hits + misses, 1), "ratio"),
    }
    cold_specs = [mix.cold[o.path] for o in measured if o.path in mix.cold]
    per_layer.update(_replay(archive, scale, dates, cold_specs))
    return {
        "correct": not checker.problems,
        "attempted": len(warm) + len(everything),
        "failed": failed,
        "metrics": per_layer,
    }


def _replay(archive: Path, scale: float, dates, specs: Sequence[dict]) -> dict:
    """The cold tail against ``AnalysisFacade`` over the same archive,
    untraced and then traced, each on a fresh context after one warm-up
    pass; per-query layer times."""
    import repro.api.facade as facade
    import repro.api.spec as spec_module
    import repro.archive.store as store
    from repro.experiments.context import ExperimentContext
    from spans import Tracer, self_times

    def context():
        ctx = ExperimentContext(scenario=common.baseline_spec(scale), archive=str(archive))
        warm = {"kind": "records", "date": dates[0], "tld": "ru", "limit": 1}
        ctx.api.query_json(warm)  # lazy world build, as in the server's set-up
        return ctx

    # The first pass in a process also pays one-off costs (imports,
    # process-wide caches); it warms them and is not timed.
    warm = context()
    for spec in specs:
        warm.api.query_json(spec)
    plain = context()
    started = now()
    for spec in specs:
        plain.api.query_json(spec)
    untraced = now() - started

    traced = context()
    tracer = Tracer()
    tracer.span(store.ArchiveCollector, "collect", "archive.collect")
    tracer.span(facade.AnalysisFacade, "query", "api.records")
    tracer.span(spec_module.QueryResult, "to_json", "api.to_json")
    tracer.counter(store.MeasurementArchive, "load_day", "archive.load_day")
    original_read = store.read_shard

    def read_shard(path, *args, **kwargs):
        tracer.count("archive.shard_reads")
        tracer.count("archive.read_bytes", os.path.getsize(path))
        return original_read(path, *args, **kwargs)

    tracer.patch(store, "read_shard", read_shard)
    try:
        started = now()
        for spec in specs:
            tracer.call("replay", traced.api.query_json, spec)
        elapsed = now() - started
    finally:
        tracer.restore()
    selfs = self_times(tracer.spans)
    queries = max(len(specs), 1)
    loads = tracer.counts.get("archive.load_day", 0)
    reads = tracer.counts.get("archive.shard_reads", 0)
    return {
        "archive.collect_ms": metric(selfs.get("archive.collect", 0.0) / queries * 1e3, "ms"),
        "archive.shard_hit_ratio": metric((loads - reads) / max(loads, 1), "ratio"),
        "archive.read_mb": metric(tracer.counts.get("archive.read_bytes", 0) / 2**20, "MiB"),
        "api.records_ms": metric(selfs.get("api.records", 0.0) / queries * 1e3, "ms"),
        "api.to_json_ms": metric(selfs.get("api.to_json", 0.0) / queries * 1e3, "ms"),
        "trace.overhead_s": metric(elapsed - untraced, "s"),
    }

