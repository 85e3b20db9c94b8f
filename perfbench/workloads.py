"""The three workloads: a timed run (tracing off) and a traced run each.

Load is one closed-loop client in this process: it sends the next
request only after the previous reply.  A request is one
``image_diff``, one ``diff_rows`` or one ``stream_frame``.  Only the
request itself is timed; building inputs, oracle checks and reading
traces happen between requests.  A timed run lasts until the requests
have taken ``seconds`` and at least ``min_requests`` were made (p90
needs ten samples beyond it).
"""

from __future__ import annotations

import os
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro
from repro import DiffOptions, RLEImage
from repro.errors import ReproError
from repro.service import ShardRing
from repro.service.cache import DEFAULT_CACHE_BYTES

from inputs import Clip, ImageRequest, RowsRequest, Sizes, clips, image_requests, row_requests
from ledger import Ledger, median, percentile, proc_peak_rss_mb
from stack import (
    WORKERS,
    Fleet,
    Replay,
    frame_pipe_bytes,
    route,
    rows_pipe_bytes,
    traced_compute,
    traced_engine,
)

#: Measured time after which a timed run stops even short of
#: ``min_requests`` (the run must exit within three minutes).
MAX_MEASURED_S = 120.0

#: Share of traced wall time the layer self times must cover.
MIN_COVERAGE = 0.9


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    #: name -> (value, unit)
    metrics: Dict[str, Tuple[float, str]]
    meta: Dict[str, Any] = field(default_factory=dict)


def timed(fn: Callable[..., Any], *args: Any) -> Tuple[Any, Optional[BaseException], float, float]:
    """Call ``fn``; return (output, error, wall seconds, own CPU seconds).

    A typed ``ReproError``, a timeout or a reset connection (``OSError``)
    is a failed request, returned as the error; anything else is a
    benchmark bug and propagates.
    """
    cpu = time.process_time()
    started = time.perf_counter()
    try:
        out, err = fn(*args), None
    except (ReproError, OSError) as exc:
        out, err = None, exc
    return out, err, time.perf_counter() - started, time.process_time() - cpu


class Tally:
    """Outcomes of the timed requests of one run."""

    def __init__(self, timeout_s: float) -> None:
        self.timeout_s = timeout_s
        self.latencies_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.rows_ok = 0
        self.busy_s = 0.0
        self.cpu_s = 0.0

    def record(self, elapsed: float, cpu: float, served: bool, correct: bool, rows: int) -> None:
        self.attempted += 1
        self.busy_s += elapsed
        self.cpu_s += cpu
        if served and not correct:
            self.mismatches += 1
        if served and correct and elapsed <= self.timeout_s:
            self.rows_ok += rows
            self.latencies_s.append(elapsed)
        else:
            # a failed request misses any latency limit
            self.failed += 1
            self.latencies_s.append(max(elapsed, self.timeout_s))

    def done(self, seconds: float, min_requests: int) -> bool:
        if self.busy_s >= MAX_MEASURED_S:
            return True
        return self.busy_s >= seconds and self.attempted >= min_requests


def end_to_end(tally: Tally, setups_s: List[float], rss_mb: float, children_cpu_s: float) -> Dict[str, Tuple[float, str]]:
    rows = max(tally.rows_ok, 1)
    return {
        "rows_per_s": (tally.rows_ok / tally.busy_s, "rows/s"),
        "latency_p50_ms": (percentile(tally.latencies_s, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(tally.latencies_s, 90) * 1e3, "ms"),
        "setup_s": (median(setups_s), "s"),
        "rss_peak_mb": (rss_mb, "MiB"),
        "cpu_us_per_row": ((tally.cpu_s + children_cpu_s) / rows * 1e6, "us/row"),
    }


def tally_meta(tally: Tally) -> Dict[str, Any]:
    return {
        "samples": len(tally.latencies_s),
        "measured_s": tally.busy_s,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "oracle_mismatches": tally.mismatches,
    }


def image_matches(req: ImageRequest, result: Any) -> bool:
    return list(result.image) == req.oracle


def rows_match(req: RowsRequest, results: List[Any]) -> bool:
    return [r.canonical_result for r in results] == req.oracle


# Per-layer metric names, in BENCHMARK.json order.
PER_LAYER = (
    ("engine.rows", "count"),
    ("engine.iterations", "count"),
    ("engine.busy_s", "s"),
    ("engine.load_s", "s"),
    ("engine.step_s", "s"),
    ("engine.extract_s", "s"),
    ("pipeline.self_s", "s"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.get_s", "s"),
    ("cache.put_s", "s"),
    ("cache.fingerprint_s", "s"),
    ("cache.evictions", "count"),
    ("cache.collisions", "count"),
    ("store.gets", "count"),
    ("store.puts", "count"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("store.bytes_written", "bytes"),
    ("store.quarantined", "count"),
    ("service.self_s", "s"),
    ("resilience.self_s", "s"),
    ("resilience.retries", "count"),
    ("resilience.shed", "count"),
    ("pipe.requests", "count"),
    ("pipe.self_s", "s"),
    ("pipe.worker_s", "s"),
    ("pipe.payload_bytes", "bytes"),
    ("tcp.requests", "count"),
    ("tcp.self_s", "s"),
    ("tcp.request_bytes_max", "bytes"),
    ("tcp.wire_bytes_per_row", "bytes/row"),
    ("stream.frames", "count"),
    ("stream.self_s", "s"),
    ("stream.rekeys", "count"),
    ("stream.shipped_over_raw_runs", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.untraced_s", "s"),
    ("requests.failed_frac", "ratio"),
)


class Rep:
    """One traced repetition: the passes' wall times, the span ledger of
    the traced in-process pass, and counts from every pass."""

    def __init__(self) -> None:
        self.ledger = Ledger()
        self.values: Dict[str, float] = {}
        self.untraced_wall_s = 0.0
        self.traced_wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0

    def add(self, key: str, value: float) -> None:
        self.values[key] = self.values.get(key, 0.0) + value

    def wall(self, traced: bool, elapsed: float) -> None:
        if traced:
            self.traced_wall_s += elapsed
        else:
            self.untraced_wall_s += elapsed

    def hop(self, fleet: Fleet, front_span: str, elapsed: float) -> List[Any]:
        """Split one traced request's client time into TCP self time,
        pipe self time and the slowest worker span; returns the ids of
        the workers that served it."""
        front, workers, worker_ids = fleet.hops(front_span)
        self.add("tcp.requests", 1)
        self.add("tcp.self_s", elapsed - front)
        self.add("pipe.self_s", front - max(workers))
        self.add("pipe.worker_s", max(workers))
        self.add("pipe.requests", len(workers))
        return worker_ids

    def fleet_totals(self, fleet: Fleet, rows: int) -> None:
        stats = fleet.service.stats()
        self.add("resilience.retries", stats.get("resilience_retries", 0.0))
        self.add("resilience.shed", stats.get("resilience_shed", 0.0))
        self.values["tcp.request_bytes_max"] = float(fleet.wire.max_request)
        self.values["tcp.wire_bytes_per_row"] = (fleet.wire.sent + fleet.wire.received) / max(rows, 1)

    def check(self, err: Optional[BaseException], correct: bool) -> None:
        self.attempted += 1
        if err is not None or not correct:
            self.failed += 1
        if err is None and not correct:
            self.mismatches += 1

    def layers(self) -> Dict[str, float]:
        """Self seconds per layer, named after the repo's modules."""
        s = self.ledger.self_s
        return {
            "core.pipeline": s["pipeline"],
            "core.batched:load": s["engine.load"],
            "core.batched:step": s["engine.step"],
            "core.batched:extract": s["engine.extract"] + s["engine.compute"],
            "service.resilience": s["resilience"],
            "service.service": s["service"],
            "service.cache": s["cache.fingerprint"] + s["cache.get"] + s["cache.put"],
            "service.store": s["store.get"] + s["store.put"],
            "service.stream": s["stream"],
            "service.shard (pipe)": self.values.get("pipe.self_s", 0.0),
            "service.frontend (tcp)": self.values.get("tcp.self_s", 0.0),
        }

    def metrics(self) -> Dict[str, float]:
        led = self.ledger
        layers = self.layers()
        covered = sum(layers.values()) + self.values.get("pipe.worker_s", 0.0)
        out = {name: 0.0 for name, _unit in PER_LAYER}
        out.update(self.values)
        lookups = led.calls["cache.get"]
        out.update({
            "engine.rows": led.counts["engine.rows"],
            "engine.iterations": led.counts["engine.iterations"],
            "engine.load_s": layers["core.batched:load"],
            "engine.step_s": layers["core.batched:step"],
            "engine.extract_s": layers["core.batched:extract"],
            "engine.busy_s": layers["core.batched:load"] + layers["core.batched:step"] + layers["core.batched:extract"],
            "pipeline.self_s": layers["core.pipeline"],
            "cache.lookups": float(lookups),
            "cache.hit_ratio": self.values.get("cache.hits", 0.0) / lookups if lookups else 0.0,
            "cache.get_s": led.self_s["cache.get"],
            "cache.put_s": led.self_s["cache.put"],
            "cache.fingerprint_s": led.self_s["cache.fingerprint"],
            "store.gets": float(led.calls["store.get"]),
            "store.puts": float(led.calls["store.put"]),
            "store.get_s": led.self_s["store.get"],
            "store.put_s": led.self_s["store.put"],
            "store.bytes_written": led.counts["store.bytes_written"],
            "service.self_s": layers["service.service"],
            "resilience.self_s": layers["service.resilience"],
            "stream.self_s": layers["service.stream"],
            "trace.coverage_frac": covered / self.traced_wall_s,
            "trace.overhead_frac": self.traced_wall_s / self.untraced_wall_s,
            "trace.untraced_s": self.traced_wall_s - covered,
            "requests.failed_frac": self.failed / max(self.attempted, 1),
        })
        return {name: out[name] for name, _unit in PER_LAYER}


def traced_outcome(reps: List[Rep]) -> Outcome:
    """Per-layer metrics as medians over the run's repetitions."""
    per_rep = [rep.metrics() for rep in reps]
    metrics = {
        name: (median([m[name] for m in per_rep]), unit) for name, unit in PER_LAYER
    }
    coverage = metrics["trace.coverage_frac"][0]
    if coverage < MIN_COVERAGE:
        raise RuntimeError(
            f"layer self times cover {coverage:.1%} of traced wall time, "
            f"below {MIN_COVERAGE:.0%}: a layer call is not wrapped"
        )
    layers = [rep.layers() for rep in reps]
    ledger = {name: median([l[name] for l in layers]) for name in layers[0]}
    total = sum(ledger.values()) or 1.0
    return Outcome(
        correct=all(rep.mismatches == 0 for rep in reps),
        attempted=sum(rep.attempted for rep in reps),
        failed=sum(rep.failed for rep in reps),
        metrics=metrics,
        meta={
            "repetitions": len(reps),
            "layer_self_s": ledger,
            "layer_share": {name: value / total for name, value in ledger.items()},
            "largest_layer": max(ledger, key=ledger.get),
        },
    )


def repeat(seconds: float, *passes: Callable[[Rep, bool], None]) -> List[Rep]:
    """Traced repetitions of the fixed sequence until ``seconds`` pass.

    Each ``run_pass(rep, traced)`` runs untraced and traced; odd
    repetitions run the traced pass first, so neither side always pays
    for going first.
    """
    deadline = time.perf_counter() + seconds
    reps: List[Rep] = []
    while not reps or time.perf_counter() < deadline:
        rep = Rep()
        order = (True, False) if len(reps) % 2 else (False, True)
        for run_pass in passes:
            for traced in order:
                run_pass(rep, traced)
        reps.append(rep)
    return reps


# --------------------------------------------------------------------- #
# library-images                                                        #
# --------------------------------------------------------------------- #
class LibraryImages:
    name = "library-images"

    def run(self, seed: int, seconds: float, sizes: Sizes, workdir: str) -> Outcome:
        requests = image_requests(seed, sizes)
        options = DiffOptions()
        setups: List[float] = []
        correct = True
        for req in islice(requests, sizes.warmups):
            started = time.perf_counter()
            result = repro.image_diff(req.image_a, req.image_b, options)
            setups.append(time.perf_counter() - started)
            correct = correct and image_matches(req, result)
        tally = Tally(sizes.timeout_s)
        for req in requests:
            out, err, elapsed, cpu = timed(repro.image_diff, req.image_a, req.image_b, options)
            tally.record(elapsed, cpu, err is None, err is None and image_matches(req, out), req.rows)
            if tally.done(seconds, sizes.min_requests):
                break
        metrics = end_to_end(tally, setups, proc_peak_rss_mb(os.getpid()), 0.0)
        return Outcome(correct and tally.mismatches == 0, tally.attempted, tally.failed, metrics, tally_meta(tally))

    def traced(self, seed: int, seconds: float, sizes: Sizes, workdir: str) -> Outcome:
        images = list(islice(image_requests(seed, sizes), sizes.traced_images + 1))
        warmup, images = images[0], images[1:]
        options = DiffOptions()
        repro.image_diff(warmup.image_a, warmup.image_b, options)

        def one_pass(rep: Rep, traced: bool) -> None:
            if not traced:
                for req in images:
                    out, err, elapsed, _cpu = timed(repro.image_diff, req.image_a, req.image_b, options)
                    rep.untraced_wall_s += elapsed
                    rep.check(err, err is None and image_matches(req, out))
                return
            pipeline = rep.ledger.wrap("pipeline", repro.image_diff)
            with traced_engine(rep.ledger):
                for req in images:
                    out, err, elapsed, _cpu = timed(pipeline, req.image_a, req.image_b, options)
                    rep.traced_wall_s += elapsed
                    rep.check(err, err is None and image_matches(req, out))

        return traced_outcome(repeat(seconds, one_pass))


# --------------------------------------------------------------------- #
# tcp-unique-rows                                                       #
# --------------------------------------------------------------------- #
def _fresh_dir(workdir: str) -> str:
    return tempfile.mkdtemp(prefix="store-", dir=workdir)


def _set_up(make: Callable[[], Fleet], count: int) -> Tuple[Fleet, List[float]]:
    """``count`` timed set-ups; all but the last are torn down."""
    times: List[float] = []
    fleet: Optional[Fleet] = None
    for _ in range(count):
        if fleet is not None:
            fleet.close()
        fleet = make()
        times.append(fleet.setup_s)
    assert fleet is not None
    return fleet, times


def _fleet_outcome(fleet: Fleet, tally: Tally, setups: List[float], cpu_before: float) -> Outcome:
    children_cpu = fleet.workers_cpu_s() - cpu_before
    rss = proc_peak_rss_mb(os.getpid()) + fleet.workers_peak_rss_mb()
    metrics = end_to_end(tally, setups, rss, children_cpu)
    meta = tally_meta(tally)
    meta["tcp.wire_bytes_per_row"] = (fleet.wire.sent + fleet.wire.received) / max(tally.rows_ok, 1)
    meta["tcp.request_bytes_max"] = fleet.wire.max_request
    return Outcome(tally.mismatches == 0, tally.attempted, tally.failed, metrics, meta)


class TcpUniqueRows:
    name = "tcp-unique-rows"

    def _fleet(self, sizes: Sizes, workdir: str, trace_rate: float) -> Fleet:
        return Fleet(
            DiffOptions(cache_dir=_fresh_dir(workdir)),
            sizes.unique_cache_bytes,
            trace_rate,
            sizes.timeout_s,
        )

    def run(self, seed: int, seconds: float, sizes: Sizes, workdir: str) -> Outcome:
        requests = row_requests(seed, sizes)
        fleet, setups = _set_up(lambda: self._fleet(sizes, workdir, 0.0), sizes.setups)
        try:
            tally = Tally(sizes.timeout_s)
            cpu_before = fleet.workers_cpu_s()
            for req in requests:
                out, err, elapsed, cpu = timed(fleet.client.diff_rows, req.rows_a, req.rows_b)
                tally.record(elapsed, cpu, err is None, err is None and rows_match(req, out), req.rows)
                if err is not None:
                    fleet.reconnect()
                if tally.done(seconds, sizes.min_requests):
                    break
            return _fleet_outcome(fleet, tally, setups, cpu_before)
        finally:
            fleet.close()

    def traced(self, seed: int, seconds: float, sizes: Sizes, workdir: str) -> Outcome:
        reqs = list(islice(row_requests(seed, sizes), sizes.traced_requests))
        ring = ShardRing(WORKERS)
        routes = [route(ring, req.rows_a) for req in reqs]

        def hop_pass(rep: Rep, traced: bool) -> None:
            fleet = self._fleet(sizes, workdir, 1.0 if traced else 0.0)
            try:
                rows = 0
                for req, req_route in zip(reqs, routes):
                    out, err, elapsed, _cpu = timed(fleet.client.diff_rows, req.rows_a, req.rows_b)
                    rep.check(err, err is None and rows_match(req, out))
                    rep.wall(traced, elapsed)
                    if err is not None:
                        fleet.reconnect()
                    elif traced:
                        rep.hop(fleet, "sharded_diff_rows", elapsed)
                        rep.add("pipe.payload_bytes", rows_pipe_bytes(req_route, req.rows_a, req.rows_b, out))
                        rows += req.rows
                if traced:
                    rep.fleet_totals(fleet, rows)
            finally:
                fleet.close()

        def replay_pass(rep: Rep, traced: bool) -> None:
            root = _fresh_dir(workdir)
            replay = Replay(
                lambda shard: DiffOptions(cache_dir=os.path.join(root, f"worker-{shard}")),
                sizes.unique_cache_bytes,
                compute=traced_compute(rep.ledger) if traced else None,
            )
            try:
                if traced:
                    replay.instrument(rep.ledger)
                with traced_engine(rep.ledger) if traced else nullcontext():
                    for req, req_route in zip(reqs, routes):
                        results: List[Any] = [None] * req.rows
                        first_err: Optional[BaseException] = None
                        for shard, indices in req_route:
                            out, err, elapsed, _cpu = timed(
                                replay.stacks[shard].diff_rows,
                                [req.rows_a[i] for i in indices],
                                [req.rows_b[i] for i in indices],
                            )
                            rep.wall(traced, elapsed)
                            first_err = first_err or err
                            for i, result in zip(indices, out or ()):
                                results[i] = result
                        rep.check(first_err, first_err is None and rows_match(req, results))
                if traced:
                    for key, value in replay.counters().items():
                        rep.add(key, value)
                    # closing flushes the RAM tier to disk: not a request
                    rep.ledger = rep.ledger.copy()
            finally:
                replay.close()

        return traced_outcome(repeat(seconds, hop_pass, replay_pass))


# --------------------------------------------------------------------- #
# tcp-stream-repeat                                                     #
# --------------------------------------------------------------------- #
class _Session:
    """Client-side decode of one session: XOR-fold every delta and
    compare with the frame that was sent."""

    def __init__(self, session_id: str) -> None:
        self.session_id = session_id
        self.decoded: Optional[RLEImage] = None
        self.broken = False

    def check(self, index: int, frame: RLEImage, delta: Any) -> bool:
        if delta.frame_index != index:
            self.broken = True
            return False
        self.decoded = delta.delta if self.decoded is None else self.decoded ^ delta.delta
        if not self.decoded.same_pixels(frame):
            self.broken = True
        return not self.broken


def _frames(clip_iter: Iterator[Clip], replays: int, open_: Callable[[str], bool], close: Callable[[str], None]) -> Iterator[Tuple[_Session, int, RLEImage]]:
    """Every clip streamed ``replays`` times as one session id: open,
    each frame, close.  A session stops at its first bad frame."""
    for clip in clip_iter:
        for _ in range(replays):
            session = _Session(clip.session_id)
            if not open_(clip.session_id):
                continue
            for index, frame in enumerate(clip.frames):
                if session.broken:
                    break
                yield session, index, frame
            close(clip.session_id)


class TcpStreamRepeat:
    name = "tcp-stream-repeat"

    def _fleet(self, sizes: Sizes, trace_rate: float) -> Fleet:
        return Fleet(DiffOptions(), DEFAULT_CACHE_BYTES, trace_rate, sizes.timeout_s)

    @staticmethod
    def _session_calls(fleet: Fleet, on_fail: Callable[[], None]) -> Tuple[Callable[[str], bool], Callable[[str], None]]:
        """Session open/close through the fleet's client.  A failed open
        counts as a failed request; any failure reconnects."""

        def open_(session_id: str) -> bool:
            try:
                fleet.client.stream_open(session_id=session_id)
                return True
            except (ReproError, OSError):
                on_fail()
                fleet.reconnect()
                return False

        def close(session_id: str) -> None:
            try:
                fleet.client.stream_close(session_id)
            except (ReproError, OSError):
                fleet.reconnect()

        return open_, close

    def run(self, seed: int, seconds: float, sizes: Sizes, workdir: str) -> Outcome:
        clip_iter = clips(seed, sizes)
        fleet, setups = _set_up(lambda: self._fleet(sizes, 0.0), sizes.setups)
        try:
            tally = Tally(sizes.timeout_s)
            open_, close = self._session_calls(fleet, lambda: tally.record(0.0, 0.0, False, False, 0))
            cpu_before = fleet.workers_cpu_s()
            for session, index, frame in _frames(clip_iter, sizes.replays, open_, close):
                out, err, elapsed, cpu = timed(fleet.client.stream_frame, session.session_id, frame)
                ok = err is None and session.check(index, frame, out)
                tally.record(elapsed, cpu, err is None, ok, frame.height if index else 0)
                if err is not None:
                    session.broken = True
                    fleet.reconnect()
                if tally.done(seconds, sizes.min_requests):
                    break
            return _fleet_outcome(fleet, tally, setups, cpu_before)
        finally:
            fleet.close()

    def traced(self, seed: int, seconds: float, sizes: Sizes, workdir: str) -> Outcome:
        clip_list = list(islice(clips(seed, sizes), 1))
        placement: Dict[str, int] = {}

        def hop_pass(rep: Rep, traced: bool) -> None:
            fleet = self._fleet(sizes, 1.0 if traced else 0.0)
            try:
                open_, close = self._session_calls(fleet, lambda: rep.check(None, False))
                shipped = raw = rows = 0
                for session, index, frame in _frames(iter(clip_list), sizes.replays, open_, close):
                    out, err, elapsed, _cpu = timed(fleet.client.stream_frame, session.session_id, frame)
                    rep.check(err, err is None and session.check(index, frame, out))
                    rep.wall(traced, elapsed)
                    if err is not None:
                        session.broken = True
                        fleet.reconnect()
                    elif traced:
                        worker_ids = rep.hop(fleet, "sharded_stream_frame", elapsed)
                        placement[session.session_id] = int(worker_ids[0])
                        rep.add("pipe.payload_bytes", frame_pipe_bytes(frame, out))
                        rep.add("stream.frames", 1)
                        rep.add("stream.rekeys", 1 if out.rekeyed and out.frame_index > 0 else 0)
                        shipped += out.delta_runs
                        raw += frame.total_runs
                        rows += frame.height if index else 0
                if traced:
                    rep.fleet_totals(fleet, rows)
                    rep.values["stream.shipped_over_raw_runs"] = shipped / max(raw, 1)
            finally:
                fleet.close()

        def replay_pass(rep: Rep, traced: bool) -> None:
            replay = Replay(
                lambda shard: DiffOptions(),
                DEFAULT_CACHE_BYTES,
                compute=traced_compute(rep.ledger) if traced else None,
            )
            try:
                if traced:
                    replay.instrument(rep.ledger)

                def open_(session_id: str) -> bool:
                    replay.streams[placement[session_id]].open(session_id=session_id)
                    return True

                def close(session_id: str) -> None:
                    replay.streams[placement[session_id]].close_session(session_id)

                with traced_engine(rep.ledger) if traced else nullcontext():
                    for session, index, frame in _frames(iter(clip_list), sizes.replays, open_, close):
                        streams = replay.streams[placement[session.session_id]]
                        out, err, elapsed, _cpu = timed(streams.append_frame, session.session_id, frame)
                        rep.wall(traced, elapsed)
                        rep.check(err, err is None and session.check(index, frame, out))
                if traced:
                    for key, value in replay.counters().items():
                        rep.add(key, value)
                    # closing flushes the RAM tier to disk: not a request
                    rep.ledger = rep.ledger.copy()
            finally:
                replay.close()

        return traced_outcome(repeat(seconds, hop_pass, replay_pass))


WORKLOADS = {w.name: w for w in (LibraryImages(), TcpUniqueRows(), TcpStreamRepeat())}
