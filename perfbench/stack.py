"""The serving stack as the benchmark drives it.

:class:`Fleet` is the real TCP path: ``ShardClient`` ->
``ServerThread`` -> ``ShardedDiffService(workers=2)`` -> one
``ResilientDiffService`` -> ``DiffService`` -> engine per worker
process.  :class:`Replay` is the worker side of the same stack built
in-process, one resilient service per shard and routed like the fleet,
so the traced run can wrap each layer's calls in spans.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import DiffOptions
from repro.core.batched import BatchedXorEngine
from repro.obs.log import StructuredLog
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    ResilientDiffService,
    ServerThread,
    ShardClient,
    ShardedDiffService,
    ShardRing,
    StreamingDiffService,
    compute_row_diffs,
)
from repro.service.shard import encode_result, encode_row
from repro.service.stream import encode_frame_delta, encode_image

from ledger import Ledger, patched, proc_cpu_s, proc_peak_rss_mb

#: Shard workers behind the TCP front-end (the host has two CPUs).
WORKERS = 2

#: The server's per-line read limit (asyncio's default StreamReader
#: limit); requests are sized to stay below it.
REQUEST_LINE_LIMIT = 64 * 1024


class WireCount:
    """TCP payload bytes one client connection sent and received."""

    def __init__(self) -> None:
        self.sent = 0
        self.received = 0
        self.max_request = 0


class _CountingSocket:
    def __init__(self, sock: Any, wire: WireCount) -> None:
        self._sock = sock
        self._wire = wire

    def sendall(self, data: bytes) -> None:
        self._wire.sent += len(data)
        self._wire.max_request = max(self._wire.max_request, len(data))
        self._sock.sendall(data)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._sock, name)


class _CountingReader:
    def __init__(self, reader: Any, wire: WireCount) -> None:
        self._reader = reader
        self._wire = wire

    def readline(self, *args: Any) -> bytes:
        line = self._reader.readline(*args)
        self._wire.received += len(line)
        return line

    def __getattr__(self, name: str) -> Any:
        return getattr(self._reader, name)


class Fleet:
    """One set-up of the TCP serving stack; ``setup_s`` runs from
    constructing the service to the first answered ``ping``."""

    def __init__(
        self,
        options: DiffOptions,
        cache_bytes: int,
        trace_sample_rate: float,
        timeout_s: float,
    ) -> None:
        self.wire = WireCount()
        self.timeout_s = timeout_s
        self.service: Optional[ShardedDiffService] = None
        self.server: Optional[ServerThread] = None
        self.client: Optional[ShardClient] = None
        started = time.perf_counter()
        try:
            self.service = ShardedDiffService(
                options,
                workers=WORKERS,
                cache_bytes=cache_bytes,
                trace_sample_rate=trace_sample_rate,
            )
            self.server = ServerThread(self.service).start()
            self.client = self._connect()
            self.client.ping()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started
        self.pids = [p.pid for p in multiprocessing.active_children()]

    def _connect(self) -> ShardClient:
        assert self.server is not None
        client = ShardClient(self.server.host, self.server.port, timeout=self.timeout_s)
        # count every byte at the socket: one sendall per request line,
        # one readline per response line
        client._sock = _CountingSocket(client._sock, self.wire)
        client._reader = _CountingReader(client._reader, self.wire)
        return client

    def reconnect(self) -> None:
        if self.client is not None:
            try:
                self.client.close()
            except OSError:
                pass
        self.client = self._connect()

    def workers_cpu_s(self) -> float:
        return sum(proc_cpu_s(pid) for pid in self.pids)

    def workers_peak_rss_mb(self) -> float:
        return sum(proc_peak_rss_mb(pid) for pid in self.pids)

    def hops(self, front_span: str) -> Tuple[float, List[float], List[Any]]:
        """The last request's stitched trace: the front-end span's
        duration, and each worker span's duration and worker index."""
        assert self.service is not None and self.client is not None
        request_id = self.client.last_request_id
        spans = self.service.trace_store.get(request_id) if request_id else []
        front = [s.duration for s in spans if s.lane == 0 and s.name == front_span]
        workers = [s for s in spans if s.lane > 0]
        if len(front) != 1 or not workers:
            raise RuntimeError(f"no stitched trace for request {request_id!r}")
        return (
            front[0],
            [s.duration for s in workers],
            [s.attributes.get("worker") for s in workers],
        )

    def close(self) -> None:
        if self.client is not None:
            try:
                self.client.close()
            except OSError:
                pass
        if self.server is not None:
            self.server.stop()
        if self.service is not None:
            self.service.close()


class Replay:
    """The fleet's worker side, in-process: shard ``i`` is the
    ``ResilientDiffService`` (and, for streams, the
    ``StreamingDiffService``) that worker ``i`` would build."""

    def __init__(
        self,
        options_for: Callable[[int], DiffOptions],
        cache_bytes: int,
        compute: Optional[Callable[..., Any]] = None,
    ) -> None:
        self.stacks: List[ResilientDiffService] = []
        self.streams: List[StreamingDiffService] = []
        for shard in range(WORKERS):
            registry = MetricsRegistry()
            log = StructuredLog()
            stack = ResilientDiffService(
                options_for(shard).replace(metrics=registry),
                cache_bytes=cache_bytes,
                compute=compute,
                log=log,
            )
            self.stacks.append(stack)
            self.streams.append(StreamingDiffService(stack, metrics=registry, log=log))

    def instrument(self, ledger: Ledger) -> None:
        """Wrap every layer's public calls on these instances in spans."""
        for stack, streams in zip(self.stacks, self.streams):
            streams.append_frame = ledger.wrap("stream", streams.append_frame)
            stack.diff_rows = ledger.wrap("resilience", stack.diff_rows)
            stack.diff_images = ledger.wrap("resilience", stack.diff_images)
            service = stack.service
            service.diff_rows = ledger.wrap("service", service.diff_rows)
            service.diff_images = ledger.wrap("service", service.diff_images)
            cache = service.cache
            assert cache is not None
            cache.key_for = ledger.wrap("cache.fingerprint", cache.key_for)
            cache.get = ledger.wrap("cache.get", cache.get)
            cache.put = ledger.wrap("cache.put", cache.put)
            store = service.store
            if store is not None:
                store.get = ledger.wrap("store.get", store.get)
                store.put = _measured_put(ledger, store, ledger.wrap("store.put", store.put))

    def counters(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for stack in self.stacks:
            cache, store = stack.service.cache, stack.service.store
            assert cache is not None
            for key, value in (
                ("cache.hits", cache.hits),
                ("cache.evictions", cache.evictions),
                ("cache.collisions", cache.collisions),
                ("store.quarantined", store.quarantined if store is not None else 0),
            ):
                totals[key] = totals.get(key, 0.0) + float(value)
        return totals

    def close(self) -> None:
        for stack, streams in zip(self.stacks, self.streams):
            streams.close()
            stack.close()


def _measured_put(ledger: Ledger, store: Any, put: Callable[..., bool]) -> Callable[..., bool]:
    def measured(*args: Any) -> bool:
        before = store.total_bytes
        landed = put(*args)
        ledger.counts["store.bytes_written"] += store.total_bytes - before
        return landed

    return measured


@contextmanager
def traced_engine(ledger: Ledger) -> Iterator[None]:
    """Spans around ``BatchedXorEngine.load`` (``engine.load``),
    ``run`` (``engine.step``) and ``diff_rows`` (its self time is the
    extract phase: reading lanes back into rows and results)."""
    cls = BatchedXorEngine
    diff_rows = ledger.wrap("engine.extract", cls.diff_rows)

    def counted_diff_rows(self: BatchedXorEngine, *args: Any, **kwargs: Any) -> Any:
        results = diff_rows(self, *args, **kwargs)
        ledger.counts["engine.rows"] += len(results)
        ledger.counts["engine.iterations"] += int(self.iterations.sum())
        return results

    with ExitStack() as stack:
        stack.enter_context(patched(cls, "diff_rows", counted_diff_rows))
        stack.enter_context(patched(cls, "load", ledger.wrap("engine.load", cls.load)))
        stack.enter_context(patched(cls, "run", ledger.wrap("engine.step", cls.run)))
        yield


def traced_compute(ledger: Ledger) -> Callable[..., Any]:
    return ledger.wrap("engine.compute", compute_row_diffs)


def route(ring: ShardRing, rows_a: Sequence[Any]) -> List[Tuple[int, List[int]]]:
    """Row indices per shard, in shard order, as the fleet scatters them."""
    by_shard: Dict[int, List[int]] = {}
    for index, row in enumerate(rows_a):
        by_shard.setdefault(ring.shard_for_row(row), []).append(index)
    return sorted(by_shard.items())


def rows_pipe_bytes(routes: List[Tuple[int, List[int]]], rows_a: Sequence[Any], rows_b: Sequence[Any], results: Sequence[Any]) -> int:
    """Pickled size of the rows and results one request moves over the
    worker pipes (the wire tuples, without context, spans or events)."""
    total = 0
    for _shard, indices in routes:
        total += len(pickle.dumps((
            tuple(encode_row(rows_a[i]) for i in indices),
            tuple(encode_row(rows_b[i]) for i in indices),
        )))
        total += len(pickle.dumps(tuple(encode_result(results[i]) for i in indices)))
    return total


def frame_pipe_bytes(frame: Any, delta: Any) -> int:
    return len(pickle.dumps(encode_image(frame))) + len(pickle.dumps(encode_frame_delta(delta)))
