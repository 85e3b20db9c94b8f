"""RowDiffBatcher: coalescing, backpressure, lifecycle, error paths.

The batcher is a plain queue around one ``serve`` call per tick; the
tests that need the cache, coalescing or a compute hook drive it
through :class:`~repro.service.DiffService`, the others through a
fake ``serve``."""

import sys
import threading
import time

import pytest

from repro.errors import ServiceError, ServiceOverloadError
from repro.rle.row import RLERow
from repro.core.api import row_diff
from repro.core.machine import default_cell_count
from repro.core.options import DiffOptions
from repro.obs.metrics import MetricsRegistry
from repro.service import DiffService
from repro.service.batcher import RowDiffBatcher, compute_row_diffs

BATCHED = DiffOptions(engine="batched")


def serve(rows_a, rows_b):
    """A fake serve: the uncached compute, one result per pair."""
    return compute_row_diffs(BATCHED, rows_a, rows_b)


def make_row(shift: int, width: int = 64) -> RLERow:
    return RLERow.from_pairs([(shift, 3), (shift + 10, 2)], width=width)


class TestComputeRowDiffs:
    def test_batched_n_cells_normalized(self):
        # the batch sizes lanes to the widest pair; the helper must
        # rewrite n_cells to the per-row default so the result does not
        # depend on batch composition
        narrow_a, narrow_b = make_row(1), make_row(5)
        wide_a = RLERow.from_pairs([(i * 4, 2) for i in range(12)], width=64)
        wide_b = RLERow.from_pairs([(i * 4 + 2, 2) for i in range(12)], width=64)
        alone = compute_row_diffs(BATCHED, [narrow_a], [narrow_b])[0]
        with_wide = compute_row_diffs(
            BATCHED, [narrow_a, wide_a], [narrow_b, wide_b]
        )[0]
        assert alone.n_cells == with_wide.n_cells
        assert alone.n_cells == default_cell_count(alone.k1, alone.k2)
        assert alone.iterations == with_wide.iterations
        assert alone.result.to_pairs() == with_wide.result.to_pairs()
        assert alone.stats.items() == with_wide.stats.items()

    def test_explicit_n_cells_untouched(self):
        a, b = make_row(1), make_row(5)
        result = compute_row_diffs(BATCHED.replace(n_cells=32), [a], [b])[0]
        assert result.n_cells == 32

    @pytest.mark.parametrize(
        "engine", ["systolic", "vectorized", "sequential"]
    )
    def test_per_row_engines_match_functional_api(self, engine):
        opts = DiffOptions(engine=engine)
        a, b = make_row(1), make_row(5)
        batch = compute_row_diffs(opts, [a], [b])[0]
        direct = row_diff(a, b, options=opts)
        assert batch.result.to_pairs() == direct.result.to_pairs()
        assert batch.iterations == direct.iterations
        assert batch.n_cells == direct.n_cells


class TestBatching:
    def test_concurrent_submissions_coalesce(self):
        # hold the worker on a first request, pile more up behind it,
        # and check they ride in fewer batches than requests
        with DiffService(
            BATCHED, cache_bytes=0, max_latency=0.05, max_batch=64
        ) as service:
            futures = [
                service.submit_row_diff(make_row(i % 8), make_row((i + 3) % 8))
                for i in range(32)
            ]
            results = [f.result(timeout=10) for f in futures]
            stats = service.stats()
        assert stats["requests"] == 32
        assert stats["batches"] < 32
        for i, result in enumerate(results):
            direct = compute_row_diffs(
                BATCHED, [make_row(i % 8)], [make_row((i + 3) % 8)]
            )[0]
            assert result.result.to_pairs() == direct.result.to_pairs()

    def test_duplicate_pairs_compute_once(self):
        a, b = make_row(1), make_row(5)
        with DiffService(BATCHED, max_latency=0.05) as service:
            futures = [service.submit_row_diff(a, b) for _ in range(16)]
            results = [f.result(timeout=10) for f in futures]
        # every waiter got the same object: one compute, shared fan-out
        assert all(r is results[0] for r in results)

    def test_cache_hits_skip_the_engine(self):
        a, b = make_row(1), make_row(5)
        with DiffService(BATCHED) as service:
            first = service.submit_row_diff(a, b).result(timeout=10)
            second = service.submit_row_diff(a, b).result(timeout=10)
        assert second is first  # served straight from the cache
        assert service.cache is not None and service.cache.hits >= 1

    def test_many_threads_one_batcher(self):
        errors = []
        with DiffService(BATCHED, max_latency=0.01) as service:
            def hammer(seed: int) -> None:
                try:
                    for i in range(20):
                        a, b = make_row((seed + i) % 10), make_row((seed + i + 3) % 10)
                        got = service.submit_row_diff(a, b).result(timeout=10)
                        want = compute_row_diffs(BATCHED, [a], [b])[0]
                        assert got.result.to_pairs() == want.result.to_pairs()
                        assert got.iterations == want.iterations
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=hammer, args=(t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors


class TestBackpressureAndLifecycle:
    def test_overload_raises_typed_error(self):
        # block the worker inside serve (it waits on an event), then
        # flood the bounded queue: the batcher must push back with the
        # typed error, and every accepted request must still resolve
        # once the worker is released
        gate = threading.Event()

        def gated_serve(rows_a, rows_b):
            gate.wait(timeout=30)
            return serve(rows_a, rows_b)

        batcher = RowDiffBatcher(
            gated_serve, max_batch=2, max_latency=0.0, max_pending=2
        )
        try:
            accepted = []
            with pytest.raises(ServiceOverloadError, match="queue full"):
                for i in range(8):
                    accepted.append(batcher.submit(make_row(i), make_row(i + 3)))
            assert 1 <= len(accepted) < 8
        finally:
            gate.set()
            batcher.close()
        for future in accepted:
            assert future.result(timeout=10) is not None

    def test_overload_is_service_error(self):
        assert issubclass(ServiceOverloadError, ServiceError)

    def test_submit_after_close_raises(self):
        batcher = RowDiffBatcher(serve)
        batcher.close()
        with pytest.raises(ServiceError, match="close"):
            batcher.submit(make_row(0), make_row(3))

    def test_close_drains_pending(self):
        batcher = RowDiffBatcher(serve, max_latency=0.2)
        futures = [batcher.submit(make_row(i), make_row(i + 3)) for i in range(8)]
        batcher.close()
        for f in futures:
            assert f.result(timeout=1) is not None

    def test_close_timeout_keeps_queued_requests(self):
        # regression: close(timeout=...) shorter than the queued work
        # used to fail the still-queued futures with "service closed"
        # and eat the stop sentinel, so the worker never exited
        def slow_serve(rows_a, rows_b):
            time.sleep(0.2)
            return serve(rows_a, rows_b)

        batcher = RowDiffBatcher(slow_serve, max_batch=1, max_latency=0.0)
        futures = [batcher.submit(make_row(i), make_row(i + 3)) for i in range(4)]
        batcher.close(timeout=0.05)
        for i, future in enumerate(futures):
            want = serve([make_row(i)], [make_row(i + 3)])[0]
            assert future.result(timeout=10).result.to_pairs() == (
                want.result.to_pairs()
            )
        batcher._worker.join(timeout=10)
        assert not batcher._worker.is_alive()

    def test_close_idempotent(self):
        batcher = RowDiffBatcher(serve)
        batcher.close()
        batcher.close()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_latency": -1.0},
            {"max_pending": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ServiceError):
            RowDiffBatcher(serve, **kwargs)

    def test_short_compute_fails_every_future(self):
        # regression: a ComputeFn returning fewer results than unique
        # misses used to be zip-truncated — the trailing futures never
        # resolved and callers blocked forever.  Every future must now
        # fail promptly with a typed error.
        def short(options, rows_a, rows_b):
            return compute_row_diffs(options, rows_a, rows_b)[:-1]

        with DiffService(BATCHED, max_latency=0.05, compute=short) as service:
            futures = [
                service.submit_row_diff(make_row(i), make_row(i + 3))
                for i in range(6)
            ]
            for future in futures:
                with pytest.raises(ServiceError, match="mismatched batch"):
                    future.result(timeout=10)

    def test_long_compute_fails_every_future(self):
        def long(options, rows_a, rows_b):
            results = compute_row_diffs(options, rows_a, rows_b)
            return results + results[:1]

        with DiffService(BATCHED, max_latency=0.05, compute=long) as service:
            futures = [
                service.submit_row_diff(make_row(i), make_row(i + 3))
                for i in range(6)
            ]
            for future in futures:
                with pytest.raises(ServiceError, match="mismatched batch"):
                    future.result(timeout=10)

    def test_short_serve_fails_the_tick(self):
        # a serve that breaks its one-result-per-pair contract must not
        # strand a future: the tick fails instead
        with RowDiffBatcher(lambda rows_a, rows_b: [], max_latency=0.05) as batcher:
            futures = [batcher.submit(make_row(i), make_row(i + 3)) for i in range(3)]
            for future in futures:
                with pytest.raises(ValueError):
                    future.result(timeout=10)

    def test_worker_survives_contract_violation(self):
        calls = []

        def flaky(options, rows_a, rows_b):
            calls.append(len(rows_a))
            results = compute_row_diffs(options, rows_a, rows_b)
            return [] if len(calls) == 1 else results

        with DiffService(BATCHED, compute=flaky) as service:
            with pytest.raises(ServiceError, match="mismatched batch"):
                service.submit_row_diff(make_row(0), make_row(3)).result(timeout=10)
            good = service.submit_row_diff(make_row(1), make_row(4)).result(timeout=10)
            want = compute_row_diffs(BATCHED, [make_row(1)], [make_row(4)])[0]
            assert good.result.to_pairs() == want.result.to_pairs()

    def test_engine_failure_propagates_to_future(self):
        # capacity overflow inside the engine must surface through the
        # future, not kill the worker thread
        from repro.errors import CapacityError

        tiny = DiffOptions(engine="systolic", n_cells=1)
        wide_a = RLERow.from_pairs([(i * 4, 2) for i in range(8)], width=64)
        wide_b = RLERow.from_pairs([(i * 4 + 2, 2) for i in range(8)], width=64)
        with DiffService(tiny) as service:
            future = service.submit_row_diff(wide_a, wide_b)
            with pytest.raises(CapacityError):
                future.result(timeout=10)
            # the worker survived and serves the next request (which
            # must fit the single-cell array: empty rows do)
            empty = RLERow.from_pairs([], width=64)
            ok = service.submit_row_diff(empty, empty).result(timeout=10)
            assert ok.result.to_pairs() == []

    def test_tick_fails_as_a_whole(self):
        # one tick is one serve call: a cache hit that shares a tick
        # with a failing miss fails with it, as rows of one diff_rows
        # request do
        bad = make_row(7)

        def picky(options, rows_a, rows_b):
            if any(row.to_pairs() == bad.to_pairs() for row in rows_a):
                raise ServiceError("injected compute failure")
            return compute_row_diffs(options, rows_a, rows_b)

        with DiffService(BATCHED, max_latency=0.5, compute=picky) as service:
            service.row_diff(make_row(1), make_row(4))  # now cached
            futures = [
                service.submit_row_diff(make_row(1), make_row(4)),
                service.submit_row_diff(bad, make_row(2)),
            ]
            for future in futures:
                with pytest.raises(ServiceError, match="injected"):
                    future.result(timeout=10)
            assert service.cache is not None and service.cache.hits == 1


class TestCounterIntegrity:
    """``requests``/``batches`` are bumped by whichever thread serves:
    the batcher's worker (queued requests) and callers' threads (bulk
    ``diff_rows``).  The totals must be exact under concurrency — lost
    ``+=`` increments were a real bug."""

    def test_record_outcomes_lossless_under_threads(self):
        # callers' threads record hit-only and computed outcomes at once;
        # only the computed calls count as batches
        n_threads, per_thread = 8, 100
        warm_a, warm_b = make_row(1), make_row(4)
        registry = MetricsRegistry()
        with DiffService(
            BATCHED.replace(metrics=registry), max_latency=0.0
        ) as service:
            service.diff_rows([warm_a], [warm_b])
            warmed = service.stats()

            def hammer(t: int) -> None:
                for i in range(per_thread):
                    if i % 2:
                        service.diff_rows([warm_a], [warm_b])
                    else:
                        # a pair no other call sends: always a miss
                        service.diff_rows(
                            [RLERow.from_pairs([(i, 1)], width=256)],
                            [RLERow.from_pairs([(128 + t, 1)], width=256)],
                        )

            threads = [
                threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the += bytecodes often
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            stats = service.stats()
        assert stats["requests"] - warmed["requests"] == n_threads * per_thread
        assert stats["batches"] - warmed["batches"] == n_threads * per_thread // 2
        assert stats["hits"] - warmed["hits"] == n_threads * per_thread // 2
        outcomes = registry.snapshot().counter_total("repro_service_requests_total")
        assert outcomes == stats["requests"]

    def test_bulk_recording_races_queued_serving(self):
        n_threads, per_thread, queued = 4, 50, 40
        registry = MetricsRegistry()
        calls = []
        calls_lock = threading.Lock()

        def counted(options, rows_a, rows_b):
            with calls_lock:
                calls.append(len(rows_a))
            return compute_row_diffs(options, rows_a, rows_b)

        with DiffService(
            BATCHED.replace(metrics=registry), cache_bytes=0,
            max_latency=0.0, compute=counted,
        ) as service:
            def bulk(seed: int) -> None:
                for i in range(per_thread):
                    service.diff_rows(
                        [make_row((seed + i) % 16), make_row((seed + i + 1) % 16)],
                        [make_row((seed + i + 3) % 16)] * 2,
                    )

            threads = [
                threading.Thread(target=bulk, args=(t,)) for t in range(n_threads)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the += bytecodes often
            try:
                for t in threads:
                    t.start()
                futures = [
                    service.submit_row_diff(make_row(i % 16), make_row((i + 3) % 16))
                    for i in range(queued)
                ]
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            for f in futures:
                f.result(timeout=10)
            stats = service.stats()
        assert stats["requests"] == n_threads * per_thread * 2 + queued
        assert stats["batches"] == len(calls)
        outcomes = registry.snapshot().counter_total("repro_service_requests_total")
        assert outcomes == stats["requests"]
