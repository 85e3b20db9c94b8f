"""Request coalescing: many callers, one batch per tick.

The batched engine's whole advantage is width — stepping many lanes per
NumPy operation — but a *service* receives rows one request at a time.
:class:`RowDiffBatcher` closes that gap: submissions land in a bounded
queue, and a single worker thread drains it once per tick (up to
``max_batch`` requests, waiting at most ``max_latency`` seconds for
stragglers) and hands the tick's row pairs to **one** ``serve`` call —
:class:`~repro.service.DiffService`'s serve routine, which consults the
cache, dedupes identical pending pairs and runs the misses as one
:class:`~repro.core.batched.BatchedXorEngine` batch.  Callers get
:class:`concurrent.futures.Future` objects back, so a hundred threads
submitting concurrently cost one batch, not a hundred row runs.

Backpressure is explicit: the queue is bounded (``max_pending``) and a
full queue raises :class:`~repro.errors.ServiceOverloadError` instead of
buffering without limit — callers retry or shed load.

Determinism note: a batched run sizes its lanes to the *widest* pair in
the batch, so the raw per-row ``n_cells`` would depend on which requests
happened to share a tick.  :func:`compute_row_diffs` therefore rewrites
``n_cells`` to the per-row :func:`~repro.core.machine.default_cell_count`
whenever the options leave sizing automatic.  Iterations, stats and the
result row are already batch-width-invariant (the engine's active-lane
mask guarantees it; the equivalence tests assert it), so after this
rewrite a result is a pure function of ``(row_a, row_b, options)`` —
exactly what a content-addressed cache requires.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import replace
from typing import Callable, List, Optional, Sequence

from repro.errors import ServiceError, ServiceOverloadError
from repro.rle.row import RLERow
from repro.core.api import row_diff
from repro.core.batched import BatchedXorEngine
from repro.core.machine import XorRunResult, default_cell_count
from repro.core.options import DiffOptions

__all__ = ["ComputeFn", "ServeFn", "compute_row_diffs", "RowDiffBatcher"]

#: Signature of the engine-batch compute hook: ``(options, rows_a,
#: rows_b) -> results``.  :func:`compute_row_diffs` is the default;
#: :class:`~repro.service.chaos.ChaosEngine` and the retry wrapper of
#: :class:`~repro.service.resilience.ResilientDiffService` are drop-in
#: replacements, which is how faults and recovery policies reach the
#: serving path without mocks.
ComputeFn = Callable[
    [DiffOptions, Sequence[RLERow], Sequence[RLERow]], List[XorRunResult]
]

#: Signature of the per-tick serve call: ``(rows_a, rows_b) -> results``,
#: one result per pair, in order.
ServeFn = Callable[[List[RLERow], List[RLERow]], List[XorRunResult]]

#: Default coalescing window: how long the worker waits for more
#: requests after the first one of a tick arrives.
DEFAULT_MAX_LATENCY = 0.002

#: Default maximum requests per tick.
DEFAULT_MAX_BATCH = 256

#: Default bound on queued-but-unserved requests before
#: :class:`~repro.errors.ServiceOverloadError` fires.
DEFAULT_MAX_PENDING = 4096


def compute_row_diffs(
    options: DiffOptions,
    rows_a: Sequence[RLERow],
    rows_b: Sequence[RLERow],
) -> List[XorRunResult]:
    """Fresh (uncached) diffs for ``len(rows_a)`` row pairs.

    The ``"batched"`` engine runs all pairs as one batch; the per-row
    engines loop.  Observability handles are stripped first — the
    service records through its own cache/batch metrics, and results
    must not depend on who was watching.  With automatic sizing
    (``options.n_cells is None``) the batched engine's per-row
    ``n_cells`` is rewritten to
    :func:`~repro.core.machine.default_cell_count` so the result is
    independent of batch composition (see the module docstring).
    """
    opts = options.without_observability()
    if opts.engine == "batched":
        results = BatchedXorEngine(n_cells=opts.n_cells).diff_rows(
            list(rows_a), list(rows_b)
        )
        if opts.n_cells is None:
            results = [
                replace(r, n_cells=default_cell_count(r.k1, r.k2)) for r in results
            ]
        return results
    return [row_diff(ra, rb, options=opts) for ra, rb in zip(rows_a, rows_b)]


def check_computed(got: int, expected: int) -> None:
    """The ComputeFn contract: exactly one result per unique miss.

    A short return silently truncates the batch under ``zip``; a long
    one silently discards work.  Both indicate a broken compute hook
    (or a fault injector left attached), so both fail the request with
    a typed error instead of serving a wrong-shaped answer.
    """
    if got != expected:
        raise ServiceError(
            f"compute returned {got} result(s) for {expected} unique "
            f"miss(es); refusing to serve a mismatched batch"
        )


class _Request:
    """One pending row pair and the future its caller is waiting on."""

    __slots__ = ("row_a", "row_b", "future")

    def __init__(self, row_a: RLERow, row_b: RLERow) -> None:
        self.row_a = row_a
        self.row_b = row_b
        self.future: "Future[XorRunResult]" = Future()


class RowDiffBatcher:
    """A bounded queue whose worker thread coalesces row-diff requests
    into one ``serve`` call per tick.

    Parameters
    ----------
    serve:
        The :data:`ServeFn` called once per tick with the tick's row
        pairs in submission order; it must return one result per pair.
        :class:`~repro.service.DiffService` passes its one serve
        routine (cache, in-batch coalescing, compute, store, counters).
        If it raises, every future of the tick fails with that error.
    max_batch:
        Hard cap on requests per tick.
    max_latency:
        Seconds the worker waits for more requests after a tick's first
        arrival — the latency cost of coalescing, bounded and
        configurable.
    max_pending:
        Queue bound; :meth:`submit` past it raises
        :class:`~repro.errors.ServiceOverloadError`.
    """

    def __init__(
        self,
        serve: ServeFn,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_latency: float = DEFAULT_MAX_LATENCY,
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> None:
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        if max_latency < 0:
            raise ServiceError(f"max_latency must be >= 0, got {max_latency}")
        if max_pending < 1:
            raise ServiceError(f"max_pending must be >= 1, got {max_pending}")
        self._serve = serve
        self.max_batch = max_batch
        self.max_latency = max_latency
        self._queue: "queue.Queue[Optional[_Request]]" = queue.Queue(
            maxsize=max_pending
        )
        self._closed = False
        self._close_lock = threading.Lock()
        self._worker = threading.Thread(
            target=self._run, name="repro-diff-batcher", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------ #
    # Submission                                                         #
    # ------------------------------------------------------------------ #
    def submit(self, row_a: RLERow, row_b: RLERow) -> "Future[XorRunResult]":
        """Enqueue one row pair; the returned future resolves to what
        ``serve`` returns for it.

        Raises :class:`~repro.errors.ServiceOverloadError` when the
        queue is full and :class:`~repro.errors.ServiceError` after
        :meth:`close`.
        """
        request = _Request(row_a, row_b)
        # check and enqueue under the lock close() flips the flag under,
        # so no request can land behind the close sentinel
        with self._close_lock:
            if self._closed:
                raise ServiceError("submit() after close()")
            try:
                self._queue.put_nowait(request)
            except queue.Full:
                raise ServiceOverloadError(
                    f"request queue full ({self._queue.maxsize} pending); "
                    f"retry later or raise max_pending"
                ) from None
        return request.future

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop accepting requests and join the worker.

        Idempotent.  Already-queued requests complete; their futures
        resolve normally, also when ``timeout`` runs out first (the
        worker then finishes them and exits on its own).
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)
        self._worker.join(timeout=timeout)

    def __enter__(self) -> "RowDiffBatcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Worker                                                             #
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            head = self._queue.get()
            if head is None:
                return
            batch = [head]
            deadline = time.monotonic() + self.max_latency
            stop = False
            while len(batch) < self.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is None:
                    stop = True
                    break
                batch.append(item)
            # the tick is over — take whatever already queued, without waiting
            while not stop and len(batch) < self.max_batch:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is None:
                    stop = True
                    break
                batch.append(item)
            self._serve_tick(batch)
            if stop:
                return

    def _serve_tick(self, batch: List[_Request]) -> None:
        try:
            results = self._serve(
                [request.row_a for request in batch],
                [request.row_b for request in batch],
            )
            for request, result in zip(batch, results, strict=True):
                request.future.set_result(result)
        except BaseException as exc:  # noqa: BLE001 - forwarded to callers
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
