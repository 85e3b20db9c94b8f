"""The long-lived differencing service.

A deployment of the paper's array is not a function call — it is a
fixture: one physical array, loaded row pair after row pair, serving
whatever the host pipeline sends.  :class:`DiffService` is the software
analogue.  Construct it once with a
:class:`~repro.core.options.DiffOptions`, keep it alive, and push row or
image diffs through it; behind the single entry point sit the
content-addressed result cache (:class:`~repro.service.cache.DiffCache`)
and the request queue (:class:`~repro.service.batcher.RowDiffBatcher`),
so repeated content is never recomputed and concurrent submissions share
engine batches.  Queued and bulk requests reach the same serve routine:
cache lookup, in-batch coalescing of identical pairs, one compute call,
store, counters.

The contract is strict: a served result is **byte-identical** to what
the same service would compute with caching disabled (the property tests
assert it field by field).  With an explicit ``n_cells`` it is also
identical to a direct :func:`~repro.core.pipeline.diff_images` call;
with automatic sizing the only difference is the documented ``n_cells``
normalization (see :mod:`repro.service.batcher`).

Usage::

    from repro.core.options import DiffOptions
    from repro.service import DiffService

    with DiffService(DiffOptions(engine="batched")) as svc:
        first = svc.diff_images(frame0, frame1)
        again = svc.diff_images(frame0, frame1)   # served from cache
        print(svc.cache.hit_rate)                 # 1.0 second time round
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from concurrent.futures import Future

from repro.errors import GeometryError
from repro.rle.image import RLEImage
from repro.rle.row import RLERow
from repro.core.machine import XorRunResult
from repro.core.options import IMAGE_DEFAULTS, DiffOptions, resolve_options
from repro.core.pipeline import ImageDiffResult, assemble_image_diff
from repro.obs.context import new_request_id
from repro.obs.log import StructuredLog
from repro.service.batcher import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_LATENCY,
    DEFAULT_MAX_PENDING,
    ComputeFn,
    RowDiffBatcher,
    check_computed,
    compute_row_diffs,
)
from repro.service.cache import (
    DEFAULT_CACHE_BYTES,
    CacheKey,
    DiffCache,
    PackedPair,
    pack_pair,
)
from repro.service.store import DEFAULT_DISK_BUDGET, RowStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

__all__ = ["DiffService"]


class DiffService:
    """Cached, batched row/image differencing behind one entry point.

    Parameters
    ----------
    options:
        The :class:`~repro.core.options.DiffOptions` every request runs
        under (default: the image defaults — batched engine, automatic
        sizing).  A bare engine-name string is rejected with a typed
        :class:`~repro.errors.OptionsError`, as in the functional API.
        The ``metrics`` handle, if set, is
        where the service's cache and batch metric families land; the
        other observability handles are stripped (results served from a
        shared cache cannot depend on one caller's tracer or probe —
        instrument the service, not individual requests).
    cache_bytes:
        Byte budget of the result cache; ``0`` disables caching
        entirely.
    max_batch / max_latency / max_pending:
        Coalescing knobs, forwarded to
        :class:`~repro.service.batcher.RowDiffBatcher`.
    compute:
        The :data:`~repro.service.batcher.ComputeFn` every engine batch
        runs through (default
        :func:`~repro.service.batcher.compute_row_diffs`).  Queued and
        bulk requests both reach it through the one serve routine —
        this is where :class:`~repro.service.chaos.ChaosEngine` and the
        retry wrapper of
        :class:`~repro.service.resilience.ResilientDiffService` plug in,
        *upstream* of the cache so only results that survived the
        wrapper are ever stored.
    log:
        An optional :class:`~repro.obs.log.StructuredLog`.  When set,
        every :meth:`row_diff` / :meth:`diff_rows` request emits
        ``request_admitted``/``request_completed`` events under a
        request id (caller-supplied, or generated via
        :func:`~repro.obs.context.new_request_id`).  Leave unset when
        wrapping with
        :class:`~repro.service.resilience.ResilientDiffService` — the
        wrapper logs the same lifecycle itself.
    store_log:
        An optional :class:`~repro.obs.log.StructuredLog` for the disk
        tier's ``cache_warm`` / ``cache_quarantine`` events only
        (``log`` is used when this is unset).  Exists so a wrapping
        :class:`~repro.service.resilience.ResilientDiffService` can
        route store events to its log without double-emitting the
        request lifecycle.

    When ``options.cache_dir`` is set (and caching is enabled), the
    service opens a :class:`~repro.service.store.RowStore` there and
    attaches it to the cache as a persistent tier: read-through on
    miss, write-behind on eviction, and a full :meth:`DiffCache.flush
    <repro.service.cache.DiffCache.flush>` on :meth:`close` so the next
    process restarts warm.  The store is owned by the service and
    closed (releasing its single-writer lock) with it.
    """

    def __init__(
        self,
        options: Union[DiffOptions, str, None] = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_latency: float = DEFAULT_MAX_LATENCY,
        max_pending: int = DEFAULT_MAX_PENDING,
        compute: Optional[ComputeFn] = None,
        log: Optional[StructuredLog] = None,
        store_log: Optional[StructuredLog] = None,
    ) -> None:
        opts = resolve_options(options, IMAGE_DEFAULTS, "DiffService")
        self.options = opts.without_observability()
        self.log = log
        self._metrics: "Optional[MetricsRegistry]" = opts.metrics
        self._compute: ComputeFn = (
            compute if compute is not None else compute_row_diffs
        )
        self.store: Optional[RowStore] = None
        if opts.cache_dir is not None and cache_bytes > 0:
            self.store = RowStore(
                opts.cache_dir,
                max_bytes=(
                    opts.disk_budget
                    if opts.disk_budget is not None
                    else DEFAULT_DISK_BUDGET
                ),
                metrics=opts.metrics,
                log=store_log if store_log is not None else log,
            )
        self.cache: Optional[DiffCache] = (
            DiffCache(
                max_bytes=cache_bytes, metrics=opts.metrics, store=self.store
            )
            if cache_bytes > 0
            else None
        )
        #: Guards the ``requests``/``batches`` totals: the batcher's
        #: worker thread and bulk callers' threads both serve.
        self._stats_lock = threading.Lock()
        self.requests = 0
        self.batches = 0
        if self._metrics is not None:
            outcomes = self._metrics.counter(
                "repro_service_requests_total",
                "row-diff service requests by outcome",
                ("outcome",),
            )
            self._m_hit = outcomes.labels(outcome="hit")
            self._m_computed = outcomes.labels(outcome="computed")
            self._m_coalesced = outcomes.labels(outcome="coalesced")
            self._m_batch_size = self._metrics.histogram(
                "repro_service_batch_size",
                "unique misses computed per engine batch (cache hits and "
                "coalesced duplicates excluded)",
                buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
            ).labels()
        self._batcher = RowDiffBatcher(
            self._serve,
            max_batch=max_batch,
            max_latency=max_latency,
            max_pending=max_pending,
        )

    # ------------------------------------------------------------------ #
    # Row requests                                                       #
    # ------------------------------------------------------------------ #
    def submit_row_diff(
        self, row_a: RLERow, row_b: RLERow
    ) -> "Future[XorRunResult]":
        """Asynchronous row diff — returns a future so many submissions
        can coalesce into one serve call per tick.  A tick succeeds or
        fails as a whole, like one :meth:`diff_rows` request.  Raises
        :class:`~repro.errors.ServiceOverloadError` under backpressure.
        """
        return self._batcher.submit(row_a, row_b)

    def row_diff(
        self, row_a: RLERow, row_b: RLERow, request_id: Optional[str] = None
    ) -> XorRunResult:
        """Synchronous row diff (submit + wait)."""
        with self._observe("row_diff", request_id, 1):
            return self.submit_row_diff(row_a, row_b).result()

    # ------------------------------------------------------------------ #
    # Image requests                                                     #
    # ------------------------------------------------------------------ #
    def diff_images(
        self,
        image_a: RLEImage,
        image_b: RLEImage,
        request_id: Optional[str] = None,
    ) -> ImageDiffResult:
        """Difference two equal-shape images through the service.

        An image is already a batch, so this path skips the request
        queue entirely: one bulk pass over the cache (repeated frames
        and static background rows are served without touching an
        engine), then one
        :func:`~repro.service.batcher.compute_row_diffs` batch over the
        deduplicated misses.  Outcomes land in the same counters as
        queued row requests.  The assembled
        :class:`~repro.core.pipeline.ImageDiffResult` matches the
        functional API's, honouring ``options.canonical``.
        """
        return assemble_image_diff(
            image_a,
            image_b,
            lambda rows_a, rows_b: self.diff_rows(
                rows_a, rows_b, request_id=request_id
            ),
            self.options.canonical,
        )

    def diff_rows(
        self,
        rows_a: Sequence[RLERow],
        rows_b: Sequence[RLERow],
        request_id: Optional[str] = None,
    ) -> List[XorRunResult]:
        """Difference ``len(rows_a)`` row pairs as one bulk request.

        The bulk path under :meth:`diff_images`, exposed directly: one
        cache pass over every pair, one engine batch over the deduped
        misses, results in input order.  This is the request unit the
        sharded tier's workers serve (see :mod:`repro.service.shard`).
        """
        rows_a, rows_b = list(rows_a), list(rows_b)
        if len(rows_a) != len(rows_b):
            raise GeometryError(
                f"row sequences differ in length: {len(rows_a)} vs {len(rows_b)}"
            )
        with self._observe("diff_rows", request_id, len(rows_a)):
            return self._serve(rows_a, rows_b)

    @contextmanager
    def _observe(
        self, op: str, request_id: Optional[str], units: int
    ) -> Iterator[None]:
        """Emit the admitted/completed event pair around one request
        when a :class:`~repro.obs.log.StructuredLog` is attached (a
        no-op otherwise — the unlogged path costs one attribute check).
        """
        if self.log is None:
            yield
            return
        rid = request_id if request_id is not None else new_request_id()
        started = time.perf_counter()
        self.log.log(
            "request_admitted",
            request_id=rid,
            level="debug",
            op=op,
            tier="base",
            units=units,
        )
        try:
            yield
        except BaseException as exc:
            self.log.log(
                "request_completed",
                request_id=rid,
                level="warning",
                op=op,
                tier="base",
                ok=False,
                error=type(exc).__name__,
                seconds=max(0.0, time.perf_counter() - started),
            )
            raise
        self.log.log(
            "request_completed",
            request_id=rid,
            level="debug",
            op=op,
            tier="base",
            ok=True,
            seconds=max(0.0, time.perf_counter() - started),
        )

    def _serve(
        self, rows_a: List[RLERow], rows_b: List[RLERow]
    ) -> List[XorRunResult]:
        """The one path from row pairs to results, for queued ticks and
        bulk requests alike: cache-check every pair, coalesce pending
        pairs with equal packed bytes onto one lane (a fingerprint alone
        may collide), compute the unique misses as one engine batch,
        store, count, and return results in input order."""
        cache = self.cache
        served: List[Optional[XorRunResult]] = [None] * len(rows_a)
        waiters: Dict[PackedPair, List[int]] = {}
        order: List[Tuple[Optional[CacheKey], PackedPair, int]] = []
        hits = 0
        for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
            key: Optional[CacheKey] = None
            if cache is not None:
                key = cache.key_for(ra, rb, self.options)
                hit = cache.get(key, ra, rb)
                if hit is not None:
                    served[i] = hit
                    hits += 1
                    continue
            packed = pack_pair(ra, rb)
            indices = waiters.get(packed)
            if indices is None:
                waiters[packed] = [i]
                order.append((key, packed, i))
            else:
                indices.append(i)
        if order:
            computed = self._compute(
                self.options,
                [rows_a[i] for _, _, i in order],
                [rows_b[i] for _, _, i in order],
            )
            # a wrong count would leave slots unserved under zip
            check_computed(len(computed), len(order))
            for (key, packed, i), result in zip(order, computed):
                if cache is not None and key is not None:
                    cache.put(key, rows_a[i], rows_b[i], result)
                for j in waiters[packed]:
                    served[j] = result
        coalesced = len(rows_a) - hits - len(order)
        with self._stats_lock:
            self.requests += len(rows_a)
            if order:
                self.batches += 1
        if self._metrics is not None:
            if hits:
                self._m_hit.inc(hits)
            if order:
                self._m_computed.inc(len(order))
                self._m_batch_size.observe(float(len(order)))
            if coalesced:
                self._m_coalesced.inc(coalesced)
        return cast(List[XorRunResult], served)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle                                          #
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, float]:
        """Cache counters plus request totals, as one plain dict."""
        info: Dict[str, float] = (
            self.cache.info() if self.cache is not None else {"hit_rate": 0.0}
        )
        with self._stats_lock:
            info["batches"] = float(self.batches)
            info["requests"] = float(self.requests)
        return info

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain pending requests, stop the worker thread, and — with a
        persistent tier — flush the RAM working set to disk and release
        the store's writer lock.  Idempotent; further submissions raise
        :class:`~repro.errors.ServiceError`."""
        self._batcher.close(timeout=timeout)
        if self.store is not None:
            if self.cache is not None:
                self.cache.flush()
            self.store.close()

    def __enter__(self) -> "DiffService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
