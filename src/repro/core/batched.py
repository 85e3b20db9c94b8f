"""Batched whole-image simulation of the systolic XOR.

The paper's headline claim is that the systolic array processes *all*
runs concurrently — yet the per-row NumPy engine
(:class:`~repro.core.vectorized.VectorizedXorEngine`) still walks an
image row by row in a Python loop, paying per-row load/dispatch overhead
that dominates run-length workloads (cf. Ehrensperger et al. and Breuel
on RLE morphology).  This engine lifts the batch dimension into NumPy:
the register files of **every row of an image at once** live in planar
``(n_rows, n_cells)`` integer arrays, and the paper's three steps run as
single masked kernels across the whole batch.

State layout
------------
``ss``, ``se``, ``bs``, ``be``
    Four contiguous ``(n_rows, n_cells)`` integer planes (int32 unless a
    row is multi-gigapixel wide — the kernels are memory-bound, so the
    narrow dtype halves their traffic): the ``RegSmall``
    and ``RegBig`` start/end coordinates of every cell of every lane
    (planar rather than interleaved ``(..., 2)`` so each comparison and
    minimum streams over contiguous memory).  ``end < start`` is the
    empty register, normalized to the same ``(0, -1)`` sentinel as
    :class:`~repro.core.registers.RunRegister` so per-lane snapshots
    compare directly against the reference machine.  Plane rows are
    *positions*, not lanes: retirement (below) reorders them, and
    ``_order[p]`` names the lane held in row ``p``.
``active``
    ``(n_rows,)`` boolean mask, in lane order like every 1-D array here.
    A lane terminates early — all its cells raise ``C`` (Theorem 1) —
    independently of its batch mates; its mask bit flips off, freezing
    the lane's registers at their final state while the remaining lanes
    keep stepping.
``iterations``
    ``(n_rows,)`` per-lane iteration counts, recorded at mask-flip time —
    the quantity Table 1 reports, identical lane-by-lane to what the
    reference machine measures on the same row pair.

Lane retirement and the column window
-------------------------------------
Lanes finish at very different iterations, so stepping the whole batch
to the end would spend most kernel work on frozen lanes.  The kernels
step only the working rows ``[:m]``.  While more than half of them are
active, a terminated lane among them costs nothing extra to step (once
``RegBig`` is empty there is nothing to swap, move, XOR or shift), and
the ``active`` mask only gates bookkeeping.  When the active lanes fall
to half the working rows or fewer, the engine *retires* the terminated
ones: it stable-partitions the four planes so the active lanes form the
prefix ``[:m]`` (still in lane order), moves ``_order`` along, and
shrinks ``m``.  Until the first retirement ``m`` is the whole batch and
the working set is a plain slice.  Per-lane state is never moved; the
kernels' per-row results are scattered to ``_order[:m]``, and
:meth:`~BatchedXorEngine.snapshot`, the probe and the error messages
map positions back to lane numbers.  :meth:`~BatchedXorEngine.diff_rows`
reads every lane back in one pass over the ``RegSmall`` planes.

Columns are windowed: Corollary 1.1 empties ``RegBig`` left to right
while step 3 marches the occupied band one cell right per iteration, so
the engine tracks the band ``[lo, hi)`` of columns where *any* lane
still holds a ``RegBig`` run and slices every kernel to it.
``RegSmall`` cells left of the band are frozen (their occupancy is
banked into a running ``busy_cells`` prefix); cells right of it still
hold their initial load (prefix-summed at load time) — so stats stay
exact without touching either region.

Stats are accumulated per lane (axis-1 reductions), so each row's
:class:`~repro.systolic.stats.ActivityStats` matches the reference
machine's counters exactly — the shared batch width does not distort
them because every counter only fires on occupied cells.

The equivalence tests compare per-iteration snapshots of every lane
against :class:`~repro.core.machine.SystolicXorMachine` and
:class:`~repro.core.vectorized.VectorizedXorEngine`; only the Python
loops over rows and cells are gone, the state evolution is identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CapacityError, GeometryError, SystolicError
from repro.rle.row import RLERow
from repro.rle.run import Run
from repro.core.machine import XorRunResult
from repro.core.xor_cell import CellSnapshot
from repro.systolic.stats import ActivityStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profile import EngineProfiler
    from repro.obs.tracing import Tracer

__all__ = ["BatchedXorEngine"]

#: Per-lane counters accumulated when ``collect_stats`` is on, in the
#: order they are stacked in ``self._stat_rows``.
_STAT_NAMES = ("swaps", "moves", "xor_splits", "shifts", "busy_cells")


class BatchedXorEngine:
    """Array-at-once, *batch*-at-once systolic XOR simulator.

    Use :meth:`diff_rows` (or :meth:`diff` for a single pair) for
    one-shot runs, or :meth:`load` / :meth:`step` / :meth:`snapshot` for
    instrumented stepping (the equivalence tests do).

    Parameters
    ----------
    n_cells:
        Fixed array size shared by every lane, or ``None`` to size the
        batch to the widest row pair (the largest
        :func:`~repro.core.machine.default_cell_count` of any lane).
    collect_stats:
        Accumulate the reference machine's activity counters per lane
        (a few extra axis-1 reductions per step).
    tracer:
        Optional :class:`repro.obs.tracing.Tracer`; when set, batch runs
        record nested ``row_batch`` → ``step`` spans.  The default
        ``None`` keeps the hot loop untouched (one attribute lookup per
        ``run`` call decides which loop executes).
    probe:
        Optional :class:`repro.obs.profile.EngineProfiler`; when set,
        every iteration records active-lane count, busy cells and the
        Corollary-1.1 empty-prefix front (a few extra reductions per
        step — opt-in profiling, not for benchmark runs).
    """

    def __init__(
        self,
        n_cells: Optional[int] = None,
        collect_stats: bool = True,
        tracer: Optional["Tracer"] = None,
        probe: Optional["EngineProfiler"] = None,
    ) -> None:
        self.n_cells = n_cells
        self.collect_stats = collect_stats
        self.tracer = tracer
        self.probe = probe
        shape = (0, 0)
        self.ss = np.zeros(shape, dtype=np.int64)
        self.se = np.zeros(shape, dtype=np.int64)
        self.bs = np.zeros(shape, dtype=np.int64)
        self.be = np.zeros(shape, dtype=np.int64)
        self.active: np.ndarray = np.zeros(0, dtype=bool)
        self.iterations: np.ndarray = np.zeros(0, dtype=np.int64)
        self.k1: np.ndarray = np.zeros(0, dtype=np.int64)
        self.k2: np.ndarray = np.zeros(0, dtype=np.int64)
        self._stat_rows: np.ndarray = np.zeros((len(_STAT_NAMES), 0), dtype=np.int64)
        self._frozen_busy: np.ndarray = np.zeros(0, dtype=np.int64)
        self._small_prefix: np.ndarray = np.zeros((0, 1), dtype=np.int64)
        self._lo = 0
        self._hi = 0
        self._order: np.ndarray = np.zeros(0, dtype=np.int64)
        self._m = 0
        self._step_count = 0

    # ------------------------------------------------------------------ #
    # Load / snapshot                                                    #
    # ------------------------------------------------------------------ #
    def load(self, rows_a: Sequence[RLERow], rows_b: Sequence[RLERow]) -> None:
        """The paper's initial load, for every lane at once: run *i* of
        each image row into cell *i* of that row's lane."""
        if len(rows_a) != len(rows_b):
            raise GeometryError(
                f"batch sides differ: {len(rows_a)} vs {len(rows_b)} rows"
            )
        n_rows = len(rows_a)
        (self.k1, runs_a), (self.k2, runs_b) = self._flatten(rows_a), self._flatten(rows_b)
        if self.n_cells is not None:
            n = self.n_cells
            widest = int(np.maximum(self.k1, self.k2).max()) if n_rows else 0
            if widest > n:
                raise CapacityError(
                    f"inputs with up to {widest} runs cannot load into {n} cells"
                )
        else:
            # the widest lane sizes the shared batch (default_cell_count);
            # per Corollary 1.2 no lane ever occupies a cell past its own
            # k1+k2, so the extra cells of narrower lanes stay empty
            n = int((self.k1 + self.k2).max()) + 1 if n_rows else 1
        # register coordinates are pixel offsets, so int32 holds any
        # realistic row and halves the memory traffic of every kernel;
        # fall back to int64 for pathological multi-gigapixel rows
        max_coord = max((int(runs[:, 1].max()) for runs in (runs_a, runs_b) if runs.size), default=0)
        dtype = np.int32 if max_coord < 2**31 - 1 else np.int64
        self.ss, self.se = self._planes((n_rows, n), dtype, self.k1, runs_a)
        self.bs, self.be = self._planes((n_rows, n), dtype, self.k2, runs_b)
        # lanes whose RegBig bank is empty at load time are done in 0
        # iterations (every cell already raises C)
        self.active = self.k2 > 0
        self.iterations = np.zeros(n_rows, dtype=np.int64)
        self._stat_rows = np.zeros((len(_STAT_NAMES), n_rows), dtype=np.int64)
        self._frozen_busy = np.zeros(n_rows, dtype=np.int64)
        if self.collect_stats:
            # initial RegSmall occupancy per (lane, column) prefix-summed,
            # so busy_cells can account for the untouched region right of
            # the column window without scanning it
            self._small_prefix = np.zeros((n_rows, n + 1), dtype=np.int64)
            np.cumsum(self.se >= self.ss, axis=1, out=self._small_prefix[:, 1:])
        # the column window: every occupied RegBig column lies in [lo, hi)
        self._lo = 0
        self._hi = int(self.k2.max()) if n_rows and self.active.any() else 0
        self._order = np.arange(n_rows)
        self._m = n_rows
        self._step_count = 0

    @staticmethod
    def _flatten(rows: Sequence[RLERow]) -> Tuple[np.ndarray, np.ndarray]:
        """One batch side as per-lane run counts and a ``(total, 2)``
        array of every run's ``(start, end)``, lane after lane (no
        per-run Python assignments — the batched load is itself the hot
        path for low-iteration workloads)."""
        counts = np.fromiter((r.run_count for r in rows), dtype=np.int64, count=len(rows))
        runs = np.fromiter(
            (v for r in rows for run in r.runs for v in (run.start, run.length)),
            dtype=np.int64,
            count=2 * int(counts.sum()),
        ).reshape(-1, 2)
        runs[:, 1] += runs[:, 0] - 1
        return counts, runs

    @staticmethod
    def _planes(
        shape: Tuple[int, int], dtype: type, counts: np.ndarray, runs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One side's start and end planes: run *i* of each lane in cell
        *i*, every other register empty."""
        starts = np.zeros(shape, dtype=dtype)
        ends = np.full(shape, -1, dtype=dtype)
        lane = np.repeat(np.arange(shape[0]), counts)
        cell = np.arange(lane.size) - np.repeat(np.cumsum(counts) - counts, counts)
        starts[lane, cell] = runs[:, 0]
        ends[lane, cell] = runs[:, 1]
        return starts, ends

    def snapshot(self, row: int) -> Tuple[CellSnapshot, ...]:
        """Lane ``row``'s per-cell snapshots in the reference format
        (wherever retirement has moved its plane row)."""
        p = int(np.argsort(self._order)[row])
        return tuple(
            ((int(self.ss[p, i]), int(self.se[p, i])),
             (int(self.bs[p, i]), int(self.be[p, i])))
            for i in range(self.ss.shape[1])
        )

    def _regsmall_runs(self) -> Tuple[List[int], List[int], List[int]]:
        """Every lane's ``RegSmall`` bank read back in one pass: the
        occupied cells' starts and lengths, lane after lane and left to
        right, and the end offset of each lane's share of them."""
        at = np.argsort(self._order)  # plane row of each lane
        occupied = (self.se >= self.ss)[at]
        lanes, cells = np.nonzero(occupied)
        rows = at[lanes]
        starts = self.ss[rows, cells]
        lengths = self.se[rows, cells] - starts + 1
        return starts.tolist(), lengths.tolist(), np.cumsum(occupied.sum(axis=1)).tolist()

    # ------------------------------------------------------------------ #
    # Stepping                                                           #
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        return self.ss.shape[0]

    @property
    def batch_cells(self) -> int:
        """Cells per lane actually allocated for this batch."""
        return self.ss.shape[1]

    @property
    def is_done(self) -> bool:
        """Every lane terminated (all ``RegBig`` registers empty)."""
        return not self.active.any()

    def step(self) -> None:
        """One iteration of steps 1–3 over every *active* lane."""
        if self.is_done:
            return
        active = self.active
        over = active & (self.iterations >= self.k1 + self.k2)
        if over.any():
            lane = int(np.flatnonzero(over)[0])
            raise SystolicError(
                f"lane {lane}: no termination after {int(self.iterations[lane])} "
                f"iterations (bound {int(self.k1[lane] + self.k2[lane])})"
            )

        n = self.batch_cells
        lo, hi, m = self._lo, self._hi, self._m
        # the lanes of working rows [:m], in lane order either way
        lanes = self._order[:m] if m < self.n_rows else slice(None)
        ss = self.ss[:m, lo:hi]
        se = self.se[:m, lo:hi]
        bs = self.bs[:m, lo:hi]
        be = self.be[:m, lo:hi]
        has_s = se >= ss
        has_b = be >= bs

        # --- step 1: normalize -------------------------------------- #
        both = has_s & has_b
        swap = both & ((ss > bs) | ((ss == bs) & (se > be)))
        sw = np.nonzero(swap)
        if sw[0].size:
            tmp = ss[sw].copy()
            ss[sw] = bs[sw]
            bs[sw] = tmp
            tmp = se[sw].copy()
            se[sw] = be[sw]
            be[sw] = tmp
        move = has_b & ~has_s
        mv = np.nonzero(move)
        if mv[0].size:
            ss[mv] = bs[mv]
            se[mv] = be[mv]
            bs[mv] = 0
            be[mv] = -1
            has_b = has_b & ~move
        if self.collect_stats:
            self._stat_rows[0, lanes] += swap.sum(axis=1)
            self._stat_rows[1, lanes] += move.sum(axis=1)

        # --- step 2: in-cell XOR ------------------------------------ #
        both = (se >= ss) & has_b
        if both.any():
            new_se = np.minimum(se, bs - 1)
            new_bs = np.minimum(be + 1, np.maximum(se + 1, bs))
            new_be = np.maximum(se, be)
            if self.collect_stats:
                changed = both & (
                    (new_se != se) | (new_bs != bs) | (new_be != be)
                )
                self._stat_rows[2, lanes] += changed.sum(axis=1)
            se[:, :] = np.where(both, new_se, se)
            bs[:, :] = np.where(both, new_bs, bs)
            be[:, :] = np.where(both, new_be, be)
            # normalize only registers step 2 touched — cells outside
            # ``both`` kept their already-canonical contents
            em = np.nonzero(both & (se < ss))
            if em[0].size:
                ss[em] = 0
                se[em] = -1
            em = np.nonzero(both & (be < bs))
            if em[0].size:
                bs[em] = 0
                be[em] = -1
            has_b = be >= bs

        # --- step 3: shift RegBig right ------------------------------ #
        if hi == n and has_b.shape[1] and has_b[:, -1].any():
            # working rows stay in lane order, so the first is the lowest lane
            p = int(np.flatnonzero(has_b[:, -1])[0])
            datum = (int(bs[p, -1]), int(be[p, -1]))
            raise CapacityError(
                f"lane {int(self._order[p])}: datum {datum} shifted past the last cell "
                f"(batch of {n} cells is too small)"
            )
        if self.collect_stats:
            self._stat_rows[3, lanes] += has_b.sum(axis=1)
        lane_alive = has_b.any(axis=1)
        col_occupied = np.flatnonzero(has_b.any(axis=0))
        shift_hi = min(hi + 1, n)
        self.bs[:m, lo + 1:shift_hi] = self.bs[:m, lo:shift_hi - 1]
        self.be[:m, lo + 1:shift_hi] = self.be[:m, lo:shift_hi - 1]
        self.bs[:m, lo] = 0
        self.be[:m, lo] = -1

        self._step_count += 1
        self.iterations[active] = self._step_count

        # the window after the shift: occupied columns moved one right.
        # ``hi`` never shrinks — columns right of it must stay untouched
        # since load for the busy_cells static prefix to remain valid.
        if col_occupied.size:
            new_lo = lo + int(col_occupied[0]) + 1
            new_hi = min(max(hi, lo + int(col_occupied[-1]) + 2), n)
        else:
            new_lo = new_hi = shift_hi

        if self.collect_stats:
            # busy = frozen RegSmall cells left of the window
            #      + live cells inside [lo, shift_hi)
            #      + untouched initial RegSmall cells right of it
            live = (
                (self.se[:m, lo:shift_hi] >= self.ss[:m, lo:shift_hi])
                | (self.be[:m, lo:shift_hi] >= self.bs[:m, lo:shift_hi])
            )
            busy = (
                self._frozen_busy[lanes]
                + live.sum(axis=1)
                + (self._small_prefix[lanes, n] - self._small_prefix[lanes, shift_hi])
            )
            self._stat_rows[4, lanes] += busy * active[lanes]
            # bank the RegSmall occupancy of columns sliding out on the
            # left — no RegBig run can ever reach them again
            if new_lo > lo:
                self._frozen_busy[lanes] += (
                    self.se[:m, lo:new_lo] >= self.ss[:m, lo:new_lo]
                ).sum(axis=1)

        # flip the mask on lanes whose RegBig bank just emptied — their
        # iteration count was written above and never advances again
        self.active[lanes] = lane_alive
        self._lo, self._hi = new_lo, new_hi
        alive = int(np.count_nonzero(lane_alive))
        if 0 < alive and 2 * alive <= m:
            # retire: stable-partition the still-active lanes to the
            # front rows, so later kernels step only rows [:alive]
            perm = np.argsort(~lane_alive, kind="stable")
            for plane in (self.ss, self.se, self.bs, self.be):
                plane[:m] = plane[perm]
            self._order[:m] = self._order[perm]
            self._m = alive

        if self.probe is not None:
            self._sample_probe()

    def _sample_probe(self) -> None:
        """Feed one iteration's convergence measurements to the probe.

        Reduces over the full register planes (not the column window) so
        the samples stay meaningful regardless of windowing internals.
        """
        has_s = self.se >= self.ss
        has_b = self.be >= self.bs
        n = self.batch_cells
        lane_has_big = has_b.any(axis=1)
        # per-lane Corollary-1.1 front: first column still holding a
        # RegBig run (lanes with an empty bank have front n)
        first_big = np.where(lane_has_big, np.argmax(has_b, axis=1), n)
        active = self.active[self._order]  # in plane-row order
        if active.any():
            mean_front = float(first_big[active].mean())
        else:
            mean_front = float(n)
        self.probe.on_step(
            step=self._step_count,
            active_lanes=int(active.sum()),
            busy_cells=int((has_s | has_b).sum()),
            empty_prefix=int(first_big.min()) if self.n_rows else n,
            empty_prefix_mean=mean_front,
        )

    def _check_bound(self, max_iterations: Optional[int]) -> None:
        if max_iterations is not None and self._step_count >= max_iterations:
            raise SystolicError(
                f"{int(self.active.sum())} lanes still active after "
                f"{self._step_count} iterations (cap {max_iterations})"
            )

    def run(self, max_iterations: Optional[int] = None) -> None:
        """Step until every lane terminates.

        Theorem 1 is enforced per lane: a lane still active past its own
        ``k1 + k2`` bound raises :class:`~repro.errors.SystolicError`
        (``max_iterations`` optionally caps the whole batch instead).

        With a tracer attached, the whole run is one ``row_batch`` span
        and every iteration a nested ``step`` span; the untraced loop is
        kept separate so tracing disabled costs a single attribute
        lookup here.
        """
        tracer = self.tracer
        if tracer is None:
            while not self.is_done:
                self._check_bound(max_iterations)
                self.step()
            return
        with tracer.span(
            "row_batch", rows=self.n_rows, cells=self.batch_cells
        ) as batch_span:
            while not self.is_done:
                self._check_bound(max_iterations)
                with tracer.span(
                    "step",
                    index=self._step_count,
                    active_lanes=int(self.active.sum()),
                ):
                    self.step()
            batch_span.set_attribute("iterations", self._step_count)

    # ------------------------------------------------------------------ #
    # One-shot drivers                                                   #
    # ------------------------------------------------------------------ #
    def diff_rows(
        self,
        rows_a: Sequence[RLERow],
        rows_b: Sequence[RLERow],
        max_iterations: Optional[int] = None,
    ) -> List[XorRunResult]:
        """Difference ``rows_a[i] XOR rows_b[i]`` for every ``i`` in one
        batch; returns one :class:`XorRunResult` per lane (same contract
        as running :meth:`VectorizedXorEngine.diff` per row, except
        ``n_cells`` reports the shared batch width)."""
        self.load(rows_a, rows_b)
        self.run(max_iterations=max_iterations)
        starts, lengths, stops = self._regsmall_runs()
        n = self.batch_cells
        results: List[XorRunResult] = []
        first = 0
        for ra, rb, stop, iterations, k1, k2, counts in zip(
            rows_a, rows_b, stops, self.iterations.tolist(), self.k1.tolist(),
            self.k2.tolist(), self._stat_rows.T.tolist(),
        ):
            width = ra.width if ra.width is not None else rb.width
            results.append(
                XorRunResult(
                    result=RLERow(map(Run, starts[first:stop], lengths[first:stop]), width=width),
                    iterations=iterations,
                    k1=k1,
                    k2=k2,
                    n_cells=n,
                    # zero counters absent, matching the event-driven reference
                    stats=ActivityStats({k: v for k, v in zip(_STAT_NAMES, counts) if v}),
                )
            )
            first = stop
        return results

    def diff(
        self,
        row_a: RLERow,
        row_b: RLERow,
        max_iterations: Optional[int] = None,
    ) -> XorRunResult:
        """Single-pair convenience: a batch of one lane."""
        return self.diff_rows([row_a], [row_b], max_iterations=max_iterations)[0]
