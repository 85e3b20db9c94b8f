"""Multi-process image differencing, checked against the serial pipeline.

The sharded tier (:class:`repro.service.ShardedDiffService`) is the way
to spread an image's rows across worker processes.  With its cache off
it is a pure process fan-out, and its answers — the difference image,
per-row iterations, array sizes and activity counters — must equal a
single-process :func:`~repro.core.pipeline.diff_images` run.
"""

import numpy as np
import pytest

from repro.errors import GeometryError, OptionsError, ServiceError, UnknownEngineError
from repro.rle.image import RLEImage
from repro.core.options import DiffOptions
from repro.core.pipeline import diff_images
from repro.service import ShardedDiffService


def images(seed=0, h=32, w=128):
    rng = np.random.default_rng(seed)
    a = rng.random((h, w)) < 0.3
    b = a.copy()
    for _ in range(10):
        y = int(rng.integers(0, h))
        x = int(rng.integers(0, w - 4))
        b[y, x : x + 3] ^= True
    return RLEImage.from_array(a), RLEImage.from_array(b)


def sharded_diff(image_a, image_b, options=None, workers=2):
    with ShardedDiffService(options, workers=workers, cache_bytes=0) as svc:
        return svc.diff_images(image_a, image_b)


class TestEquivalenceWithSerial:
    def test_same_image_and_iterations(self):
        a, b = images(1)
        serial = diff_images(a, b, options=DiffOptions(engine="vectorized"))
        parallel = sharded_diff(a, b)
        assert parallel.image == serial.image
        assert parallel.total_iterations == serial.total_iterations
        assert [r.iterations for r in parallel.row_results] == [
            r.iterations for r in serial.row_results
        ]

    def test_raw_output_mode(self):
        a, b = images(2)
        serial = diff_images(
            a, b, options=DiffOptions(engine="vectorized", canonical=False)
        )
        parallel = sharded_diff(a, b, DiffOptions(canonical=False))
        assert parallel.image == serial.image

    def test_odd_chunking(self):
        a, b = images(3, h=17)
        parallel = sharded_diff(a, b)
        serial = diff_images(a, b, options=DiffOptions(engine="vectorized"))
        assert parallel.image == serial.image

    def test_stats_match_serial(self):
        """The reassembled results carry every row's activity counters,
        not empty bags."""
        a, b = images(7)
        serial = diff_images(a, b, options=DiffOptions(engine="vectorized"))
        parallel = sharded_diff(a, b)
        assert parallel.stats.as_dict() == serial.stats.as_dict()
        assert parallel.stats.as_dict() != {}  # the counters really fired
        for par_row, ser_row in zip(parallel.row_results, serial.row_results):
            assert par_row.stats.as_dict() == ser_row.stats.as_dict()


class TestObservability:
    def test_merged_worker_metrics_match_serial(self):
        """Workers record into private registries; the front-end's merged
        snapshot must carry a serial batched run's engine families
        exactly — same families, same series, same values."""
        from repro.obs.metrics import MetricsRegistry

        a, b = images(8)
        serial_registry = MetricsRegistry()
        diff_images(a, b, options=DiffOptions(metrics=serial_registry))
        serial = serial_registry.snapshot()
        with ShardedDiffService(workers=2, cache_bytes=0) as svc:
            svc.diff_images(a, b)
            per_worker = svc.worker_snapshots()
            merged = svc.merged_snapshot()
        # both workers computed rows, so the equality below is a real merge
        assert all(s.counter_total("repro_rows_total") > 0 for s in per_worker)
        engine_families = {f.name for f in serial.families}
        assert engine_families  # the serial run really recorded
        assert tuple(
            f for f in merged.families if f.name in engine_families
        ) == serial.families

    def test_tracer_gets_chunk_spans(self):
        """Each worker's slice comes home as a measured span under the
        front-end's request span."""
        a, b = images(9)
        with ShardedDiffService(workers=2, cache_bytes=0) as svc:
            svc.diff_images(a, b)
            [request_id] = svc.trace_store.request_ids()
            spans = svc.trace_store.get(request_id)
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        [root] = by_name["sharded_diff_rows"]
        chunks = by_name["shard_diff_rows"]
        assert len(chunks) == 2
        assert sum(s.attributes["rows"] for s in chunks) == a.height
        assert all(s.parent_id == root.span_id for s in chunks)
        assert all(s.duration >= 0.0 for s in chunks)

    def test_row_stats_rebuilt_via_from_items(self):
        """The pipe codec round-trips every row's counters through
        ``CounterBag.items()`` → ``ActivityStats.from_items`` without
        loss, including utilization derivation."""
        a, b = images(11)
        serial = diff_images(a, b, options=DiffOptions(engine="batched"))
        parallel = sharded_diff(a, b)
        for par_row, ser_row in zip(parallel.row_results, serial.row_results):
            assert par_row.stats == ser_row.stats
            # n_cells is a batch-width fact (a worker's slice batches
            # narrower than the whole image), but held fixed the
            # utilization derived from the round-tripped counters is
            # well-formed
            if par_row.iterations and par_row.n_cells:
                u = par_row.stats.utilization(par_row.iterations, par_row.n_cells)
                assert 0.0 <= u <= 1.0
                assert u == ser_row.stats.utilization(
                    par_row.iterations, par_row.n_cells
                )


class TestOptionsPassThrough:
    """The workers honour the semantic DiffOptions fields instead of
    hard-coding the batched engine and dropping n_cells."""

    @pytest.mark.parametrize("engine", ["systolic", "vectorized", "sequential"])
    def test_requested_engine_runs_in_workers(self, engine):
        a, b = images(12, h=12, w=64)
        opts = DiffOptions(engine=engine)
        parallel = sharded_diff(a, b, opts)
        serial = diff_images(a, b, options=opts)
        assert parallel.image == serial.image
        assert [r.iterations for r in parallel.row_results] == [
            r.iterations for r in serial.row_results
        ]
        assert [r.n_cells for r in parallel.row_results] == [
            r.n_cells for r in serial.row_results
        ]

    def test_n_cells_reaches_workers(self):
        a, b = images(13, h=12, w=64)
        opts = DiffOptions(engine="systolic", n_cells=48)
        parallel = sharded_diff(a, b, opts)
        assert all(r.n_cells == 48 for r in parallel.row_results)

    def test_unknown_engine_rejected_at_boundary(self):
        with pytest.raises(UnknownEngineError):
            ShardedDiffService(DiffOptions(engine="warp"), workers=2)
        # the pre-1.1 bare-string spelling is a typed hard error
        with pytest.raises(OptionsError):
            ShardedDiffService("vectorized", workers=2)


class TestValidation:
    def test_shape_mismatch(self):
        a, _ = images(5)
        with pytest.raises(GeometryError):
            sharded_diff(a, RLEImage.blank(1, 1))

    def test_bad_worker_count(self):
        with pytest.raises(ServiceError):
            ShardedDiffService(workers=0)

    def test_empty_image(self):
        empty = RLEImage([], width=8)
        result = sharded_diff(empty, empty)
        assert result.image.height == 0
