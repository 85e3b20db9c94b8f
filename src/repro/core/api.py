"""High-level convenience API.

Most users want one call: *give me the difference of these two rows (or
images) and tell me how long the systolic array took*.  These wrappers
select an engine and normalize the result type.

Every entry point accepts one :class:`~repro.core.options.DiffOptions`
bundle (``row_diff(a, b, options=DiffOptions(engine="batched"))``); see
``docs/API.md``.

Engines
-------
``"systolic"``
    The reference cell-by-cell simulator (:class:`SystolicXorMachine`) —
    exact, fully instrumented, but Python-speed.
``"vectorized"``
    The NumPy whole-array simulator — identical state evolution, ~two
    orders of magnitude faster per row, but whole images still pay a
    Python-level row loop.
``"batched"``
    The NumPy whole-*image* simulator (:class:`BatchedXorEngine`) —
    every row's register file stepped at once as one masked batch, with
    finished rows retired from the kernels.  Identical per-row
    results, iteration counts and stats; the default for
    :func:`image_diff`.
``"sequential"``
    The paper's software baseline (no systolic hardware at all).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.rle.image import RLEImage
from repro.rle.row import RLERow
from repro.core.batched import BatchedXorEngine
from repro.core.machine import SystolicXorMachine, XorRunResult
from repro.core.options import (
    ENGINE_NAMES,
    IMAGE_DEFAULTS,
    ROW_DEFAULTS,
    DiffOptions,
    EngineName,
    resolve_options,
    validate_engine,
)
from repro.core.sequential import sequential_xor
from repro.core.vectorized import VectorizedXorEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import ImageDiffResult

__all__ = [
    "row_diff",
    "image_diff",
    "DiffOptions",
    "EngineName",
    "ENGINE_NAMES",
    "validate_engine",
]


def _dispatch_row(row_a: RLERow, row_b: RLERow, opts: DiffOptions) -> XorRunResult:
    """Run one row pair on the engine ``opts`` selects.

    ``opts.engine`` is already validated (at :class:`DiffOptions`
    construction / coercion time), so this never sees an unknown name.
    """
    engine = opts.engine
    if engine == "systolic":
        machine = SystolicXorMachine(
            n_cells=opts.n_cells,
            paranoid=opts.paranoid,
            record_trace=opts.record_trace,
        )
        return machine.diff(row_a, row_b)
    if engine == "vectorized":
        return VectorizedXorEngine(n_cells=opts.n_cells, probe=opts.probe).diff(
            row_a, row_b
        )
    if engine == "batched":
        return BatchedXorEngine(n_cells=opts.n_cells, probe=opts.probe).diff(
            row_a, row_b
        )
    seq = sequential_xor(row_a, row_b)
    return XorRunResult(
        result=seq.result,
        iterations=seq.iterations,
        k1=row_a.run_count,
        k2=row_b.run_count,
        n_cells=0,
    )


def row_diff(
    row_a: RLERow,
    row_b: RLERow,
    options: Optional[DiffOptions] = None,
) -> XorRunResult:
    """Difference (XOR) of two RLE rows.

    Pass ``options`` (a :class:`DiffOptions`) to configure the run; with
    no options the historical defaults apply (reference ``"systolic"``
    engine, per-row sizing).

    Returns a :class:`~repro.core.machine.XorRunResult` whatever the
    engine, so callers can swap engines without touching downstream
    code.  For the sequential engine, ``iterations`` carries the
    merge-loop count and the systolic-only fields (``n_cells``,
    ``stats``) are zeroed/empty.  ``options.tracer`` wraps the dispatch
    in a ``row_diff`` span, ``options.metrics`` records the run under
    the standard ``repro_*`` families, and ``options.probe`` samples
    convergence on the NumPy engines; all ``None`` by default, which
    costs the hot path nothing.
    """
    opts = resolve_options(options, ROW_DEFAULTS, "row_diff")
    if opts.tracer is None:
        result = _dispatch_row(row_a, row_b, opts)
    else:
        with opts.tracer.span(
            "row_diff",
            engine=opts.engine,
            k1=row_a.run_count,
            k2=row_b.run_count,
        ) as span:
            result = _dispatch_row(row_a, row_b, opts)
            span.set_attribute("iterations", result.iterations)
    if opts.metrics is not None:
        from repro.obs.metrics import record_image_diff

        record_image_diff(opts.metrics, opts.engine, [result])
    return result


def image_diff(
    image_a: RLEImage,
    image_b: RLEImage,
    options: Optional[DiffOptions] = None,
) -> "ImageDiffResult":
    """Difference of two whole images.

    The default ``"batched"`` engine steps every row's array in one
    NumPy batch; the other engines process rows one at a time.  See
    :mod:`repro.core.pipeline` for the underlying dispatch and the
    returned :class:`~repro.core.pipeline.ImageDiffResult` (which
    carries per-row iteration counts — the quantity the paper reports).

    Configuration comes in one :class:`DiffOptions` bundle.
    ``options.tracer``, ``options.metrics`` and ``options.probe`` hook
    the run into the :mod:`repro.obs` observability layer; all default
    to ``None``, which costs the hot path nothing.
    """
    from repro.core.pipeline import diff_images

    opts = resolve_options(options, IMAGE_DEFAULTS, "image_diff")
    return diff_images(image_a, image_b, options=opts)
