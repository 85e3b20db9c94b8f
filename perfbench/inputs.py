"""Seeded inputs for the three workloads, with their oracles.

Every stream of requests is a pure function of ``--seed``: the same
seed yields the same requests in the same order, however many a run
consumes.  Oracle answers are computed once, when a request is built,
outside any timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro import RLEImage, RLERow, sequential_xor
from repro.workloads.motion import generate_sequence
from repro.workloads.random_rows import generate_row_pair
from repro.workloads.spec import BaseRowSpec, ErrorSpec

#: Per-row error fractions of library-images, cycled by row index.
ERROR_FRACTIONS = (0.005, 0.02, 0.05, 0.10, 0.20)

#: Error fraction of every tcp-unique-rows pair.
UNIQUE_ERROR_FRACTION = 0.05

#: Foreground density of the Section 5 base rows.
DENSITY = 0.30


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repeat counts of one benchmark run."""

    image_rows: int = 512
    image_width: int = 2048
    #: Section 5 row pairs generated per error fraction; images draw
    #: their rows from this pool.
    pool_per_fraction: int = 256
    request_rows: int = 128
    row_width: int = 512
    clip_side: int = 256
    clip_frames: int = 48
    replays: int = 3
    #: Requests a timed phase needs at least (p90 keeps ten beyond it).
    min_requests: int = 100
    #: Untimed first calls on library-images (their median is setup_s).
    warmups: int = 3
    #: Service set-ups per TCP run (their median is setup_s).
    setups: int = 5
    #: Per-worker RAM cache budget on tcp-unique-rows: far below the
    #: run's working set, so inserts evict and write behind to disk.
    unique_cache_bytes: int = 2 * 1024 * 1024
    #: Fixed request sequence of one traced repetition.
    traced_images: int = 6
    traced_requests: int = 24
    #: Per-request client timeout, seconds.
    timeout_s: float = 30.0


FULL = Sizes()

#: Small enough for the benchmark's own tests to run every workload.
TINY = Sizes(
    image_rows=10,
    image_width=256,
    pool_per_fraction=6,
    request_rows=8,
    row_width=128,
    clip_side=32,
    clip_frames=6,
    warmups=1,
    setups=2,
    unique_cache_bytes=16 * 1024,
    traced_images=2,
    traced_requests=3,
)


def canonical_oracle(row_a: RLERow, row_b: RLERow) -> RLERow:
    return sequential_xor(row_a, row_b).result.canonical()


@dataclass
class ImageRequest:
    image_a: RLEImage
    image_b: RLEImage
    oracle: List[RLERow]

    @property
    def rows(self) -> int:
        return self.image_a.height


@dataclass
class RowsRequest:
    rows_a: List[RLERow]
    rows_b: List[RLERow]
    oracle: List[RLERow]

    @property
    def rows(self) -> int:
        return len(self.rows_a)


def image_requests(seed: int, sizes: Sizes) -> Iterator[ImageRequest]:
    """Endless distinct image pairs for library-images.

    A pool of Section 5 row pairs (runs of 4-20 px at 30% density) is
    generated per error fraction; row ``i`` of every image is drawn
    from the pool of fraction ``ERROR_FRACTIONS[i % 5]``.  Generating
    each 512x2048 image afresh would cost three times the diff itself.
    """
    rng = np.random.default_rng([seed, 1])
    base = BaseRowSpec(width=sizes.image_width, run_length=(4, 20), density=DENSITY)
    pools: List[List[Tuple[RLERow, RLERow, RLERow]]] = []
    for fraction in ERROR_FRACTIONS:
        errors = ErrorSpec(run_length=(2, 6), fraction=fraction)
        pool = []
        for _ in range(sizes.pool_per_fraction):
            row_a, row_b, _mask = generate_row_pair(base, errors, rng)
            pool.append((row_a, row_b, canonical_oracle(row_a, row_b)))
        pools.append(pool)
    draw = np.random.default_rng([seed, 2])
    while True:
        picks = draw.integers(0, sizes.pool_per_fraction, size=sizes.image_rows)
        chosen = [
            pools[i % len(pools)][int(p)] for i, p in enumerate(picks)
        ]
        yield ImageRequest(
            RLEImage([a for a, _, _ in chosen], width=sizes.image_width),
            RLEImage([b for _, b, _ in chosen], width=sizes.image_width),
            [o for _, _, o in chosen],
        )


def row_requests(seed: int, sizes: Sizes) -> Iterator[RowsRequest]:
    """Endless requests of fresh Section 5 row pairs (no content repeats)."""
    rng = np.random.default_rng([seed, 3])
    base = BaseRowSpec(width=sizes.row_width, run_length=(4, 20), density=DENSITY)
    errors = ErrorSpec(run_length=(2, 6), fraction=UNIQUE_ERROR_FRACTION)
    while True:
        rows_a: List[RLERow] = []
        rows_b: List[RLERow] = []
        for _ in range(sizes.request_rows):
            row_a, row_b, _mask = generate_row_pair(base, errors, rng)
            rows_a.append(row_a)
            rows_b.append(row_b)
        oracle = [canonical_oracle(a, b) for a, b in zip(rows_a, rows_b)]
        yield RowsRequest(rows_a, rows_b, oracle)


@dataclass
class Clip:
    session_id: str
    frames: List[RLEImage]


def clips(seed: int, sizes: Sizes) -> Iterator[Clip]:
    """Endless motion clips; clip ``k`` streams as session ``clip-<seed>-<k>``."""
    k = 0
    while True:
        frames = generate_sequence(
            sizes.clip_side, sizes.clip_side, sizes.clip_frames, seed=[seed, 4, k]
        )
        yield Clip(f"clip-{seed}-{k}", frames)
        k += 1
