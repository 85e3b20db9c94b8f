"""DiffCache: hits, eviction under pressure, collision safety, metrics,
and the packed row form cached on each row."""

import struct
from types import SimpleNamespace

import pytest

import repro.rle.row as row_module
from repro.errors import ServiceError
from repro.rle.row import RLERow
from repro.core.api import row_diff
from repro.core.options import DiffOptions
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import DiffCache, pack_row, row_fingerprint

OPTS = DiffOptions(engine="systolic")


def make_row(shift: int, width: int = 64) -> RLERow:
    return RLERow.from_pairs([(shift, 3), (shift + 10, 2)], width=width)


def compute(a: RLERow, b: RLERow):
    return row_diff(a, b, options=OPTS)


class TestFingerprint:
    def test_deterministic_and_content_addressed(self):
        a1 = make_row(1)
        a2 = RLERow.from_pairs(a1.to_pairs(), width=a1.width)
        assert row_fingerprint(a1) == row_fingerprint(a2)
        assert row_fingerprint(a1) != row_fingerprint(make_row(2))
        assert len(row_fingerprint(a1)) == 16

    def test_width_participates(self):
        runs = [(0, 3)]
        assert row_fingerprint(
            RLERow.from_pairs(runs, width=32)
        ) != row_fingerprint(RLERow.from_pairs(runs, width=64))

    def test_fragmentation_distinguished(self):
        # (0,4) vs (0,2)+(2,2): same pixels, different structure — the
        # engines' iteration counts differ, so the cache must too
        whole = RLERow.from_pairs([(0, 4)], width=16)
        split = RLERow.from_pairs([(0, 2), (2, 2)], width=16)
        assert row_fingerprint(whole) != row_fingerprint(split)

    def test_empty_row(self):
        empty = RLERow.from_pairs([], width=16)
        assert row_fingerprint(empty) == row_fingerprint(
            RLERow.from_pairs([], width=16)
        )

    def test_digests_pinned(self):
        # the packed form hashed here is also the store's row form and
        # the shard ring's key: these digests must never move
        cases = [
            ([(2, 3), (8, 2)], 24, "09e21d0c84796cd997489cb606261507"),
            ([(0, 1), (5, 7)], None, "ff74b17d94cc3561c0d99f611be6f13c"),
            ([], 16, "9f5e766fb75b1ef4b6c64ff0f5581af1"),
        ]
        for pairs, width, digest in cases:
            row = RLERow.from_pairs(pairs, width=width)
            assert row_fingerprint(row).hex() == digest


def fresh_pack(pairs, width):
    """The packed form written out longhand with ``struct``."""
    flat = [-1 if width is None else width]
    for start, length in pairs:
        flat += [start, length]
    return struct.pack(f"<{len(flat)}q", *flat)


@pytest.fixture()
def pack_calls(monkeypatch):
    """Every ``struct.pack`` the row module makes from here on."""
    calls = []

    def counting_pack(fmt, *values):
        calls.append(fmt)
        return struct.pack(fmt, *values)

    monkeypatch.setattr(row_module, "struct", SimpleNamespace(pack=counting_pack))
    return calls


class TestPackedSlot:
    @pytest.mark.parametrize(
        "pairs, width",
        [([(2, 3), (8, 2)], 24), ([(0, 1), (5, 7)], None), ([], 16), ([], None)],
    )
    def test_packed_once_and_equal_to_fresh_packing(self, pairs, width):
        row = RLERow.from_pairs(pairs, width=width)
        assert pack_row(row) is pack_row(row)
        assert pack_row(row) == fresh_pack(pairs, width)

    def test_hit_packs_no_row_again(self, pack_calls):
        cache = DiffCache()
        a, b = make_row(1), make_row(4)
        result = compute(a, b)
        cache.store(a, b, OPTS, result)
        assert len(pack_calls) == 2  # a miss's put packs each row once
        assert cache.lookup(a, b, OPTS) is result
        assert cache.lookup(a, b, OPTS) is result
        assert len(pack_calls) == 2

    def test_miss_packs_each_row_once(self, pack_calls):
        cache = DiffCache()
        a, b = make_row(1), make_row(4)
        key = cache.key_for(a, b, OPTS)
        assert cache.get(key, a, b) is None
        cache.put(key, a, b, compute(a, b))
        assert len(pack_calls) == 2


class TestHitMiss:
    def test_miss_then_hit_round_trip(self):
        cache = DiffCache()
        a, b = make_row(1), make_row(5)
        assert cache.lookup(a, b, OPTS) is None
        result = compute(a, b)
        cache.store(a, b, OPTS, result)
        assert cache.lookup(a, b, OPTS) is result
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_direction_matters(self):
        cache = DiffCache()
        a, b = make_row(1), make_row(5)
        cache.store(a, b, OPTS, compute(a, b))
        # XOR is symmetric but iteration counts need not be — (b, a) is
        # a distinct key
        assert cache.lookup(b, a, OPTS) is None

    def test_options_partition_the_keyspace(self):
        cache = DiffCache()
        a, b = make_row(1), make_row(5)
        cache.store(a, b, OPTS, compute(a, b))
        assert cache.lookup(a, b, DiffOptions(engine="batched")) is None
        assert cache.lookup(a, b, OPTS.replace(n_cells=32)) is None

    def test_observability_handles_share_entries(self):
        cache = DiffCache()
        a, b = make_row(1), make_row(5)
        cache.store(a, b, OPTS, compute(a, b))
        instrumented = OPTS.replace(metrics=MetricsRegistry())
        assert cache.lookup(a, b, instrumented) is not None


class TestEviction:
    def test_lru_eviction_under_pressure(self):
        cache = DiffCache(max_bytes=4096)
        pairs = [(make_row(i), make_row(i + 7)) for i in range(24)]
        for a, b in pairs:
            cache.store(a, b, OPTS, compute(a, b))
        assert cache.evictions > 0
        assert cache.total_bytes <= 4096
        # the oldest entry is gone, the newest survives
        assert cache.lookup(*pairs[0], OPTS) is None
        assert cache.lookup(*pairs[-1], OPTS) is not None

    def test_recently_used_survives(self):
        cache = DiffCache(max_bytes=4096)
        hot = (make_row(0), make_row(7))
        cache.store(*hot, OPTS, compute(*hot))
        for i in range(1, 24):
            cache.lookup(*hot, OPTS)  # keep it hot
            a, b = make_row(i), make_row(i + 7)
            cache.store(a, b, OPTS, compute(a, b))
        assert cache.lookup(*hot, OPTS) is not None

    def test_oversized_entry_rejected_not_stored(self):
        cache = DiffCache(max_bytes=1)
        a, b = make_row(1), make_row(5)
        cache.store(a, b, OPTS, compute(a, b))
        assert len(cache) == 0
        assert cache.evictions == 1

    def test_restore_replaces_not_duplicates(self):
        cache = DiffCache()
        a, b = make_row(1), make_row(5)
        result = compute(a, b)
        cache.store(a, b, OPTS, result)
        before = cache.total_bytes
        cache.store(a, b, OPTS, result)
        assert len(cache) == 1
        assert cache.total_bytes == before

    def test_clear(self):
        cache = DiffCache()
        a, b = make_row(1), make_row(5)
        cache.store(a, b, OPTS, compute(a, b))
        cache.clear()
        assert len(cache) == 0 and cache.total_bytes == 0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ServiceError):
            DiffCache(max_bytes=0)


class TestCollisions:
    def test_collision_detected_never_served(self):
        # a fingerprint that maps every row to the same digest: maximal
        # collisions — the verbatim-input check must catch all of them
        cache = DiffCache(fingerprint=lambda row: b"\x00" * 16)
        a, b = make_row(1), make_row(5)
        c, d = make_row(2), make_row(9)
        cache.store(a, b, OPTS, compute(a, b))
        assert cache.lookup(c, d, OPTS) is None  # collides, rejected
        assert cache.collisions == 1
        # the genuine entry still round-trips
        assert cache.lookup(a, b, OPTS) is not None

    def test_truncated_fingerprint_still_correct(self):
        cache = DiffCache(fingerprint=lambda row: row_fingerprint(row)[:1])
        pairs = [(make_row(i), make_row(i + 7)) for i in range(16)]
        for a, b in pairs:
            expected = compute(a, b)
            cached = cache.lookup(a, b, OPTS)
            if cached is None:
                cache.store(a, b, OPTS, expected)
            else:
                # whatever survives the verbatim check must be exact
                assert cached.result.to_pairs() == expected.result.to_pairs()
                assert cached.iterations == expected.iterations


class TestMetrics:
    def test_counters_mirror_into_registry(self):
        registry = MetricsRegistry()
        cache = DiffCache(metrics=registry, name="test")
        a, b = make_row(1), make_row(5)
        cache.lookup(a, b, OPTS)  # miss
        cache.store(a, b, OPTS, compute(a, b))
        cache.lookup(a, b, OPTS)  # hit
        doc = registry.to_json()
        by_name = {family["name"]: family for family in doc["metrics"]}
        assert "repro_cache_hits_total" in by_name
        assert "repro_cache_misses_total" in by_name
        assert "repro_cache_bytes" in by_name
        hits = by_name["repro_cache_hits_total"]["series"]
        assert hits[0]["labels"] == {"cache": "test"}
        assert hits[0]["value"] == 1.0


class TestHitRateThreadSafety:
    """``hit_rate`` reads two counters that other threads are bumping;
    it must read them under the cache lock — a torn read could pair a
    new numerator with a stale denominator."""

    def test_counts_exact_and_ratio_sane_under_threads(self):
        import threading

        cache = DiffCache()
        a, b = make_row(1), make_row(5)
        cache.store(a, b, OPTS, compute(a, b))
        n_threads, per_thread = 6, 200
        torn = []

        def hammer(seed: int) -> None:
            miss_a, miss_b = make_row(10 + seed), make_row(20 + seed)
            for i in range(per_thread):
                if i % 2:
                    assert cache.lookup(a, b, OPTS) is not None  # hit
                else:
                    cache.lookup(miss_a, miss_b, OPTS)  # miss
                rate = cache.hit_rate
                if not 0.0 <= rate <= 1.0:  # pragma: no cover - failure path
                    torn.append(rate)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not torn
        total = n_threads * per_thread
        # each thread split its lookups 50/50 (store does not count)
        assert cache.hits == total // 2
        assert cache.misses == total // 2
        assert cache.hit_rate == cache.hits / (cache.hits + cache.misses)
