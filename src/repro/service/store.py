"""Persistent content-addressed row store — the disk tier under
:class:`~repro.service.cache.DiffCache`.

The paper's premise is that the packed representation *is* the asset:
rows are short run lists, cheap to fingerprint, cheap to store.  The
RAM LRU exploits that within one process lifetime; this module extends
it across restarts.  A :class:`RowStore` is a directory of entry files,
each holding one cached :class:`~repro.core.machine.XorRunResult`
together with the verbatim input rows that produced it, addressed by a
digest of the same :class:`~repro.service.cache.CacheKey` the RAM tier
uses.  Every row in an entry — both inputs and the result — is the
cache tier's one packed form (:func:`~repro.service.cache.pack_row`:
little-endian int64 width then ``(start, length)`` pairs), the bytes
the fingerprint already hashes.  That form keeps the exact run
structure, so the systolic output, which "is not always compressed as
much as possible" (adjacent runs are legal), comes back byte-identical.

Correctness before speed, same creed as the RAM tier:

* every entry file carries a magic tag, its own key digest, the payload
  length and a BLAKE2b payload checksum — a flipped bit, truncated
  write or renamed file fails *closed*: the entry is moved to
  ``quarantine/``, counted (``repro_cache_disk_quarantined_total``,
  ``cache_quarantine`` log event) and reported as a miss, never served;
* the payload stores both input rows' packed bytes, and a hit is only
  served after a bytes compare — a fingerprint collision on disk
  degrades to a counted miss exactly like in RAM;
* results carrying a live trace recorder are never persisted (counted
  as ``skipped``) — a trace is a debugging artifact of one process, not
  content.

Durability is write-behind and crash-tolerant rather than transactional:
entry files are written to a temp name and atomically renamed, and the
LRU order + byte accounting live in an append-only ``index.log`` that
is replayed on open and reconciled against the actual directory
contents (files without index lines are adopted; index lines without
files are dropped).  A single-writer ``LOCK`` file (``flock``) makes
sharing safe: the first opener owns writes, later openers degrade to
read-only sharing — they serve hits but never touch the index, so N
shard workers can point at one directory (or partition it, as the
sharded front-end does with per-worker subdirectories) without
corrupting each other.
"""

from __future__ import annotations

import os
import struct
import threading
from collections import OrderedDict
from hashlib import blake2b
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

try:  # pragma: no cover - POSIX everywhere we run
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    _fcntl = None  # type: ignore[assignment]

from repro.errors import EncodingError, FormatError, GeometryError, ServiceError
from repro.core.machine import XorRunResult
from repro.service.cache import pack_row, unpack_row
from repro.systolic.stats import ActivityStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.log import StructuredLog
    from repro.obs.metrics import MetricsRegistry
    from repro.service.cache import CacheKey, PackedPair

__all__ = [
    "DEFAULT_DISK_BUDGET",
    "STORE_MAGIC",
    "RowStore",
    "encode_entry",
    "decode_entry",
    "entry_digest",
]

#: Default on-disk byte budget: 256 MiB of entry files.
DEFAULT_DISK_BUDGET = 256 * 1024 * 1024

#: Entry-file magic tag ("Repro Store Entry, format 2").  Entries from
#: an older format fail the magic check and are quarantined as misses.
STORE_MAGIC = b"RSE2"

#: Fixed header layout after the magic: key digest (16), payload length
#: (u64), payload checksum (16).
_HEADER = struct.Struct("<16sQ16s")

#: Compact the append-only index when it holds this many times more
#: lines than live entries (and at least ``_COMPACT_MIN`` lines).
_COMPACT_FACTOR = 8
_COMPACT_MIN = 1024


# --------------------------------------------------------------------- #
# Entry codec                                                           #
# --------------------------------------------------------------------- #
def _encode_key(key: "CacheKey") -> bytes:
    fp_a, fp_b, (engine, n_cells, paranoid, record_trace) = key
    name = engine.encode("ascii")
    return (
        fp_a
        + fp_b
        + struct.pack("<B", len(name))
        + name
        + struct.pack(
            "<qBB",
            -1 if n_cells is None else n_cells,
            int(paranoid),
            int(record_trace),
        )
    )


def _decode_key(data: bytes, off: int) -> Tuple["CacheKey", int]:
    fp_a = data[off : off + 16]
    fp_b = data[off + 16 : off + 32]
    if len(fp_b) != 16:
        raise FormatError("store entry truncated inside the cache key")
    off += 32
    (name_len,) = struct.unpack_from("<B", data, off)
    off += 1
    engine = data[off : off + name_len].decode("ascii")
    off += name_len
    n_cells, paranoid, record_trace = struct.unpack_from("<qBB", data, off)
    off += struct.calcsize("<qBB")
    key: "CacheKey" = (
        fp_a,
        fp_b,
        (engine, None if n_cells < 0 else n_cells, bool(paranoid), bool(record_trace)),
    )
    return key, off


def _take_row(data: bytes, off: int) -> Tuple[bytes, int]:
    (nbytes,) = struct.unpack_from("<I", data, off)
    off += 4
    row = data[off : off + nbytes]
    if len(row) != nbytes:
        raise FormatError("store entry truncated inside a row")
    return row, off + nbytes


def encode_entry(
    key: "CacheKey", inputs: "PackedPair", result: XorRunResult
) -> bytes:
    """One cache entry as a self-validating byte blob.

    Layout: ``RSE2`` magic, then a fixed header (key digest, payload
    length, BLAKE2b-128 payload checksum), then the payload — the full
    cache key, the two input rows' bytes as given, the result row in
    the same :func:`~repro.service.cache.pack_row` form (each row
    behind a ``u32`` byte length) and the run metadata (iterations,
    k1, k2, n_cells, activity counters).
    """
    payload = bytearray(_encode_key(key))
    for row in (*inputs, pack_row(result.result)):
        payload += struct.pack("<I", len(row)) + row
    payload += struct.pack(
        "<qqqq", result.iterations, result.k1, result.k2, result.n_cells
    )
    items = result.stats.items()
    payload += struct.pack("<I", len(items))
    for name, value in items:
        encoded = name.encode("utf-8")
        payload += struct.pack("<H", len(encoded)) + encoded + struct.pack("<q", value)
    blob = bytes(payload)
    checksum = blake2b(blob, digest_size=16).digest()
    return STORE_MAGIC + _HEADER.pack(entry_digest(key), len(blob), checksum) + blob


def decode_entry(blob: bytes) -> Tuple["CacheKey", "PackedPair", XorRunResult]:
    """Validate and decode :func:`encode_entry` output.

    Raises :class:`~repro.errors.FormatError` on any structural damage:
    bad magic (including an entry from an older format), short header,
    length mismatch, checksum mismatch, a payload that does not parse,
    or a result row that is not a valid row.  Callers quarantine on
    that signal.
    """
    if blob[:4] != STORE_MAGIC:
        raise FormatError("store entry has a bad magic tag")
    if len(blob) < 4 + _HEADER.size:
        raise FormatError("store entry shorter than its header")
    digest, length, checksum = _HEADER.unpack_from(blob, 4)
    payload = blob[4 + _HEADER.size :]
    if len(payload) != length:
        raise FormatError(
            f"store entry payload is {len(payload)} bytes, header says {length}"
        )
    if blake2b(payload, digest_size=16).digest() != checksum:
        raise FormatError("store entry payload checksum mismatch")
    try:
        key, off = _decode_key(payload, 0)
        row_a, off = _take_row(payload, off)
        row_b, off = _take_row(payload, off)
        row_r, off = _take_row(payload, off)
        iterations, k1, k2, n_cells = struct.unpack_from("<qqqq", payload, off)
        off += 32
        (n_items,) = struct.unpack_from("<I", payload, off)
        off += 4
        items: List[Tuple[str, int]] = []
        for _ in range(n_items):
            (name_len,) = struct.unpack_from("<H", payload, off)
            off += 2
            name = payload[off : off + name_len].decode("utf-8")
            off += name_len
            (value,) = struct.unpack_from("<q", payload, off)
            off += 8
            items.append((name, value))
        result_row = unpack_row(row_r)
    except (struct.error, UnicodeDecodeError, EncodingError, GeometryError) as exc:
        raise FormatError(f"store entry payload does not parse: {exc}") from exc
    if entry_digest(key) != digest:
        raise FormatError("store entry key does not match its header digest")
    result = XorRunResult(
        result=result_row,
        iterations=iterations,
        k1=k1,
        k2=k2,
        n_cells=n_cells,
        stats=ActivityStats.from_items(items),
    )
    return key, (row_a, row_b), result


def entry_digest(key: "CacheKey") -> bytes:
    """The 128-bit address of one cache key — the entry's file name."""
    return blake2b(_encode_key(key), digest_size=16).digest()


# --------------------------------------------------------------------- #
# The store                                                             #
# --------------------------------------------------------------------- #
class RowStore:
    """A byte-budgeted, content-addressed directory of row-diff results.

    Parameters
    ----------
    directory:
        The store root (created if missing).  Layout: ``objects/<xx>/``
        fanout of entry files, ``index.log`` (append-only LRU journal),
        ``LOCK`` (single-writer flock), ``quarantine/`` (corrupt files,
        kept for inspection, never re-served).
    max_bytes:
        On-disk budget over the summed entry-file sizes.  Inserting
        past it evicts least-recently-used entries (files unlinked,
        ``evict`` journaled).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; counters
        and gauges mirror under the ``repro_cache_disk_*`` families,
        labelled with ``name``.
    name:
        The ``store`` label value used in the metric families.
    log:
        Optional :class:`~repro.obs.log.StructuredLog` for the
        ``cache_warm`` (entries adopted at open) and
        ``cache_quarantine`` (corrupt entry sidelined) events.

    A store that failed to take the writer lock still *reads* (it can
    probe and serve entries, adopting files it discovers) but silently
    refuses writes, eviction and quarantine moves — check
    :attr:`writable`.  All public methods are thread-safe.
    """

    def __init__(
        self,
        directory: str,
        max_bytes: int = DEFAULT_DISK_BUDGET,
        metrics: "Optional[MetricsRegistry]" = None,
        name: str = "row-diff",
        log: "Optional[StructuredLog]" = None,
    ) -> None:
        if max_bytes < 1:
            raise ServiceError(f"store max_bytes must be >= 1, got {max_bytes}")
        self.directory = os.path.abspath(directory)
        self.max_bytes = max_bytes
        self.name = name
        self._log = log
        self._lock = threading.Lock()
        self._objects = os.path.join(self.directory, "objects")
        self._quarantine_dir = os.path.join(self.directory, "quarantine")
        self._index_path = os.path.join(self.directory, "index.log")
        os.makedirs(self._objects, exist_ok=True)
        os.makedirs(self._quarantine_dir, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        self.quarantined = 0
        self.collisions = 0
        self.skipped = 0
        self.errors = 0
        self._closed = False
        self._bytes = 0
        self._index: "OrderedDict[str, int]" = OrderedDict()
        self._tombstones: Set[str] = set()
        self._index_lines = 0
        self._lock_fd = self._acquire_writer_lock()
        self._init_metrics(metrics)
        with self._lock:
            self._replay_index()
            self.warm_entries = len(self._index)
            self._sync_gauges()
        if self._log is not None:
            self._log.log(
                "cache_warm",
                level="info",
                store=self.name,
                entries=self.warm_entries,
                bytes=self.total_bytes,
                writable=self.writable,
            )

    # -- open/close ---------------------------------------------------- #
    def _acquire_writer_lock(self) -> Optional[int]:
        path = os.path.join(self.directory, "LOCK")
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        if _fcntl is None:  # pragma: no cover - non-POSIX
            return fd
        try:
            _fcntl.flock(fd, _fcntl.LOCK_EX | _fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            return None
        return fd

    @property
    def writable(self) -> bool:
        """Whether this process holds the single-writer lock."""
        with self._lock:
            return self._writable_locked()

    def _writable_locked(self) -> bool:
        return self._lock_fd is not None and not self._closed

    def close(self) -> None:
        """Release the writer lock (idempotent).  Reads and writes after
        close are refused (writes silently, reads as misses)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._lock_fd is not None:
                if _fcntl is not None:
                    _fcntl.flock(self._lock_fd, _fcntl.LOCK_UN)
                os.close(self._lock_fd)
                self._lock_fd = None

    def __enter__(self) -> "RowStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- index --------------------------------------------------------- #
    def _replay_index(self) -> None:
        """Rebuild LRU order and byte accounting from the journal, then
        reconcile against what is actually on disk."""
        try:
            with open(self._index_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    parts = line.strip().split()
                    if len(parts) < 2:
                        continue  # torn tail from a crash — ignore
                    op, digest = parts[0], parts[1]
                    if op == "put" and len(parts) == 3 and parts[2].isdigit():
                        old = self._index.pop(digest, None)
                        if old is not None:
                            self._bytes -= old
                        self._index[digest] = int(parts[2])
                        self._bytes += int(parts[2])
                    elif op == "touch":
                        if digest in self._index:
                            self._index.move_to_end(digest)
                    elif op in ("evict", "quarantine"):
                        old = self._index.pop(digest, None)
                        if old is not None:
                            self._bytes -= old
                    self._index_lines += 1
        except OSError:
            pass
        # drop index entries whose files vanished; adopt orphan files
        on_disk: Dict[str, int] = {}
        try:
            for fan in os.scandir(self._objects):
                if not fan.is_dir():
                    continue
                for entry in os.scandir(fan.path):
                    if entry.is_file():
                        on_disk[entry.name] = entry.stat().st_size
        except OSError:
            pass
        for digest in [d for d in self._index if d not in on_disk]:
            self._bytes -= self._index.pop(digest)
        for digest, size in sorted(on_disk.items()):
            if digest not in self._index:
                self._index[digest] = size
                self._bytes += size
            elif self._index[digest] != size:
                self._bytes += size - self._index[digest]
                self._index[digest] = size
        if self._writable_locked():
            self._maybe_compact_locked(force=self._index_lines > len(self._index))

    def _append_index(self, op: str, digest: str, nbytes: Optional[int] = None) -> None:
        # caller holds self._lock and has checked writable
        line = f"{op} {digest} {nbytes}\n" if nbytes is not None else f"{op} {digest}\n"
        try:
            with open(self._index_path, "a", encoding="utf-8") as fh:
                fh.write(line)
        except OSError:
            self.errors += 1
        self._index_lines += 1
        self._maybe_compact_locked()

    def _maybe_compact_locked(self, force: bool = False) -> None:
        if not self._writable_locked():
            return
        threshold = max(_COMPACT_MIN, _COMPACT_FACTOR * max(1, len(self._index)))
        if not force and self._index_lines < threshold:
            return
        tmp = self._index_path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                for digest, nbytes in self._index.items():
                    fh.write(f"put {digest} {nbytes}\n")
            os.replace(tmp, self._index_path)
            self._index_lines = len(self._index)
        except OSError:
            self.errors += 1

    # -- paths --------------------------------------------------------- #
    def _path_for(self, digest_hex: str) -> str:
        return os.path.join(self._objects, digest_hex[:2], digest_hex)

    # -- read path ----------------------------------------------------- #
    def get(self, key: "CacheKey", inputs: "PackedPair") -> Optional[XorRunResult]:
        """The stored result for ``key``, or ``None``.

        ``inputs`` are the requesting rows' packed bytes
        (:func:`~repro.service.cache.pack_pair`) — a hit is only served
        after they compare equal to the stored ones.  Any structural
        damage (bad magic/length/checksum, unparseable payload, an
        invalid result row, or a payload whose key disagrees with the
        file's address — the stale-fingerprint case) quarantines the
        file and reports a miss: a corrupt disk can cost hit rate,
        never bytes.
        """
        digest_hex = entry_digest(key).hex()
        with self._lock:
            if self._closed or digest_hex in self._tombstones:
                self._count_miss()
                return None
            path = self._path_for(digest_hex)
            try:
                with open(path, "rb") as fh:
                    blob = fh.read()
            except OSError:
                # unknown to the filesystem: a plain miss (drop any
                # stale index line so accounting follows reality)
                old = self._index.pop(digest_hex, None)
                if old is not None:
                    self._bytes -= old
                    if self._writable_locked():
                        self._append_index("evict", digest_hex)
                self._count_miss()
                self._sync_gauges()
                return None
            try:
                stored_key, stored_inputs, result = decode_entry(blob)
            except FormatError as exc:
                self._quarantine_locked(digest_hex, path, str(exc))
                self._count_miss()
                self._sync_gauges()
                return None
            if stored_key != key:
                self._quarantine_locked(
                    digest_hex, path, "stale entry: stored key differs from address"
                )
                self._count_miss()
                self._sync_gauges()
                return None
            if stored_inputs != inputs:
                self.collisions += 1
                if self._m_collisions is not None:
                    self._m_collisions.inc()
                self._count_miss()
                return None
            # adopt files another writer produced after our replay
            if digest_hex not in self._index:
                self._index[digest_hex] = len(blob)
                self._bytes += len(blob)
                if self._writable_locked():
                    self._append_index("put", digest_hex, len(blob))
            else:
                self._index.move_to_end(digest_hex)
                if self._writable_locked():
                    self._append_index("touch", digest_hex)
            self.hits += 1
            if self._m_hits is not None:
                self._m_hits.inc()
            self._sync_gauges()
            return result

    # -- write path ---------------------------------------------------- #
    def put(self, key: "CacheKey", inputs: "PackedPair", result: XorRunResult) -> bool:
        """Persist one entry; returns whether it landed on disk.

        Refused (``False``, counted) when the store is read-only or
        closed, when the result carries a live trace recorder, or when
        the encoded entry alone exceeds the whole byte budget.  LRU
        entries are evicted (files unlinked) until the budget holds.
        """
        if result.trace is not None:
            with self._lock:
                self.skipped += 1
            return False
        digest_hex = entry_digest(key).hex()
        blob = encode_entry(key, inputs, result)
        with self._lock:
            if not self._writable_locked():
                self.skipped += 1
                return False
            if len(blob) > self.max_bytes:
                self.skipped += 1
                return False
            self._tombstones.discard(digest_hex)
            path = self._path_for(digest_hex)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = path + ".tmp"
            try:
                with open(tmp, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except OSError:
                self.errors += 1
                return False
            old = self._index.pop(digest_hex, None)
            if old is not None:
                self._bytes -= old
            self._index[digest_hex] = len(blob)
            self._bytes += len(blob)
            self.writes += 1
            if self._m_writes is not None:
                self._m_writes.inc()
            self._append_index("put", digest_hex, len(blob))
            while self._bytes > self.max_bytes and len(self._index) > 1:
                victim, nbytes = self._index.popitem(last=False)
                self._bytes -= nbytes
                try:
                    os.unlink(self._path_for(victim))
                except OSError:
                    pass
                self.evictions += 1
                if self._m_evictions is not None:
                    self._m_evictions.inc()
                self._append_index("evict", victim)
            self._sync_gauges()
            return True

    def invalidate(self, key: "CacheKey") -> bool:
        """Drop the entry stored under ``key``, if any.

        The resilience layer's self-heal calls this through
        :meth:`DiffCache.invalidate <repro.service.cache.DiffCache.invalidate>`
        so a structurally-rotten result cannot be re-promoted from disk
        on the next miss.  Read-only stores cannot unlink another
        writer's files; they tombstone the key locally instead, which
        protects this process just the same.
        """
        digest_hex = entry_digest(key).hex()
        with self._lock:
            if self._closed:
                return False
            old = self._index.pop(digest_hex, None)
            if old is not None:
                self._bytes -= old
            existed = old is not None
            if self._writable_locked():
                try:
                    os.unlink(self._path_for(digest_hex))
                    existed = True
                except OSError:
                    pass
                if existed:
                    self._append_index("evict", digest_hex)
            else:
                self._tombstones.add(digest_hex)
            if existed:
                self.evictions += 1
                if self._m_evictions is not None:
                    self._m_evictions.inc()
            self._sync_gauges()
            return existed

    # -- quarantine ---------------------------------------------------- #
    def _quarantine_locked(self, digest_hex: str, path: str, reason: str) -> None:
        old = self._index.pop(digest_hex, None)
        if old is not None:
            self._bytes -= old
        self._tombstones.add(digest_hex)
        if self._writable_locked():
            try:
                os.replace(
                    path, os.path.join(self._quarantine_dir, digest_hex)
                )
            except OSError:
                self.errors += 1
            self._append_index("quarantine", digest_hex)
        self.quarantined += 1
        if self._m_quarantined is not None:
            self._m_quarantined.inc()
        if self._log is not None:
            self._log.log(
                "cache_quarantine",
                level="warning",
                store=self.name,
                digest=digest_hex,
                reason=reason,
            )

    # -- metrics ------------------------------------------------------- #
    def _init_metrics(self, metrics: "Optional[MetricsRegistry]") -> None:
        self._m_hits: Any = None
        self._m_misses: Any = None
        self._m_writes: Any = None
        self._m_evictions: Any = None
        self._m_quarantined: Any = None
        self._m_collisions: Any = None
        self._m_bytes: Any = None
        self._m_entries: Any = None
        self._metrics = metrics
        if metrics is None:
            return
        labels = ("store",)
        self._m_hits = metrics.counter(
            "repro_cache_disk_hits_total", "disk-tier cache hits", labels
        ).labels(store=self.name)
        self._m_misses = metrics.counter(
            "repro_cache_disk_misses_total", "disk-tier cache misses", labels
        ).labels(store=self.name)
        self._m_writes = metrics.counter(
            "repro_cache_disk_writes_total", "entries persisted to disk", labels
        ).labels(store=self.name)
        self._m_evictions = metrics.counter(
            "repro_cache_disk_evictions_total",
            "disk entries evicted under the byte budget or invalidated",
            labels,
        ).labels(store=self.name)
        self._m_quarantined = metrics.counter(
            "repro_cache_disk_quarantined_total",
            "corrupt disk entries sidelined to quarantine/",
            labels,
        ).labels(store=self.name)
        self._m_collisions = metrics.counter(
            "repro_cache_disk_collisions_total",
            "fingerprint collisions detected by verbatim-input verification",
            labels,
        ).labels(store=self.name)
        self._m_bytes = metrics.gauge(
            "repro_cache_disk_bytes", "bytes of live entry files", labels
        ).labels(store=self.name)
        self._m_entries = metrics.gauge(
            "repro_cache_disk_entries", "live disk entries", labels
        ).labels(store=self.name)

    def _count_miss(self) -> None:
        # caller holds the lock
        self.misses += 1
        if self._m_misses is not None:
            self._m_misses.inc()

    def _sync_gauges(self) -> None:
        # caller holds the lock (or is the constructor)
        if self._m_bytes is not None:
            self._m_bytes.set(float(self._bytes))
        if self._m_entries is not None:
            self._m_entries.set(float(len(self._index)))

    # -- introspection ------------------------------------------------- #
    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    @property
    def total_bytes(self) -> int:
        """Summed size of all live entry files."""
        with self._lock:
            return self._bytes

    def info(self) -> Dict[str, float]:
        """Counters and budget as one plain dict (for logs and the CLI)."""
        with self._lock:
            return {
                "disk_entries": float(len(self._index)),
                "disk_bytes": float(self._bytes),
                "disk_max_bytes": float(self.max_bytes),
                "disk_hits": float(self.hits),
                "disk_misses": float(self.misses),
                "disk_writes": float(self.writes),
                "disk_evictions": float(self.evictions),
                "disk_quarantined": float(self.quarantined),
                "disk_collisions": float(self.collisions),
                "disk_skipped": float(self.skipped),
                "disk_errors": float(self.errors),
                "disk_warm_entries": float(self.warm_entries),
                "disk_writable": float(self._writable_locked()),
            }
