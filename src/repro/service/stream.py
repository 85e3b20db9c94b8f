"""Streaming frame-delta sessions: the temporal serving surface.

The one-shot ``diff_rows`` vocabulary treats every request as new work:
the caller ships *two* full frames over the wire and gets one XOR back.
Video and sensor streams are the other shape entirely — consecutive
frames are nearly identical, so the natural unit is a *session*: the
server keeps the previous frame resident (its rows hot in the
content-addressed :class:`~repro.service.cache.DiffCache`), the client
ships only the newest frame, and the reply is the tiny XOR delta.  The
paper's decompression-free XOR is exactly this change detector, and the
deltas it ships *are* the compressed recording: the client decodes by
XOR-folding them from the key frame (Theorem 3 associativity), never a
decompressed bitmap between hops.  The server keeps no chain: a session
is the last frame sent, the key frame's run count and counters, so a
frame's cost is its diff plus a few counter updates, however long the
session runs (see :class:`StreamSession`).

:class:`StreamingDiffService` manages the sessions:

* every appended frame is diffed against the session tail **through the
  underlying diff service** (:class:`~repro.service.DiffService` or
  :class:`~repro.service.resilience.ResilientDiffService`), so caching,
  batching, deadlines, retries and breaker admission all apply to the
  streaming path unchanged — a breaker-open worker sheds
  ``stream_frame`` with the same typed
  :class:`~repro.errors.ServiceOverloadError` as any other op;
* key frames are picked **adaptively from measured diff density**: when
  the delta runs accumulated since the last key exceed
  ``rekey_ratio`` times the key frame's own runs (or the chain hits
  ``max_chain`` frames), the session rekeys on the newest frame — static
  scenes keep one key forever, a scene cut rekeys immediately;
* accounting lands in the ``repro_stream_*`` metric families and the
  structured log (``stream_opened`` / ``stream_rekey`` /
  ``stream_closed`` events), keyed by the session id that also serves
  as every stream request's trace ``parent_id``
  (:class:`~repro.obs.context.RequestContext`).

In the sharded tier a session lives on exactly one shard — the
front-end routes by session id on the consistent-hash ring (see
:meth:`repro.service.frontend.ShardedDiffService.stream_open`), so the
session's key frame rows stay hot in that one worker's cache.  The wire
codecs at the bottom of this module follow the builtin-types-only
discipline of :mod:`repro.service.shard` (rule RLE103 covers this
module too).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import (
    GeometryError,
    ServiceError,
    UnknownSessionError,
)
from repro.rle.image import RLEImage
from repro.obs.context import new_request_id
from repro.service.resilience import ResilientDiffService
from repro.service.service import DiffService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.log import StructuredLog
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "StreamPolicy",
    "FrameDelta",
    "StreamSession",
    "StreamingDiffService",
    "fold_stream_stats",
    "ImageWire",
    "FrameDeltaWire",
    "StreamPolicyWire",
    "encode_image",
    "decode_image",
    "encode_frame_delta",
    "decode_frame_delta",
    "encode_stream_policy",
    "decode_stream_policy",
]

#: The diff backends a streaming service can sit on.  Both expose
#: ``diff_images(image_a, image_b, request_id=...)``.
DiffBackend = Union[DiffService, ResilientDiffService]


@dataclass(frozen=True)
class StreamPolicy:
    """When a session replaces its key frame, as one frozen value.

    The decision input is *measured diff density*: every appended delta
    adds its run count to a running total since the last key, and the
    session rekeys when that total crosses ``rekey_ratio`` times the
    current key frame's run count.  A static scene (deltas near zero
    runs) never rekeys; a scene cut (delta as big as the frame) rekeys
    on the spot.  ``max_chain`` bounds the frames per key regardless, so
    a subscriber replaying from the last key folds at most
    ``max_chain`` deltas.
    """

    #: Rekey when ``delta runs since key > rekey_ratio * key runs``.
    rekey_ratio: float = 1.0
    #: Hard cap on deltas per key frame (>= 1).
    max_chain: int = 64

    def __post_init__(self) -> None:
        if self.rekey_ratio <= 0.0:
            raise ServiceError(
                f"rekey_ratio must be > 0, got {self.rekey_ratio}"
            )
        if self.max_chain < 1:
            raise ServiceError(
                f"max_chain must be >= 1, got {self.max_chain}"
            )


@dataclass(frozen=True)
class FrameDelta:
    """What one appended frame cost and produced.

    ``delta`` is what crosses the wire back to the caller: the full
    frame for the opening key frame (``frame_index`` 0), the XOR delta
    against the previous frame otherwise.  ``rekeyed`` reports that the
    session replaced its key frame with this frame — the
    client's decode is unaffected (deltas always chain frame-to-frame),
    but a subscriber joining now would start from this key.
    """

    frame_index: int
    delta: RLEImage
    rekeyed: bool
    #: Runs in ``delta`` (the shipped payload size, in paper units).
    delta_runs: int
    #: Runs in the session's current key frame.
    key_runs: int


def _canonical_runs(image: RLEImage) -> int:
    """Runs in ``image`` once adjacent runs are merged: the run count of
    the frame as the client decodes it (an XOR fold is always
    canonical), which is what a rekey keys the policy on."""
    return sum(row.canonical().run_count for row in image)


class StreamSession:
    """One client's stream: its tail, its key frame's run count, and
    counters.

    The tail is the frame the client last sent — the delta shipped for
    it is ``previous tail XOR frame``, so the client's XOR fold lands on
    exactly this frame and the server never needs to rebuild it.  The
    rekey policy needs only run counts, so no delta image is kept: a
    rekey is "key := tail" plus a counter reset, nothing is re-folded,
    and a session's memory is one frame whatever its length.

    Two locks: ``_append_lock`` serializes whole appends (tail read →
    diff → record) so concurrent frames of one session chain one after
    the other — the TCP executor may dispatch two ``stream_frame``
    requests for the same session from different threads — and
    ``_lock`` guards the state itself, so :meth:`stats` never waits on
    a diff.  Lock order is always ``_append_lock`` then ``_lock``.
    """

    def __init__(self, session_id: str, policy: StreamPolicy) -> None:
        self.session_id = session_id
        self.policy = policy
        self._append_lock = threading.Lock()
        self._lock = threading.Lock()
        self._tail: Optional[RLEImage] = None
        self._key_runs = 0
        self._deltas_since_key = 0
        self._delta_runs_since_key = 0
        self._frames = 0
        self._rekeys = 0
        self._raw_runs = 0
        self._shipped_runs = 0

    # ------------------------------------------------------------------ #
    @property
    def tail(self) -> Optional[RLEImage]:
        """The most recent frame (``None`` before any frame)."""
        with self._lock:
            return self._tail

    def chain_len(self) -> int:
        """Frames since (and including) the current key frame."""
        with self._lock:
            return 0 if self._tail is None else self._deltas_since_key + 1

    # ------------------------------------------------------------------ #
    def append(
        self,
        frame: RLEImage,
        diff: Callable[[RLEImage, RLEImage], RLEImage],
    ) -> FrameDelta:
        """Append one frame and apply the rekey policy.

        The opening frame is its own key and its own shipped payload;
        every later one ships ``diff(tail, frame)``.  Appends to one
        session run one at a time, so frame ``i``'s delta is always
        taken against frame ``i - 1``.
        """
        with self._append_lock:
            tail = self.tail
            if tail is None:
                return self._open_key(frame)
            if frame.shape != tail.shape:
                raise GeometryError(
                    f"frame shape {frame.shape} != session shape {tail.shape}"
                )
            return self._append_delta(frame, diff(tail, frame))

    def _open_key(self, frame: RLEImage) -> FrameDelta:
        runs = frame.total_runs
        with self._lock:
            self._tail = frame
            self._key_runs = runs
            self._frames = 1
            self._raw_runs = runs
            self._shipped_runs = runs
            return FrameDelta(
                frame_index=0,
                delta=frame,
                rekeyed=True,
                delta_runs=runs,
                key_runs=runs,
            )

    def _append_delta(self, frame: RLEImage, delta: RLEImage) -> FrameDelta:
        frame_runs = frame.total_runs
        delta_runs = delta.total_runs
        with self._lock:
            index = self._frames
            self._frames += 1
            self._raw_runs += frame_runs
            self._shipped_runs += delta_runs
            self._delta_runs_since_key += delta_runs
            self._deltas_since_key += 1
            self._tail = frame
            rekeyed = (
                self._delta_runs_since_key
                > self.policy.rekey_ratio * self._key_runs
                or self._deltas_since_key + 1 > self.policy.max_chain
            )
            if rekeyed:
                self._key_runs = _canonical_runs(frame)
                self._deltas_since_key = 0
                self._delta_runs_since_key = 0
                self._rekeys += 1
            return FrameDelta(
                frame_index=index,
                delta=delta,
                rekeyed=rekeyed,
                delta_runs=delta_runs,
                key_runs=self._key_runs,
            )

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, float]:
        """Counters as plain floats (wire- and JSON-safe)."""
        with self._lock:
            chain = 0 if self._tail is None else self._deltas_since_key + 1
            shipped = self._shipped_runs
            return {
                "frames": float(self._frames),
                "rekeys": float(self._rekeys),
                "chain_len": float(chain),
                "key_runs": float(self._key_runs),
                "raw_runs": float(self._raw_runs),
                "shipped_runs": float(shipped),
                "delta_runs_since_key": float(self._delta_runs_since_key),
                "compression_ratio": (
                    self._raw_runs / shipped if shipped else 1.0
                ),
            }


class StreamingDiffService:
    """Frame-stream sessions over a cached/resilient diff backend.

    Parameters
    ----------
    backend:
        The :class:`~repro.service.DiffService` or
        :class:`~repro.service.resilience.ResilientDiffService` that
        computes every frame delta.  The streaming layer never XORs
        around it — cache hits, retries, deadlines and breaker
        admission all shape the streaming path.  The backend's
        lifecycle belongs to the caller (closing this service does not
        close the backend).
    policy:
        Default :class:`StreamPolicy` for sessions that do not bring
        their own.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; the
        ``repro_stream_*`` families land here.
    log:
        Optional :class:`~repro.obs.log.StructuredLog` for the
        ``stream_opened`` / ``stream_rekey`` / ``stream_closed``
        events.
    """

    def __init__(
        self,
        backend: DiffBackend,
        policy: Optional[StreamPolicy] = None,
        metrics: "Optional[MetricsRegistry]" = None,
        log: "Optional[StructuredLog]" = None,
    ) -> None:
        self._backend = backend
        self.policy = policy if policy is not None else StreamPolicy()
        self._log = log
        self._lock = threading.Lock()
        self._sessions: Dict[str, StreamSession] = {}
        self._closed = False
        self._metrics = metrics
        if metrics is not None:
            self._m_opened = metrics.counter(
                "repro_stream_sessions_opened_total",
                "streaming sessions opened",
            ).labels()
            self._m_closed = metrics.counter(
                "repro_stream_sessions_closed_total",
                "streaming sessions closed",
            ).labels()
            self._m_open = metrics.gauge(
                "repro_stream_sessions_open",
                "streaming sessions currently open",
            ).labels()
            self._m_frames = metrics.counter(
                "repro_stream_frames_total",
                "frames appended across all streaming sessions",
            ).labels()
            self._m_rekeys = metrics.counter(
                "repro_stream_rekeys_total",
                "adaptive key-frame replacements across all sessions",
            ).labels()
            self._m_raw_runs = metrics.counter(
                "repro_stream_raw_runs_total",
                "runs in the frames as received (pre-delta size)",
            ).labels()
            self._m_shipped_runs = metrics.counter(
                "repro_stream_shipped_runs_total",
                "runs actually shipped back (key frames + deltas)",
            ).labels()

    # ------------------------------------------------------------------ #
    # Session lifecycle                                                  #
    # ------------------------------------------------------------------ #
    def open(
        self,
        session_id: Optional[str] = None,
        policy: Optional[StreamPolicy] = None,
    ) -> str:
        """Create a session; returns its id (generated when ``None``).

        Opening an id that is already open is a typed
        :class:`~repro.errors.ServiceError` — sessions are
        single-writer, and a duplicate open is a routing bug.
        """
        if session_id is None:
            session_id = new_request_id()
        session = StreamSession(
            session_id, policy if policy is not None else self.policy
        )
        with self._lock:
            if self._closed:
                raise ServiceError("StreamingDiffService is closed")
            if session_id in self._sessions:
                raise ServiceError(
                    f"stream session {session_id!r} is already open"
                )
            self._sessions[session_id] = session
            open_count = len(self._sessions)
        if self._metrics is not None:
            self._m_opened.inc()
            self._m_open.set(float(open_count))
        if self._log is not None:
            self._log.log(
                "stream_opened",
                request_id=session_id,
                level="info",
                rekey_ratio=session.policy.rekey_ratio,
                max_chain=session.policy.max_chain,
            )
        return session_id

    def _session(self, session_id: str) -> StreamSession:
        with self._lock:
            if self._closed:
                raise ServiceError("StreamingDiffService is closed")
            session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(
                f"unknown stream session {session_id!r} — it was never "
                f"opened here, was closed, or was lost with its shard; "
                f"reopen the session to continue"
            )
        return session

    def close_session(self, session_id: str) -> Dict[str, float]:
        """End one session; returns its final stats."""
        with self._lock:
            if self._closed:
                raise ServiceError("StreamingDiffService is closed")
            session = self._sessions.pop(session_id, None)
            open_count = len(self._sessions)
        if session is None:
            raise UnknownSessionError(
                f"unknown stream session {session_id!r} — nothing to close"
            )
        stats = session.stats()
        if self._metrics is not None:
            self._m_closed.inc()
            self._m_open.set(float(open_count))
        if self._log is not None:
            self._log.log(
                "stream_closed",
                request_id=session_id,
                level="info",
                frames=int(stats["frames"]),
                rekeys=int(stats["rekeys"]),
            )
        return stats

    def close(self) -> None:
        """Drop every session.  The backend stays open (not owned)."""
        with self._lock:
            self._closed = True
            self._sessions.clear()
        if self._metrics is not None:
            self._m_open.set(0.0)

    def __enter__(self) -> "StreamingDiffService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # The streaming op                                                   #
    # ------------------------------------------------------------------ #
    def append_frame(
        self,
        session_id: str,
        frame: RLEImage,
        request_id: Optional[str] = None,
    ) -> FrameDelta:
        """Append one frame; returns the delta the caller should ship.

        The delta is computed through the backend
        (``diff_images(tail, frame)``) so the session's resident rows
        hit the content-addressed cache and every resilience policy
        applies.  The tail read, diff and rekey decision run as one
        step per session (:meth:`StreamSession.append`), so concurrent
        frames of one session chain in ``frame_index`` order.
        ``request_id`` stamps the backend's log events — the sharded
        tier passes the per-request context id whose ``parent_id`` is
        this session's id.
        """
        session = self._session(session_id)
        result = session.append(
            frame,
            lambda tail, new: self._backend.diff_images(
                tail, new, request_id=request_id
            ).image,
        )
        if self._metrics is not None:
            self._m_frames.inc()
            self._m_raw_runs.inc(float(frame.total_runs))
            self._m_shipped_runs.inc(float(result.delta_runs))
            if result.rekeyed and result.frame_index > 0:
                self._m_rekeys.inc()
        if (
            self._log is not None
            and result.rekeyed
            and result.frame_index > 0
        ):
            self._log.log(
                "stream_rekey",
                request_id=session_id,
                level="debug",
                frame_index=result.frame_index,
                key_runs=result.key_runs,
            )
        return result

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def session_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def session_stats(self, session_id: str) -> Dict[str, float]:
        """One session's counters (typed error for unknown ids)."""
        return self._session(session_id).stats()

    def stats(self) -> Dict[str, float]:
        """Aggregate counters over every *open* session, plus the
        session totals themselves."""
        with self._lock:
            sessions = list(self._sessions.values())
        return fold_stream_stats(
            [{"sessions_open": float(len(sessions))}]
            + [session.stats() for session in sessions]
        )


def fold_stream_stats(parts: List[Dict[str, float]]) -> Dict[str, float]:
    """Sum stream counters over sessions (or workers): every key but
    ``compression_ratio``, which is recomputed from the summed run
    counts."""
    totals: Dict[str, float] = {}
    for stats in parts:
        for key, value in stats.items():
            if key != "compression_ratio":
                totals[key] = totals.get(key, 0.0) + value
    shipped = totals.get("shipped_runs", 0.0)
    totals["compression_ratio"] = (
        totals.get("raw_runs", 0.0) / shipped if shipped else 1.0
    )
    return totals


# --------------------------------------------------------------------- #
# Wire codecs (builtin types only — rule RLE103 covers this module)     #
# --------------------------------------------------------------------- #

#: One image on the wire: per-row ``(start, length)`` pair tuples plus
#: the shared pixel width.
ImageWire = Tuple[Tuple[Tuple[Tuple[int, int], ...], ...], int]

#: One :class:`FrameDelta` on the wire:
#: ``(frame_index, rekeyed, delta image, delta_runs, key_runs)``.
FrameDeltaWire = Tuple[int, bool, ImageWire, int, int]

#: One :class:`StreamPolicy` on the wire: ``(rekey_ratio, max_chain)``.
StreamPolicyWire = Tuple[float, int]


def encode_image(image: RLEImage) -> ImageWire:
    return (
        tuple(
            tuple((run.start, run.length) for run in row.runs)
            for row in image
        ),
        image.width,
    )


def decode_image(wire: ImageWire) -> RLEImage:
    rows_wire, width = wire
    return RLEImage.from_row_pairs(rows_wire, width=int(width))


def encode_frame_delta(delta: FrameDelta) -> FrameDeltaWire:
    return (
        int(delta.frame_index),
        bool(delta.rekeyed),
        encode_image(delta.delta),
        int(delta.delta_runs),
        int(delta.key_runs),
    )


def decode_frame_delta(wire: FrameDeltaWire) -> FrameDelta:
    frame_index, rekeyed, image_wire, delta_runs, key_runs = wire
    return FrameDelta(
        frame_index=int(frame_index),
        delta=decode_image(image_wire),
        rekeyed=bool(rekeyed),
        delta_runs=int(delta_runs),
        key_runs=int(key_runs),
    )


def encode_stream_policy(policy: StreamPolicy) -> StreamPolicyWire:
    return (float(policy.rekey_ratio), int(policy.max_chain))


def decode_stream_policy(wire: StreamPolicyWire) -> StreamPolicy:
    rekey_ratio, max_chain = wire
    return StreamPolicy(
        rekey_ratio=float(rekey_ratio), max_chain=int(max_chain)
    )
