"""StreamingDiffService: session lifecycle, delta chains, adaptive
rekeying, wire codecs, and behaviour under faults.

The streaming tier's contract (see ``docs/API.md`` "Streaming
sessions"):

- every appended frame's delta is computed *through* the backend diff
  service, so caching and every resilience policy shape the stream;
- the client decodes by prefix XOR over the shipped deltas and must
  recover every source frame pixel-exactly — under chaos too;
- key frames are replaced adaptively from measured diff density, with
  the same decisions a literal key-frame + delta chain would make;
- concurrent frames of one session chain in ``frame_index`` order;
- unknown/closed sessions and duplicate opens are typed errors.
"""

import json
import threading
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro.rle.delta as delta_module
import repro.rle.ops2d as ops2d

from repro.errors import (
    GeometryError,
    ServiceError,
    ServiceOverloadError,
    UnknownSessionError,
)
from repro.core.options import DiffOptions
from repro.obs.log import StructuredLog
from repro.obs.metrics import MetricsRegistry
from repro.rle.delta import DeltaSequence
from repro.rle.image import RLEImage
from repro.rle.ops2d import xor_images
from repro.service import (
    ChaosEngine,
    ChaosSchedule,
    DiffService,
    ResiliencePolicy,
    ResilientDiffService,
    StreamingDiffService,
    StreamPolicy,
)
from repro.service.stream import (
    decode_frame_delta,
    decode_image,
    decode_stream_policy,
    encode_frame_delta,
    encode_image,
    encode_stream_policy,
)
from repro.workloads.motion import generate_sequence
from tests.service.test_service import FAST

OPTS = DiffOptions(engine="batched")


@pytest.fixture(scope="module")
def clip():
    return generate_sequence(height=48, width=48, n_frames=8, seed=11)


@pytest.fixture()
def backend():
    with DiffService(OPTS, **FAST) as service:
        yield service


@pytest.fixture(scope="module")
def shared_backend():
    """One backend for every hypothesis example of a test."""
    with DiffService(OPTS, **FAST) as service:
        yield service


def decode_stream(deltas):
    """Client-side reconstruction: prefix XOR over shipped deltas."""
    frames = []
    for fd in deltas:
        frames.append(
            fd.delta if not frames else xor_images(frames[-1], fd.delta)
        )
    return frames


_H, _W = 4, 20

#: One frame-sequence step: repeat the last frame, blank the scene,
#: re-send the last frame's pixels as adjacent (non-canonical) runs, or
#: cut to a new scene given as one bit word per row.
STEPS = st.lists(
    st.one_of(
        st.sampled_from(["same", "blank", "split"]),
        st.lists(st.integers(0, 2**_W - 1), min_size=_H, max_size=_H),
    ),
    min_size=1,
    max_size=12,
)

POLICIES = st.builds(
    StreamPolicy,
    rekey_ratio=st.floats(0.05, 3.0),
    max_chain=st.integers(1, 6),
)


def split_runs(image):
    """The same pixels with every run longer than 1 cut in two adjacent runs."""
    rows = []
    for row in image:
        pairs = []
        for start, length in row.to_pairs():
            if length > 1:
                pairs += [(start, 1), (start + 1, length - 1)]
            else:
                pairs.append((start, length))
        rows.append(pairs)
    return RLEImage.from_row_pairs(rows, width=image.width)


def frame_sequence(steps):
    frames = []
    for step in steps:
        if step == "blank" or (isinstance(step, str) and not frames):
            frames.append(RLEImage.blank(_H, _W))
        elif step == "same":
            frames.append(frames[-1])
        elif step == "split":
            frames.append(split_runs(frames[-1]))
        else:
            bits = [[(word >> c) & 1 for c in range(_W)] for word in step]
            frames.append(RLEImage.from_array(np.array(bits, dtype=bool)))
    return frames


class ChainModel:
    """The rekey policy over a literal :class:`DeltaSequence` chain: every
    delta stored, every rekey a fold to the tail."""

    def __init__(self, policy):
        self.policy = policy
        self.chain = None
        self.rekeys = 0
        self.runs_since_key = 0

    def append(self, frame, delta):
        """Returns ``(rekeyed, key_runs)`` for one appended frame."""
        if self.chain is None:
            self.chain = DeltaSequence([frame])
            return True, frame.total_runs
        self.chain.append_delta(delta)
        self.runs_since_key += delta.total_runs
        rekeyed = (
            self.runs_since_key
            > self.policy.rekey_ratio * self.chain.key.total_runs
            or len(self.chain) > self.policy.max_chain
        )
        if rekeyed:
            self.chain = self.chain.rekey(len(self.chain) - 1)
            self.rekeys += 1
            self.runs_since_key = 0
        return rekeyed, self.chain.key.total_runs


class SlowBackend:
    """A backend whose diffs take ``delay`` seconds, so appends to one
    session from several threads overlap."""

    def __init__(self, inner, delay=0.01):
        self.inner = inner
        self.delay = delay

    def diff_images(self, image_a, image_b, request_id=None):
        time.sleep(self.delay)
        return self.inner.diff_images(image_a, image_b, request_id=request_id)


def append_concurrently(streams, sid, frames):
    """Append each frame from its own thread, all released at once;
    returns the :class:`FrameDelta` each frame received."""
    barrier = threading.Barrier(len(frames))
    received = [None] * len(frames)
    errors = []

    def send(i):
        barrier.wait()
        try:
            received[i] = streams.append_frame(sid, frames[i])
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    threads = [
        threading.Thread(target=send, args=(i,)) for i in range(len(frames))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    return received


class TestSessionLifecycle:
    def test_open_generates_id(self, backend):
        streams = StreamingDiffService(backend)
        sid = streams.open()
        assert sid
        assert streams.session_ids() == [sid]
        assert len(streams) == 1

    def test_open_explicit_id(self, backend):
        streams = StreamingDiffService(backend)
        assert streams.open("cam-7") == "cam-7"

    def test_duplicate_open_is_typed_error(self, backend):
        streams = StreamingDiffService(backend)
        streams.open("cam-7")
        with pytest.raises(ServiceError, match="already open"):
            streams.open("cam-7")

    def test_unknown_session_append_is_typed_error(self, backend, clip):
        streams = StreamingDiffService(backend)
        with pytest.raises(UnknownSessionError, match="reopen"):
            streams.append_frame("ghost", clip[0])

    def test_close_session_returns_stats(self, backend, clip):
        streams = StreamingDiffService(backend)
        sid = streams.open()
        streams.append_frame(sid, clip[0])
        streams.append_frame(sid, clip[1])
        stats = streams.close_session(sid)
        assert stats["frames"] == 2.0
        assert len(streams) == 0
        # closed means gone: further ops are typed errors
        with pytest.raises(UnknownSessionError):
            streams.append_frame(sid, clip[2])
        with pytest.raises(UnknownSessionError):
            streams.close_session(sid)

    def test_service_close_drops_sessions(self, backend):
        streams = StreamingDiffService(backend)
        streams.open("a")
        streams.close()
        with pytest.raises(ServiceError, match="closed"):
            streams.open("b")

    def test_context_manager_does_not_close_backend(self, backend, clip):
        with StreamingDiffService(backend) as streams:
            sid = streams.open()
            streams.append_frame(sid, clip[0])
        # the backend is not owned — it still serves
        backend.diff_images(clip[0], clip[1])


class TestDeltaChain:
    def test_decode_identity(self, backend, clip):
        streams = StreamingDiffService(backend)
        sid = streams.open()
        deltas = [streams.append_frame(sid, frame) for frame in clip]
        decoded = decode_stream(deltas)
        for t, (got, want) in enumerate(zip(decoded, clip)):
            assert got.same_pixels(want), f"frame {t}"

    def test_first_frame_is_its_own_key(self, backend, clip):
        streams = StreamingDiffService(backend)
        sid = streams.open()
        fd = streams.append_frame(sid, clip[0])
        assert fd.frame_index == 0
        assert fd.rekeyed
        assert fd.delta.same_pixels(clip[0])
        assert fd.delta_runs == fd.key_runs == clip[0].total_runs

    def test_deltas_ship_fewer_runs_than_frames(self, backend, clip):
        streams = StreamingDiffService(backend)
        sid = streams.open()
        for frame in clip:
            streams.append_frame(sid, frame)
        stats = streams.session_stats(sid)
        assert stats["compression_ratio"] > 1.5
        assert stats["shipped_runs"] < stats["raw_runs"]

    @given(data=st.data())
    def test_session_matches_chain_reference_model(self, shared_backend, data):
        """The session keeps only run counts and the tail, yet folds and
        rekeys exactly as a literal key-frame + delta chain would."""
        policy = data.draw(POLICIES, label="policy")
        frames = frame_sequence(data.draw(STEPS, label="steps"))
        streams = StreamingDiffService(shared_backend, policy=policy)
        sid = streams.open()
        model = ChainModel(policy)
        deltas = []
        for frame in frames:
            fd = streams.append_frame(sid, frame)
            deltas.append(fd)
            rekeyed, key_runs = model.append(frame, fd.delta)
            assert (fd.rekeyed, fd.key_runs) == (rekeyed, key_runs)
            stats = streams.session_stats(sid)
            assert stats["rekeys"] == model.rekeys
            assert stats["chain_len"] == len(model.chain)
            assert stats["key_runs"] == key_runs
        for t, (got, want) in enumerate(zip(decode_stream(deltas), frames)):
            assert got.same_pixels(want), f"frame {t}"

    def test_shape_mismatch_is_geometry_error(self, backend, clip):
        streams = StreamingDiffService(backend)
        sid = streams.open()
        streams.append_frame(sid, clip[0])
        with pytest.raises(GeometryError):
            streams.append_frame(sid, RLEImage.blank(2, 2))

    def test_aggregate_stats_sum_sessions(self, backend, clip):
        streams = StreamingDiffService(backend)
        a, b = streams.open(), streams.open()
        for frame in clip[:3]:
            streams.append_frame(a, frame)
        for frame in clip[:2]:
            streams.append_frame(b, frame)
        totals = streams.stats()
        assert totals["sessions_open"] == 2.0
        assert totals["frames"] == 5.0


class TestAdaptiveRekey:
    def test_motion_clip_rekeys(self, backend):
        clip = generate_sequence(height=64, width=64, n_frames=12, seed=3)
        streams = StreamingDiffService(
            backend, policy=StreamPolicy(rekey_ratio=0.8)
        )
        sid = streams.open()
        rekeys = [
            streams.append_frame(sid, frame).rekeyed for frame in clip
        ]
        # frame 0 is its own key; the moving sprites must trip the
        # density threshold at least once more
        assert any(rekeys[1:])
        assert streams.session_stats(sid)["rekeys"] >= 1.0

    def test_static_scene_never_rekeys(self, backend, clip):
        streams = StreamingDiffService(backend)
        sid = streams.open()
        for _ in range(6):
            fd = streams.append_frame(sid, clip[0])
        assert not fd.rekeyed
        stats = streams.session_stats(sid)
        assert stats["rekeys"] == 0.0
        assert stats["chain_len"] == 6.0

    def test_max_chain_bounds_static_chains(self, backend, clip):
        streams = StreamingDiffService(
            backend, policy=StreamPolicy(max_chain=3)
        )
        sid = streams.open()
        for _ in range(10):
            streams.append_frame(sid, clip[0])
        stats = streams.session_stats(sid)
        assert stats["chain_len"] <= 4.0  # rekey fires when chain > max
        assert stats["rekeys"] >= 2.0

    def test_scene_cut_rekeys_immediately(self, backend):
        rng = np.random.default_rng(5)
        scene_a = RLEImage.from_array(rng.random((32, 32)) < 0.3)
        scene_b = RLEImage.from_array(rng.random((32, 32)) < 0.3)
        streams = StreamingDiffService(backend)
        sid = streams.open()
        streams.append_frame(sid, scene_a)
        fd = streams.append_frame(sid, scene_b)
        assert fd.rekeyed  # the cut's delta is as dense as a frame

    def test_decode_identity_across_rekeys(self, backend):
        clip = generate_sequence(height=64, width=64, n_frames=12, seed=3)
        streams = StreamingDiffService(
            backend, policy=StreamPolicy(rekey_ratio=0.5, max_chain=3)
        )
        sid = streams.open()
        deltas = [streams.append_frame(sid, frame) for frame in clip]
        assert sum(fd.rekeyed for fd in deltas[1:]) >= 2
        for t, (got, want) in enumerate(zip(decode_stream(deltas), clip)):
            assert got.same_pixels(want), f"frame {t}"


class TestConcurrentAppends:
    @pytest.mark.parametrize("opened", [False, True], ids=["first", "keyed"])
    def test_concurrent_frames_chain_in_index_order(self, backend, clip, opened):
        """Frames sent to one session at once each get a distinct index,
        each delta is taken against the frame one index earlier, and the
        tail is the frame with the highest index."""
        streams = StreamingDiffService(SlowBackend(backend))
        sid = streams.open()
        sent, received = [], []
        if opened:
            sent.append(clip[0])
            received.append(streams.append_frame(sid, clip[0]))
        racing = list(clip[len(sent):len(sent) + 4])
        sent += racing
        received += append_concurrently(streams, sid, racing)
        by_index = sorted(zip(received, sent), key=lambda p: p[0].frame_index)
        assert [fd.frame_index for fd, _ in by_index] == list(range(len(sent)))
        decoded = decode_stream([fd for fd, _ in by_index])
        for (fd, frame), got in zip(by_index, decoded):
            assert got.same_pixels(frame), f"frame {fd.frame_index}"
        assert streams._session(sid).tail is by_index[-1][1]
        assert streams.session_stats(sid)["frames"] == float(len(sent))

    def test_stream_layer_does_no_xor(self, backend, monkeypatch):
        """Deltas come from the backend's engines, the tail is the sent
        frame and a rekey folds nothing: the stream path calls
        ``xor_images`` zero times."""
        calls = []
        real = ops2d.xor_images

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(ops2d, "xor_images", counting)
        monkeypatch.setattr(delta_module, "xor_images", counting)
        clip = generate_sequence(height=64, width=64, n_frames=12, seed=3)
        streams = StreamingDiffService(
            backend, policy=StreamPolicy(max_chain=3)
        )
        sid = streams.open()
        deltas = [streams.append_frame(sid, frame) for frame in clip]
        assert sum(fd.rekeyed for fd in deltas[1:]) >= 2
        assert calls == []
        assert streams._session(sid).tail is clip[-1]


class TestPolicyValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rekey_ratio_must_be_positive(self, bad):
        with pytest.raises(ServiceError, match="rekey_ratio"):
            StreamPolicy(rekey_ratio=bad)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_max_chain_floor(self, bad):
        with pytest.raises(ServiceError, match="max_chain"):
            StreamPolicy(max_chain=bad)


class TestObservability:
    def test_metrics_families(self, backend, clip):
        registry = MetricsRegistry()
        streams = StreamingDiffService(backend, metrics=registry)
        sid = streams.open()
        for frame in clip:
            streams.append_frame(sid, frame)
        streams.close_session(sid)
        snap = registry.snapshot()
        assert snap.counter_total("repro_stream_sessions_opened_total") == 1.0
        assert snap.counter_total("repro_stream_sessions_closed_total") == 1.0
        assert snap.counter_total("repro_stream_frames_total") == float(
            len(clip)
        )
        raw = snap.counter_total("repro_stream_raw_runs_total")
        shipped = snap.counter_total("repro_stream_shipped_runs_total")
        assert raw == float(sum(f.total_runs for f in clip))
        assert 0.0 < shipped < raw

    def test_open_gauge_tracks_sessions(self, backend):
        registry = MetricsRegistry()
        streams = StreamingDiffService(backend, metrics=registry)
        a = streams.open()
        streams.open()

        def gauge():
            for family in registry.snapshot().families:
                if family.name == "repro_stream_sessions_open":
                    assert family.kind == "gauge"
                    return sum(s.value for s in family.series)
            return 0.0

        assert gauge() == 2.0
        streams.close_session(a)
        assert gauge() == 1.0
        streams.close()
        assert gauge() == 0.0

    def test_lifecycle_log_events(self, backend):
        clip = generate_sequence(height=64, width=64, n_frames=10, seed=3)
        log = StructuredLog()
        streams = StreamingDiffService(
            backend, policy=StreamPolicy(rekey_ratio=0.8), log=log
        )
        sid = streams.open()
        for frame in clip:
            streams.append_frame(sid, frame)
        streams.close_session(sid)
        events = [r["event"] for r in log.records()]
        assert "stream_opened" in events
        assert "stream_rekey" in events
        assert "stream_closed" in events
        # every stream event is keyed by the session id
        for record in log.records():
            if record["event"].startswith("stream_"):
                assert record["request_id"] == sid


class TestUnderFaults:
    def test_breaker_open_sheds_stream_frame(self, clip):
        """With the backend's breaker open, an uncached ``stream_frame``
        is shed with the same typed ``ServiceOverloadError`` as any
        other op — the streaming layer adds no bypass."""
        chaos = ChaosEngine(
            ChaosSchedule(["error"] * 64, cycle=True), sleep=lambda _s: None
        )
        policy = ResiliencePolicy(
            max_retries=0,
            breaker_window=4,
            breaker_min_requests=2,
            breaker_failure_threshold=0.5,
            breaker_reset_timeout=60.0,
            jitter=0.0,
        )
        with ResilientDiffService(
            OPTS.replace(resilience=policy), compute=chaos, **FAST
        ) as backend:
            # trip the breaker with failing one-shot requests
            for _ in range(4):
                with pytest.raises(Exception):
                    backend.diff_images(clip[0], clip[1])
            streams = StreamingDiffService(backend)
            sid = streams.open()
            streams.append_frame(sid, clip[0])  # key frame: no diff needed
            with pytest.raises(ServiceOverloadError):
                streams.append_frame(sid, clip[1])

    def test_chaos_retries_keep_stream_byte_identical(self, clip):
        """Transient injected faults are retried away by the resilient
        backend; the decoded stream stays pixel-identical."""
        # every other backend call fails once, then succeeds on retry
        schedule = ChaosSchedule(["error", None] * 32, cycle=True)
        chaos = ChaosEngine(schedule, sleep=lambda _s: None)
        policy = ResiliencePolicy(
            max_retries=3, backoff_base=0.0, jitter=0.0, breaker_window=0
        )
        with ResilientDiffService(
            OPTS.replace(resilience=policy), compute=chaos, **FAST
        ) as backend:
            streams = StreamingDiffService(backend)
            sid = streams.open()
            deltas = [streams.append_frame(sid, frame) for frame in clip]
        for t, (got, want) in enumerate(zip(decode_stream(deltas), clip)):
            assert got.same_pixels(want), f"frame {t}"


class TestWireCodecs:
    def test_image_round_trip_through_json(self, clip):
        wire = json.loads(json.dumps(encode_image(clip[0])))
        assert decode_image(wire).same_pixels(clip[0])

    def test_frame_delta_round_trip(self, backend, clip):
        streams = StreamingDiffService(backend)
        sid = streams.open()
        streams.append_frame(sid, clip[0])
        fd = streams.append_frame(sid, clip[1])
        wire = json.loads(json.dumps(encode_frame_delta(fd)))
        back = decode_frame_delta(wire)
        assert back.frame_index == fd.frame_index
        assert back.rekeyed == fd.rekeyed
        assert back.delta_runs == fd.delta_runs
        assert back.key_runs == fd.key_runs
        assert back.delta.same_pixels(fd.delta)

    def test_policy_round_trip(self):
        policy = StreamPolicy(rekey_ratio=0.75, max_chain=12)
        wire = json.loads(json.dumps(encode_stream_policy(policy)))
        assert decode_stream_policy(wire) == policy
