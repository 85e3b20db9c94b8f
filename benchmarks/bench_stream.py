"""A9 — streaming frame-delta sessions: bytes-on-wire vs per-frame
diffs on the motion workload.

The streaming tier exists to stop re-shipping whole frames: a
``stream_frame`` request carries one new frame up and one (usually
tiny) XOR delta down, while the per-frame ``diff_rows`` baseline ships
*both* frames of every consecutive pair up and the full row results
back.  On the motion workload — static clutter plus a couple of moving
sprites — consecutive frames are nearly identical, so the delta is a
handful of runs and the wire advantage compounds every frame.

This bench measures exactly that, using the real line-JSON protocol
encodings (``encode_image`` / ``encode_frame_delta`` /
``encode_row`` / ``encode_result``, plus the ``"v"`` version field), so
the byte counts are what a TCP client would actually put on the socket:

- **bytes advantage** (gated, >= 1.5x): baseline bytes per frame over
  streaming bytes per frame, requests and responses both counted.
- **decode identity** (gated): frames reconstructed client-side by
  prefix-XOR over the wire-round-tripped deltas must be pixel-identical
  to the source clip.
- **adaptive rekey** (gated): the motion clip must trigger at least one
  density-driven keyframe rekey.
- **wall-clock** (reported, not gated): streaming does the same diff
  as the baseline plus O(1) session bookkeeping (a few counters; the
  sent frame becomes the tail as-is), so its win is wire bytes, not
  local CPU; the timing numbers are recorded so the trend gate catches
  pathological slowdowns.

Outputs ``results/stream.txt`` and ``results/stream.json`` (diffed by
``make bench-trend``).  Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks
the clip and skips timing/artifacts but keeps every gate — CI runs it
on every push (``make stream-smoke``).
"""

import json
import os
import time

import pytest

from repro.core.options import DiffOptions
from repro.core.pipeline import diff_images
from repro.obs.context import new_request_id
from repro.rle.ops2d import xor_images
from repro.service import DiffService, StreamingDiffService, StreamPolicy
from repro.service.frontend import PROTOCOL_VERSION
from repro.service.shard import encode_result, encode_row
from repro.service.stream import (
    decode_frame_delta,
    encode_frame_delta,
    encode_image,
)
from repro.workloads.motion import generate_sequence

from conftest import write_artifact, write_json_artifact

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

FRAME_SIZE = 48 if SMOKE else 128
N_FRAMES = 10 if SMOKE else 24
SEED = 2024

#: The PR's acceptance floor: streaming must ship at least 1.5x fewer
#: bytes per frame than the per-frame diff baseline on this workload.
BYTES_ADVANTAGE_FLOOR = 1.5

#: Slightly eager rekeying (the ``make stream-smoke`` setting) so even
#: the smoke-sized clip exercises the adaptive keyframe path.
POLICY = StreamPolicy(rekey_ratio=0.8)

OPTIONS = DiffOptions(engine="batched")


@pytest.fixture(scope="module")
def clip():
    return generate_sequence(
        height=FRAME_SIZE, width=FRAME_SIZE, n_frames=N_FRAMES, seed=SEED
    )


def _line_bytes(payload):
    """Exact line-JSON wire cost: the encoded object plus the newline."""
    return len(json.dumps(payload).encode("utf-8")) + 1


def stream_clip(clip):
    """Stream the clip through an in-process session and account every
    request/response at real protocol encoding.

    Returns ``(deltas, session_stats, wire_bytes, seconds)`` where
    ``deltas`` are the wire-round-tripped :class:`FrameDelta` objects —
    decoded from the same JSON the TCP client would receive, so the
    identity gate proves the codec, not just the in-process objects.
    """
    wire_bytes = 0
    deltas = []
    with DiffService(OPTIONS, max_latency=0.0) as backend:
        streams = StreamingDiffService(backend, policy=POLICY)
        sid = streams.open()
        t0 = time.perf_counter()
        for frame in clip:
            fd = streams.append_frame(sid, frame)
            wire_bytes += _line_bytes(
                {
                    "op": "stream_frame",
                    "session_id": sid,
                    "frame": encode_image(frame),
                    "v": PROTOCOL_VERSION,
                }
            )
            reply = {
                "ok": True,
                "session_id": sid,
                "request_id": new_request_id(),
                "delta": encode_frame_delta(fd),
                "v": PROTOCOL_VERSION,
            }
            wire_bytes += _line_bytes(reply)
            deltas.append(
                decode_frame_delta(json.loads(json.dumps(reply))["delta"])
            )
        seconds = time.perf_counter() - t0
        stats = streams.close_session(sid)
    return deltas, stats, wire_bytes, seconds


def baseline_clip(clip):
    """Per-frame ``diff_rows`` over consecutive pairs: both frames ship
    up, the full row results ship back, nothing is resident server-side.

    Returns ``(wire_bytes, seconds)``.
    """
    wire_bytes = 0
    t0 = time.perf_counter()
    for a, b in zip(clip, clip[1:]):
        result = diff_images(a, b, options=OPTIONS)
        wire_bytes += _line_bytes(
            {
                "op": "diff_rows",
                "rows_a": [encode_row(r) for r in a],
                "rows_b": [encode_row(r) for r in b],
                "v": PROTOCOL_VERSION,
            }
        )
        wire_bytes += _line_bytes(
            {
                "ok": True,
                "request_id": new_request_id(),
                "results": [encode_result(r) for r in result.row_results],
                "v": PROTOCOL_VERSION,
            }
        )
    seconds = time.perf_counter() - t0
    return wire_bytes, seconds


def decode_frames(deltas):
    """Client-side prefix-XOR reconstruction from shipped deltas."""
    frames = []
    for fd in deltas:
        frames.append(
            fd.delta if not frames else xor_images(frames[-1], fd.delta)
        )
    return frames


def run_stream_bench(clip):
    deltas, stats, stream_bytes, stream_seconds = stream_clip(clip)
    baseline_bytes, baseline_seconds = baseline_clip(clip)
    # per-frame: streaming serves every frame; the pairwise baseline
    # serves n-1 pairs for the same clip
    stream_per_frame = stream_bytes / len(clip)
    baseline_per_frame = baseline_bytes / (len(clip) - 1)
    advantage = baseline_per_frame / stream_per_frame
    return {
        "deltas": deltas,
        "stats": stats,
        "payload": {
            "workload": {
                "frame_size": FRAME_SIZE,
                "n_frames": N_FRAMES,
                "seed": SEED,
                "rekey_ratio": POLICY.rekey_ratio,
                "max_chain": POLICY.max_chain,
            },
            "wire": {
                "baseline_bytes_total": baseline_bytes,
                "stream_bytes_total": stream_bytes,
                "baseline_bytes_per_frame": baseline_per_frame,
                "stream_bytes_per_frame": stream_per_frame,
                "bytes_advantage": advantage,
            },
            "stream": {
                "frames": stats["frames"],
                "rekeys": stats["rekeys"],
                "compression_ratio": stats["compression_ratio"],
                "raw_runs": stats["raw_runs"],
                "shipped_runs": stats["shipped_runs"],
            },
            "timing": {
                "baseline_seconds": baseline_seconds,
                "stream_seconds": stream_seconds,
                "baseline_frames_per_second": (len(clip) - 1)
                / baseline_seconds,
                "stream_frames_per_second": len(clip) / stream_seconds,
            },
            "bytes_advantage_floor": BYTES_ADVANTAGE_FLOOR,
        },
    }


class TestStreamGates:
    """Correctness + wire-advantage gates — run in smoke mode too."""

    @pytest.fixture(scope="class")
    def bench(self, clip):
        return run_stream_bench(clip)

    def test_bytes_advantage_floor(self, bench):
        """Streaming must ship >= 1.5x fewer bytes per frame than the
        per-frame diff baseline — its reason to exist."""
        wire = bench["payload"]["wire"]
        assert wire["bytes_advantage"] >= BYTES_ADVANTAGE_FLOOR, (
            f"bytes advantage {wire['bytes_advantage']:.2f}x below the "
            f"{BYTES_ADVANTAGE_FLOOR}x floor "
            f"(baseline {wire['baseline_bytes_per_frame']:,.0f} B/frame, "
            f"stream {wire['stream_bytes_per_frame']:,.0f} B/frame)"
        )

    def test_decoded_frames_identical(self, bench, clip):
        """Prefix-XOR over the wire-round-tripped deltas reconstructs
        every source frame exactly."""
        decoded = decode_frames(bench["deltas"])
        assert len(decoded) == len(clip)
        for t, (got, want) in enumerate(zip(decoded, clip)):
            assert got.same_pixels(want), f"frame {t} decoded differently"

    def test_adaptive_rekey_fires(self, bench):
        """The moving sprites must push the measured delta density past
        the policy threshold at least once."""
        assert bench["stats"]["rekeys"] >= 1, (
            "no adaptive keyframe rekey on the motion clip"
        )


@pytest.mark.skipif(SMOKE, reason="timing/artifacts skipped in smoke mode")
class TestStreamArtifact:
    def test_artifact(self, clip, results_dir):
        bench = run_stream_bench(clip)
        payload = bench["payload"]
        write_json_artifact(results_dir, "stream.json", payload)

        wire = payload["wire"]
        stream = payload["stream"]
        timing = payload["timing"]
        lines = [
            "Streaming frame-delta sessions vs per-frame diffs "
            "(motion workload)",
            f"  {N_FRAMES} frames, {FRAME_SIZE}x{FRAME_SIZE}, "
            f"rekey_ratio {POLICY.rekey_ratio}",
            f"  baseline wire   : {wire['baseline_bytes_total']:,} B "
            f"({wire['baseline_bytes_per_frame']:,.0f} B/frame)",
            f"  streaming wire  : {wire['stream_bytes_total']:,} B "
            f"({wire['stream_bytes_per_frame']:,.0f} B/frame)",
            f"  bytes advantage : {wire['bytes_advantage']:.2f}x "
            f"(floor {BYTES_ADVANTAGE_FLOOR}x)",
            f"  delta chain     : {stream['rekeys']:.0f} rekeys, "
            f"compression {stream['compression_ratio']:.2f}x "
            f"({stream['shipped_runs']:.0f}/{stream['raw_runs']:.0f} runs)",
            f"  baseline timing : {timing['baseline_seconds']:.3f}s "
            f"({timing['baseline_frames_per_second']:,.0f} frames/s)",
            f"  streaming timing: {timing['stream_seconds']:.3f}s "
            f"({timing['stream_frames_per_second']:,.0f} frames/s)",
        ]
        write_artifact(results_dir, "stream.txt", "\n".join(lines))

        assert wire["bytes_advantage"] >= BYTES_ADVANTAGE_FLOOR
