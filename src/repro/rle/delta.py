"""Temporal delta coding of binary image sequences.

The motion-detection application compares consecutive frames; the same
XOR that *detects* motion also *compresses* it: storing frame ``t`` as
``frame(t-1) XOR delta(t)`` keeps only the changed pixels, and the
deltas of a surveillance clip are tiny (a moving silhouette's leading
and trailing edges).  Decoding is XOR-folding — associativity (the
paper's Theorem 3 argument) makes random access a prefix XOR.

:class:`DeltaSequence` stores a key frame plus per-frame delta images,
entirely in RLE, with size accounting so the compression win is
measurable.  It is the library form of a recording, for callers that
want random access into one; the streaming tier
(:mod:`repro.service.stream`) keeps no chain server-side — a session
holds only its tail frame and run counters, and clients decode by
folding the deltas they were sent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.errors import GeometryError
from repro.rle.image import RLEImage
from repro.rle.ops2d import xor_images

__all__ = ["DeltaSequence"]


@dataclass(frozen=True)
class _Stats:
    """Run-count accounting for one encoded sequence."""

    raw_runs: int
    key_runs: int
    delta_runs: int

    @property
    def encoded_runs(self) -> int:
        return self.key_runs + self.delta_runs

    @property
    def compression_ratio(self) -> float:
        """raw / encoded run counts (> 1 means the deltas win)."""
        if self.encoded_runs == 0:
            return 1.0
        return self.raw_runs / self.encoded_runs


class DeltaSequence:
    """A frame sequence stored as key frame + XOR deltas.

    Parameters
    ----------
    frames:
        The original frames, all the same shape.  At least one.
    """

    def __init__(self, frames: Sequence[RLEImage]) -> None:
        frames = list(frames)
        if not frames:
            raise GeometryError("a sequence needs at least one frame")
        shapes = {f.shape for f in frames}
        if len(shapes) != 1:
            raise GeometryError(f"frames have mixed shapes: {sorted(shapes)}")
        self.key: RLEImage = frames[0]
        #: ``deltas[t]`` = ``frames[t] XOR frames[t+1]``.
        self.deltas: List[RLEImage] = [
            xor_images(a, b) for a, b in zip(frames, frames[1:])
        ]
        self._raw_runs = sum(f.total_runs for f in frames)
        # The decoded tail frame, cached so append is one XOR instead of
        # a prefix fold over the whole chain (O(t) appends would make
        # building a t-frame recording quadratic in its length).
        self._tail: RLEImage = frames[-1]

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.deltas) + 1

    @property
    def shape(self):
        return self.key.shape

    def frame(self, t: int) -> RLEImage:
        """Reconstruct frame ``t`` (prefix-XOR of the deltas).

        O(t) XORs from the key frame (the tail frame is served from the
        append cache in O(1)); a production store keeps periodic key
        frames to bound this — see :meth:`rekey`.
        """
        if not (0 <= t < len(self)):
            raise IndexError(f"frame {t} out of range [0, {len(self)})")
        if t == len(self) - 1:
            return self._tail
        out = self.key
        for delta in self.deltas[:t]:
            out = xor_images(out, delta)
        return out

    def __iter__(self) -> Iterator[RLEImage]:
        out = self.key
        yield out
        for delta in self.deltas:
            out = xor_images(out, delta)
            yield out

    def delta(self, t: int) -> RLEImage:
        """The stored delta between frames ``t`` and ``t+1``."""
        return self.deltas[t]

    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> _Stats:
        return _Stats(
            raw_runs=self._raw_runs,
            key_runs=self.key.total_runs,
            delta_runs=sum(d.total_runs for d in self.deltas),
        )

    def rekey(self, t: int) -> "DeltaSequence":
        """A new sequence whose key frame is frame ``t`` and which keeps
        only the frames from ``t`` on — the periodic-keyframe operation.

        ``t`` is validated like :meth:`frame` (negative or past-the-end
        indices raise ``IndexError`` instead of silently wrapping the
        way a raw slice would).  ``rekey(0)`` returns an equivalent
        sequence and ``rekey(len(self) - 1)`` returns a single-frame
        sequence keyed on the tail; both remain append-safe — the
        prefix-XOR decode identity of every retained frame is preserved
        (pinned by the regression tests in ``tests/rle/test_delta.py``).
        """
        if not (0 <= t < len(self)):
            raise IndexError(f"rekey frame {t} out of range [0, {len(self)})")
        frames = list(self)[t:]
        return DeltaSequence(frames)

    def append(self, frame: RLEImage) -> None:
        """Extend the sequence by one frame (stores only its delta)."""
        if frame.shape != self.shape:
            raise GeometryError(
                f"frame shape {frame.shape} != sequence shape {self.shape}"
            )
        self.deltas.append(xor_images(self._tail, frame))
        self._tail = frame
        self._raw_runs += frame.total_runs

    def append_delta(self, delta: RLEImage) -> RLEImage:
        """Extend the sequence by one *already-computed* delta.

        For a caller that computed the delta elsewhere (for instance
        the deltas a stream session shipped, or a diff through the
        cached service layer); this appends it without re-diffing.
        Returns the decoded new tail frame (``previous tail XOR
        delta``).
        """
        if delta.shape != self.shape:
            raise GeometryError(
                f"delta shape {delta.shape} != sequence shape {self.shape}"
            )
        tail = xor_images(self._tail, delta)
        self.deltas.append(delta)
        self._tail = tail
        self._raw_runs += tail.total_runs
        return tail
