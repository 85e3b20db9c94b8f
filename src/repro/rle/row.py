""":class:`RLERow` — one run-length-encoded image row.

A row is an ordered sequence of :class:`~repro.rle.run.Run` objects whose
starts are strictly increasing and whose intervals never overlap (the
paper's structural requirement: "Each array of tuples must use a strictly
increasing sequence of first elements ... none of the intervals ... may
overlap").  Adjacent runs *are* permitted — such a row is valid but not
*canonical*; :meth:`RLERow.canonical` merges them.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union, overload

import numpy as np

from repro._typing import BitArray, RunsLike
from repro.errors import GeometryError
from repro.rle.run import Run
from repro.rle.validate import validate_runs as _validate_structure

__all__ = ["RLERow"]


def _coerce_runs(runs: Iterable[Union[Run, Tuple[int, int]]]) -> Tuple[Run, ...]:
    out: List[Run] = []
    for item in runs:
        if isinstance(item, Run):
            out.append(item)
        else:
            start, length = item
            out.append(Run(int(start), int(length)))
    return tuple(out)


class RLERow:
    """An immutable, validated run-length-encoded binary row.

    Parameters
    ----------
    runs:
        Runs in increasing-``start`` order, either :class:`Run` objects or
        ``(start, length)`` pairs as the paper writes them.
    width:
        Optional row width ``b``.  When given, every run must fit inside
        ``[0, width)`` and width-aware operations (complement, density,
        bitmap conversion) need no explicit width argument.
    """

    __slots__ = ("_runs", "_width", "_packed")

    def __init__(
        self,
        runs: Iterable[Union[Run, Tuple[int, int]]] = (),
        width: Optional[int] = None,
    ) -> None:
        coerced = _coerce_runs(runs)
        _validate_structure(coerced)
        if width is not None:
            if width < 0:
                raise GeometryError(f"width must be >= 0, got {width}")
            if coerced and coerced[-1].end >= width:
                raise GeometryError(
                    f"run {coerced[-1].as_tuple()} does not fit in width {width}"
                )
        self._runs = coerced
        self._width = width
        self._packed: Optional[bytes] = None

    # ------------------------------------------------------------------ #
    # Constructors                                                       #
    # ------------------------------------------------------------------ #
    @classmethod
    def from_pairs(cls, pairs: RunsLike, width: Optional[int] = None) -> "RLERow":
        """Build from ``(start, length)`` pairs (the paper's notation)."""
        return cls(pairs, width=width)

    @classmethod
    def from_endpoints(
        cls, endpoints: Sequence[Tuple[int, int]], width: Optional[int] = None
    ) -> "RLERow":
        """Build from inclusive ``(start, end)`` interval pairs."""
        return cls((Run.from_endpoints(s, e) for s, e in endpoints), width=width)

    @classmethod
    def from_bits(cls, bits: Union[BitArray, Sequence[int], str]) -> "RLERow":
        """Encode a 0/1 pixel row.  ``bits`` may be an array, list or
        string like ``"0011100"``.  The resulting row is canonical and its
        width is the length of the input."""
        from repro.rle.bitmap import bits_to_runs  # local import: avoid cycle

        if isinstance(bits, str):
            arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) == ord("1")
        else:
            arr = np.asarray(bits, dtype=bool)
        if arr.ndim != 1:
            raise GeometryError(f"expected a 1-D row, got shape {arr.shape}")
        return cls(bits_to_runs(arr), width=int(arr.size))

    @classmethod
    def empty(cls, width: Optional[int] = None) -> "RLERow":
        """A row with no foreground pixels."""
        return cls((), width=width)

    @classmethod
    def full(cls, width: int) -> "RLERow":
        """A row that is entirely foreground."""
        if width == 0:
            return cls((), width=0)
        return cls([Run(0, width)], width=width)

    # ------------------------------------------------------------------ #
    # Basic protocol                                                     #
    # ------------------------------------------------------------------ #
    @property
    def runs(self) -> Tuple[Run, ...]:
        return self._runs

    @property
    def width(self) -> Optional[int]:
        return self._width

    @property
    def packed(self) -> bytes:
        """The row as little-endian int64
        ``[width or -1, start0, length0, start1, length1, ...]``.

        Two rows pack equal iff they are structurally identical (same
        runs, same declared width — ``None`` is distinguished from every
        concrete width); :mod:`repro.service.cache` keys, compares and
        stores rows by these bytes.  Packed in O(k) on first use and
        kept on the row (rows are immutable), so every later read is an
        attribute read.
        """
        try:
            packed = self._packed
        except AttributeError:  # a row built without __init__
            packed = None
        if packed is None:
            flat = [-1 if self._width is None else self._width]
            for run in self._runs:
                flat.append(run.start)
                flat.append(run.length)
            packed = struct.pack(f"<{len(flat)}q", *flat)
            self._packed = packed
        return packed

    @property
    def run_count(self) -> int:
        """``k`` — the number of runs, the paper's complexity parameter."""
        return len(self._runs)

    @property
    def pixel_count(self) -> int:
        """Total number of foreground pixels."""
        return sum(r.length for r in self._runs)

    @property
    def extent(self) -> int:
        """One past the last foreground pixel (0 for an empty row)."""
        return self._runs[-1].stop if self._runs else 0

    def __len__(self) -> int:
        return len(self._runs)

    def __iter__(self) -> Iterator[Run]:
        return iter(self._runs)

    def __bool__(self) -> bool:
        return bool(self._runs)

    @overload
    def __getitem__(self, index: int) -> Run: ...

    @overload
    def __getitem__(self, index: slice) -> "RLERow": ...

    def __getitem__(self, index: Union[int, slice]) -> Union[Run, "RLERow"]:
        if isinstance(index, slice):
            return RLERow(self._runs[index], width=self._width)
        return self._runs[index]

    def __eq__(self, other: object) -> bool:
        """Structural equality: same run list (widths are not compared).

        Two rows covering the same pixels through different run splits are
        *not* structurally equal; use :meth:`same_pixels` for semantic
        comparison.
        """
        if not isinstance(other, RLERow):
            return NotImplemented
        return self._runs == other._runs

    def __hash__(self) -> int:
        return hash(self._runs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = " ".join(str(r) for r in self._runs)
        suffix = f", width={self._width}" if self._width is not None else ""
        return f"RLERow([{body}]{suffix})"

    # ------------------------------------------------------------------ #
    # Semantics                                                          #
    # ------------------------------------------------------------------ #
    def is_canonical(self) -> bool:
        """True when no two consecutive runs are adjacent (fully compressed)."""
        return all(
            a.end + 1 < b.start for a, b in zip(self._runs, self._runs[1:])
        )

    def canonical(self) -> "RLERow":
        """The fully-compressed equivalent row (adjacent runs merged)."""
        if self.is_canonical():
            return self
        merged: List[Run] = []
        for run in self._runs:
            if merged and merged[-1].end + 1 >= run.start:
                merged[-1] = merged[-1].merge(run)
            else:
                merged.append(run)
        return RLERow(merged, width=self._width)

    def same_pixels(self, other: "RLERow") -> bool:
        """True if both rows cover exactly the same foreground pixels."""
        return self.canonical().runs == other.canonical().runs

    def get(self, index: int) -> bool:
        """Value of pixel ``index`` (binary-search lookup, O(log k))."""
        runs = self._runs
        lo, hi = 0, len(runs) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            run = runs[mid]
            if index < run.start:
                hi = mid - 1
            elif index > run.end:
                lo = mid + 1
            else:
                return True
        return False

    def to_bits(self, width: Optional[int] = None) -> BitArray:
        """Decode to a boolean pixel array of the given (or stored) width."""
        from repro.rle.bitmap import runs_to_bits

        w = width if width is not None else self._width
        if w is None:
            w = self.extent
        return runs_to_bits(self._runs, w)

    def to_pairs(self) -> List[Tuple[int, int]]:
        """The run list as ``(start, length)`` tuples."""
        return [r.as_tuple() for r in self._runs]

    def to_endpoints(self) -> List[Tuple[int, int]]:
        """The run list as inclusive ``(start, end)`` tuples."""
        return [r.as_endpoints() for r in self._runs]

    # ------------------------------------------------------------------ #
    # Set-algebra operators (delegate to repro.rle.ops)                  #
    # ------------------------------------------------------------------ #
    def __xor__(self, other: "RLERow") -> "RLERow":
        from repro.rle.ops import xor_rows

        return xor_rows(self, other)

    def __and__(self, other: "RLERow") -> "RLERow":
        from repro.rle.ops import and_rows

        return and_rows(self, other)

    def __or__(self, other: "RLERow") -> "RLERow":
        from repro.rle.ops import or_rows

        return or_rows(self, other)

    def __sub__(self, other: "RLERow") -> "RLERow":
        """Set difference: pixels in ``self`` but not in ``other``."""
        from repro.rle.ops import sub_rows

        return sub_rows(self, other)

    def __invert__(self) -> "RLERow":
        """Complement within the row's width (which must be set)."""
        from repro.rle.ops import complement_row

        return complement_row(self)

    # ------------------------------------------------------------------ #
    # Derived rows                                                       #
    # ------------------------------------------------------------------ #
    def with_width(self, width: Optional[int]) -> "RLERow":
        """The same runs with a different declared width."""
        return RLERow(self._runs, width=width)

    def density(self, width: Optional[int] = None) -> float:
        """Fraction of foreground pixels (0.0 for a zero-width row)."""
        w = width if width is not None else self._width
        if w is None:
            w = self.extent
        if w == 0:
            return 0.0
        return self.pixel_count / w
