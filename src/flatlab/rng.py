"""Deterministic random streams.

Everything random in this package flows through :class:`SeededRng`, a thin
handle over numpy's counter-based Philox generator, whose key names the
stream (Salmon et al., SC 2011): the key is ``[seed, stream_id]``, the seed
an int64 taken as its 64-bit two's complement. Library code names each
stream by purpose and index with :meth:`SeededRng.of`, ``stream_id = tag <<
56 | index``, the tag 1 to 7 fixed by :data:`PURPOSES` and the index in
[0, 2**56); a caller's own ``SeededRng(seed, stream_id)`` takes an id below
2**56, tag 0. No two streams can collide: the seed fills one key word and
the tag and index disjoint bits of the other, so equal keys mean equal
(seed, tag, index). A value out of range raises ``ValueError`` rather than
wrapping onto another stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_TAG_SHIFT = 56
#: stream purposes by tag, from 1: teacher weights and teacher inputs (per
#: attempt), SGD init, probe inputs, ascent restarts (per start), the volume
#: witness, and a check unit's own draws
PURPOSES = ("teacher", "inputs", "init", "probes", "restart", "witness", "unit")


@dataclass(frozen=True)
class SeededRng:
    """Address of a reproducible random stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not -1 << 63 <= self.seed < 1 << 63:
            raise ValueError(f"seed {self.seed} lies outside int64")
        if not 0 <= self.stream_id < (len(PURPOSES) + 1) << _TAG_SHIFT:
            raise ValueError(f"stream id {self.stream_id} has no purpose")

    @classmethod
    def of(cls, seed: int, purpose: str, index: int = 0) -> SeededRng:
        """The stream of ``purpose``'s draw number ``index`` at ``seed``."""
        if not 0 <= index < 1 << _TAG_SHIFT:
            raise ValueError(f"stream index {index} lies outside [0, 2**56)")
        return cls(seed, PURPOSES.index(purpose) + 1 << _TAG_SHIFT | index)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed & _MASK64, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))
