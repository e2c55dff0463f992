"""Deterministic random streams.

Everything random in this package flows through :class:`SeededRng`, a thin
handle over numpy's counter-based Philox generator. A stream is addressed
by ``(seed, stream_id)``; the same address yields the same sequence on
every platform, and distinct stream ids give statistically independent
sequences. Each work unit gets its own stream id, so a unit's draws do
not depend on which units ran before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SeededRng:
    """Address of a reproducible random stream."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))
