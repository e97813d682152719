"""Experience replay with episode-aware sequential sampling.

The buffer is a FIFO ring of at most ``capacity`` transitions stored in
insertion order.  Feedforward training samples uniformly without
replacement; the recurrent variant samples contiguous segments that never
straddle an episode boundary.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass
class Transition:
    frame: np.ndarray
    raster: np.ndarray
    action: int
    reward: float
    next_frame: np.ndarray
    #: ``learning.frame_digest(next_frame)``, the key of its trunk rows
    next_digest: bytes
    next_raster: np.ndarray
    terminal: bool
    valid_next: np.ndarray
    episode_id: int = 0


class ReplayBuffer:
    def __init__(self, capacity: int = 800):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: deque[Transition] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._items)

    def push(self, transition: Transition) -> None:
        self._items.append(transition)

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        """Uniform sample without replacement; requires a full batch."""
        if len(self._items) < batch_size:
            raise ValueError(f"buffer holds {len(self._items)} < batch {batch_size}")
        idx = rng.choice(len(self._items), size=batch_size, replace=False)
        return [self._items[int(i)] for i in idx]

    def sequence_starts(self, length: int) -> list[int]:
        """Start indices of every in-buffer segment of ``length`` consecutive
        transitions from a single episode.

        Episodes are pushed in order, so a segment stays within one episode
        exactly when its two endpoints share an episode id.
        """
        items = self._items
        n = len(items)
        return [
            s
            for s in range(n - length + 1)
            if items[s].episode_id == items[s + length - 1].episode_id
        ]

    def sample_sequences(
        self, count: int, length: int, rng: np.random.Generator
    ) -> list[list[Transition]] | None:
        """``count`` random segments of ``length`` transitions, or None if the
        buffer holds no complete segment yet.  Segments may repeat."""
        starts = self.sequence_starts(length)
        if not starts:
            return None
        chosen = rng.choice(len(starts), size=count, replace=True)
        return [
            [self._items[starts[int(c)] + o] for o in range(length)] for c in chosen
        ]
