"""The agent's state record, and experience replay with episode-aware sampling.

A :class:`State` is one observation, taken once by :meth:`State.observe`.
A :class:`Transition` is (state, action, reward, next state); its next
state is the object the following decision reads, or, when the action was
voided, its own state.

The buffer is a FIFO ring of at most ``capacity`` transitions stored in
insertion order.  Feedforward training samples uniformly without
replacement; the recurrent variant samples contiguous segments that never
straddle an episode boundary.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import NamedTuple

import numpy as np

from ..mapping import GridCoord, LocalMap, render_decision_map, valid_action_mask


def frame_digest(frame: np.ndarray) -> bytes:
    """SHA-256 of the frame's bytes: the key of its image-trunk rows, which
    are a pure function of the frame and the weights."""
    return hashlib.sha256(np.ascontiguousarray(frame)).digest()


class State(NamedTuple):
    """The agent between two decisions: its decision map and view."""

    local: LocalMap
    frame: np.ndarray
    digest: bytes  # frame_digest(frame)
    raster: np.ndarray  # render_decision_map(local)
    valid: np.ndarray  # valid_action_mask(local)

    @classmethod
    def observe(cls, local: LocalMap, frame: np.ndarray) -> State:
        """The state whose map is ``local`` and whose view is ``frame``."""
        return cls(local, frame, frame_digest(frame), render_decision_map(local),
                   valid_action_mask(local))

    @property
    def agent(self) -> GridCoord:
        return self.local.agent_global

    @property
    def at_target(self) -> bool:
        """Terminal.  A goal inside the map's window is always its target
        cell, so this also covers reaching the goal."""
        return self.local.agent_local == self.local.target_cell


class Transition(NamedTuple):
    state: State
    action: int
    reward: float
    next: State
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
