import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridnav.agent.replay import ReplayBuffer, State, Transition, frame_digest


def make_transition(tag: int, episode: int) -> Transition:
    frame = np.full((2, 2), float(tag), dtype=np.float32)
    state = State(local=None, frame=frame, digest=frame_digest(frame),
                  raster=np.full(4, float(tag), dtype=np.float32), valid=np.ones(4, dtype=bool))
    return Transition(state, action=tag % 4, reward=-0.04, next=state, episode_id=episode)


def test_capacity_default_and_fifo_eviction():
    buf = ReplayBuffer()
    assert buf.capacity == 800
    for i in range(801):
        buf.push(make_transition(i, episode=i // 100))
    assert len(buf) == 800
    # the very first transition is gone and order is preserved
    assert buf._items[0].state.frame[0, 0] == 1.0
    assert buf._items[799].state.frame[0, 0] == 800.0
    assert all(buf._items[i].state.frame[0, 0] == float(i + 1) for i in range(0, 800, 97))


def test_sample_without_replacement():
    buf = ReplayBuffer(capacity=50)
    for i in range(50):
        buf.push(make_transition(i, episode=0))
    rng = np.random.default_rng(0)
    batch = buf.sample(32, rng)
    tags = [int(t.state.frame[0, 0]) for t in batch]
    assert len(tags) == len(set(tags)) == 32


def test_sample_requires_full_batch():
    buf = ReplayBuffer(capacity=50)
    for i in range(31):
        buf.push(make_transition(i, episode=0))
    with pytest.raises(ValueError):
        buf.sample(32, np.random.default_rng(0))


def test_sequence_starts_respect_episode_boundaries():
    buf = ReplayBuffer(capacity=20)
    for i in range(6):
        buf.push(make_transition(i, episode=1))
    for i in range(6, 10):
        buf.push(make_transition(i, episode=2))
    starts = buf.sequence_starts(4)
    # episode 1 occupies 0..5, episode 2 occupies 6..9
    assert starts == [0, 1, 2, 6]


def test_sampled_sequences_are_contiguous_single_episode_runs():
    buf = ReplayBuffer(capacity=64)
    for episode in range(4):
        for i in range(np.random.default_rng(episode).integers(5, 12)):
            buf.push(make_transition(episode * 100 + i, episode=episode))
    rng = np.random.default_rng(1)
    sequences = buf.sample_sequences(8, 5, rng)
    assert sequences is not None
    for seq in sequences:
        assert len(seq) == 5
        episodes = {t.episode_id for t in seq}
        assert len(episodes) == 1
        tags = [int(t.state.frame[0, 0]) for t in seq]
        assert tags == list(range(tags[0], tags[0] + 5))


def test_no_complete_segment_returns_none():
    buf = ReplayBuffer(capacity=20)
    for episode in range(5):
        for i in range(3):
            buf.push(make_transition(i, episode=episode))
    assert buf.sample_sequences(4, 10, np.random.default_rng(0)) is None


def test_eviction_can_trim_episode_heads_but_segments_stay_legal():
    buf = ReplayBuffer(capacity=10)
    for i in range(8):
        buf.push(make_transition(i, episode=1))
    for i in range(8, 15):
        buf.push(make_transition(i, episode=2))
    # capacity 10: buffer now holds tags 5..14 (3 from ep1, 7 from ep2)
    assert [int(buf._items[i].state.frame[0, 0]) for i in range(3)] == [5, 6, 7]
    for start in buf.sequence_starts(3):
        episodes = {buf._items[start + o].episode_id for o in range(3)}
        assert len(episodes) == 1


@given(st.lists(st.integers(2, 9), min_size=1, max_size=8), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_sequences_never_span_episodes(episode_lengths, length):
    buf = ReplayBuffer(capacity=30)
    tag = 0
    for episode, n in enumerate(episode_lengths):
        for _ in range(n):
            buf.push(make_transition(tag, episode=episode))
            tag += 1
    sequences = buf.sample_sequences(16, length, np.random.default_rng(0))
    if sequences is None:
        held = [buf._items[i].episode_id for i in range(len(buf))]
        runs = []
        current = 1
        for a, b in zip(held, held[1:]):
            current = current + 1 if a == b else 1
            runs.append(current)
        assert not runs or max(runs + [1]) < length
    else:
        for seq in sequences:
            assert len({t.episode_id for t in seq}) == 1
