"""TD targets for the three update rules and mini-batch training.

The rules differ only in how the bootstrap term enters the target:

* DQN:   r + g * max over valid next actions of the target net's Q
* DDQN:  r + g * target-net Q at the value net's best valid next action
* EDDQN: r - g * that same quantity (the sign flip that keeps repeatedly
  replayed transitions from dragging their Q-value toward r / (1 - g))

Terminal transitions bootstrap nothing, and the next-action argmax/max is
always restricted to the next state's valid-action mask.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .. import nn
from .config import AgentConfig, UpdateRule
from .replay import ReplayBuffer, Transition


def td_targets(
    rule: UpdateRule,
    rewards: np.ndarray,
    terminals: np.ndarray,
    q_next_value: np.ndarray,
    q_next_target: np.ndarray,
    valid_next: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """Vectorised targets given precomputed next-state Q batches.

    ``q_next_value`` is the value net's output (used only for the action
    choice in the double rules), ``q_next_target`` the target net's.  Rows
    whose valid mask is empty fall back to the plain reward.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    terminals = np.asarray(terminals, dtype=bool)
    valid_next = np.asarray(valid_next, dtype=bool)
    any_valid = valid_next.any(axis=1)
    safe_mask = np.where(valid_next, 0.0, -np.inf)

    if rule == UpdateRule.DQN:
        boot = np.max(q_next_target + safe_mask, axis=1)
    else:
        best = np.argmax(q_next_value + safe_mask, axis=1)
        boot = q_next_target[np.arange(len(best)), best]
    boot = np.where(any_valid, boot, 0.0)

    sign = -1.0 if rule == UpdateRule.EDDQN else 1.0
    targets = rewards + sign * gamma * boot
    return np.where(terminals, rewards, targets)


def frame_digest(frame: np.ndarray) -> bytes:
    """SHA-256 of the frame's bytes: the key of its image-trunk rows, which
    are a pure function of the frame and the weights."""
    return hashlib.sha256(np.ascontiguousarray(frame)).digest()


def trunk_rows(net: nn.QNetwork, frames: list[np.ndarray], digests: list[bytes],
               cache: dict[bytes, np.ndarray]) -> np.ndarray:
    """Eval-mode image-trunk rows of ``frames``, (B, image_features).

    Rows are looked up in ``cache`` by frame digest; the distinct misses go
    through the trunk in one batched pass and are added to it.  The cache is
    only valid while ``net`` is unchanged.
    """
    missing = {digest: frame for frame, digest in zip(frames, digests) if digest not in cache}
    if missing:
        cache.update(zip(missing, nn.image_features(net, np.stack(list(missing.values())))))
    return np.array([cache[digest] for digest in digests])


def _next_state_q(net: nn.QNetwork, batch: list[Transition],
                  rows: dict[bytes, np.ndarray]) -> np.ndarray:
    """Eval-mode Q on the batch's next states, their trunk rows served from ``rows``."""
    feats = trunk_rows(net, [t.next_frame for t in batch], [t.next_digest for t in batch], rows)
    return nn.q_from_features(net, feats, np.stack([t.next_raster for t in batch]))


def compute_targets(
    rule: UpdateRule,
    batch: list[Transition],
    value_net: nn.QNetwork,
    target_net: nn.QNetwork,
    gamma: float,
    target_rows: dict[bytes, np.ndarray] | None = None,
) -> np.ndarray:
    """Eval-mode TD targets for a feedforward transition batch.

    ``target_rows`` caches the target net's trunk rows across calls; the
    caller clears it whenever the target net changes.
    """
    q_tgt = _next_state_q(target_net, batch, {} if target_rows is None else target_rows)
    if rule == UpdateRule.DQN:
        q_val = q_tgt
    else:
        # the value net changed last step, so its rows only dedupe within
        # this one batch
        q_val = _next_state_q(value_net, batch, {})
    return td_targets(
        rule,
        rewards=np.array([t.reward for t in batch]),
        terminals=np.array([t.terminal for t in batch]),
        q_next_value=q_val,
        q_next_target=q_tgt,
        valid_next=np.stack([t.valid_next for t in batch]),
        gamma=gamma,
    )


def train_step(
    buffer: ReplayBuffer,
    value_net: nn.QNetwork,
    target_net: nn.QNetwork,
    adam: nn.AdamState,
    config: AgentConfig,
    rng: np.random.Generator,
    target_rows: dict[bytes, np.ndarray] | None = None,
):
    """One mini-batch update of the value network.

    Returns ``(value_net, adam, loss)``, or ``None`` without drawing from
    ``rng`` when the buffer cannot yet supply a batch (feedforward) or one
    full trace (recurrent).  Only the value network receives gradients.
    """
    if config.trace_length is not None:
        return _train_step_recurrent(buffer, value_net, target_net, adam, config, rng)

    if len(buffer) < config.batch_size:
        return None
    batch = buffer.sample(config.batch_size, rng)
    targets = compute_targets(config.rule, batch, value_net, target_net, config.gamma,
                              target_rows=target_rows)

    frames = np.stack([t.frame for t in batch])
    rasters = np.stack([t.raster for t in batch])
    actions = np.array([t.action for t in batch])
    dropout_seed = int(rng.integers(0, 2**63))
    q, cache = nn.forward_cached(value_net, frames, rasters, mode="train",
                                 dropout_seed=dropout_seed)
    loss, dq = nn.mse_loss_grad(q, targets.astype(q.dtype), actions)
    grads = nn.backward(value_net, cache, dq)
    new_params, new_adam = nn.adam_step(value_net.params, grads, adam)
    return nn.QNetwork(arch=value_net.arch, params=new_params), new_adam, loss


def _train_step_recurrent(
    buffer: ReplayBuffer,
    value_net: nn.QNetwork,
    target_net: nn.QNetwork,
    adam: nn.AdamState,
    config: AgentConfig,
    rng: np.random.Generator,
):
    sequences = buffer.sample_sequences(config.batch_size, config.trace_length, rng)
    if sequences is None:
        return None
    t_len = config.trace_length

    # (T, B, ...) stacks; hidden state threads from a zero start per segment.
    frames = np.stack([[seq[t].frame for seq in sequences] for t in range(t_len)])
    rasters = np.stack([[seq[t].raster for seq in sequences] for t in range(t_len)])
    next_frames = np.stack([[seq[t].next_frame for seq in sequences] for t in range(t_len)])
    next_rasters = np.stack([[seq[t].next_raster for seq in sequences] for t in range(t_len)])
    actions = np.array([[seq[t].action for seq in sequences] for t in range(t_len)])
    rewards = np.array([[seq[t].reward for seq in sequences] for t in range(t_len)])
    terminals = np.array([[seq[t].terminal for seq in sequences] for t in range(t_len)])
    valid_next = np.array([[seq[t].valid_next for seq in sequences] for t in range(t_len)])

    q_tgt, _, _ = nn.forward_sequence(target_net, next_frames, next_rasters, mode="eval")
    if config.rule == UpdateRule.DQN:
        q_val = q_tgt
    else:
        q_val, _, _ = nn.forward_sequence(value_net, next_frames, next_rasters, mode="eval")

    batch = len(sequences)
    flat_targets = td_targets(
        config.rule,
        rewards=rewards.reshape(-1),
        terminals=terminals.reshape(-1),
        q_next_value=q_val.reshape(t_len * batch, -1),
        q_next_target=q_tgt.reshape(t_len * batch, -1),
        valid_next=valid_next.reshape(t_len * batch, -1),
        gamma=config.gamma,
    )

    dropout_seed = int(rng.integers(0, 2**63))
    q, _, cache = nn.forward_sequence(value_net, frames, rasters, mode="train",
                                      dropout_seed=dropout_seed)
    loss, dq_flat = nn.mse_loss_grad(
        q.reshape(t_len * batch, -1), flat_targets.astype(q.dtype), actions.reshape(-1)
    )
    grads = nn.backward_sequence(value_net, cache, dq_flat.reshape(q.shape))
    new_params, new_adam = nn.adam_step(value_net.params, grads, adam)
    return nn.QNetwork(arch=value_net.arch, params=new_params), new_adam, loss

