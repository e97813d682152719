"""TD targets for the three update rules and mini-batch training.

Every update reads B traces of T transitions: T = 1 for the feedforward
net, a contiguous episode segment for the recurrent one.  Only the sampler
tells the two apart; targets and the one forward/backward pass are shared.
Every eval-mode Q evaluation, action selection included, is
:func:`q_values` over B traces of T replay states: each net's trunk rows
by frame digest (:func:`trunk_rows`), then ``nn.q_from_features``.

The rules differ only in how the bootstrap term enters the target:

* DQN:   r + g * max over valid next actions of the target net's Q
* DDQN:  r + g * target-net Q at the value net's best valid next action
* EDDQN: r - g * that same quantity (the sign flip that keeps repeatedly
  replayed transitions from dragging their Q-value toward r / (1 - g))

A transition whose next state is at its target cell is terminal and
bootstraps nothing, and the next-action argmax/max is always restricted to
the next state's valid-action mask.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from .config import AgentConfig, UpdateRule
from .replay import ReplayBuffer, State, Transition


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


def trunk_rows(net: nn.QNetwork, states: list[State]) -> np.ndarray:
    """Eval-mode image-trunk rows of the frames of ``states``, (N, image_features).

    Rows are looked up in ``net.rows`` by frame digest; the distinct misses
    go through the trunk in one batched pass and are added to it.
    """
    missing = {s.digest: s.frame for s in states if s.digest not in net.rows}
    if missing:
        net.rows.update(zip(missing, nn.image_features(net, np.stack(list(missing.values())))))
    return np.array([net.rows[s.digest] for s in states])


def _stacked(traces: list[list], name: str) -> np.ndarray:
    """Field ``name`` of every step of B traces of T records, (B, T, ...)."""
    return np.array([[getattr(step, name) for step in trace] for trace in traces])


def q_values(net: nn.QNetwork, states: list[list[State]]) -> np.ndarray:
    """Eval-mode Q-values of B traces of T states, (B, T, num_actions); a
    recurrent net runs its LSTM along each trace from the zero state."""
    feats = trunk_rows(net, [s for trace in states for s in trace])
    return nn.q_from_features(net, feats.reshape(len(states), -1, feats.shape[1]),
                              _stacked(states, "raster"))


def compute_targets(
    rule: UpdateRule,
    batch: list[list[Transition]],
    value_net: nn.QNetwork,
    target_net: nn.QNetwork,
    gamma: float,
) -> np.ndarray:
    """Eval-mode TD targets (B*T,) of B traces of T transitions, batch-major."""
    nexts = [[t.next for t in trace] for trace in batch]
    q_tgt = q_values(target_net, nexts)
    q_val = q_tgt if rule == UpdateRule.DQN else q_values(value_net, nexts)
    actions = q_tgt.shape[-1]
    return td_targets(
        rule,
        rewards=_stacked(batch, "reward").reshape(-1),
        terminals=_stacked(nexts, "at_target").reshape(-1),
        q_next_value=q_val.reshape(-1, actions),
        q_next_target=q_tgt.reshape(-1, actions),
        valid_next=_stacked(nexts, "valid").reshape(-1, actions),
        gamma=gamma,
    )


def train_step(
    buffer: ReplayBuffer,
    value_net: nn.QNetwork,
    target_net: nn.QNetwork,
    adam: nn.AdamState,
    config: AgentConfig,
    rng: np.random.Generator,
):
    """One mini-batch update of the value network on B sampled traces.

    Returns ``(value_net, adam, loss)``, or ``None`` without drawing from
    ``rng`` when the buffer cannot yet supply a batch (feedforward) or one
    full trace (recurrent).  Only the value network receives gradients.
    """
    # B traces of T transitions, T = 1 for a feedforward net
    if config.trace_length is not None:
        batch = buffer.sample_sequences(config.batch_size, config.trace_length, rng)
    elif len(buffer) >= config.batch_size:
        batch = [[t] for t in buffer.sample(config.batch_size, rng)]
    else:
        batch = None
    if batch is None:
        return None
    targets = compute_targets(config.update_rule, batch, value_net, target_net, config.gamma)
    states = [[t.state for t in trace] for trace in batch]
    q, cache = nn.forward_cached(value_net, _stacked(states, "frame"), _stacked(states, "raster"),
                                 dropout_seed=int(rng.integers(0, 2**63)))
    loss, dq = nn.mse_loss_grad(q.reshape(-1, q.shape[-1]), targets.astype(q.dtype),
                                _stacked(batch, "action").reshape(-1))
    grads = nn.backward(value_net, cache, dq.reshape(q.shape))
    new_params, new_adam = nn.adam_step(value_net.params, grads, adam)
    return nn.QNetwork(arch=value_net.arch, params=new_params), new_adam, loss
