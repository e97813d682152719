"""Bias-corrected Adam over named parameter dictionaries, with the moment
decays and epsilon of Kingma & Ba (arXiv:1412.6980) as constants."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_LEARNING_RATE = 0.001
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    learning_rate: float = DEFAULT_LEARNING_RATE
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def init_adam(params: dict[str, np.ndarray],
              learning_rate: float = DEFAULT_LEARNING_RATE) -> AdamState:
    return AdamState(
        learning_rate=learning_rate,
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
    )


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState):
    """One bias-corrected Adam update; returns (new_params, new_state).

    Inputs are left untouched.  A zero gradient moves nothing (the update
    term is exactly zero), so parameters pass through bit-identical.
    """
    if set(grads) != set(params):
        raise ValueError("gradient keys do not match parameter keys")
    t = state.step + 1
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    new_params: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for key, p in params.items():
        g = grads[key]
        m = BETA1 * state.m[key] + (1.0 - BETA1) * g
        v = BETA2 * state.v[key] + (1.0 - BETA2) * g**2
        m_hat = m / bc1
        v_hat = v / bc2
        update = state.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
        new_params[key] = (p - update).astype(p.dtype)
        new_m[key] = m.astype(p.dtype)
        new_v[key] = v.astype(p.dtype)
    return new_params, AdamState(
        learning_rate=state.learning_rate,
        step=t,
        m=new_m,
        v=new_v,
    )
