"""Action-masked mean-squared-error loss.

Only the Q-value of the action actually taken in each sample carries error;
the other three outputs contribute nothing to the loss or its gradient.
"""

from __future__ import annotations

import numpy as np


def mse_loss_grad(pred: np.ndarray, target: np.ndarray, actions: np.ndarray):
    """Mean over the batch of the squared error on each taken action, and its
    gradient with respect to ``pred`` (zero off the taken action).

    ``pred`` is (B, A), ``target`` holds one scalar per sample (B,), and
    ``actions`` the taken action index per sample.
    """
    if pred.shape[0] == 0:
        raise ValueError("empty batch")
    batch = pred.shape[0]
    idx = np.arange(batch)
    err = pred[idx, actions] - target
    dpred = np.zeros_like(pred)
    dpred[idx, actions] = 2.0 * err / batch
    return float(np.mean(err**2)), dpred
