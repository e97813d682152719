"""From-scratch neural-network engine for the double-input Q-network."""

from .checkpoint import load_checkpoint, save_checkpoint
from .loss import mse_loss_grad
from .model import (
    ArchitectureSpec,
    QNetwork,
    backward,
    clone_params,
    forward_cached,
    image_features,
    init_network,
    q_from_features,
)
from .optim import AdamState, adam_step, init_adam

__all__ = [
    "ArchitectureSpec",
    "QNetwork",
    "AdamState",
    "adam_step",
    "backward",
    "clone_params",
    "forward_cached",
    "image_features",
    "init_adam",
    "init_network",
    "load_checkpoint",
    "mse_loss_grad",
    "q_from_features",
    "save_checkpoint",
]
