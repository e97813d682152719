"""Versioned checkpoint files: architecture, weights, and optimiser state.

A checkpoint is a single ``.npz`` holding every parameter array under a
``param/`` prefix (plus ``adam_m/`` / ``adam_v/`` when optimiser state is
included) and a JSON metadata blob with the format version, the
architecture tag (``feedforward`` or ``recurrent``) and its widths.
"""

from __future__ import annotations

import json

import numpy as np

from .model import ArchitectureSpec, QNetwork, check_params
from .optim import BETA1, BETA2, EPSILON, AdamState

FORMAT_VERSION = 1
_ADAM_CONSTANTS = {"beta1": BETA1, "beta2": BETA2, "epsilon": EPSILON}


def save_checkpoint(path, net: QNetwork, adam: AdamState | None = None,
                    extra: dict | None = None) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "architecture": "recurrent" if net.arch.recurrent else "feedforward",
        "arch": net.arch.to_dict(),
        "extra": extra or {},
    }
    arrays = {f"param/{k}": v for k, v in net.params.items()}
    if adam is not None:
        meta["adam"] = {
            "learning_rate": adam.learning_rate,
            **_ADAM_CONSTANTS,
            "step": adam.step,
        }
        arrays.update({f"adam_m/{k}": v for k, v in adam.m.items()})
        arrays.update({f"adam_v/{k}": v for k, v in adam.v.items()})
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"),
                                   dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path):
    """Returns (net, adam_state_or_None, extra_metadata).  Raises ValueError
    when the parameters are not the ones the recorded architecture builds."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta["format_version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['format_version']}")
        arch = ArchitectureSpec.from_dict(meta["arch"])
        params = {
            k.split("/", 1)[1]: data[k] for k in data.files if k.startswith("param/")
        }
        check_params(arch, params)
        net = QNetwork(arch=arch, params=params)
        adam = None
        if "adam" in meta:
            recorded = {k: meta["adam"][k] for k in _ADAM_CONSTANTS}
            if recorded != _ADAM_CONSTANTS:
                raise ValueError(f"Adam constants {recorded} are not {_ADAM_CONSTANTS}")
            adam = AdamState(
                learning_rate=float(meta["adam"]["learning_rate"]),
                step=int(meta["adam"]["step"]),
                m={k.split("/", 1)[1]: data[k] for k in data.files if k.startswith("adam_m/")},
                v={k.split("/", 1)[1]: data[k] for k in data.files if k.startswith("adam_v/")},
            )
    return net, adam, meta.get("extra", {})
