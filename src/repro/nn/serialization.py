"""Save/load module parameters as ``.npz`` archives."""

from __future__ import annotations

import os
from typing import Dict

import numpy as np


def save_state_dict(state: Dict[str, np.ndarray], path: str) -> None:
    """Persist a state dict; parent directories are created on demand."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez(path, **state)


def load_state_dict(path: str) -> Dict[str, np.ndarray]:
    """Load a state dict previously written by :func:`save_state_dict`.

    Never unpickles (an object array raises ``ValueError``), and closes the
    file whatever the archive holds.
    """
    with open(path, "rb") as handle:
        archive = np.load(handle, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError(f"{path!r} is not an .npz archive")
        with archive:
            return {name: archive[name] for name in archive.files}
