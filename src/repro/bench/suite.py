"""The environment fingerprint stored with every end-to-end benchmark record."""

from __future__ import annotations

import os
from typing import Any, Dict

from repro.obs.manifest import _platform, _versions

__all__ = ["environment_fingerprint"]

#: The fingerprint's fields, in record order.
FINGERPRINT_KEYS = (
    "python", "python_implementation", "numpy", "scipy", "repro",
    "system", "machine", "cpu_count", "kernels",
)


def environment_fingerprint() -> Dict[str, Any]:
    """The environment identity a timing was produced under.

    Stable across repeated calls in one environment; any field changing
    between a baseline and a comparison run means the timings are not
    machine-comparable.  Versions and platform come from the same helpers
    as the run manifest's, plus the CPU count.
    """
    env = {**_versions(), **_platform(), "cpu_count": os.cpu_count()}
    return {key: env[key] for key in FINGERPRINT_KEYS}
