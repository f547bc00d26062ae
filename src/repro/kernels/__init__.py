"""``repro.kernels`` -- the name of the kernel implementation in use.

Every hot kernel has exactly one implementation, called directly: the
parity fill in :mod:`repro.crp.transform`, :func:`scipy.special.ndtr`
in :mod:`repro.silicon.noise` and :mod:`repro.core.model`, and the
packed XOR + popcount scorer in :mod:`repro.core.codebook`.  With one
implementation, installing a package cannot change the counter values
a seed produces.

:func:`current_backend_name` stays because benchmark records carry it:
``perfbench/run.py`` imports it for its environment block, and the
bench matrix's record ``backend`` field and cell ids (``...:numpy``)
keep its value.
"""

from __future__ import annotations

__all__ = ["current_backend_name"]


def current_backend_name() -> str:
    """Name of the kernel implementation: always ``"numpy"``."""
    return "numpy"
