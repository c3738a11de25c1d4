"""The compiled solve core and the kernel mode that selects it.

Every colorer runs one flow in *rank space* (a vertex is its position in
sorted-id order) over the packed :class:`repro.graph.flat.FlatGraph` arrays
and one :class:`~repro.core.kernels.adjacency.CSRAdjacency`.  Each stage of
that flow is either a call into the compiled C core of
:mod:`repro.core.kernels.ccore` or its Python reference, which takes the
same arguments, returns the same results and walks in the same order: the
walks and refinement next to their colorers, the peel and reinsertion in
:mod:`repro.graph.simplify`, the branch-and-bound search in
:mod:`repro.core.backtrack` (packed here by
:mod:`~repro.core.kernels.backtrack_kernel`) and the SDP relaxation in
:mod:`repro.opt.sdp` (:mod:`~repro.core.kernels.sdp_kernel`).  The output
is **bit-identical**: same colorings, same tie-breaks, same search
statistics, same relaxation bytes.  Parity is the hard acceptance gate
(``tests/kernels/``), which is why the C loops replicate the reference
float expression order operation for operation.

Which one runs is controlled by the ``REPRO_SOLVE_KERNELS`` environment
variable (checked once per solve, overridable in-process via
:func:`set_kernel_mode`):

``auto`` (default)
    Use the compiled core when it is available (building it on first use),
    the references otherwise.
``compiled``
    *Require* the compiled core — raise instead of silently running the
    references (CI uses this to keep the compiled path honest).
``off``
    Never load the core; run the references.

With the core loaded, a solve still runs the references when K exceeds
:data:`MAX_COMPILED_COLORS` (greedy, linear and the division's peel) or the
core cannot allocate its working memory.  A server reports the backend its
workers actually run on (``repro_build_info{solve_kernels=}``).

The mode deliberately lives outside :class:`repro.core.options.AlgorithmOptions`:
options are fingerprinted into cache keys, and because every backend produces
identical output, keys must not (and do not) depend on which one ran.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import ConfigurationError

#: Environment variable selecting the kernel mode.
KERNEL_MODE_ENV = "REPRO_SOLVE_KERNELS"

_VALID_MODES = ("auto", "compiled", "off")

#: The C stages keep per-color counters/bitmasks with this bound (mirrors
#: ``MAX_COLORS`` in ``_solvecore.c``); larger K runs the reference.
MAX_COMPILED_COLORS = 64

#: In-process override (tests, benchmarks); ``None`` defers to the env var.
_forced_mode: Optional[str] = None


def kernel_mode() -> str:
    """Return the active kernel mode (``auto``/``compiled``/``off``)."""
    if _forced_mode is not None:
        return _forced_mode
    raw = os.environ.get(KERNEL_MODE_ENV, "").strip().lower()
    if not raw:
        return "auto"
    if raw not in _VALID_MODES:
        raise ConfigurationError(
            f"{KERNEL_MODE_ENV}={raw!r} is not a kernel mode; "
            f"expected one of {', '.join(_VALID_MODES)}"
        )
    return raw


def set_kernel_mode(mode: Optional[str]) -> Optional[str]:
    """Force the kernel mode in-process; ``None`` re-enables the env var.

    Returns the previous override so callers can restore it.
    """
    global _forced_mode
    if mode is not None and mode not in _VALID_MODES:
        raise ConfigurationError(
            f"unknown kernel mode {mode!r}; expected one of {', '.join(_VALID_MODES)}"
        )
    previous = _forced_mode
    _forced_mode = mode
    return previous


def active_core():
    """Return the loaded compiled core for the current mode, or ``None``.

    ``off`` never loads it; ``compiled`` raises
    :class:`~repro.errors.ConfigurationError` when it cannot be built or
    loaded (no silent fallback); ``auto`` returns it opportunistically.
    """
    mode = kernel_mode()
    if mode == "off":
        return None
    from repro.core.kernels.ccore import compiled_core

    core = compiled_core()
    if core is None and mode == "compiled":
        raise ConfigurationError(
            f"{KERNEL_MODE_ENV}=compiled but the compiled solve core is "
            "unavailable (no C compiler, build disabled via "
            "REPRO_KERNELS_BUILD=0, or the build failed); use mode "
            "'auto' or 'off' to run the reference solvers"
        )
    return core


__all__ = [
    "KERNEL_MODE_ENV",
    "MAX_COMPILED_COLORS",
    "active_core",
    "kernel_mode",
    "set_kernel_mode",
]
