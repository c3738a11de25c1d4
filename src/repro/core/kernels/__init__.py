"""Compiled solve kernels over the flat-array graph form.

The per-component solvers in :mod:`repro.core` are the reference
implementations: dict-walking pure Python, written for clarity and pinned by
the golden tables.  The kernels in this package marshal the packed
:class:`repro.graph.flat.FlatGraph` arrays (CSR adjacency, flat earlier-edge
arrays) into the compiled C core of :mod:`repro.core.kernels.ccore` and
produce **bit-identical output**: same colorings, same tie-breaks, same
search statistics.  The SDP relaxation of :mod:`repro.opt.sdp` dispatches
the same way: its numpy reference defines the arithmetic and one C call
repeats it.  Parity is the hard acceptance gate (``tests/kernels/``),
which is why the C loops replicate the reference float expression order
operation for operation.

Dispatch is compiled or reference, controlled by the ``REPRO_SOLVE_KERNELS``
environment variable (checked once per solve, overridable in-process via
:func:`set_kernel_mode`):

``auto`` (default)
    Use the compiled core when it is available (building it on first use),
    the reference solvers otherwise.
``compiled``
    *Require* the compiled core — raise instead of silently running the
    reference solvers (CI uses this to keep the compiled path honest).
``off``
    Never load the core; run the reference solvers.

With the core loaded, a solve still runs the reference when K exceeds
:data:`MAX_COMPILED_COLORS` (greedy and linear) or the core cannot allocate
its working memory: the kernel returns ``None`` and its caller falls back.  A server reports the
backend its workers actually run on (``repro_build_info{solve_kernels=}``).

The mode deliberately lives outside :class:`repro.core.options.AlgorithmOptions`:
options are fingerprinted into cache keys, and because every backend produces
identical output, keys must not (and do not) depend on which one ran.
"""

from __future__ import annotations

import importlib
import os
from typing import Optional

from repro.errors import ConfigurationError

#: Environment variable selecting the kernel mode.
KERNEL_MODE_ENV = "REPRO_SOLVE_KERNELS"

_VALID_MODES = ("auto", "compiled", "off")

#: The C stages keep per-color counters/bitmasks with this bound (mirrors
#: ``MAX_COLORS`` in ``_solvecore.c``); larger K runs the reference.
MAX_COMPILED_COLORS = 64

#: Algorithms with a compiled kernel, and the module holding it.
_KERNEL_MODULES = {
    "greedy": "greedy_kernel",
    "linear": "linear_kernel",
    "backtrack": "backtrack_kernel",
    "sdp": "sdp_kernel",
}

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


def select_kernel(algorithm: str):
    """Return the compiled kernel module for ``algorithm``, or ``None``.

    ``None`` — run the reference solver — for anything but ``greedy``,
    ``linear``, ``backtrack`` and ``sdp``, in mode ``off``, and in mode
    ``auto`` when the compiled core is unavailable.
    """
    module = _KERNEL_MODULES.get(algorithm)
    if module is None or active_core() is None:
        return None
    return importlib.import_module(f"repro.core.kernels.{module}")


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
    "select_kernel",
    "set_kernel_mode",
]
