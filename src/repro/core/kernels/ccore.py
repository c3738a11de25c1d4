"""Build and load the compiled solve core (``_solvecore.c``) via ctypes.

No build system, no new dependencies: on first use the C source shipped
inside this package is compiled with the system C compiler into a per-user
cache directory and loaded with :mod:`ctypes`.  Missing compiler, disabled
builds (``REPRO_KERNELS_BUILD=0``) or a failed build all degrade to ``None``
— the solvers then run their reference implementations (unless the mode is
``compiled``, where :func:`repro.core.kernels.active_core` raises instead).

The flags matter for bit-exactness: ``-ffp-contract=off`` forbids fused
multiply-adds, so every double operation the C loops perform rounds exactly
like the corresponding CPython operation; ``-O2`` does not reassociate
floating-point math.  ``REPRO_KERNELS_CFLAGS`` appends extra flags — CI uses
it to build under ASan/UBSan.  The shared object is cached under a hash of
the source plus any extra flags (rebuilt automatically whenever either
changes) and the build is
write-temp-then-rename, so concurrent processes never load a half-written
library.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
import threading
from array import array
from pathlib import Path
from typing import Optional, Tuple

#: Set to ``0`` to forbid compiling (pre-built caches are still loaded).
BUILD_ENV = "REPRO_KERNELS_BUILD"
#: Overrides the build-cache directory.
CACHE_DIR_ENV = "REPRO_KERNELS_CACHE"

_SOURCE = Path(__file__).with_name("_solvecore.c")
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

#: Extra compiler flags appended after the defaults (whitespace-split via
#: shlex).  CI's sanitizer job sets this to ``-fsanitize=address,undefined
#: -fno-sanitize-recover=all -g``; the flags participate in the build-cache
#: digest so a sanitized .so never shadows (or is shadowed by) a normal one.
CFLAGS_ENV = "REPRO_KERNELS_CFLAGS"


def _extra_cflags() -> list:
    configured = os.environ.get(CFLAGS_ENV, "").strip()
    if not configured:
        return []
    return shlex.split(configured)

_lock = threading.Lock()
_core: Optional["CompiledCore"] = None
_attempted = False


class CompiledCore:
    """Typed wrappers around the loaded ``_solvecore`` shared library."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        lib.repro_greedy_walk.argtypes = [
            ctypes.c_int,
            ctypes.c_int,
            ctypes.c_double,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
        ]
        lib.repro_greedy_walk.restype = None
        lib.repro_backtrack_search.argtypes = [
            ctypes.c_int,
            ctypes.c_int,
            ctypes.c_double,
            ctypes.c_longlong,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.POINTER(ctypes.c_double),
            ctypes.c_void_p,
            ctypes.POINTER(ctypes.c_int),
        ]
        lib.repro_backtrack_search.restype = ctypes.c_longlong
        lib.repro_linear_walk.argtypes = [
            ctypes.c_int,
            ctypes.c_double,
            ctypes.c_int,
            ctypes.c_void_p,
            ctypes.c_int,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
        ]
        lib.repro_linear_walk.restype = None
        lib.repro_evaluate.argtypes = [
            ctypes.c_void_p,
            ctypes.c_int,
            ctypes.c_void_p,
            ctypes.c_int,
            ctypes.c_void_p,
            ctypes.POINTER(ctypes.c_int),
            ctypes.POINTER(ctypes.c_int),
        ]
        lib.repro_evaluate.restype = None
        lib.repro_refine_pass.argtypes = [
            ctypes.c_int,
            ctypes.c_double,
            ctypes.c_void_p,
            ctypes.c_int,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
        ]
        lib.repro_refine_pass.restype = None
        lib.repro_reinsert.argtypes = [
            ctypes.c_int,
            ctypes.c_void_p,
            ctypes.c_int,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
        ]
        lib.repro_reinsert.restype = None
        lib.repro_peel.argtypes = [
            ctypes.c_int,
            ctypes.c_int,
            ctypes.c_int,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
        ]
        lib.repro_peel.restype = ctypes.c_int

    @staticmethod
    def _buf(arr: array) -> ctypes.c_void_p:
        """Zero-copy pointer to an ``array``'s buffer (empty arrays -> NULL)."""
        address, length = arr.buffer_info()
        return ctypes.c_void_p(address if length else None)

    def greedy_walk(
        self,
        n: int,
        num_colors: int,
        alpha: float,
        order: array,
        conflict_start: array,
        conflict_adj: array,
        stitch_start: array,
        stitch_adj: array,
        colors: array,
    ) -> None:
        self._lib.repro_greedy_walk(
            n,
            num_colors,
            alpha,
            self._buf(order),
            self._buf(conflict_start),
            self._buf(conflict_adj),
            self._buf(stitch_start),
            self._buf(stitch_adj),
            self._buf(colors),
        )

    def linear_walk(
        self,
        num_colors: int,
        alpha: float,
        use_friendly: bool,
        order: array,
        csr,
        colors: array,
    ) -> None:
        self._lib.repro_linear_walk(
            num_colors,
            alpha,
            1 if use_friendly else 0,
            self._buf(order),
            len(order),
            self._buf(csr.conflict_start),
            self._buf(csr.conflict_adj),
            self._buf(csr.stitch_start),
            self._buf(csr.stitch_adj),
            self._buf(csr.friend_start),
            self._buf(csr.friend_adj),
            self._buf(colors),
        )

    def evaluate(
        self, conflict_edges: array, stitch_edges: array, colors: array
    ) -> Tuple[int, int]:
        conflicts = ctypes.c_int(0)
        stitches = ctypes.c_int(0)
        self._lib.repro_evaluate(
            self._buf(conflict_edges),
            len(conflict_edges),
            self._buf(stitch_edges),
            len(stitch_edges),
            self._buf(colors),
            ctypes.byref(conflicts),
            ctypes.byref(stitches),
        )
        return conflicts.value, stitches.value

    def refine_pass(
        self,
        num_colors: int,
        alpha: float,
        kernel: array,
        csr,
        colors: array,
    ) -> None:
        self._lib.repro_refine_pass(
            num_colors,
            alpha,
            self._buf(kernel),
            len(kernel),
            self._buf(csr.conflict_start),
            self._buf(csr.conflict_adj),
            self._buf(csr.stitch_start),
            self._buf(csr.stitch_adj),
            self._buf(colors),
        )

    def reinsert(
        self, num_colors: int, stack: array, csr, colors: array
    ) -> None:
        self._lib.repro_reinsert(
            num_colors,
            self._buf(stack),
            len(stack),
            self._buf(csr.conflict_start),
            self._buf(csr.conflict_adj),
            self._buf(csr.stitch_start),
            self._buf(csr.stitch_adj),
            self._buf(colors),
        )

    def peel(self, num_colors: int, max_stitch_degree: int, csr):
        """Run the C peel; ``None`` when the core could not allocate.

        Returns ``(alive, cdeg, sdeg, fdeg, stack)`` with the stack already
        trimmed to the removed vertices (LIFO order, like the python peel).
        """
        n = csr.num_vertices
        alive = array("b", bytes(n))
        cdeg = array("i", bytes(4 * n))
        sdeg = array("i", bytes(4 * n))
        fdeg = array("i", bytes(4 * n))
        stack = array("i", bytes(4 * n))
        stack_len = self._lib.repro_peel(
            n,
            num_colors,
            max_stitch_degree,
            self._buf(csr.conflict_start),
            self._buf(csr.conflict_adj),
            self._buf(csr.stitch_start),
            self._buf(csr.stitch_adj),
            self._buf(csr.friend_start),
            self._buf(csr.friend_adj),
            self._buf(alive),
            self._buf(cdeg),
            self._buf(sdeg),
            self._buf(fdeg),
            self._buf(stack),
        )
        if stack_len < 0:  # allocation failure inside the core
            return None
        return alive, cdeg, sdeg, fdeg, stack[:stack_len]

    def backtrack_search(
        self,
        n: int,
        num_colors: int,
        alpha: float,
        expansion_limit: int,
        edge_start: array,
        edge_pos: array,
        edge_cw: array,
        edge_sw: array,
        best_cost: float,
        best_pos: array,
    ) -> Optional[Tuple[int, bool, float]]:
        """Run the C search; ``None`` when the core could not allocate."""
        cost_io = ctypes.c_double(best_cost)
        completed = ctypes.c_int(0)
        expansions = self._lib.repro_backtrack_search(
            n,
            num_colors,
            alpha,
            # The reference treats the limit as a pure "stop at" bound, so
            # out-of-C-range python ints clamp safely: any negative limit
            # forbids all expansions, any limit beyond 2**62 is unreachable.
            min(max(expansion_limit, -1), 2**62),
            self._buf(edge_start),
            self._buf(edge_pos),
            self._buf(edge_cw),
            self._buf(edge_sw),
            ctypes.byref(cost_io),
            self._buf(best_pos),
            ctypes.byref(completed),
        )
        if expansions < 0:  # allocation failure inside the core
            return None
        return expansions, bool(completed.value), cost_io.value


def _cache_dir() -> Path:
    configured = os.environ.get(CACHE_DIR_ENV)
    if configured:
        return Path(configured)
    uid = getattr(os, "getuid", lambda: "all")()
    return Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"


def _library_path() -> Path:
    hasher = hashlib.sha256(_SOURCE.read_bytes())
    for flag in _extra_cflags():
        hasher.update(b"\x00")
        hasher.update(flag.encode("utf-8"))
    digest = hasher.hexdigest()[:16]
    return _cache_dir() / f"_solvecore-{digest}.so"


def _build(target: Path) -> bool:
    if os.environ.get(BUILD_ENV, "").strip() == "0":
        return False
    compiler = (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )
    if compiler is None:
        return False
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = target.with_name(f"{target.name}.build-{os.getpid()}")
    try:
        subprocess.run(
            [compiler, *_CFLAGS, *_extra_cflags(), str(_SOURCE), "-o", str(staging)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(staging, target)  # atomic: concurrent builders can race
        return True
    except (OSError, subprocess.SubprocessError):
        try:
            staging.unlink(missing_ok=True)
        except OSError:
            pass
        return False


def compiled_core() -> Optional[CompiledCore]:
    """Return the loaded core, building it on first call; ``None`` if unavailable.

    The result (including failure) is memoised for the process; tests can
    call :func:`reset` after changing the build environment.
    """
    global _core, _attempted
    if _attempted:
        return _core
    with _lock:
        if _attempted:
            return _core
        core = None
        try:
            path = _library_path()
            if path.exists() or _build(path):
                core = CompiledCore(ctypes.CDLL(str(path)))
        except OSError:
            core = None
        _core = core
        _attempted = True
    return _core


def reset() -> None:
    """Forget the memoised load attempt (test hook)."""
    global _core, _attempted
    with _lock:
        _core = None
        _attempted = False
