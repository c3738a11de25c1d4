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
from typing import List, Optional, Tuple

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
        lib.repro_components.argtypes = [ctypes.c_int] + [ctypes.c_void_p] * 8
        lib.repro_components.restype = ctypes.c_int
        lib.repro_blocks.argtypes = [ctypes.c_int] + [ctypes.c_void_p] * 8
        lib.repro_blocks.restype = ctypes.c_int
        lib.repro_kclasses.argtypes = [ctypes.c_int, ctypes.c_int] + [ctypes.c_void_p] * 7
        lib.repro_kclasses.restype = ctypes.c_int
        lib.repro_sdp_solve.argtypes = [
            ctypes.c_int,
            ctypes.c_int,
            ctypes.c_void_p,
            ctypes.c_int,
            ctypes.c_void_p,
            ctypes.c_int,
            ctypes.c_double,
            ctypes.c_double,
            ctypes.c_double,
            ctypes.c_double,
            ctypes.c_double,
            ctypes.c_double,
            ctypes.c_longlong,
            ctypes.c_longlong,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_double),
        ]
        lib.repro_sdp_solve.restype = ctypes.c_longlong

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

    def components(self, csr, alive: Optional[array] = None) -> Tuple[array, List[List[int]]]:
        """Connected components of the ``alive`` ranks over conflict and
        stitch edges (all ranks when ``alive`` is ``None``).

        ``alive`` is an int8 array with one entry per rank, read only.
        Returns ``(labels, pieces)``: each rank's component index (``-1``
        when not alive) and the components as sorted rank lists, ordered by
        their smallest rank.
        """
        n = csr.num_vertices
        if alive is not None and (alive.typecode != "b" or len(alive) != n):
            raise ValueError(f"alive must be an int8 array of {n} entries")
        labels = array("i", bytes(4 * n))
        members = array("i", bytes(4 * n))
        start = array("i", bytes(4 * (n + 1)))
        count = self._lib.repro_components(
            n,
            None if alive is None else self._buf(alive),
            self._buf(csr.conflict_start),
            self._buf(csr.conflict_adj),
            self._buf(csr.stitch_start),
            self._buf(csr.stitch_adj),
            self._buf(labels),
            self._buf(members),
            self._buf(start),
        )
        starts = start[: count + 1].tolist()
        ranks = members.tolist()
        return labels, [ranks[first:end] for first, end in zip(starts, starts[1:])]

    def blocks(self, ranks, csr, position: array) -> Optional[List[List[int]]]:
        """The biconnected blocks of the piece induced on ``ranks``.

        ``ranks`` is strictly increasing and ``position`` an all ``-1``
        int32 array with one entry per component rank (all ``-1`` again
        afterwards).  Returns the blocks as sorted rank lists in discovery
        order, isolated vertices last, or ``None`` when the core could not
        allocate.
        """
        piece = _piece(ranks, csr, position)
        n = len(piece)
        members = array("i", bytes(8 * n))
        block_start = array("i", bytes(4 * (n + 1)))
        count = self._lib.repro_blocks(
            n,
            self._buf(piece),
            self._buf(csr.conflict_start),
            self._buf(csr.conflict_adj),
            self._buf(csr.stitch_start),
            self._buf(csr.stitch_adj),
            self._buf(position),
            self._buf(members),
            self._buf(block_start),
        )
        if count < 0:  # allocation failure inside the core
            return None
        starts = block_start[: count + 1].tolist()
        flat = members[: starts[-1]].tolist()
        return [flat[first:end] for first, end in zip(starts, starts[1:])]

    def kclasses(
        self, threshold: int, ranks, csr, position: array
    ) -> Optional[List[List[int]]]:
        """The K-classes (K = ``threshold``) of the piece induced on ``ranks``.

        Same ``ranks`` and ``position`` contract as :meth:`blocks`.  Returns
        the classes as sorted rank lists ordered by their smallest rank, or
        ``None`` when the core could not allocate.
        """
        piece = _piece(ranks, csr, position)
        n = len(piece)
        class_of = array("i", bytes(4 * n))
        count = self._lib.repro_kclasses(
            n,
            # Below 0 every pair is a class pair, as at 0; no flow on an
            # int32 network reaches 2**31 - 1.
            min(max(threshold, 0), 2**31 - 1),
            self._buf(piece),
            self._buf(csr.conflict_start),
            self._buf(csr.conflict_adj),
            self._buf(csr.stitch_start),
            self._buf(csr.stitch_adj),
            self._buf(position),
            self._buf(class_of),
        )
        if count < 0:  # allocation failure inside the core
            return None
        classes: List[List[int]] = [[] for _ in range(count)]
        for rank, index in zip(piece, class_of):
            classes[index].append(rank)
        return classes

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

    def sdp_solve(
        self,
        conflict,
        stitch,
        alpha: float,
        lower_bound: float,
        options,
        vectors,
        gram,
    ) -> Optional[Tuple[int, float, float]]:
        """Run the relaxation in place on ``vectors``; fill ``gram``.

        ``conflict``/``stitch`` are C-contiguous int32 ``(m, 2)`` arrays and
        ``vectors``/``gram`` C-contiguous float64 arrays.  Returns
        ``(iterations, objective, constraint_violation)``, or ``None`` when
        the core could not allocate (``vectors`` is then untouched).
        """
        n, dim = vectors.shape
        objective = ctypes.c_double(0.0)
        violation = ctypes.c_double(0.0)
        iterations = self._lib.repro_sdp_solve(
            n,
            dim,
            conflict.ctypes.data,
            len(conflict),
            stitch.ctypes.data,
            len(stitch),
            alpha,
            lower_bound,
            options.learning_rate,
            options.penalty_initial,
            options.penalty_growth,
            options.gradient_tolerance,
            # Iteration caps beyond 2**62 are unreachable either way.
            min(options.max_outer_iterations, 2**62),
            min(options.max_inner_iterations, 2**62),
            vectors.ctypes.data,
            gram.ctypes.data,
            ctypes.byref(objective),
            ctypes.byref(violation),
        )
        if iterations < 0:  # allocation failure inside the core
            return None
        return iterations, objective.value, violation.value


def _piece(ranks, csr, position: array) -> array:
    """``ranks`` as an int32 array, once the C stages can index with it:
    component ranks, and one int32 ``position`` slot per component rank.
    (A rank order other than strictly increasing gives wrong pieces, not
    stray memory accesses.)"""
    piece = array("i", ranks)
    n = csr.num_vertices
    if position.typecode != "i" or len(position) != n:
        raise ValueError(f"position must be an int32 array of {n} entries")
    if piece and (min(piece) < 0 or max(piece) >= n):
        raise ValueError(f"ranks must lie in 0..{n - 1}")
    return piece


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
            [compiler, *_CFLAGS, *_extra_cflags(), str(_SOURCE), "-lm", "-o", str(staging)],
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
