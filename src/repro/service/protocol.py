"""JSON wire schema of the decomposition service.

One module owns the request/response shapes so the server, the blocking
client and the tests cannot drift apart.

Request (``POST /decompose``)::

    {
      "layout":  {... repro-layout-v1 dict ...},   # or instead:
      "gds_b64": "<base64 GDSII bytes>",
      "name":    "optional request name",
      "layer":   "metal1",          # default: first layer of the layout
      "colors":  4,                 # K, default 4
      "algorithm": "sdp-backtrack", # default
      "min_spacing": 160            # optional min coloring distance override
    }

``POST /batch`` wraps many of the above: ``{"layouts": [<request>, ...]}``
with top-level ``colors``/``algorithm``/``layer``/``min_spacing`` applied as
defaults to every item.

Response (one decomposition)::

    {
      "name": ..., "layer": ..., "algorithm": ..., "num_colors": K,
      "conflicts": n, "stitches": n, "cost": float, "vertices": n,
      "mask_counts": {"0": n, ...},
      "masks": {... repro-layout-v1 dict of layers mask0..mask(K-1) ...},
      "seconds": float
    }

``masks`` is exactly ``result.to_mask_layout().to_dict()`` plus the standard
format marker, so a client can feed it straight to
:meth:`Layout.from_dict` or save it as a ``.json`` layout file.  Everything
except ``seconds`` is deterministic: byte-compare two responses with
``canonical_json`` to prove two solves were identical.

Jobs
----

:func:`decode_decompose_request` is the front ends' decode: one validating
pass over the request straight into the job the worker pool runs.  The job
carries the decomposed layer's packed
:class:`~repro.geometry.outlines.Outlines` (``outlines``) and the options
as scalars; no :class:`Layout` is built for a JSON layout, and polygon
decomposition is left to the worker.  :func:`parse_decompose_request` is
the JSON-level reference it is tested against: the same decisions and the
same error texts, with the layout as a :meth:`Layout.to_dict` document
(``layout``).  :func:`run_job` runs either, and :func:`result_to_payload`
writes ``masks`` from the construction's fragment arrays.
"""

from __future__ import annotations

import base64
import binascii
import json
from typing import Dict, List, Optional, Tuple, Union

from repro.core.decomposer import DecompositionResult
from repro.core.options import DecomposerOptions
from repro.errors import ReproError
from repro.geometry.layout import Layout
from repro.geometry.outlines import PackedLayout
from repro.io.gds import parse_gds
from repro.io.jsonio import FORMAT_MARKER
from repro.obs.trace import Span


class ProtocolError(ReproError):
    """Raised for malformed service requests (mapped to HTTP 400)."""


#: Solve parameters accepted at the request top level and per batch item.
_OPTION_KEYS = ("layer", "colors", "algorithm", "min_spacing", "name")


def build_options(
    colors: int = 4,
    algorithm: str = "sdp-backtrack",
    min_spacing: Optional[int] = None,
) -> DecomposerOptions:
    """Map wire-level solve parameters onto :class:`DecomposerOptions`.

    Delegates the colors/algorithm preset expansion to
    :func:`repro.runtime.component_io.options_for` — the one mapping shared
    with the cluster's component requests, so a layout solved here and a
    component routed there can never disagree on options (or cache keys).
    """
    from repro.runtime.component_io import ComponentWireError, options_for

    try:
        options = options_for(colors, algorithm)
    except ComponentWireError as exc:
        # e.g. ConfigurationError for colors < 2 — a client mistake, not a
        # server fault: surface it as a 400, never a 500.
        raise ProtocolError(str(exc)) from exc
    if min_spacing is not None:
        if not isinstance(min_spacing, int) or isinstance(min_spacing, bool):
            raise ProtocolError(f"'min_spacing' must be an integer, got {min_spacing!r}")
        options.construction.min_coloring_distance = min_spacing
    try:
        options.validate()
    except ReproError as exc:
        raise ProtocolError(str(exc)) from exc
    return options


def parse_layout(
    payload: Dict, packed: bool = False
) -> Tuple[str, Union[Layout, PackedLayout]]:
    """Extract (name, layout) from a request dict.

    Exactly one of ``layout`` (repro JSON dict) and ``gds_b64`` (base64
    GDSII) must be present.  With ``packed`` the layout comes back as a
    :class:`PackedLayout`, decoded without building a :class:`Layout` for
    a JSON document.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    has_json = "layout" in payload
    has_gds = "gds_b64" in payload
    if has_json == has_gds:
        raise ProtocolError("provide exactly one of 'layout' and 'gds_b64'")
    if has_json:
        data = payload["layout"]
        if not isinstance(data, dict):
            raise ProtocolError("'layout' must be a JSON object")
        marker = data.get("format", FORMAT_MARKER)
        if marker != FORMAT_MARKER:
            raise ProtocolError(f"'layout' has unknown format marker {marker!r}")
        try:
            layout = (PackedLayout if packed else Layout).from_dict(data)
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"invalid 'layout' payload: {exc}") from exc
    else:
        raw = payload["gds_b64"]
        if not isinstance(raw, str):
            raise ProtocolError("'gds_b64' must be a base64 string")
        try:
            blob = base64.b64decode(raw, validate=True)
        except (binascii.Error, ValueError) as exc:
            raise ProtocolError(f"'gds_b64' is not valid base64: {exc}") from exc
        try:
            layout = parse_gds(blob)
        except ReproError as exc:
            raise ProtocolError(f"invalid 'gds_b64' GDSII payload: {exc}") from exc
        # Uploads are named uniformly, whatever LIBNAME/STRNAME they carry.
        layout.name = "gds-upload"
        if packed:
            layout = PackedLayout.from_layout(layout)
    name = payload.get("name", layout.name or "layout")
    if not isinstance(name, str):
        raise ProtocolError(f"'name' must be a string, got {name!r}")
    return name, layout


def parse_decompose_request(payload: Dict, defaults: Optional[Dict] = None) -> Dict:
    """Validate a decompose request into a JSON-level job dict.

    The reference of :func:`decode_decompose_request`: the same decisions
    and errors, with the layout as a :meth:`Layout.to_dict` document under
    ``layout`` and the options as scalars.
    """
    return _parse_request(payload, defaults, packed=False)


def decode_decompose_request(payload: Dict, defaults: Optional[Dict] = None) -> Dict:
    """Validate a decompose request into the job a worker runs.

    What the front ends call.  Accepts and refuses what
    :func:`parse_decompose_request` does, with the same
    :class:`ProtocolError` texts; the job carries the decomposed layer's
    :class:`~repro.geometry.outlines.Outlines` under ``outlines``.
    """
    return _parse_request(payload, defaults, packed=True)


def _parse_request(payload: Dict, defaults: Optional[Dict], packed: bool) -> Dict:
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    merged = dict(defaults or {})
    merged.update({k: payload[k] for k in _OPTION_KEYS if k in payload})
    name, layout = parse_layout(payload, packed)
    # Validate solve parameters up front: a bad request must 400 in the
    # server process, not explode later inside a worker.
    build_options(
        colors=merged.get("colors", 4),
        algorithm=merged.get("algorithm", "sdp-backtrack"),
        min_spacing=merged.get("min_spacing"),
    )
    layer = merged.get("layer")
    if layer is None:
        layers = layout.layers()
        layer = layers[0] if layers else "metal1"
    if not isinstance(layer, str):
        raise ProtocolError(f"'layer' must be a string, got {layer!r}")
    job = {
        "name": merged.get("name", name),
        "layer": layer,
        "colors": merged.get("colors", 4),
        "algorithm": merged.get("algorithm", "sdp-backtrack"),
        "min_spacing": merged.get("min_spacing"),
    }
    if packed:
        job["outlines"] = layout.outlines(layer)
    else:
        job["layout"] = layout.to_dict()
    return job


def parse_batch_request(payload: Dict) -> List[Dict]:
    """Validate a batch request into a list of the front ends' job dicts."""
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    layouts = payload.get("layouts")
    if not isinstance(layouts, list) or not layouts:
        raise ProtocolError("'layouts' must be a non-empty array")
    defaults = {k: payload[k] for k in _OPTION_KEYS if k in payload and k != "name"}
    jobs = []
    for position, item in enumerate(layouts):
        try:
            jobs.append(decode_decompose_request(item, defaults=defaults))
        except ProtocolError as exc:
            raise ProtocolError(f"layouts[{position}]: {exc}") from exc
    from repro.runtime.batch import dedupe_names

    for job, name in zip(jobs, dedupe_names(job["name"] for job in jobs)):
        job["name"] = name
    return jobs


def run_job(job: Dict, decomposer_factory, executor=None, span=Span) -> Dict:
    """Execute one job dict and encode the response payload.

    ``job`` comes from :func:`decode_decompose_request` (packed outlines) or
    :func:`parse_decompose_request` (a layout document).
    ``decomposer_factory(options)`` returns the :class:`Decomposer` to use —
    the worker pool binds its per-process cache there.  ``executor`` and
    ``span`` pass through to :meth:`Decomposer.decompose`: the cluster
    coordinator solves components on its nodes and times the stages under
    the request's trace.  Lives next to the parsers so request decoding and
    response encoding stay one module.
    """
    layout = job.get("outlines")
    if layout is None:
        layout = Layout.from_dict(job["layout"])
    options = build_options(
        colors=job["colors"],
        algorithm=job["algorithm"],
        min_spacing=job.get("min_spacing"),
    )
    decomposer = decomposer_factory(options)
    result = decomposer.decompose(
        layout, layer=job["layer"], executor=executor, span=span
    )
    return result_to_payload(job["name"], job["layer"], result)


def result_to_payload(name: str, layer: str, result: DecompositionResult) -> Dict:
    """Encode one :class:`DecompositionResult` as the response dict."""
    masks = result.mask_dict()
    masks["format"] = FORMAT_MARKER
    solution = result.solution
    return {
        "name": name,
        "layer": layer,
        "algorithm": solution.algorithm,
        "num_colors": solution.num_colors,
        "conflicts": solution.conflicts,
        "stitches": solution.stitches,
        "cost": solution.cost,
        "vertices": result.construction.graph.num_vertices,
        "mask_counts": {str(k): v for k, v in sorted(result.mask_counts().items())},
        "masks": masks,
        "seconds": solution.total_seconds,
    }


def canonical_json(payload: Dict, ignore: Tuple[str, ...] = ("seconds",)) -> str:
    """Deterministic serialisation of a response for byte-for-byte comparison.

    Strips the keys in ``ignore`` (wall-clock timings differ run to run);
    everything left is solver output, so equal strings mean identical masks,
    conflict counts and stitch counts.
    """
    trimmed = {k: v for k, v in payload.items() if k not in ignore}
    return json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
