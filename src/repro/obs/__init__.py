"""Observability: request tracing, latency histograms, event journal.

The package answers "where did this layout's 400 ms go?" for a pipeline
that spans a coordinator, N nodes and their worker pools:

* :mod:`repro.obs.hist` — fixed-bucket latency histograms with Prometheus
  ``_bucket``/``_sum``/``_count`` semantics, plus the canonical float
  formatter shared with :mod:`repro.service.metrics`;
* :mod:`repro.obs.trace` — ``trace_id`` minting, the per-request
  :class:`TraceContext` and the low-overhead :class:`Span` context manager
  feeding both the context and the stage histograms;
* :mod:`repro.obs.journal` — the append-only JSONL event journal with
  size-capped segment rotation, an fsync policy flag and crash-tolerant
  truncated-tail recovery;
* :mod:`repro.obs.replay` — the journal lifecycle checker behind
  ``python -m repro.obs.replay --check``;
* :mod:`repro.obs.logsetup` — structured ``key=value`` logging for the
  server/coordinator CLIs;
* :mod:`repro.obs.observer` — the per-server facade wiring the above into
  :class:`~repro.service.server.DecompositionServer` and
  :class:`~repro.cluster.coordinator.ClusterCoordinator`.

Everything here is stdlib-only, and tracing costs near zero when disabled:
without ``--journal`` no trace contexts are minted, spans degrade to two
``perf_counter`` calls plus one histogram update, and no journal I/O
happens at all.

Nothing is re-exported here, so a library decompose timing its spans with
:mod:`repro.obs.trace` never loads the observer or the journal.
"""
