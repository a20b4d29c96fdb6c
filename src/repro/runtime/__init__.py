"""Context-scoped runtime: per-run configuration and execution state.

``repro.runtime`` replaces the process-global state the cross-cutting
layers used to coordinate through (the process-wide metrics capture stack,
the profile collector) with one explicit seam:

* :class:`RunConfig` — a frozen, picklable, JSON-serialisable description
  of one run (jobs, timeout, root seed, resume dir,
  observability knobs, horizons);
* :class:`RunContext` — the config plus the run's live service objects
  (metrics registry + capture stack, profile collector, root RNG),
  carried on a :class:`contextvars.ContextVar`.

Every layer resolves through :func:`current`; code that never activates a
context falls back to the process-default context, which preserves the
historic global behaviour bit-for-bit.  ``obs.metrics.capture()`` remains
a thin shim over the active context, so existing call sites keep working.

Two campaigns with different settings can now run concurrently in one
process::

    import threading
    from repro import runtime

    def campaign(seed):
        ctx = runtime.RunContext(runtime.RunConfig(root_seed=seed))
        with runtime.activate(ctx):
            ...  # this thread's metrics/CPU/campaign use ctx only

    threads = [threading.Thread(target=campaign, args=(s,)) for s in (1, 2)]
"""

from .config import DEFAULT_HORIZON_HOURS, RunConfig
from .context import (
    RunContext,
    activate,
    current,
    current_or_none,
    default_context,
    reset_default_context,
)

__all__ = [
    "DEFAULT_HORIZON_HOURS",
    "RunConfig",
    "RunContext",
    "activate",
    "current",
    "current_or_none",
    "default_context",
    "reset_default_context",
]
