"""The per-run execution context (:class:`RunContext`) and its activation.

Historically the cross-cutting layers coordinated through process-global
mutable state: ``repro.obs.metrics``' process-wide capture stack and
``repro.obs.profile``'s collector.  That worked for one
campaign per process but made two concurrent campaigns — different seeds,
different metrics — impossible without cross-talk.

A :class:`RunContext` bundles that state per run:

* the frozen :class:`repro.runtime.RunConfig`;
* the run's :class:`repro.obs.metrics.MetricsRegistry` and its *capture
  stack* (``obs.metrics.capture()`` pushes onto the active context's
  stack, not a module global);
* the run's profile collector (``obs.profile.enabled()``);
* the run's root RNG (``numpy`` Generator seeded with
  ``config.root_seed``).

The *active* context is carried on a :class:`contextvars.ContextVar`, so
activation is scoped per thread (and per asyncio task, should the serving
layer go async): two threads that each :func:`activate` their own context
are fully isolated, while code that never activates anything falls back
to the process-default context — which reproduces the historic
process-global behaviour exactly, keeping every pre-context call site
working unchanged.

Usage::

    from repro import runtime

    ctx = runtime.RunContext(runtime.RunConfig(root_seed=7, jobs=4))
    with runtime.activate(ctx):
        ...  # every layer resolves config/metrics/RNG through ctx
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import TYPE_CHECKING, Any, Iterator, List, Optional

from .config import RunConfig

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type names only
    from ..obs.metrics import MetricsRegistry
    from ..obs.profile import ProfileCollector


class RunContext:
    """One run's execution state: config plus the per-run service objects.

    The service objects (metrics registry, RNG) are created
    lazily on first use, so building a context is cheap and importing
    :mod:`repro.runtime` pulls in neither ``numpy`` nor the observability
    stack.
    """

    __slots__ = (
        "config", "_metrics", "_metrics_stack", "profile_collector", "_rng",
    )

    def __init__(
        self,
        config: Optional[RunConfig] = None,
        *,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.config = config if config is not None else RunConfig()
        self._metrics = metrics
        self._metrics_stack: Optional[List["MetricsRegistry"]] = None
        #: Hot-trial profile collector (``obs.profile.enabled()``).
        self.profile_collector: Optional["ProfileCollector"] = None
        self._rng: Any = None

    # ------------------------------------------------------------------
    # Metrics (base registry + capture stack)
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> "MetricsRegistry":
        """The run-level base metrics registry (bottom of the stack)."""
        if self._metrics is None:
            from ..obs.metrics import MetricsRegistry

            self._metrics = MetricsRegistry()
        return self._metrics

    @property
    def metrics_stack(self) -> List["MetricsRegistry"]:
        """The capture stack; instrumented code records into its top."""
        if self._metrics_stack is None:
            self._metrics_stack = [self.metrics]
        return self._metrics_stack

    def active_metrics(self) -> "MetricsRegistry":
        """The registry instrumented code currently records into."""
        stack = self._metrics_stack
        if stack is None:
            return self.metrics
        return stack[-1]

    # ------------------------------------------------------------------
    # Root RNG
    # ------------------------------------------------------------------
    @property
    def rng(self) -> Any:
        """The run's root ``numpy`` Generator (``config.root_seed``)."""
        if self._rng is None:
            import numpy as np

            self._rng = np.random.default_rng(self.config.root_seed)
        return self._rng

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunContext(jobs={self.config.jobs}, "
            f"root_seed={self.config.root_seed})"
        )


# ----------------------------------------------------------------------
# The active context
# ----------------------------------------------------------------------

#: The activation variable.  ``None`` means "no explicit activation" —
#: resolution falls back to the process-default context below.
_current: contextvars.ContextVar[Optional[RunContext]] = contextvars.ContextVar(
    "repro_run_context", default=None
)

#: The process-default context, created lazily from the environment.  It
#: carries the historic process-global behaviour: threads that never
#: activate a context all share it, exactly as they shared the old module
#: globals.
_process_default: Optional[RunContext] = None


def default_context() -> RunContext:
    """The process-default :class:`RunContext` (created on first use)."""
    global _process_default
    if _process_default is None:
        _process_default = RunContext(RunConfig())
    return _process_default


def reset_default_context() -> RunContext:
    """Replace the process-default context with a fresh one (tests)."""
    global _process_default
    _process_default = RunContext(RunConfig())
    return _process_default


def current() -> RunContext:
    """The active context: the innermost activation, else the default."""
    ctx = _current.get()
    if ctx is not None:
        return ctx
    return default_context()


def current_or_none() -> Optional[RunContext]:
    """The explicitly activated context, or ``None`` outside any."""
    return _current.get()


@contextlib.contextmanager
def activate(ctx: RunContext) -> Iterator[RunContext]:
    """Make *ctx* the active context inside the ``with`` block."""
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)
