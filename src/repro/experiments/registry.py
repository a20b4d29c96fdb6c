"""Declarative experiment registry: every driver is a self-describing unit.

Historically the experiment index lived in one hand-wired dict inside
``runner.build_sections``; the benchmarks and the CLI each duplicated the
wiring.  Since the context-scoped runtime refactor each experiment module
registers exactly one :class:`Experiment` with the central
:data:`REGISTRY` via the :func:`experiment` decorator::

    from .registry import experiment

    @experiment(
        id="figure12", index="E1",
        title="Figure 12 - system reliability over one year",
        anchors=("Figure 12", "Section 3.4"),
    )
    def _run(ctx: RunContext) -> Figure12Result:
        return compute_figure12()

``runner.build_sections``, every benchmark file and the ``python -m repro``
CLI (``--list`` / ``run <experiment-id>``) all resolve experiments through
the registry, so adding an experiment is a one-file, one-decorator change.

An experiment's ``run(ctx)`` receives the active
:class:`repro.runtime.RunContext` and derives every knob (campaign sizes,
worker count, timeouts, journal paths, observability switches) from
``ctx.config`` — never from process globals.  The returned result object
must provide ``render() -> str`` (the report section text); the registry
supplies a uniform ``to_dict()`` JSON projection for any result via
:func:`to_jsonable`.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import pkgutil
import re
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .. import runtime
from ..errors import ConfigurationError

#: Package modules that intentionally register no experiment.
NON_EXPERIMENT_MODULES = frozenset({"asciiplot", "registry", "runner"})

#: ``run(ctx)`` — derives all parameters from the context's config.
RunFn = Callable[[runtime.RunContext], Any]

_INDEX_RE = re.compile(r"^E(\d+)([a-z]?)$")


def _index_key(index: str) -> Tuple[int, str]:
    """Report-order sort key of a section index (``E9`` < ``E10``,
    ``E8a`` < ``E8b``)."""
    match = _INDEX_RE.match(index)
    if match is None:
        raise ConfigurationError(
            f"experiment index {index!r} must look like 'E5' or 'E8a'"
        )
    return int(match.group(1)), match.group(2)


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One registered experiment: identity, paper anchors and the driver.

    Attributes
    ----------
    id:
        Stable machine-readable identifier (the CLI's ``run <id>``).
    index:
        The report section index (``E1`` … ``E13``, ``E8a``/``E8b``).
    title:
        Human-readable section title (without the index prefix).
    paper_anchors:
        Where in the paper the reproduced artefact lives (figures,
        tables, section numbers, headline claims).
    run_fn:
        The driver: ``run_fn(ctx) -> result`` with ``result.render()``.
    tags:
        Free-form labels; ``"campaign"`` marks supervisor-driven
        fault-injection / Monte-Carlo experiments.
    module:
        Defining module (filled by the decorator; one per module).
    """

    id: str
    index: str
    title: str
    paper_anchors: Tuple[str, ...]
    run_fn: RunFn
    tags: Tuple[str, ...] = ()
    module: str = ""

    def __post_init__(self) -> None:
        _index_key(self.index)  # validate eagerly
        if not re.fullmatch(r"[a-z][a-z0-9_]*", self.id):
            raise ConfigurationError(
                f"experiment id {self.id!r} must be a lower_snake_case slug"
            )

    @property
    def section_title(self) -> str:
        """The exact report banner title (index padded to three columns)."""
        return f"{self.index:<3} {self.title}"

    def run(self, ctx: Optional[runtime.RunContext] = None) -> Any:
        """Execute with *ctx* (default: the active run context)."""
        return self.run_fn(ctx if ctx is not None else runtime.current())

    def render(self, result: Any) -> str:
        """The report section text of one result."""
        return result.render()

    def to_dict(self, result: Any) -> Dict[str, Any]:
        """Uniform plain-JSON projection of one result."""
        return {
            "id": self.id,
            "index": self.index,
            "title": self.title,
            "paper_anchors": list(self.paper_anchors),
            "result": to_jsonable(result),
        }


class ExperimentRegistry:
    """Id-keyed collection of :class:`Experiment`, iterated in report order."""

    def __init__(self) -> None:
        self._by_id: Dict[str, Experiment] = {}

    def register(self, exp: Experiment) -> Experiment:
        existing = self._by_id.get(exp.id)
        if existing is not None and existing.module != exp.module:
            raise ConfigurationError(
                f"experiment id {exp.id!r} already registered by "
                f"{existing.module}"
            )
        clash = next(
            (e for e in self._by_id.values()
             if e.index == exp.index and e.id != exp.id),
            None,
        )
        if clash is not None:
            raise ConfigurationError(
                f"section index {exp.index!r} already taken by {clash.id!r}"
            )
        self._by_id[exp.id] = exp
        return exp

    def get(self, experiment_id: str) -> Experiment:
        exp = self._by_id.get(experiment_id)
        if exp is None:
            raise ConfigurationError(
                f"unknown experiment {experiment_id!r}; known: "
                f"{', '.join(self.ids()) or '(none registered)'}"
            )
        return exp

    def ids(self) -> List[str]:
        """All ids, in report order."""
        return [exp.id for exp in self]

    def experiments(self) -> List[Experiment]:
        """All experiments, in report order (E1 … E13, E8a before E8b)."""
        return sorted(self._by_id.values(), key=lambda e: _index_key(e.index))

    def __iter__(self) -> Iterator[Experiment]:
        return iter(self.experiments())

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, experiment_id: str) -> bool:
        return experiment_id in self._by_id


#: The central registry every consumer resolves through.  Append-only and
#: id-keyed (re-registration of the same module is idempotent), so module
#: reloads and repeated ``load_all`` calls are safe.
REGISTRY = ExperimentRegistry()  # reprolint: disable=CTX001 -- The experiment registry: append-only, id-keyed, populated at import.


def experiment(
    *,
    id: str,  # noqa: A002 - matches the CLI vocabulary
    index: str,
    title: str,
    anchors: Tuple[str, ...] = (),
    tags: Tuple[str, ...] = (),
) -> Callable[[RunFn], Experiment]:
    """Register the decorated ``run(ctx)`` driver as an :class:`Experiment`.

    The decorator *replaces* the function with the (frozen) experiment
    object, so a module's single registration is also its module-level
    handle.
    """

    def decorate(run_fn: RunFn) -> Experiment:
        return REGISTRY.register(Experiment(
            id=id,
            index=index,
            title=title,
            paper_anchors=tuple(anchors),
            run_fn=run_fn,
            tags=tuple(tags),
            module=run_fn.__module__,
        ))

    return decorate


def experiment_modules() -> List[str]:
    """Names of the sibling modules expected to register one experiment."""
    package_dir = Path(__file__).parent
    return sorted(
        info.name
        for info in pkgutil.iter_modules([str(package_dir)])
        if info.name not in NON_EXPERIMENT_MODULES
        and not info.name.startswith("_")
    )


def load_all() -> ExperimentRegistry:
    """Import every experiment module, then return the populated registry.

    Registration happens at module import (the decorator), so discovery
    is just importing the package's experiment modules.  Idempotent.
    """
    for name in experiment_modules():
        importlib.import_module(f".{name}", package=__package__)
    return REGISTRY


# ----------------------------------------------------------------------
# Uniform JSON projection
# ----------------------------------------------------------------------

def to_jsonable(obj: Any) -> Any:
    """Recursively convert *obj* to plain-JSON types.

    Handles dataclasses, mappings with non-string keys (tuple keys join
    with ``/``; everything else stringifies), sequences, sets, enums,
    paths and numpy scalars/arrays.  The output round-trips
    ``json.dumps`` → ``json.loads`` unchanged, which is what the registry
    test asserts for every experiment result.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, enum.Enum):
        return to_jsonable(obj.value)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {_key_to_str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(to_jsonable(item) for item in obj)
    if isinstance(obj, Path):
        return str(obj)
    # numpy scalars and arrays, without importing numpy here.
    if hasattr(obj, "tolist"):
        return to_jsonable(obj.tolist())
    if hasattr(obj, "item") and hasattr(obj, "dtype"):
        return to_jsonable(obj.item())
    return str(obj)


def _key_to_str(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    if isinstance(key, enum.Enum):
        return str(key.value)
    return str(key)
