"""Memory management unit: per-task region protection.

Section 2.4 of the paper: "Often, [COTS processors] also provide a memory
management unit (MMU), which supports fault confinement between tasks or
between tasks and the kernel."  Our MMU holds a region table; every access is
checked against the regions visible to the *current protection domain* (a
task identifier, or kernel mode which bypasses checking).

Control-flow errors are one of the fault classes the MMU catches (Section
2.7): a corrupted PC that leaves the task's code region triggers an
:class:`~repro.cpu.exceptions.AddressError` on the next fetch.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..errors import ConfigurationError
from .exceptions import AddressError

#: Access kinds used in permission checks.
ACCESS_READ = "r"
ACCESS_WRITE = "w"
ACCESS_EXECUTE = "x"

#: Domain identifier for the kernel (bypasses region checks).
KERNEL_DOMAIN = "kernel"


@dataclasses.dataclass(frozen=True, slots=True)
class Region:
    """A contiguous protected address range.

    Attributes
    ----------
    base, size:
        Word-addressed range [base, base + size).
    domain:
        Owning protection domain (task name), or None for a region every
        domain may use (e.g. shared ROM).
    permissions:
        Subset of "rwx".
    name:
        Diagnostic label ("code", "stack", "io", ...).
    """

    base: int
    size: int
    permissions: str
    domain: Optional[str] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError(f"region {self.name!r} has non-positive size")
        if self.base < 0:
            raise ConfigurationError(f"region {self.name!r} has negative base")
        invalid = set(self.permissions) - {"r", "w", "x"}
        if invalid:
            raise ConfigurationError(
                f"region {self.name!r} has invalid permissions {self.permissions!r}"
            )

    def contains(self, address: int) -> bool:
        return self.base <= address < self.base + self.size

    def allows(self, access: str) -> bool:
        return access in self.permissions


class Mmu:
    """Region-table MMU with a current protection domain.

    Statistics of denied accesses feed the EDM coverage accounting of
    fault-injection campaigns.
    """

    __slots__ = ("enabled", "_regions", "_domain", "violations", "_visible")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._regions: List[Region] = []
        self._domain: str = KERNEL_DOMAIN
        self.violations = 0
        # domain -> [(base, end, permissions)] in table order: the region
        # table is scanned on every instruction fetch and memory access, so
        # the per-domain filtered view is materialised once per (domain,
        # table) instead of re-filtered per access.
        self._visible: Dict[str, List["tuple[int, int, str]"]] = {}

    def clone(self) -> "Mmu":
        """An independent copy: region table, domain and violation count.

        Regions are frozen and a materialised per-domain view is never
        mutated (:meth:`add_region` drops the views instead), so both are
        shared with the copy.
        """
        twin = Mmu.__new__(Mmu)
        twin.enabled = self.enabled
        twin._regions = list(self._regions)
        twin._domain = self._domain
        twin.violations = self.violations
        twin._visible = dict(self._visible)
        return twin

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_region(self, region: Region) -> None:
        """Install a region in the table."""
        self._regions.append(region)
        self._visible.clear()

    def regions_for(self, domain: str) -> List[Region]:
        """Regions visible to *domain* (its own plus shared regions)."""
        return [r for r in self._regions if r.domain is None or r.domain == domain]

    def view(self, domain: str) -> List["tuple[int, int, str]"]:
        """``(base, end, permissions)`` of the regions visible to *domain*,
        in table order (materialised once per domain and table)."""
        visible = self._visible.get(domain)
        if visible is None:
            visible = self._visible[domain] = [
                (r.base, r.base + r.size, r.permissions)
                for r in self._regions
                if r.domain is None or r.domain == domain
            ]
        return visible

    # ------------------------------------------------------------------
    # Domain switching
    # ------------------------------------------------------------------
    @property
    def domain(self) -> str:
        """The current protection domain."""
        return self._domain

    def enter_domain(self, domain: str) -> None:
        """Switch protection domain (done by the kernel at dispatch)."""
        self._domain = domain

    def enter_kernel(self) -> None:
        """Switch to kernel mode (no region checking)."""
        self._domain = KERNEL_DOMAIN

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    def check(self, address: int, access: str) -> None:
        """Validate one access; raises :class:`AddressError` on violation.

        Kernel-domain accesses and disabled MMUs always pass — the paper's
        kernel protects itself with software checks instead (Section 2.3).
        """
        if not self.enabled or self._domain == KERNEL_DOMAIN:
            return
        for base, end, permissions in self.view(self._domain):
            if base <= address < end and access in permissions:
                return
        self.violations += 1
        raise AddressError(
            f"MMU: domain {self._domain!r} denied {access!r} access to "
            f"address {address:#x}",
            address=address,
        )
