"""Register file of the simulated processor.

The register layout follows the Motorola 68k family used in the paper's
prototype studies [8]: eight data registers D0-D7, seven address registers
A0-A6, a stack pointer SP (= A7), the program counter PC and a status
register SR with condition-code flags.

All registers are 32-bit; arithmetic wraps modulo 2**32.  The register file
supports bit-exact fault injection (:meth:`RegisterFile.flip_bit`) and full
context save/restore, which the NLFT kernel uses when a hardware EDM fires
(Section 2.5: "the task's CPU state context ... is restored to the initial
conditions from information stored in the task control block").
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator

from ..errors import MachineError

WORD_MASK = 0xFFFF_FFFF
WORD_BITS = 32

#: Register names in canonical order.
DATA_REGISTERS = tuple(f"D{i}" for i in range(8))
ADDRESS_REGISTERS = tuple(f"A{i}" for i in range(7))
SPECIAL_REGISTERS = ("SP", "PC", "SR")
ALL_REGISTERS = DATA_REGISTERS + ADDRESS_REGISTERS + SPECIAL_REGISTERS

#: Status-register flag bit positions.
FLAG_ZERO = 0
FLAG_NEGATIVE = 1
FLAG_CARRY = 2
FLAG_OVERFLOW = 3


@dataclasses.dataclass(frozen=True, slots=True)
class Context:
    """An immutable snapshot of the full register file.

    Stored in the task control block at job start; restoring it implements
    the paper's recovery for hardware-detected errors.
    """

    values: Dict[str, int]

    def __getitem__(self, name: str) -> int:
        return self.values[name]


class RegisterFile:
    """Mutable 32-bit register file with fault-injection support."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: Dict[str, int] = {name: 0 for name in ALL_REGISTERS}

    def clone(self) -> "RegisterFile":
        """An independent copy of every register value."""
        twin = RegisterFile.__new__(RegisterFile)
        twin._values = dict(self._values)
        return twin

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def read(self, name: str) -> int:
        """Read a register by name; raises :class:`MachineError` if unknown."""
        try:
            return self._values[name]
        except KeyError:
            raise MachineError(f"unknown register {name!r}") from None

    def write(self, name: str, value: int) -> None:
        """Write a register, truncating to 32 bits."""
        if name not in self._values:
            raise MachineError(f"unknown register {name!r}")
        self._values[name] = value & WORD_MASK

    def __getitem__(self, name: str) -> int:
        return self.read(name)

    def __setitem__(self, name: str, value: int) -> None:
        self.write(name, value)

    def names(self) -> Iterator[str]:
        """All register names in canonical order."""
        return iter(ALL_REGISTERS)

    # ------------------------------------------------------------------
    # Flags
    # ------------------------------------------------------------------
    def get_flag(self, bit: int) -> bool:
        """Read one SR condition-code flag."""
        return bool(self._values["SR"] >> bit & 1)

    def set_flag(self, bit: int, value: bool) -> None:
        """Write one SR condition-code flag."""
        sr = self._values["SR"]
        if value:
            sr |= 1 << bit
        else:
            sr &= ~(1 << bit)
        self._values["SR"] = sr & WORD_MASK

    def update_arith_flags(self, result: int) -> None:
        """Set Z/N from a (possibly un-truncated) arithmetic result."""
        truncated = result & WORD_MASK
        self.set_flag(FLAG_ZERO, truncated == 0)
        self.set_flag(FLAG_NEGATIVE, bool(truncated >> (WORD_BITS - 1) & 1))
        self.set_flag(FLAG_CARRY, result != truncated and result >= 0 or result < 0)

    # ------------------------------------------------------------------
    # Context save/restore
    # ------------------------------------------------------------------
    def save_context(self) -> Context:
        """Snapshot every register (for the task control block)."""
        return Context(values=dict(self._values))

    def restore_context(self, context: Context) -> None:
        """Restore a previously saved snapshot."""
        for name in ALL_REGISTERS:
            self._values[name] = context.values[name] & WORD_MASK

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def flip_bit(self, name: str, bit: int) -> int:
        """Flip one bit of a register (transient-fault injection).

        Returns the new register value.  Raises for unknown registers or
        out-of-range bit positions so campaigns fail loudly on bad target
        specifications.
        """
        if not 0 <= bit < WORD_BITS:
            raise MachineError(f"bit index {bit} outside 0..{WORD_BITS - 1}")
        value = self.read(name) ^ (1 << bit)
        self.write(name, value)
        return value

    def reset(self) -> None:
        """Zero every register (hardware reset)."""
        for name in ALL_REGISTERS:
            self._values[name] = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        interesting = {n: v for n, v in self._values.items() if v}
        return f"RegisterFile({interesting})"
