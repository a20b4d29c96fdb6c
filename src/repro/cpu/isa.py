"""The mini instruction-set architecture of the simulated processor.

A small 68k-flavoured load/store ISA with fixed 32-bit instruction words.
Fixed-width binary encoding is essential for the fault-injection study: a
bit flip in instruction memory or in the PC yields *emergent* behaviour —
an illegal opcode, a wrong register, a perturbed immediate, a jump into
data — rather than a scripted outcome.

Encoding (big-endian fields within the 32-bit word)::

    [31:24] opcode   [23:20] rd   [19:16] ra   [15:0] imm16 / rb

* Register designators: 0-7 = D0-D7, 8-14 = A0-A6, 15 = SP.
* ``imm16`` is sign-extended for arithmetic/branches; for three-register
  ALU forms the second source register ``rb`` lives in bits [3:0].
* Branches are PC-relative in instruction words; JSR/JMP are absolute.

Only 31 of the 256 opcode values are populated, so a random flip in the
opcode byte is detected as an illegal opcode with high probability —
matching the paper's reliance on CPU run-time EDMs (Table 1).
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType
from typing import Mapping, Optional

from ..errors import ProgramError

#: Mnemonic -> opcode byte.  Read-only mapping (CTX001-clean), like every
#: table below.
OPCODES: Mapping[str, int] = MappingProxyType({
    "NOP": 0x01,
    "HALT": 0x02,
    "MOVE": 0x04,
    "MOVEI": 0x05,
    "MOVEHI": 0x06,
    "LOAD": 0x08,
    "STORE": 0x09,
    "PUSH": 0x0C,
    "POP": 0x0D,
    "ADD": 0x10,
    "ADDI": 0x11,
    "SUB": 0x12,
    "SUBI": 0x13,
    "MUL": 0x14,
    "MULI": 0x15,
    "DIV": 0x16,
    "DIVI": 0x17,
    "AND": 0x18,
    "ANDI": 0x19,
    "OR": 0x1A,
    "ORI": 0x1B,
    "XOR": 0x1C,
    "XORI": 0x1D,
    "SHL": 0x1E,
    "SHR": 0x1F,
    "CMP": 0x20,
    "CMPI": 0x21,
    "BRA": 0x24,
    "BEQ": 0x25,
    "BNE": 0x26,
    "BLT": 0x27,
    "BGE": 0x28,
    "JMP": 0x2A,
    "JSR": 0x2B,
    "RTS": 0x2C,
    "SIG": 0x30,
})

MNEMONICS: Mapping[int, str] = MappingProxyType(
    {code: name for name, code in OPCODES.items()}
)

#: Instruction classes used by the decoder/executor.
THREE_REG = frozenset({"ADD", "SUB", "MUL", "DIV", "AND", "OR", "XOR", "CMP"})
TWO_REG_IMM = frozenset({"ADDI", "SUBI", "MULI", "DIVI", "ANDI", "ORI", "XORI", "SHL", "SHR", "LOAD", "STORE"})
BRANCHES = frozenset({"BRA", "BEQ", "BNE", "BLT", "BGE"})

#: Per-mnemonic cycle costs (everything else costs 1 cycle).
CYCLE_COSTS: Mapping[str, int] = MappingProxyType(
    {"MUL": 2, "MULI": 2, "DIV": 4, "DIVI": 4, "JSR": 2, "RTS": 2}
)

#: Register designator <-> name tables.
REGISTER_NAMES = tuple(f"D{i}" for i in range(8)) + tuple(f"A{i}" for i in range(7)) + ("SP",)
REGISTER_INDEX: Mapping[str, int] = MappingProxyType(
    {name: i for i, name in enumerate(REGISTER_NAMES)}
)


def register_name(designator: int) -> str:
    """Map a 4-bit register designator to its name."""
    if not 0 <= designator < len(REGISTER_NAMES):
        raise ProgramError(f"register designator {designator} out of range")
    return REGISTER_NAMES[designator]


def sign_extend_16(value: int) -> int:
    """Sign-extend a 16-bit field to a Python int."""
    value &= 0xFFFF
    return value - 0x1_0000 if value & 0x8000 else value


@dataclasses.dataclass(frozen=True, slots=True)
class Instruction:
    """A decoded instruction.

    ``imm`` holds the sign-extended immediate; for three-register forms the
    second source register index is ``rb`` (decoded from the low bits).
    """

    mnemonic: str
    rd: int
    ra: int
    imm: int
    rb: int

    @property
    def cycles(self) -> int:
        """Cycle cost of this instruction."""
        return CYCLE_COSTS.get(self.mnemonic, 1)

    def __str__(self) -> str:
        if self.mnemonic in THREE_REG:
            return (
                f"{self.mnemonic} {register_name(self.rd)}, "
                f"{register_name(self.ra)}, {register_name(self.rb)}"
            )
        if self.mnemonic in TWO_REG_IMM:
            return (
                f"{self.mnemonic} {register_name(self.rd)}, "
                f"{register_name(self.ra)}, {self.imm}"
            )
        if self.mnemonic in BRANCHES or self.mnemonic in ("MOVEI", "MOVEHI", "JSR", "SIG"):
            return f"{self.mnemonic} {self.imm}"
        return self.mnemonic


def encode(mnemonic: str, rd: int = 0, ra: int = 0, imm: int = 0, rb: int = 0) -> int:
    """Encode an instruction into its 32-bit word."""
    opcode = OPCODES.get(mnemonic)
    if opcode is None:
        raise ProgramError(f"unknown mnemonic {mnemonic!r}")
    for field_name, value, width in (("rd", rd, 4), ("ra", ra, 4), ("rb", rb, 4)):
        if not 0 <= value < (1 << width):
            raise ProgramError(f"{field_name}={value} does not fit {width} bits")
    if not -0x8000 <= imm <= 0xFFFF:
        raise ProgramError(f"immediate {imm} does not fit 16 bits")
    imm_field = imm & 0xFFFF
    if mnemonic in THREE_REG:
        imm_field = rb & 0xF
    return (opcode << 24) | ((rd & 0xF) << 20) | ((ra & 0xF) << 16) | imm_field


def decode(word: int) -> Optional[Instruction]:
    """Decode a 32-bit word; returns None for unpopulated opcodes.

    The machine converts a None result into an *illegal opcode* hardware
    exception — this is the CPU EDM of Table 1.
    """
    opcode = (word >> 24) & 0xFF
    mnemonic = MNEMONICS.get(opcode)
    if mnemonic is None:
        return None
    rd = (word >> 20) & 0xF
    ra = (word >> 16) & 0xF
    imm_field = word & 0xFFFF
    rb = imm_field & 0xF
    imm = sign_extend_16(imm_field)
    return Instruction(mnemonic=mnemonic, rd=rd, ra=ra, imm=imm, rb=rb)

