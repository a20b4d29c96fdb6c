"""A library of mini-ISA workload programs.

Fault-injection results depend on the workload (different instruction
mixes expose different EDMs), so the campaign experiments run several
realistic embedded-control kernels rather than a single toy.  Each entry
provides assembly source, input/output conventions, SIG checkpoints for
control-flow checking and a Python golden model used by tests.

All programs follow the conventions of
:class:`~repro.kernel.task.MachineExecutable`: inputs at ``0x1800``,
outputs at ``0x1900``, one result word unless noted.
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType
from typing import Callable, Mapping, Tuple

from ..errors import ConfigurationError

IN = 0x1800
OUT = 0x1900


@dataclasses.dataclass(frozen=True)
class WorkloadProgram:
    """One benchmark program with its golden model."""

    name: str
    source: str
    checkpoints: Tuple[int, ...]
    input_count: int
    output_count: int
    golden: Callable[..., Tuple[int, ...]]
    description: str


def _pid_golden(setpoint: int, measurement: int, integral: int) -> Tuple[int, ...]:
    error = setpoint - measurement
    new_integral = integral + error
    # P + I with per-mille gains 400 and 50, matching the assembly.  The
    # machine's DIV truncates toward zero (not floor), so mirror that.
    raw = error * 400 + new_integral * 50
    command = abs(raw) // 1000
    if raw < 0:
        command = -command
    return (command & 0xFFFF_FFFF, new_integral & 0xFFFF_FFFF)


PID_CONTROLLER = WorkloadProgram(
    name="pid_controller",
    source=f"""
; PI controller: inputs setpoint, measurement, integral state
start:  SIG 101
        LOAD  D0, A0, {IN}        ; setpoint
        LOAD  D1, A0, {IN + 1}    ; measurement
        LOAD  D2, A0, {IN + 2}    ; integral state
        SUB   D3, D0, D1          ; error
        ADD   D2, D2, D3          ; integral += error
        MULI  D4, D3, 400         ; P term (gain 0.4, per-mille)
        MULI  D5, D2, 50          ; I term (gain 0.05)
        ADD   D4, D4, D5
        DIVI  D4, D4, 1000
        SIG 102
        STORE D4, A0, {OUT}       ; command
        STORE D2, A0, {OUT + 1}   ; updated state
        HALT
""",
    checkpoints=(101, 102),
    input_count=3,
    output_count=2,
    golden=_pid_golden,
    description="PI control law with persistent integral state",
)


def _filter_golden(*samples: int) -> Tuple[int, ...]:
    weights = (1, 2, 4, 2, 1)
    acc = sum(w * s for w, s in zip(weights, samples))
    return (acc // 10 & 0xFFFF_FFFF,)


FIR_FILTER = WorkloadProgram(
    name="fir_filter",
    source=f"""
; 5-tap weighted moving average over sensor samples
start:  SIG 201
        MOVEI D7, 0               ; accumulator
        LOAD  D0, A0, {IN}
        MULI  D0, D0, 1
        ADD   D7, D7, D0
        LOAD  D0, A0, {IN + 1}
        MULI  D0, D0, 2
        ADD   D7, D7, D0
        LOAD  D0, A0, {IN + 2}
        MULI  D0, D0, 4
        ADD   D7, D7, D0
        LOAD  D0, A0, {IN + 3}
        MULI  D0, D0, 2
        ADD   D7, D7, D0
        LOAD  D0, A0, {IN + 4}
        MULI  D0, D0, 1
        ADD   D7, D7, D0
        DIVI  D7, D7, 10
        SIG 202
        STORE D7, A0, {OUT}
        HALT
""",
    checkpoints=(201, 202),
    input_count=5,
    output_count=1,
    golden=_filter_golden,
    description="FIR smoothing filter (sensor conditioning)",
)


def _checksum_golden(a: int, b: int, c: int, d: int) -> Tuple[int, ...]:
    # Fletcher-like: s1 = sum mod 65521, s2 = running sum of s1.
    s1 = 0
    s2 = 0
    for value in (a, b, c, d):
        s1 = (s1 + value) % 65_521
        s2 = (s2 + s1) % 65_521
    return ((s2 << 16 | s1) & 0xFFFF_FFFF,)


MESSAGE_CHECKSUM = WorkloadProgram(
    name="message_checksum",
    source=f"""
; Fletcher-style checksum over a 4-word message (uses a loop + JSR)
start:  SIG 301
        MOVEI D0, 0               ; s1
        MOVEI D1, 0               ; s2
        MOVEI D2, {IN}            ; pointer
        MOVEI D3, 4               ; count
loop:   MOVE  A1, D2
        LOAD  D4, A1, 0
        ADD   D0, D0, D4
        JSR   mod
        ADD   D1, D1, D0
        MOVE  D6, D0              ; save s1
        MOVE  D0, D1
        JSR   mod
        MOVE  D1, D0
        MOVE  D0, D6              ; restore s1
        ADDI  D2, D2, 1
        SUBI  D3, D3, 1
        CMPI  D3, 0
        BNE   loop
        SHL   D5, D1, 16
        OR    D5, D5, D0
        SIG 302
        STORE D5, A0, {OUT}
        HALT
; D0 <- D0 mod 65521 (single conditional subtraction is enough here)
mod:    MOVEI D7, 32753          ; build 65521 without sign-extension
        ADD   D7, D7, D7
        ADDI  D7, D7, 15          ; D7 = 65521
        CMP   D0, D7
        BLT   moddone
        SUB   D0, D0, D7
moddone: RTS
""",
    checkpoints=(301, 302),
    input_count=4,
    output_count=1,
    golden=_checksum_golden,
    description="end-to-end message checksum (loops, subroutine, pointers)",
)

#: The canonical program registry.  Read-only mapping (CTX001-clean).
PROGRAMS: Mapping[str, WorkloadProgram] = MappingProxyType({
    program.name: program
    for program in (PID_CONTROLLER, FIR_FILTER, MESSAGE_CHECKSUM)
})


def get_program(name: str) -> WorkloadProgram:
    """Look up a workload program by name."""
    try:
        return PROGRAMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown program {name!r}; available: {sorted(PROGRAMS)}"
        ) from None
