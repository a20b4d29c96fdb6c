"""Fault-list generation for injection campaigns.

Campaigns either sample faults *randomly* (statistical coverage estimation,
as in the heavy-ion and SWIFI studies the paper builds on [7, 8, 16]) or
*scan* a location/time cross-product exhaustively (for small targeted
studies and for tests).
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from types import MappingProxyType
from typing import Iterator, List, Mapping, Optional, Sequence

import numpy as np

from ..cpu.registers import ADDRESS_REGISTERS, DATA_REGISTERS
from ..errors import ConfigurationError
from .types import Fault, FaultTarget, FaultType

#: Default sampling weights over targets for random campaigns.  Roughly
#: area-proportional for a microcontroller-class device: most flips land in
#: registers/data during computation; the PC/SP are small but consequential.
#: Read-only mapping (CTX001-clean).
DEFAULT_TARGET_WEIGHTS: Mapping[FaultTarget, float] = MappingProxyType({
    FaultTarget.DATA_REGISTER: 0.35,
    FaultTarget.ADDRESS_REGISTER: 0.15,
    FaultTarget.PC: 0.08,
    FaultTarget.SP: 0.07,
    FaultTarget.STATUS_REGISTER: 0.05,
    FaultTarget.CODE_MEMORY: 0.10,
    FaultTarget.DATA_MEMORY: 0.20,
})


def _normalised_table(table: Mapping) -> "tuple[list, list]":
    """``(targets, cdf)`` of a target-weight table.

    *cdf* is exactly the table ``Generator.choice(n, p=...)`` inverts for
    the normalised weights, so ``bisect_right(cdf, rng.random())`` consumes
    the same stream and draws the same index — without choice's per-call
    validation of ``p``, done here once instead.
    """
    targets = list(table)
    probabilities = np.array([table[t] for t in targets], dtype=float)
    if (probabilities < 0).any() or not probabilities.sum() > 0:
        raise ConfigurationError("target weights must be non-negative, not all zero")
    probabilities /= probabilities.sum()
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return targets, cdf.tolist()


#: Pre-normalised table for the default weights — the per-fault
#: normalisation is pure overhead in large random campaigns.
_DEFAULT_TARGET_TABLE = _normalised_table(DEFAULT_TARGET_WEIGHTS)

#: ``Generator.random``'s scale: a double is ``(word >> 11) * 2**-53``.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


class _RawDraws:
    """``Generator.random``/``integers`` decoded from one raw word block.

    Stream contract: the draws equal numpy's scalar ``rng.random()`` and
    ``int(rng.integers(low, high))`` bit for bit, and :meth:`close` leaves
    the bit generator in exactly the state those calls would have left —
    so a fault list drawn here and one drawn call by call through
    ``Generator.choice`` (``tests/oracles/reference_faults.py``) are the
    same list from the same stream.  numpy decodes, per 64-bit word *w*:

    * a double as ``(w >> 11) * 2**-53``, always from a fresh word;
    * a 32-bit integer from the buffered ``next_uint32``: the low half of
      a fresh word, its high half kept (``has_uint32``/``uinteger``) for
      the next 32-bit draw;
    * a bounded integer by Lemire's multiply-and-reject on 32-bit draws
      when the span fits 32 bits (on 64-bit words otherwise); a span of
      one consumes nothing.

    Only bit generators with that buffered half (PCG64, PCG64DXSM,
    Philox, SFC64) decode this way; MT19937 builds its doubles from two
    32-bit draws and is refused.
    """

    __slots__ = ("_bit_gen", "_start", "_drawn", "_block", "_next_word", "_has_half", "_half")

    def __init__(self, rng: np.random.Generator, words: int) -> None:
        bit_gen = rng.bit_generator
        state = bit_gen.state
        if "has_uint32" not in state:
            raise ConfigurationError(
                f"random fault draws need a bit generator with a buffered "
                f"32-bit half (PCG64, PCG64DXSM, Philox, SFC64), got "
                f"{state.get('bit_generator', type(bit_gen).__name__)}"
            )
        self._bit_gen = bit_gen
        self._start = state
        self._drawn = 0
        self._has_half = bool(state["has_uint32"])
        self._half: int = state["uinteger"]
        self._draw_block(words)

    def _draw_block(self, words: int) -> None:
        # The bit generator sits right after the previous block, so the
        # next block continues the stream.
        self._block = iter(self._bit_gen.random_raw(words).tolist())
        self._next_word = self._block.__next__
        self._drawn += words

    def _next64(self) -> int:
        try:
            return self._next_word()
        except StopIteration:  # rejections ran past the block
            self._draw_block(self._drawn + 16)
            return self._next_word()

    def _next32(self) -> int:
        if self._has_half:
            self._has_half = False
            return self._half
        word = self._next64()
        self._has_half = True
        self._half = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """``rng.random()``."""
        return (self._next64() >> 11) * _DOUBLE_SCALE

    def integers(self, low: int, high: int) -> int:
        """``int(rng.integers(low, high))`` for ``high > low``."""
        span = high - low
        if span == 1:
            return low
        if span <= 1 << 32:
            product = self._next32() * span
            if product & _MASK32 < span:
                threshold = (1 << 32) % span
                while product & _MASK32 < threshold:
                    product = self._next32() * span
            return low + (product >> 32)
        product = self._next64() * span
        if product & _MASK64 < span:
            threshold = (1 << 64) % span
            while product & _MASK64 < threshold:
                product = self._next64() * span
        return low + (product >> 64)

    def close(self) -> None:
        """Rewind the bit generator to just after the consumed words."""
        consumed = self._drawn - operator.length_hint(self._block)
        bit_gen = self._bit_gen
        bit_gen.state = self._start
        bit_gen.random_raw(consumed)
        state = bit_gen.state
        state["has_uint32"] = int(self._has_half)
        state["uinteger"] = self._half
        bit_gen.state = state


def _draw_faults(
    rng: np.random.Generator,
    count: int,
    max_step: int,
    code_range: "tuple[int, int]",
    data_range: "tuple[int, int]",
    weights: Optional[dict],
    fault_type: FaultType,
) -> List[Fault]:
    """The one random-fault decoder behind both public draw functions."""
    if max_step <= 0:
        raise ConfigurationError("max_step must be positive")
    if weights is None:
        targets, cdf = _DEFAULT_TARGET_TABLE
    else:
        targets, cdf = _normalised_table(weights)
    code_stop = max(code_range[0] + 1, code_range[1])
    data_stop = max(data_range[0] + 1, data_range[1])
    # A fault takes a word for its target and up to three bounded draws
    # of half a word each; rejections and spans past 32 bits draw on
    # from a further block.
    draws = _RawDraws(rng, 3 * max(count, 0) + 4)
    random, integers = draws.random, draws.integers
    faults: List[Fault] = []
    for _ in range(count):
        # The same draws Generator.choice makes (see _normalised_table).
        target = targets[bisect_right(cdf, random())]
        bit = integers(0, 32)
        step = integers(0, max_step)
        register: Optional[str] = None
        address: Optional[int] = None
        if target is FaultTarget.DATA_REGISTER:
            register = DATA_REGISTERS[integers(0, len(DATA_REGISTERS))]
        elif target is FaultTarget.ADDRESS_REGISTER:
            register = ADDRESS_REGISTERS[integers(0, len(ADDRESS_REGISTERS))]
        elif target is FaultTarget.PC:
            register = "PC"
            # High PC bits almost always leave memory entirely; restrict to
            # the low bits so a mix of in-range and out-of-range jumps occurs.
            bit = integers(0, 16)
        elif target is FaultTarget.SP:
            register = "SP"
            bit = integers(0, 16)
        elif target is FaultTarget.STATUS_REGISTER:
            register = "SR"
            bit = integers(0, 4)
        elif target is FaultTarget.CODE_MEMORY:
            address = integers(code_range[0], code_stop)
        elif target is FaultTarget.DATA_MEMORY:
            address = integers(data_range[0], data_stop)
        faults.append(Fault(
            fault_type=fault_type,
            target=target,
            register=register,
            address=address,
            bit=bit,
            at_step=step,
        ))
    draws.close()
    return faults


def random_fault(
    rng: np.random.Generator,
    max_step: int,
    code_range: "tuple[int, int]",
    data_range: "tuple[int, int]",
    weights: Optional[dict] = None,
    fault_type: FaultType = FaultType.TRANSIENT,
) -> Fault:
    """Draw one random fault.

    Parameters
    ----------
    max_step:
        Injection step is uniform over [0, max_step).
    code_range / data_range:
        Half-open word-address ranges for memory targets.
    weights:
        Target-class weights (defaults to :data:`DEFAULT_TARGET_WEIGHTS`).

    Consumes *rng* exactly as the call-by-call ``Generator.choice``/
    ``integers`` draws would (see :class:`_RawDraws`); *rng* must use a
    bit generator with a buffered 32-bit half (not MT19937).
    """
    return _draw_faults(
        rng, 1, max_step, code_range, data_range, weights, fault_type
    )[0]


def random_fault_list(
    rng: np.random.Generator,
    count: int,
    max_step: int,
    code_range: "tuple[int, int]",
    data_range: "tuple[int, int]",
    weights: Optional[dict] = None,
) -> List[Fault]:
    """Draw *count* independent random transient faults.

    The list equals *count* successive :func:`random_fault` calls and
    leaves *rng* in the same state, but decodes every fault from one
    ``random_raw`` block instead of several numpy calls per fault.
    """
    return _draw_faults(
        rng, count, max_step, code_range, data_range, weights,
        FaultType.TRANSIENT,
    )


def register_scan(
    registers: Sequence[str],
    bits: Sequence[int],
    steps: Sequence[int],
    fault_type: FaultType = FaultType.TRANSIENT,
) -> Iterator[Fault]:
    """Exhaustive register x bit x step cross-product (targeted studies)."""

    def target_for(register: str) -> FaultTarget:
        if register == "PC":
            return FaultTarget.PC
        if register == "SP":
            return FaultTarget.SP
        if register == "SR":
            return FaultTarget.STATUS_REGISTER
        return FaultTarget.ADDRESS_REGISTER if register.startswith("A") else FaultTarget.DATA_REGISTER

    for register in registers:
        for bit in bits:
            for step in steps:
                yield Fault(
                    fault_type=fault_type,
                    target=target_for(register),
                    register=register,
                    bit=bit,
                    at_step=step,
                )


def critical_section_arrivals(
    rng: np.random.Generator,
    task,
    count: int,
    horizon: int,
) -> List[int]:
    """Fault-arrival ticks aimed *inside* a task's critical sections.

    Multicore campaigns need strikes that land while a copy holds (or is
    inside) a shared-resource critical section — the case where a classic
    lock's blocking time blows up and a lock-free attempt merely fails to
    commit (:mod:`repro.kernel.resources`).  For each arrival a job of
    *task* in ``[0, horizon)`` is drawn uniformly, then a tick uniform
    over that job's section windows ``[release + start, release + end)``
    (fault-free timing; under contention the section stretches, so the
    tick still lands in or before the section — never after it).

    Returns sorted absolute ticks.  The *task* must declare at least one
    critical section and one full period must fit in the horizon.
    """
    if count < 0:
        raise ConfigurationError("count must be non-negative")
    windows = [(cs.start, cs.end) for cs in task.critical_sections]
    if not windows:
        raise ConfigurationError(
            f"task {task.name!r} has no critical sections to target"
        )
    jobs = horizon // task.period
    if jobs < 1:
        raise ConfigurationError("horizon shorter than one task period")
    lengths = np.array([end - start for start, end in windows], dtype=float)
    weights = lengths / lengths.sum()
    ticks: List[int] = []
    for _ in range(count):
        job = int(rng.integers(0, jobs))
        window = windows[int(rng.choice(len(windows), p=weights))]
        offset = int(rng.integers(window[0], window[1]))
        ticks.append(job * task.period + task.offset + offset)
    ticks.sort()
    return ticks


def memory_scan(
    addresses: Sequence[int],
    bits: Sequence[int],
    steps: Sequence[int],
    code_limit: int,
) -> Iterator[Fault]:
    """Exhaustive memory-word scan; classifies code vs data by address."""
    for address in addresses:
        target = FaultTarget.CODE_MEMORY if address < code_limit else FaultTarget.DATA_MEMORY
        for bit in bits:
            for step in steps:
                yield Fault(
                    fault_type=FaultType.TRANSIENT,
                    target=target,
                    address=address,
                    bit=bit,
                    at_step=step,
                )
