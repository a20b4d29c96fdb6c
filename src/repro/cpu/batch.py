"""Lockstep batch execution: K machines stepped as numpy array operations.

A fault-injection campaign runs the same program thousands of times, each
trial differing only in one injected bit flip.  :class:`BatchMachine`
exploits that redundancy: the architectural state of K trials ("lanes")
lives in numpy arrays — ``(K, registers)`` and ``(K, footprint)`` memory
columns behind a shared address→column map — one instruction is fetched
and decoded *once* per step, and its effects are applied to every lane
with vectorized arithmetic.

Equivalence contract (the same bar as the scalar interpreter against its
reference oracle — bit-identical or bust, enforced by
``tests/property/test_batch_differential.py``):

* **Data divergence stays in lockstep.**  Lanes may hold different register
  and memory values (that is the point of fault injection); ALU ops, flags,
  loads and stores are computed per-lane with numpy masks, reproducing the
  scalar :class:`~repro.cpu.machine.Machine` bit for bit — including the
  exact exception classes, messages, ``mechanism`` strings and ECC/MMU
  counter side effects.
* **Control-flow divergence evicts the lane.**  A lane whose PC (or fetched
  instruction word) no longer matches the cohort is *evicted* before any
  side effect of the divergent fetch, and the caller finishes it on a scalar
  ``Machine`` built by :meth:`BatchMachine.to_machine`.  Eviction is a pure
  performance decision: because every lane's semantics are independent of
  the cohort, the scalar continuation replays exactly what the scalar path
  would have done from that state.
* The cohort's reference instruction comes from a *pristine* lane (one with
  no fault injected yet) when any is still running — pristine lanes are
  bit-identical by construction and never evict.  Once every lane carries a
  fault, the reference is the modal (PC, word) pair, smallest value winning
  ties, so the majority of lanes stays vectorized.

Per-lane ECC fetch semantics need one subtlety: a single-bit error on the
fetched word is corrected and scrubbed *in lockstep* (the corrected word is
the clean word), but the correction counter and scrub are applied only if
the lane stays in the cohort — an evicted lane must leave its error bits in
place so the scalar machine replays the correction itself, exactly once.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import MachineError
from .exceptions import (
    AddressError,
    BusError,
    DivisionByZeroError,
    EccUncorrectableError,
    HardwareException,
    IllegalOpcodeError,
)
from .isa import OPCODES, Instruction
from .machine import (
    _DECODE_CACHE,
    DEFAULT_CYCLE_TICKS,
    DEFAULT_MEMORY_WORDS,
    DEFAULT_ROM_WORDS,
    Machine,
    decode_cached,
)
from .mmu import ACCESS_EXECUTE, ACCESS_READ, ACCESS_WRITE, KERNEL_DOMAIN, Mmu, Region
from .registers import ALL_REGISTERS, WORD_BITS, WORD_MASK

#: Register-file columns.  The instruction encoding's register indices
#: (D0-D7 = 0..7, A0-A6 = 8..14, SP = 15) coincide with the canonical
#: ALL_REGISTERS order, so ``ins.rd`` indexes the array directly.
_SP_COL = ALL_REGISTERS.index("SP")
_PC_COL = ALL_REGISTERS.index("PC")
_SR_COL = ALL_REGISTERS.index("SR")
_N_COLS = len(ALL_REGISTERS)

_SIGN_BIT = 0x8000_0000
_TWO_POW_32 = 0x1_0000_0000

#: Initial lane-memory width in columns (the zero column included); it
#: doubles as the written footprint grows.
_INITIAL_COLUMNS = 64


def _signed(values: np.ndarray) -> np.ndarray:
    """Vectorized 32-bit two's-complement reinterpretation (int64 in/out)."""
    return np.where(values & _SIGN_BIT, values - _TWO_POW_32, values)


class BatchMachine:
    """K simulated processors advancing in lockstep.

    Parameters mirror :class:`~repro.cpu.machine.Machine`; *lanes* is the
    batch width K.  All lanes share one program image, one MMU region table
    and one protection domain (campaign copies run the same task in the same
    domain); everything else — registers, memory, ECC error bits, counters,
    exceptions — is per-lane.
    """

    def __init__(
        self,
        lanes: int,
        memory_words: int = DEFAULT_MEMORY_WORDS,
        rom_words: int = DEFAULT_ROM_WORDS,
        ecc_enabled: bool = True,
        mmu_enabled: bool = True,
        cycle_ticks: int = DEFAULT_CYCLE_TICKS,
    ) -> None:
        if lanes <= 0:
            raise MachineError("batch machine needs at least one lane")
        self.lanes = int(lanes)
        self.memory_words = int(memory_words)
        self.rom_words = int(rom_words)
        self.ecc_enabled = bool(ecc_enabled)
        self.cycle_ticks = int(cycle_ticks)
        self.mmu = Mmu(enabled=mmu_enabled)
        self._rom_sealed = False

        k = self.lanes
        self.regs = np.zeros((k, _N_COLS), dtype=np.int64)
        #: Lane memory sized to the footprint, not the address space: word
        #: ``address`` of lane ``l`` is ``mem[l, _col[address]]``.  A task
        #: touches a few dozen of its thousands of words, so columns are
        #: mapped on first write (shared by all lanes) and ``mem`` doubles
        #: in width as needed.  Column 0 is never mapped, so an address no
        #: lane wrote reads 0, exactly like ``Memory._clean.get(a, 0)``.
        self._col = np.zeros(self.memory_words, dtype=np.intp)
        self.mem = np.zeros((k, _INITIAL_COLUMNS), dtype=np.int64)
        #: The address of each mapped column, in column order (from 1).
        self._addresses: List[int] = []
        #: Per-lane sparse ECC error bits: address -> set of flipped bits.
        self.error_bits: List[Dict[int, Set[int]]] = [{} for _ in range(k)]
        self._lane_has_err = np.zeros(k, dtype=bool)

        self.active = np.zeros(k, dtype=bool)
        self.halted = np.zeros(k, dtype=bool)
        self.evicted = np.zeros(k, dtype=bool)
        #: True once a lane's state was perturbed (fault injected): the lane
        #: is no longer bit-identical to the unfaulted run and can never
        #: serve as the cohort's divergence reference.
        self.injected = np.zeros(k, dtype=bool)

        self.signature = np.zeros(k, dtype=np.int64)
        #: Cumulative counters *before* the copy in flight; the public
        #: ``instruction_count``/``cycle_count`` views add the per-copy
        #: deltas, so the hot step loop only maintains one pair of arrays.
        self._instr_base = np.zeros(k, dtype=np.int64)
        self._cycle_base = np.zeros(k, dtype=np.int64)
        #: Instructions/cycles retired since the last :meth:`prepare` — the
        #: per-copy step budget accounting of the TEM executor.
        self.copy_steps = np.zeros(k, dtype=np.int64)
        self.copy_cycles = np.zeros(k, dtype=np.int64)

        self.ecc_corrections = np.zeros(k, dtype=np.int64)
        self.ecc_detections = np.zeros(k, dtype=np.int64)
        self.ecc_silent = np.zeros(k, dtype=np.int64)
        self.mmu_violations = np.zeros(k, dtype=np.int64)

        self.exceptions: List[Optional[HardwareException]] = [None] * k
        self.exception_log: List[List[HardwareException]] = [[] for _ in range(k)]
        self._evicted_now: List[int] = []
        #: Cached ``(active lane index, pristine lane index)`` pair —
        #: recomputing it per step dominates small-cohort stepping, and it
        #: only changes when lane membership or injection state changes.
        self._cohort: Optional[Tuple[np.ndarray, np.ndarray]] = None

        self._reg_col = {name: col for col, name in enumerate(ALL_REGISTERS)}

    @property
    def instruction_count(self) -> np.ndarray:
        """Cumulative retired instructions per lane (derived view).

        The hot step loop only maintains the per-copy deltas; the copy in
        flight is folded into ``_instr_base`` at the next :meth:`prepare`.
        """
        return self._instr_base + self.copy_steps

    @property
    def cycle_count(self) -> np.ndarray:
        """Cumulative consumed cycles per lane (derived view)."""
        return self._cycle_base + self.copy_cycles

    # ------------------------------------------------------------------
    # Program loading / configuration (shared across lanes)
    # ------------------------------------------------------------------
    def load_rom(self, base: int, words: Sequence[int]) -> None:
        """Copy a program image into every lane's ROM region."""
        if self._rom_sealed:
            raise MachineError("cannot load ROM after sealing")
        image = np.asarray([int(w) & WORD_MASK for w in words], dtype=np.int64)
        if image.size:
            if base < 0 or base + image.size > self.memory_words:
                raise MachineError("ROM image outside physical memory")
            cols = self._columns(np.arange(base, base + image.size))
            self.mem[:, cols] = image[None, :]

    def load_program(self, program) -> None:
        """Copy an assembled program into ROM (does not seal)."""
        self.load_rom(program.origin, program.words)

    def seal_rom(self) -> None:
        """Freeze the code/constant region against writes (all lanes)."""
        self._rom_sealed = True

    def add_region(self, region: Region) -> None:
        """Install an MMU region (shared region table)."""
        self.mmu.add_region(region)

    # ------------------------------------------------------------------
    # State control
    # ------------------------------------------------------------------
    def _lane_index(self, lanes: Optional[Sequence[int]]) -> np.ndarray:
        if lanes is None:
            return np.arange(self.lanes, dtype=np.int64)
        return np.asarray(sorted(int(lane) for lane in lanes), dtype=np.int64)

    def prepare(
        self,
        entry: int,
        stack_top: Optional[int] = None,
        lanes: Optional[Sequence[int]] = None,
    ) -> None:
        """Arm *lanes* (default: all) to run from *entry* with fresh state.

        Mirrors :meth:`Machine.prepare`: registers cleared, PC = entry,
        SP = stack top (default: top of memory), signature reset.  Only the
        prepared lanes become active; per-copy step counters restart.
        """
        idx = self._lane_index(lanes)
        self.regs[idx, :] = 0
        self.regs[idx, _PC_COL] = int(entry) & WORD_MASK
        top = self.memory_words if stack_top is None else int(stack_top)
        self.regs[idx, _SP_COL] = top & WORD_MASK
        self.signature[idx] = 0
        self.halted[idx] = False
        # Fold the previous copy's deltas into the cumulative base before
        # the per-copy counters restart (see instruction_count property).
        self._instr_base[idx] += self.copy_steps[idx]
        self._cycle_base[idx] += self.copy_cycles[idx]
        self.copy_steps[idx] = 0
        self.copy_cycles[idx] = 0
        for lane in idx.tolist():
            self.exceptions[lane] = None
        self.active[:] = False
        self.active[idx] = True
        self._cohort = None

    def write_words(
        self,
        base: int,
        values: Sequence[int],
        lanes: Optional[Sequence[int]] = None,
    ) -> None:
        """Write a word block to every selected lane (kernel-mode semantics)."""
        idx = self._lane_index(lanes)
        for offset, value in enumerate(values):
            address = base + offset
            if not 0 <= address < self.memory_words:
                raise BusError(
                    f"physical address {address:#x} outside memory of "
                    f"{self.memory_words} words",
                    address=address,
                )
            if self._rom_sealed and address < self.rom_words:
                raise BusError(f"write to ROM address {address:#x}", address=address)
            col = self._columns(np.array([address]))
            self.mem[idx, col] = int(value) & WORD_MASK
            if self._lane_has_err[idx].any():
                for lane in idx.tolist():
                    bits = self.error_bits[lane]
                    if bits.pop(address, None) is not None and not bits:
                        self._lane_has_err[lane] = False

    def read_words(self, lane: int, base: int, count: int) -> List[int]:
        """Read a word block from one lane with full ECC semantics."""
        return [self._read_lane(int(lane), base + offset) for offset in range(count)]

    def peek(self, lane: int, address: int) -> int:
        """Clean value of one word, no ECC side effects (diagnostic)."""
        return int(self.mem[int(lane), self._col[address]])

    def peek_words(self, lanes: Sequence[int], base: int, count: int) -> np.ndarray:
        """Clean ``(len(lanes), count)`` word block, no ECC side effects.

        The caller bounds-checks ``[base, base + count)`` once for all lanes.
        """
        return self.mem[
            np.asarray(lanes, dtype=np.intp)[:, None], self._col[base : base + count]
        ]

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def flip_register(self, lane: int, name: str, bit: int) -> None:
        """Flip one register bit in one lane (transient-fault injection)."""
        if not 0 <= bit < WORD_BITS:
            raise MachineError(f"bit index {bit} outside 0..{WORD_BITS - 1}")
        col = self._reg_col.get(name)
        if col is None:
            raise MachineError(f"unknown register {name!r}")
        lane = int(lane)
        self.regs[lane, col] = (int(self.regs[lane, col]) ^ (1 << bit)) & WORD_MASK
        self.injected[lane] = True
        self._cohort = None

    def flip_memory_bit(self, lane: int, address: int, bit: int) -> None:
        """Toggle one stored-word ECC error bit in one lane."""
        if not 0 <= address < self.memory_words:
            raise BusError(
                f"physical address {address:#x} outside memory of "
                f"{self.memory_words} words",
                address=address,
            )
        if not 0 <= bit < WORD_BITS:
            raise MachineError(f"bit index {bit} outside 0..{WORD_BITS - 1}")
        lane = int(lane)
        bits = self.error_bits[lane]
        present = bits.get(address)
        if present is None:
            bits[address] = {bit}
            self._lane_has_err[lane] = True
        elif bit in present:
            present.discard(bit)
            if not present:
                del bits[address]
            if not bits:
                self._lane_has_err[lane] = False
        else:
            present.add(bit)
        self.injected[lane] = True
        self._cohort = None

    # ------------------------------------------------------------------
    # Lockstep execution
    # ------------------------------------------------------------------
    def run(self, max_steps: int) -> int:
        """Step the cohort up to *max_steps* times; returns steps taken.

        Stops early only when no lane remains active (every lane halted,
        raised, or was evicted).
        """
        executed = 0
        while executed < max_steps:
            if not self.step():
                break
            executed += 1
        return executed

    def step(self) -> bool:
        """One lockstep fetch/decode/execute; False if no lane is active."""
        cohort = self._cohort
        if cohort is None:
            idx = np.flatnonzero(self.active)
            pristine = idx[~self.injected[idx]]
            self._cohort = (idx, pristine)
        else:
            idx, pristine = cohort
        if idx.size == 0:
            return False

        # --- divergence checkpoint: all surviving lanes must share a PC ---
        pcs = self.regs[idx, _PC_COL]
        if pristine.size:
            ref_pc = int(self.regs[pristine[0], _PC_COL])
        else:
            ref_pc = int(pcs[0])
            if not (pcs == ref_pc).all():
                # Modal PC (ties: smallest value — np.unique sorts).
                values, counts = np.unique(pcs, return_counts=True)
                ref_pc = int(values[int(np.argmax(counts))])
        strayed = pcs != ref_pc
        if strayed.any():
            for lane in idx[strayed].tolist():
                self._evict(lane)
            idx = idx[~strayed]
            if idx.size == 0:
                return True

        # --- MMU execute check (shared address, shared domain) ---
        mmu = self.mmu
        if mmu.enabled and mmu._domain != KERNEL_DOMAIN:
            if not self._mmu_allows(ref_pc, ACCESS_EXECUTE):
                domain = mmu._domain
                for lane in idx.tolist():
                    self.mmu_violations[lane] += 1
                    self._raise_lane(
                        lane,
                        AddressError(
                            f"MMU: domain {domain!r} denied {ACCESS_EXECUTE!r} "
                            f"access to address {ref_pc:#x}",
                            address=ref_pc,
                        ),
                    )
                return True

        if not 0 <= ref_pc < self.memory_words:
            for lane in idx.tolist():
                self._raise_lane(
                    lane,
                    BusError(
                        f"physical address {ref_pc:#x} outside memory of "
                        f"{self.memory_words} words",
                        address=ref_pc,
                    ),
                )
            return True

        # --- fetch with per-lane ECC resolution ---
        pc_col = self._col[ref_pc]
        words = self.mem[idx, pc_col]
        scrub_lanes: List[int] = []
        silent_lanes: List[Tuple[int, int]] = []
        flagged = self._lane_has_err[idx]
        if flagged.any():
            dropped = np.zeros(idx.shape, dtype=bool)
            for pos in np.flatnonzero(flagged).tolist():
                lane = int(idx[pos])
                errors = self.error_bits[lane].get(ref_pc)
                if not errors:
                    continue
                if not self.ecc_enabled:
                    # ECC off: the corrupted word is fetched with no side
                    # effects, so the lane can stay if it matches the cohort.
                    words[pos] = self._corrupted(int(words[pos]), errors)
                elif len(errors) == 1:
                    # Correctable: the effective word is the clean word; the
                    # counter + scrub are deferred until the lane is known to
                    # stay in the cohort (an evicted lane replays them).
                    scrub_lanes.append(lane)
                elif len(errors) == 2:
                    self.ecc_detections[lane] += 1
                    self._raise_lane(
                        lane,
                        EccUncorrectableError(
                            f"double-bit ECC error at address {ref_pc:#x}",
                            address=ref_pc,
                        ),
                    )
                    dropped[pos] = True
                else:
                    # 3+ bits: silently corrupted fetch; count only if the
                    # lane stays (the scalar machine otherwise re-counts).
                    silent_lanes.append((pos, lane))
                    words[pos] = self._corrupted(int(words[pos]), errors)
            if dropped.any():
                idx = idx[~dropped]
                words = words[~dropped]
                if idx.size == 0:
                    return True

        if pristine.size:
            ref_word = int(self.mem[pristine[0], pc_col])
        else:
            ref_word = int(words[0])
            if not (words == ref_word).all():
                # Modal word (ties: smallest value — np.unique sorts).
                values, counts = np.unique(words, return_counts=True)
                ref_word = int(values[int(np.argmax(counts))])
        diverged = words != ref_word
        if diverged.any():
            for lane in idx[diverged].tolist():
                self._evict(lane)
            idx = idx[~diverged]
            if idx.size == 0:
                return True
        for lane in scrub_lanes:
            if self.active[lane]:
                self.ecc_corrections[lane] += 1
                bits = self.error_bits[lane]
                del bits[ref_pc]
                if not bits:
                    self._lane_has_err[lane] = False
        for _, lane in silent_lanes:
            if self.active[lane]:
                self.ecc_silent[lane] += 1

        # --- shared decode, then vectorized execute ---
        entry = _DECODE_CACHE.get(ref_word)
        if entry is None:
            entry = decode_cached(ref_word)
        ins, cycles, _ = entry
        if ins is None:
            for lane in idx.tolist():
                self._raise_lane(
                    lane,
                    IllegalOpcodeError(
                        f"illegal opcode {ref_word >> 24 & 0xFF:#04x} "
                        f"at address {ref_pc:#x}",
                        address=ref_pc,
                    ),
                )
            return True
        self.regs[idx, _PC_COL] = (ref_pc + 1) & WORD_MASK
        retired = _DISPATCH[ins.mnemonic](self, idx, ins)
        if retired.size:
            self.copy_steps[retired] += 1
            self.copy_cycles[retired] += cycles
        return True

    # ------------------------------------------------------------------
    # Lane lifecycle
    # ------------------------------------------------------------------
    def _raise_lane(self, lane: int, exc: HardwareException) -> None:
        lane = int(lane)
        self.exceptions[lane] = exc
        self.exception_log[lane].append(exc)
        self.active[lane] = False
        self._cohort = None

    def _evict(self, lane: int) -> None:
        lane = int(lane)
        self.evicted[lane] = True
        self.active[lane] = False
        self._evicted_now.append(lane)
        self._cohort = None

    def pop_evicted(self) -> List[int]:
        """Lanes evicted since the last call (in eviction order)."""
        out = self._evicted_now
        self._evicted_now = []
        return out

    def to_machine(self, lane: int) -> Machine:
        """Materialise one lane as a scalar :class:`Machine`.

        The extracted machine is bit-identical to the lane: registers,
        memory contents and ECC error bits, ROM seal, MMU regions/domain,
        counters, signature, halt flag and exception log all carry over, so
        scalar execution continues exactly where the lockstep left off.
        """
        lane = int(lane)
        machine = Machine(
            memory_words=self.memory_words,
            rom_words=self.rom_words,
            ecc_enabled=self.ecc_enabled,
            mmu_enabled=self.mmu.enabled,
            cycle_ticks=self.cycle_ticks,
        )
        values = machine.registers._values
        row = self.regs[lane]
        for col, name in enumerate(ALL_REGISTERS):
            values[name] = int(row[col])
        mem = machine.memory
        values = self.mem[lane, 1 : len(self._addresses) + 1].tolist()
        mem._clean = {
            address: value
            for address, value in sorted(zip(self._addresses, values))
            if value
        }
        mem._error_bits = {
            address: set(bits) for address, bits in self.error_bits[lane].items()
        }
        if self._rom_sealed:
            mem.seal_rom()
        mem.ecc_stats.corrections = int(self.ecc_corrections[lane])
        mem.ecc_stats.detections = int(self.ecc_detections[lane])
        mem.ecc_stats.silent_corruptions = int(self.ecc_silent[lane])
        for region in self.mmu._regions:
            machine.mmu.add_region(region)
        machine.mmu.enter_domain(self.mmu._domain)
        machine.mmu.violations = int(self.mmu_violations[lane])
        machine.instruction_count = int(
            self._instr_base[lane] + self.copy_steps[lane]
        )
        machine.cycle_count = int(self._cycle_base[lane] + self.copy_cycles[lane])
        machine.signature = int(self.signature[lane])
        machine._halted = bool(self.halted[lane])
        machine._exception_log = list(self.exception_log[lane])
        return machine

    def adopt(self, lane: int, machine: Machine) -> None:
        """Fold a scalar :class:`Machine` back into one lane.

        Inverse of :meth:`to_machine`: batch drivers re-admit an evicted
        lane into lockstep once its divergent copy finished on the scalar
        path.  Only job-persistent state matters — memory contents, ECC
        error bits and counters, MMU violations, cumulative counters and
        the exception log — because the next copy re-prepares the per-copy
        register state anyway.  The lane stays inactive until the next
        :meth:`prepare` arms it.

        *machine* must descend from :meth:`to_machine` of this very lane:
        ``Memory.write`` records every written word in ``_clean`` (zeros
        included, keys are never discarded), so the machine's ``_clean``
        is a superset of every word that can differ from the lane row and
        writing just those words back is exact — no row-wide reset needed.
        """
        lane = int(lane)
        mem = machine.memory
        clean = mem._clean
        if clean:
            cols = self._columns(
                np.fromiter(clean.keys(), dtype=np.intp, count=len(clean))
            )
            self.mem[lane, cols] = np.fromiter(
                clean.values(), dtype=np.int64, count=len(clean)
            )
        self.error_bits[lane] = {
            address: set(bits) for address, bits in mem._error_bits.items()
        }
        self._lane_has_err[lane] = bool(mem._error_bits)
        self.ecc_corrections[lane] = mem.ecc_stats.corrections
        self.ecc_detections[lane] = mem.ecc_stats.detections
        self.ecc_silent[lane] = mem.ecc_stats.silent_corruptions
        self.mmu_violations[lane] = machine.mmu.violations
        self._instr_base[lane] = machine.instruction_count
        self._cycle_base[lane] = machine.cycle_count
        self.copy_steps[lane] = 0
        self.copy_cycles[lane] = 0
        self.signature[lane] = machine.signature
        self.halted[lane] = bool(machine._halted)
        self.exception_log[lane] = list(machine._exception_log)
        self.exceptions[lane] = None
        self.evicted[lane] = False
        self.active[lane] = False
        self._cohort = None

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _corrupted(clean: int, errors: Set[int]) -> int:
        value = clean
        for bit in sorted(errors):
            value ^= 1 << bit
        return value & WORD_MASK

    def _columns(self, addresses: np.ndarray) -> np.ndarray:
        """Columns of in-bounds *addresses*, mapping unseen ones first.

        Mapping may reallocate :attr:`mem`, so a store must call this
        *before* it evaluates ``self.mem``.
        """
        cols = self._col[addresses]
        if cols.all():
            return cols
        new = np.unique(addresses[cols == 0])
        start = len(self._addresses) + 1
        end = start + new.size
        width = self.mem.shape[1]
        if end > width:
            while width < end:
                width *= 2
            grown = np.zeros(
                (self.lanes, min(width, self.memory_words + 1)), dtype=np.int64
            )
            grown[:, :start] = self.mem[:, :start]
            self.mem = grown
        self._col[new] = np.arange(start, end)
        self._addresses.extend(new.tolist())
        return self._col[addresses]

    def _read_lane(self, lane: int, address: int) -> int:
        if not 0 <= address < self.memory_words:
            raise BusError(
                f"physical address {address:#x} outside memory of "
                f"{self.memory_words} words",
                address=address,
            )
        clean = int(self.mem[lane, self._col[address]])
        errors = self.error_bits[lane].get(address)
        if not errors:
            return clean
        if not self.ecc_enabled:
            return self._corrupted(clean, errors)
        if len(errors) == 1:
            self.ecc_corrections[lane] += 1
            bits = self.error_bits[lane]
            del bits[address]
            if not bits:
                self._lane_has_err[lane] = False
            return clean
        if len(errors) == 2:
            self.ecc_detections[lane] += 1
            raise EccUncorrectableError(
                f"double-bit ECC error at address {address:#x}", address=address
            )
        self.ecc_silent[lane] += 1
        return self._corrupted(clean, errors)

    def _visible_regions(self) -> List[Tuple[int, int, str]]:
        mmu = self.mmu
        visible = mmu._visible.get(mmu._domain)
        if visible is None:
            visible = mmu._visible[mmu._domain] = [
                (r.base, r.base + r.size, r.permissions)
                for r in mmu._regions
                if r.domain is None or r.domain == mmu._domain
            ]
        return visible

    def _mmu_allows(self, address: int, access: str) -> bool:
        for base, end, permissions in self._visible_regions():
            if base <= address < end and access in permissions:
                return True
        return False

    def _mmu_filter(
        self, idx: np.ndarray, addresses: np.ndarray, access: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        mmu = self.mmu
        if not mmu.enabled or mmu._domain == KERNEL_DOMAIN or idx.size == 0:
            return idx, addresses
        allow = np.zeros(idx.shape, dtype=bool)
        for base, end, permissions in self._visible_regions():
            if access in permissions:
                allow |= (addresses >= base) & (addresses < end)
        if not allow.all():
            domain = mmu._domain
            for pos in np.flatnonzero(~allow).tolist():
                lane = int(idx[pos])
                address = int(addresses[pos])
                self.mmu_violations[lane] += 1
                self._raise_lane(
                    lane,
                    AddressError(
                        f"MMU: domain {domain!r} denied {access!r} access to "
                        f"address {address:#x}",
                        address=address,
                    ),
                )
            idx = idx[allow]
            addresses = addresses[allow]
        return idx, addresses

    def _mem_read(
        self, idx: np.ndarray, addresses: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        oob = (addresses < 0) | (addresses >= self.memory_words)
        if oob.any():
            for pos in np.flatnonzero(oob).tolist():
                lane = int(idx[pos])
                address = int(addresses[pos])
                self._raise_lane(
                    lane,
                    BusError(
                        f"physical address {address:#x} outside memory of "
                        f"{self.memory_words} words",
                        address=address,
                    ),
                )
            keep = ~oob
            idx = idx[keep]
            addresses = addresses[keep]
        if idx.size == 0:
            return idx, addresses
        values = self.mem[idx, self._col[addresses]]
        flagged = self._lane_has_err[idx]
        if flagged.any():
            dropped = np.zeros(idx.shape, dtype=bool)
            for pos in np.flatnonzero(flagged).tolist():
                lane = int(idx[pos])
                address = int(addresses[pos])
                errors = self.error_bits[lane].get(address)
                if not errors:
                    continue
                if not self.ecc_enabled:
                    values[pos] = self._corrupted(int(values[pos]), errors)
                elif len(errors) == 1:
                    self.ecc_corrections[lane] += 1
                    bits = self.error_bits[lane]
                    del bits[address]
                    if not bits:
                        self._lane_has_err[lane] = False
                elif len(errors) == 2:
                    self.ecc_detections[lane] += 1
                    self._raise_lane(
                        lane,
                        EccUncorrectableError(
                            f"double-bit ECC error at address {address:#x}",
                            address=address,
                        ),
                    )
                    dropped[pos] = True
                else:
                    self.ecc_silent[lane] += 1
                    values[pos] = self._corrupted(int(values[pos]), errors)
            if dropped.any():
                keep = ~dropped
                idx = idx[keep]
                values = values[keep]
        return idx, values

    def _mem_write(
        self, idx: np.ndarray, addresses: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        oob = (addresses < 0) | (addresses >= self.memory_words)
        if self._rom_sealed:
            bad = oob | (~oob & (addresses < self.rom_words))
        else:
            bad = oob
        if bad.any():
            for pos in np.flatnonzero(bad).tolist():
                lane = int(idx[pos])
                address = int(addresses[pos])
                if 0 <= address < self.memory_words:
                    exc = BusError(
                        f"write to ROM address {address:#x}", address=address
                    )
                else:
                    exc = BusError(
                        f"physical address {address:#x} outside memory of "
                        f"{self.memory_words} words",
                        address=address,
                    )
                self._raise_lane(lane, exc)
            keep = ~bad
            idx = idx[keep]
            addresses = addresses[keep]
            values = values[keep]
        if idx.size:
            cols = self._columns(addresses)
            self.mem[idx, cols] = values & WORD_MASK
            flagged = self._lane_has_err[idx]
            if flagged.any():
                for pos in np.flatnonzero(flagged).tolist():
                    lane = int(idx[pos])
                    bits = self.error_bits[lane]
                    if bits.pop(int(addresses[pos]), None) is not None and not bits:
                        self._lane_has_err[lane] = False
        return idx

    def _set_arith_flags(self, idx: np.ndarray, result: np.ndarray) -> None:
        truncated = result & WORD_MASK
        sr = self.regs[idx, _SR_COL] & ~0b111
        sr |= (truncated == 0) * 0b001
        sr |= ((truncated & _SIGN_BIT) != 0) * 0b010
        sr |= (((result != truncated) & (result >= 0)) | (result < 0)) * 0b100
        self.regs[idx, _SR_COL] = sr

    def _compare(self, idx: np.ndarray, a: np.ndarray, b) -> None:
        diff = _signed(a) - _signed(np.asarray(b, dtype=np.int64))
        sr = self.regs[idx, _SR_COL] & ~0b11
        sr |= (diff == 0) * 0b01
        sr |= (diff < 0) * 0b10
        self.regs[idx, _SR_COL] = sr

    # ------------------------------------------------------------------
    # Vectorized handlers (one per mnemonic, mirror of machine._specialise)
    # ------------------------------------------------------------------
    def _bx_nop(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        return idx

    def _bx_halt(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        self.halted[idx] = True
        self.active[idx] = False
        self._cohort = None
        return idx

    def _bx_move(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        self.regs[idx, ins.rd] = self.regs[idx, ins.ra]
        return idx

    def _bx_movei(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        self.regs[idx, ins.rd] = ins.imm & WORD_MASK
        return idx

    def _bx_movehi(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        self.regs[idx, ins.rd] = ((ins.imm & 0xFFFF) << 16) | (
            self.regs[idx, ins.rd] & 0xFFFF
        )
        return idx

    def _bx_load(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        addresses = (self.regs[idx, ins.ra] + ins.imm) & WORD_MASK
        idx, addresses = self._mmu_filter(idx, addresses, ACCESS_READ)
        idx, values = self._mem_read(idx, addresses)
        self.regs[idx, ins.rd] = values
        return idx

    def _bx_store(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        addresses = (self.regs[idx, ins.ra] + ins.imm) & WORD_MASK
        idx, addresses = self._mmu_filter(idx, addresses, ACCESS_WRITE)
        return self._mem_write(idx, addresses, self.regs[idx, ins.rd])

    def _bx_push(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        sp = (self.regs[idx, _SP_COL] - 1) & WORD_MASK
        idx, sp = self._mmu_filter(idx, sp, ACCESS_WRITE)
        idx = self._mem_write(idx, sp, self.regs[idx, ins.rd])
        self.regs[idx, _SP_COL] = (self.regs[idx, _SP_COL] - 1) & WORD_MASK
        return idx

    def _bx_pop(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        sp = self.regs[idx, _SP_COL]
        idx, sp = self._mmu_filter(idx, sp, ACCESS_READ)
        idx, values = self._mem_read(idx, sp)
        # SP advances from its pre-pop value, as in the scalar twin: a
        # ``POP SP`` discards the popped word.
        new_sp = (self.regs[idx, _SP_COL] + 1) & WORD_MASK
        self.regs[idx, ins.rd] = values
        self.regs[idx, _SP_COL] = new_sp
        return idx

    def _bx_add(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        result = self.regs[idx, ins.ra] + self.regs[idx, ins.rb]
        self._set_arith_flags(idx, result)
        self.regs[idx, ins.rd] = result & WORD_MASK
        return idx

    def _bx_addi(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        result = self.regs[idx, ins.ra] + (ins.imm & WORD_MASK)
        self._set_arith_flags(idx, result)
        self.regs[idx, ins.rd] = result & WORD_MASK
        return idx

    def _bx_sub(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        result = self.regs[idx, ins.ra] - self.regs[idx, ins.rb]
        self._set_arith_flags(idx, result)
        self.regs[idx, ins.rd] = result & WORD_MASK
        return idx

    def _bx_subi(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        result = self.regs[idx, ins.ra] - (ins.imm & WORD_MASK)
        self._set_arith_flags(idx, result)
        self.regs[idx, ins.rd] = result & WORD_MASK
        return idx

    def _bx_mul(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        result = _signed(self.regs[idx, ins.ra]) * _signed(self.regs[idx, ins.rb])
        self._set_arith_flags(idx, result)
        self.regs[idx, ins.rd] = result & WORD_MASK
        return idx

    def _bx_muli(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        imm = ins.imm & WORD_MASK
        operand = imm - _TWO_POW_32 if imm & _SIGN_BIT else imm
        result = _signed(self.regs[idx, ins.ra]) * operand
        self._set_arith_flags(idx, result)
        self.regs[idx, ins.rd] = result & WORD_MASK
        return idx

    def _divide(self, idx: np.ndarray, ins: Instruction, b: np.ndarray) -> np.ndarray:
        # int(a / b) in the scalar path truncates toward zero; for 32-bit
        # operands the float64 quotient never rounds across an integer
        # boundary, so sign-corrected floor division is bit-identical.
        a_s = _signed(self.regs[idx, ins.ra])
        b_s = _signed(b)
        quotient = np.abs(a_s) // np.abs(b_s)
        result = np.where((a_s < 0) != (b_s < 0), -quotient, quotient)
        self._set_arith_flags(idx, result)
        self.regs[idx, ins.rd] = result & WORD_MASK
        return idx

    def _bx_div(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        b = self.regs[idx, ins.rb]
        zero = (b & WORD_MASK) == 0
        if zero.any():
            for lane in idx[zero].tolist():
                self._raise_lane(
                    lane, DivisionByZeroError("integer division by zero")
                )
            idx = idx[~zero]
            if idx.size == 0:
                return idx
            b = self.regs[idx, ins.rb]
        return self._divide(idx, ins, b)

    def _bx_divi(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        imm = ins.imm & WORD_MASK
        if imm == 0:
            for lane in idx.tolist():
                self._raise_lane(
                    lane, DivisionByZeroError("integer division by zero")
                )
            return np.empty(0, dtype=np.int64)
        return self._divide(idx, ins, np.full(idx.shape, imm, dtype=np.int64))

    def _bx_and(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        result = self.regs[idx, ins.ra] & self.regs[idx, ins.rb]
        self._set_arith_flags(idx, result)
        self.regs[idx, ins.rd] = result
        return idx

    def _bx_andi(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        result = self.regs[idx, ins.ra] & ins.imm & WORD_MASK
        self._set_arith_flags(idx, result)
        self.regs[idx, ins.rd] = result
        return idx

    def _bx_or(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        result = self.regs[idx, ins.ra] | self.regs[idx, ins.rb]
        self._set_arith_flags(idx, result)
        self.regs[idx, ins.rd] = result
        return idx

    def _bx_ori(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        result = self.regs[idx, ins.ra] | (ins.imm & WORD_MASK)
        self._set_arith_flags(idx, result)
        self.regs[idx, ins.rd] = result
        return idx

    def _bx_xor(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        result = self.regs[idx, ins.ra] ^ self.regs[idx, ins.rb]
        self._set_arith_flags(idx, result)
        self.regs[idx, ins.rd] = result
        return idx

    def _bx_xori(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        result = self.regs[idx, ins.ra] ^ (ins.imm & WORD_MASK)
        self._set_arith_flags(idx, result)
        self.regs[idx, ins.rd] = result
        return idx

    def _bx_shl(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        shifted = self.regs[idx, ins.ra].astype(np.uint64) << np.uint64(ins.imm & 31)
        self.regs[idx, ins.rd] = (shifted & np.uint64(WORD_MASK)).astype(np.int64)
        return idx

    def _bx_shr(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        self.regs[idx, ins.rd] = (self.regs[idx, ins.ra] & WORD_MASK) >> (
            ins.imm & 31
        )
        return idx

    def _bx_cmp(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        self._compare(idx, self.regs[idx, ins.ra], self.regs[idx, ins.rb])
        return idx

    def _bx_cmpi(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        self._compare(idx, self.regs[idx, ins.ra], ins.imm & WORD_MASK)
        return idx

    def _bx_bra(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        self.regs[idx, _PC_COL] = (self.regs[idx, _PC_COL] + ins.imm) & WORD_MASK
        return idx

    def _branch_if(self, idx: np.ndarray, taken: np.ndarray, imm: int) -> np.ndarray:
        hit = idx[taken]
        self.regs[hit, _PC_COL] = (self.regs[hit, _PC_COL] + imm) & WORD_MASK
        return idx

    def _bx_beq(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        return self._branch_if(
            idx, (self.regs[idx, _SR_COL] & 0b01) != 0, ins.imm
        )

    def _bx_bne(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        return self._branch_if(
            idx, (self.regs[idx, _SR_COL] & 0b01) == 0, ins.imm
        )

    def _bx_blt(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        return self._branch_if(
            idx, (self.regs[idx, _SR_COL] & 0b10) != 0, ins.imm
        )

    def _bx_bge(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        return self._branch_if(
            idx, (self.regs[idx, _SR_COL] & 0b10) == 0, ins.imm
        )

    def _bx_jmp(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        self.regs[idx, _PC_COL] = self.regs[idx, ins.ra]
        return idx

    def _bx_jsr(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        sp = (self.regs[idx, _SP_COL] - 1) & WORD_MASK
        idx, sp = self._mmu_filter(idx, sp, ACCESS_WRITE)
        idx = self._mem_write(idx, sp, self.regs[idx, _PC_COL])
        self.regs[idx, _SP_COL] = (self.regs[idx, _SP_COL] - 1) & WORD_MASK
        self.regs[idx, _PC_COL] = ins.imm & WORD_MASK
        return idx

    def _bx_rts(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        sp = self.regs[idx, _SP_COL]
        idx, sp = self._mmu_filter(idx, sp, ACCESS_READ)
        idx, values = self._mem_read(idx, sp)
        self.regs[idx, _PC_COL] = values
        self.regs[idx, _SP_COL] = (self.regs[idx, _SP_COL] + 1) & WORD_MASK
        return idx

    def _bx_sig(self, idx: np.ndarray, ins: Instruction) -> np.ndarray:
        self.signature[idx] = (
            self.signature[idx] * 31 + (ins.imm & 0xFFFF)
        ) & WORD_MASK
        return idx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchMachine(lanes={self.lanes}, active={int(self.active.sum())}, "
            f"evicted={int(self.evicted.sum())})"
        )


#: Mnemonic -> unbound vectorized handler, called ``handler(self, idx,
#: ins)`` and shared by every batch machine.  A per-instance dict of bound
#: methods would be a reference cycle, keeping each dropped machine (and
#: its lane memory) alive until the cyclic collector runs.
_DISPATCH: "Mapping[str, Callable[..., np.ndarray]]" = MappingProxyType({
    mnemonic: getattr(BatchMachine, "_bx_" + mnemonic.lower())
    for mnemonic in OPCODES
})
