"""Word-addressed memory with a SEC-DED ECC model.

The paper assumes (Section 2.6) that "the memory is protected from direct
faults using ECC".  We model a single-error-correct / double-error-detect
(SEC-DED) code per 32-bit word:

* a *write* stores the value and clears any accumulated bit errors;
* injected faults flip stored bits (tracked per word);
* a *read* with one accumulated flipped bit returns the **corrected** value
  and counts a correction event;
* a read with two flipped bits raises
  :class:`~repro.cpu.exceptions.EccUncorrectableError` (detected,
  uncorrectable);
* three or more flips can alias in a real SEC-DED code; we model the
  pessimistic outcome — the corrupted value is returned silently (this is
  one source of *non-covered* errors in the terminology of Section 3.2.1).

Statistics (corrections, detections, silent corruptions) feed the coverage
accounting of fault-injection campaigns.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Set

from ..errors import MachineError
from .exceptions import BusError, EccUncorrectableError
from .registers import WORD_BITS, WORD_MASK


@dataclasses.dataclass(slots=True)
class EccStatistics:
    """Counters of ECC activity since construction or :meth:`reset`."""

    corrections: int = 0
    detections: int = 0
    silent_corruptions: int = 0

    def reset(self) -> None:
        self.corrections = 0
        self.detections = 0
        self.silent_corruptions = 0


class Memory:
    """Word-addressed RAM (optionally with a read-only prefix) plus ECC.

    Parameters
    ----------
    size_words:
        Number of addressable 32-bit words; addresses are 0..size-1.
    rom_limit:
        Addresses below this bound are read-only after :meth:`load_rom`
        finishes (program code and constants live there, mirroring the
        paper's "static data ... saved in read only memory").
    ecc_enabled:
        When False the memory behaves as plain RAM: injected flips corrupt
        reads silently.  Campaigns use this to quantify the ECC contribution.
    """

    __slots__ = (
        "size_words", "rom_limit", "ecc_enabled",
        "_clean", "_error_bits", "_rom_sealed", "ecc_stats",
    )

    def __init__(self, size_words: int, rom_limit: int = 0, ecc_enabled: bool = True):
        if size_words <= 0:
            raise MachineError(f"memory size must be positive, got {size_words}")
        if not 0 <= rom_limit <= size_words:
            raise MachineError(f"rom_limit {rom_limit} outside 0..{size_words}")
        self.size_words = size_words
        self.rom_limit = rom_limit
        self.ecc_enabled = ecc_enabled
        self._clean: Dict[int, int] = {}
        self._error_bits: Dict[int, Set[int]] = {}
        self._rom_sealed = False
        self.ecc_stats = EccStatistics()

    def clone(self) -> "Memory":
        """An independent copy: stored words, latent ECC error bits, ECC
        counters, geometry and the ROM seal."""
        twin = Memory.__new__(Memory)
        twin.size_words = self.size_words
        twin.rom_limit = self.rom_limit
        twin.ecc_enabled = self.ecc_enabled
        twin._clean = dict(self._clean)
        twin._error_bits = {address: set(bits) for address, bits in self._error_bits.items()}
        twin._rom_sealed = self._rom_sealed
        stats = self.ecc_stats
        twin.ecc_stats = EccStatistics(
            stats.corrections, stats.detections, stats.silent_corruptions
        )
        return twin

    # ------------------------------------------------------------------
    # Bounds / ROM handling
    # ------------------------------------------------------------------
    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.size_words:
            raise BusError(
                f"physical address {address:#x} outside memory of "
                f"{self.size_words} words",
                address=address,
            )

    def load_rom(self, base: int, words: "list[int]") -> None:
        """Install program code/constants into the read-only region."""
        if self._rom_sealed:
            raise MachineError("ROM already sealed; cannot load more code")
        if base + len(words) > self.rom_limit:
            raise MachineError(
                f"ROM image [{base}, {base + len(words)}) exceeds rom_limit "
                f"{self.rom_limit}"
            )
        for offset, word in enumerate(words):
            self._clean[base + offset] = word & WORD_MASK
            self._error_bits.pop(base + offset, None)

    def seal_rom(self) -> None:
        """Freeze the ROM region; later writes below rom_limit raise."""
        self._rom_sealed = True

    def is_rom(self, address: int) -> bool:
        """True if *address* lies in the sealed read-only region."""
        return self._rom_sealed and address < self.rom_limit

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def read(self, address: int) -> int:
        """Read one word, applying the ECC model."""
        self._check_address(address)
        clean = self._clean.get(address, 0)
        errors = self._error_bits.get(address)
        if not errors:
            return clean
        if not self.ecc_enabled:
            return self._corrupted_value(clean, errors)
        if len(errors) == 1:
            # SEC: single-bit error corrected on the fly; scrub the word.
            self.ecc_stats.corrections += 1
            del self._error_bits[address]
            return clean
        if len(errors) == 2:
            self.ecc_stats.detections += 1
            raise EccUncorrectableError(
                f"double-bit ECC error at address {address:#x}", address=address
            )
        # 3+ flips may alias past SEC-DED: pessimistically silent.
        self.ecc_stats.silent_corruptions += 1
        return self._corrupted_value(clean, errors)

    def write(self, address: int, value: int) -> None:
        """Write one word, clearing accumulated bit errors for that word."""
        self._check_address(address)
        if self.is_rom(address):
            raise BusError(f"write to ROM address {address:#x}", address=address)
        self._clean[address] = value & WORD_MASK
        self._error_bits.pop(address, None)

    def peek(self, address: int) -> int:
        """Read the *stored* (possibly corrupted) value without ECC effects.

        Used by tests and by the fault injector to observe raw state.
        """
        self._check_address(address)
        clean = self._clean.get(address, 0)
        errors = self._error_bits.get(address)
        return self._corrupted_value(clean, errors) if errors else clean

    @staticmethod
    def _corrupted_value(clean: int, errors: Set[int]) -> int:
        value = clean
        for bit in errors:
            value ^= 1 << bit
        return value & WORD_MASK

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def flip_bit(self, address: int, bit: int) -> None:
        """Flip one stored bit (transient fault in a memory cell).

        Flipping the same bit twice cancels — exactly as in hardware.
        """
        self._check_address(address)
        if not 0 <= bit < WORD_BITS:
            raise MachineError(f"bit index {bit} outside 0..{WORD_BITS - 1}")
        errors = self._error_bits.setdefault(address, set())
        if bit in errors:
            errors.remove(bit)
            if not errors:
                del self._error_bits[address]
        else:
            errors.add(bit)

    def state_digest(self) -> str:
        """Deterministic digest of the full memory state.

        Hashes every stored word (address, clean value) plus every latent
        error-bit set in address order — the differential test gate uses it
        to assert fast- and reference-path machines end bit-identical
        without comparing dicts element-wise in the test body.
        """
        import hashlib

        h = hashlib.sha256()
        for address in sorted(self._clean):
            value = self._clean[address]
            if value:
                h.update(f"{address}:{value};".encode())
        for address in sorted(self._error_bits):
            bits = ",".join(str(b) for b in sorted(self._error_bits[address]))
            h.update(f"e{address}:{bits};".encode())
        return h.hexdigest()

    def error_word_count(self) -> int:
        """Number of words currently holding latent bit errors."""
        return len(self._error_bits)

    def clear_errors(self) -> None:
        """Drop all latent bit errors (e.g. after a memory scrub)."""
        self._error_bits.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Memory(size={self.size_words}, rom<{self.rom_limit}, "
            f"ecc={'on' if self.ecc_enabled else 'off'}, "
            f"latent_errors={self.error_word_count()})"
        )
