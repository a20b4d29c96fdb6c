"""Property-based tests of TEM, voting, CRC, ECC and the mini ISA."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.comparison import majority_vote, results_match
from repro.core.control_flow import fold_signature
from repro.core.integrity import ChecksummedBlock, crc16
from repro.core.tem import TemOutcome, run_tem_direct
from repro.cpu.isa import decode, encode, OPCODES
from repro.cpu.memory import Memory
from repro.cpu.exceptions import EccUncorrectableError

words = st.integers(min_value=0, max_value=0xFFFF_FFFF)
results = st.tuples(st.integers(min_value=-1000, max_value=1000))


class TestVotingProperties:
    @given(r=results)
    def test_match_is_reflexive(self, r):
        assert results_match(r, r)

    @given(a=results, b=results)
    def test_match_is_symmetric(self, a, b):
        assert results_match(a, b) == results_match(b, a)

    @given(r=results)
    def test_two_identical_results_always_win_vote(self, r):
        assert majority_vote([r, r]) == tuple(r)

    @given(a=results, b=results, c=results)
    def test_vote_returns_a_majority_value_or_none(self, a, b, c):
        vote = majority_vote([a, b, c])
        values = [tuple(a), tuple(b), tuple(c)]
        if vote is None:
            assert len(set(values)) == 3
        else:
            assert values.count(vote) >= 2


class TestTemProperties:
    @given(
        golden=results,
        wrong=results,
        fault_copy=st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=100)
    def test_single_wrong_copy_is_always_masked(self, golden, wrong, fault_copy):
        """TEM's core guarantee: any single faulty execution among the
        first two copies never produces a wrong delivery."""
        if tuple(golden) == tuple(wrong):
            return

        def execute(copy_index):
            if copy_index == fault_copy:
                return wrong, None
            return golden, None

        report = run_tem_direct(execute)
        assert report.outcome in (TemOutcome.MASKED, TemOutcome.OMISSION)
        if report.delivered_result is not None:
            assert report.delivered_result == tuple(golden)

    @given(golden=results, mechanism=st.sampled_from(["cpu", "ecc", "mmu"]),
           fault_copy=st.integers(min_value=0, max_value=1))
    @settings(max_examples=50)
    def test_single_edm_abort_always_recovers(self, golden, mechanism, fault_copy):
        def execute(copy_index):
            if copy_index == fault_copy:
                return None, mechanism
            return golden, None

        report = run_tem_direct(execute)
        assert report.outcome is TemOutcome.MASKED
        assert report.delivered_result == tuple(golden)

    @given(golden=results)
    def test_fault_free_job_delivers_in_two_copies(self, golden):
        report = run_tem_direct(lambda i: (tuple(golden), None))
        assert report.outcome is TemOutcome.OK
        assert report.copies_run == 2


class TestCrcProperties:
    @given(data=st.binary(max_size=64))
    def test_crc_deterministic(self, data):
        assert crc16(data) == crc16(data)

    @given(data=st.binary(min_size=1, max_size=64),
           index=st.integers(min_value=0, max_value=63),
           bit=st.integers(min_value=0, max_value=7))
    def test_single_bit_error_always_detected(self, data, index, bit):
        index %= len(data)
        corrupted = bytearray(data)
        corrupted[index] ^= 1 << bit
        assert crc16(bytes(corrupted)) != crc16(data)

    @given(values=st.lists(words, min_size=1, max_size=16),
           index=st.integers(min_value=0, max_value=15),
           bit=st.integers(min_value=0, max_value=31))
    def test_checksummed_block_detects_any_single_bit_flip(self, values, index, bit):
        block = ChecksummedBlock.seal(values)
        index %= len(values)
        block.corrupt_word(index, values[index] ^ (1 << bit))
        try:
            block.verify()
            detected = False
        except Exception:
            detected = True
        assert detected


class TestEccProperties:
    @given(value=words, bit=st.integers(min_value=0, max_value=31))
    @settings(max_examples=100)
    def test_any_single_bit_flip_corrected(self, value, bit):
        memory = Memory(8)
        memory.write(0, value)
        memory.flip_bit(0, bit)
        assert memory.read(0) == value

    @given(value=words,
           bits=st.sets(st.integers(min_value=0, max_value=31), min_size=2, max_size=2))
    @settings(max_examples=100)
    def test_any_double_bit_flip_detected(self, value, bits):
        memory = Memory(8)
        memory.write(0, value)
        for bit in bits:
            memory.flip_bit(0, bit)
        try:
            memory.read(0)
            raised = False
        except EccUncorrectableError:
            raised = True
        assert raised


class TestIsaProperties:
    @given(word=words)
    def test_decode_never_crashes(self, word):
        instruction = decode(word)
        if instruction is not None:
            assert instruction.mnemonic in OPCODES

    @given(
        mnemonic=st.sampled_from(sorted(OPCODES)),
        rd=st.integers(min_value=0, max_value=15),
        ra=st.integers(min_value=0, max_value=15),
        rb=st.integers(min_value=0, max_value=15),
        imm=st.integers(min_value=-0x8000, max_value=0x7FFF),
    )
    def test_encode_decode_round_trip(self, mnemonic, rd, ra, rb, imm):
        word = encode(mnemonic, rd=rd, ra=ra, imm=imm, rb=rb)
        decoded = decode(word)
        assert decoded is not None
        assert decoded.mnemonic == mnemonic
        assert decoded.rd == rd
        assert decoded.ra == ra


class TestSignatureProperties:
    @given(checkpoints=st.lists(st.integers(min_value=0, max_value=0xFFFF),
                                min_size=1, max_size=8))
    def test_fold_deterministic(self, checkpoints):
        assert fold_signature(checkpoints) == fold_signature(checkpoints)

    @given(checkpoints=st.lists(st.integers(min_value=1, max_value=0xFFFF),
                                min_size=2, max_size=8, unique=True))
    def test_dropping_a_checkpoint_changes_signature(self, checkpoints):
        full = fold_signature(checkpoints)
        partial = fold_signature(checkpoints[:-1])
        assert full != partial
