"""Bit packing, plain and masked Hamming distance, and the word bridge."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecochash.bitcode import (PackedCode, TernaryCodeword, codes_to_words,
                              hamming_masked, pack, ternary, unpack)
from ecochash.errors import DimensionError

pm_one = st.sampled_from([-1, 1])
pm_zero_one = st.sampled_from([-1, 0, 1])


def loop_hamming(a, b):
    # independent oracle: compare element by element
    return sum(1 for u, v in zip(a, b) if u != v)


def full(code):
    # A codeword with every position active: the masked distance to it is the plain one.
    return TernaryCodeword(code.length, code)


def loop_masked(query, entries):
    return sum(1 for q, e in zip(query, entries) if e != 0 and q != e)


def test_pack_bit_pattern():
    code = pack([+1, -1, +1, -1])
    assert code.to01() == "1010"
    assert code.length == 4


def test_pack_empty():
    code = pack([])
    assert code.length == 0
    assert unpack(code) == []


def test_pack_rejects_other_values():
    with pytest.raises(ValueError):
        pack([1, 0, -1])
    with pytest.raises(ValueError):
        pack([2])


def test_pack_roundtrip_64():
    rng = np.random.default_rng(0)
    seq = [int(v) for v in rng.choice([-1, 1], size=64)]
    assert unpack(pack(seq)) == seq


@given(st.lists(pm_one, max_size=90))
def test_pack_unpack_identity(seq):
    assert unpack(pack(seq)) == seq


def test_bits_beyond_length_rejected():
    with pytest.raises(ValueError):
        PackedCode(3, 0b1000)
    with pytest.raises(ValueError):
        PackedCode(0, 1)


def test_bit_accessor_and_range():
    code = pack([+1, -1])
    assert code.bit(0) == 1
    assert code.bit(1) == -1
    with pytest.raises(IndexError):
        code.bit(2)


def test_hamming_identity_and_complement():
    a = pack([+1, -1, +1, -1])
    assert hamming_masked(a, full(a)) == 0
    ones = pack([+1] * 4)
    zeros = pack([-1] * 4)
    assert hamming_masked(ones, full(zeros)) == 4


def test_hamming_random_48_bits():
    rng = np.random.default_rng(7)
    a = [int(v) for v in rng.choice([-1, 1], size=48)]
    b = [int(v) for v in rng.choice([-1, 1], size=48)]
    assert hamming_masked(pack(a), full(pack(b))) == loop_hamming(a, b)


def test_hamming_exhaustive_width_4():
    for i in range(16):
        for j in range(16):
            a = PackedCode(4, i)
            b = PackedCode(4, j)
            assert hamming_masked(a, full(b)) == loop_hamming(unpack(a), unpack(b))


def test_hamming_length_mismatch():
    with pytest.raises(DimensionError):
        hamming_masked(pack([1]), full(pack([1, 1])))


@given(st.lists(pm_one, min_size=1, max_size=70), st.data())
def test_hamming_matches_loop(a, data):
    b = data.draw(st.lists(pm_one, min_size=len(a), max_size=len(a)))
    assert hamming_masked(pack(a), full(pack(b))) == loop_hamming(a, b)


def test_masked_agreeing_active_bits():
    q = pack([+1, -1, +1, -1])
    cw = ternary([0, 0, +1, -1])
    assert hamming_masked(q, cw) == 0


def test_masked_one_disagreement():
    q = pack([+1, -1, +1, -1])
    cw = ternary([0, 0, -1, -1])
    assert hamming_masked(q, cw) == loop_masked([+1, -1, +1, -1], [0, 0, -1, -1])
    assert hamming_masked(q, cw) == 1


def test_masked_all_inactive():
    q = pack([+1, -1, +1, -1])
    cw = ternary([0, 0, 0, 0])
    assert hamming_masked(q, cw) == 0


def test_masked_length_mismatch():
    with pytest.raises(DimensionError):
        hamming_masked(pack([1, 1]), ternary([1]))


@given(st.lists(pm_one, min_size=1, max_size=70), st.data())
def test_masked_matches_loop(qseq, data):
    entries = data.draw(st.lists(pm_zero_one, min_size=len(qseq), max_size=len(qseq)))
    assert hamming_masked(pack(qseq), ternary(entries)) == loop_masked(qseq, entries)


@given(st.lists(pm_one, min_size=1, max_size=60), st.data())
def test_masked_equals_restricted_hamming(qseq, data):
    entries = data.draw(st.lists(pm_zero_one, min_size=len(qseq), max_size=len(qseq)))
    q_sub = [q for q, e in zip(qseq, entries) if e != 0]
    c_sub = [e for e in entries if e != 0]
    assert hamming_masked(pack(qseq), ternary(entries)) == loop_hamming(q_sub, c_sub)


@given(st.lists(pm_one, min_size=1, max_size=60), st.data())
def test_masked_monotone_in_mask(qseq, data):
    entries = data.draw(st.lists(pm_zero_one, min_size=len(qseq), max_size=len(qseq)))
    # activate one inactive position with either value
    inactive = [t for t, e in enumerate(entries) if e == 0]
    if not inactive:
        return
    t = data.draw(st.sampled_from(inactive))
    wider = list(entries)
    wider[t] = data.draw(pm_one)
    q = pack(qseq)
    assert hamming_masked(q, ternary(wider)) >= hamming_masked(q, ternary(entries))


@given(st.lists(pm_zero_one, max_size=60))
def test_masked_bounded_by_active_count(entries):
    cw = ternary(entries)
    q = pack([1] * len(entries))
    assert 0 <= hamming_masked(q, cw) <= cw.active_count()


def test_ternary_normalizes_inactive_value_bits():
    raw = TernaryCodeword(3, PackedCode(3, 0b111), PackedCode(3, 0b001))
    assert raw.values.bits == 0b001
    assert raw.entry(0) == 1
    assert raw.entry(1) == 0
    assert raw.entry(2) == 0


def test_ternary_active_positions_and_values():
    cw = ternary([0, -1, +1, 0, +1])
    assert list(cw.active_positions()) == [1, 2, 4]
    assert list(cw.active_values()) == [-1, 1, 1]
    assert cw.active_count() == 3


def test_ternary_accessors_beyond_64_bits():
    # values whose top bit sits at position >= 63 must not overflow any
    # fixed-width integer path
    width = 70
    entries = [0] * width
    entries[0] = -1
    entries[63] = 1
    entries[69] = -1
    cw = ternary(entries)
    assert list(cw.active_positions()) == [0, 63, 69]
    assert list(cw.active_values()) == [-1, 1, -1]
    assert cw.entry(63) == 1 and cw.entry(69) == -1


def test_pad_preserves_distance():
    q = pack([+1, -1, +1])
    cw = ternary([-1, -1, +1])
    d = hamming_masked(q, cw)
    q_wide = pack([+1, -1, +1, -1, +1])
    assert hamming_masked(q_wide, cw.pad_to(5)) == d


def test_words_roundtrip_wide():
    rng = np.random.default_rng(3)
    seq = [int(v) for v in rng.choice([-1, 1], size=150)]
    code = pack(seq)
    words = codes_to_words([code.bits], 150)
    assert words.shape == (1, 3)
    assert [int(w) for w in words[0]] == [(code.bits >> (64 * i)) & ((1 << 64) - 1)
                                          for i in range(3)]
    assert int.from_bytes(words.tobytes(), "little") == code.bits
    codes = [code.bits, 1 << 149, 0]
    assert [int.from_bytes(row.tobytes(), "little")
            for row in codes_to_words(codes, 150)] == codes
