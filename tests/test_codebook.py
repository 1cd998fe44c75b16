"""Codeword pool generation, seeded draws, and separation statistics."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecochash.codebook import (Codebook, default_capacity, generate,
                               recommended_rho, separation_stats,
                               unique_bipartition_probability)
from ecochash.errors import CodebookExhaustedError


def pool_codes(pool):
    """Each row of a little-endian (codes, words) pool as an int."""
    return [int.from_bytes(row.tobytes(), "little") for row in pool]


def loop_min_mean_distance(pool):
    # independent oracle: O(n^2) pairwise scan over the pool's codes as ints
    dists = [(a ^ b).bit_count() for a, b in itertools.combinations(pool_codes(pool), 2)]
    return min(dists), sum(dists) / len(dists)


def test_generate_k2_capacity2_is_one_bipartition():
    pool = generate(2, 2, seed=0).pool
    bits = set(pool_codes(pool))
    # with duplicates and complements rejected only these pairs survive
    assert bits in ({0b00, 0b01}, {0b00, 0b10}, {0b11, 0b01}, {0b11, 0b10})


def test_generate_deterministic():
    a = generate(32, 1000, seed=5)
    b = generate(32, 1000, seed=5)
    assert a == b
    assert a.pool.shape == (1000, 1)


def reference_generate(k, capacity, seed):
    """``generate`` with one draw per candidate, packed bit by bit."""
    rng = np.random.default_rng(seed)
    full = (1 << k) - 1
    seen, pool = set(), []
    while len(pool) < capacity:
        bits = rng.integers(0, 2, size=k)
        word = sum(1 << t for t in range(k) if bits[t])
        if word in seen or (word ^ full) in seen:
            continue
        seen.add(word)
        pool.append(word)
    return pool


@pytest.mark.parametrize("k, capacity", [(1, 1), (3, 4), (7, 64), (7, 20), (32, 500),
                                         (33, 200), (64, 300)])
def test_generate_equals_per_candidate_reference(k, capacity):
    for seed in (0, 5):
        assert pool_codes(generate(k, capacity, seed).pool) \
            == reference_generate(k, capacity, seed)


def test_generate_no_duplicates_or_complements():
    pool = generate(8, 100, seed=3).pool
    full = (1 << 8) - 1
    seen = set()
    for c in pool_codes(pool):
        assert c not in seen
        assert (c ^ full) not in seen
        seen.add(c)
    min_d, _ = loop_min_mean_distance(pool)
    assert min_d >= 1


def test_generate_capacity_limit():
    # 2^(k-1) distinct bipartitions is the hard ceiling
    assert len(generate(3, 4, seed=1).pool) == 4
    with pytest.raises(ValueError):
        generate(3, 5, seed=1)


def test_generate_rejects_bad_args():
    with pytest.raises(ValueError):
        generate(0, 1, seed=0)
    with pytest.raises(ValueError):
        generate(4, 0, seed=0)


def test_draw_single_and_exhaustion():
    cb = Codebook(k=2, pool=[0b01], rng_seed=9)
    assert cb.draw().tolist() == [0b01]
    assert cb.draws_made == 1
    assert len(cb) == 0
    with pytest.raises(CodebookExhaustedError) as exc:
        cb.draw()
    assert "regenerat" in str(exc.value).lower()


def test_draw_two_distinct():
    cb = generate(4, 6, seed=2)
    first = cb.draw()
    second = cb.draw()
    assert first != second


def test_draw_removes_from_pool():
    cb = generate(6, 10, seed=0)
    drawn = cb.draw()
    assert len(cb) == 9
    assert drawn not in cb.pool


def test_draw_stream_resumes_from_count():
    cb = generate(8, 50, seed=77)
    head = [int(cb.draw()[0]) for _ in range(4)]
    snapshot = cb.pool.copy()
    tail = [int(cb.draw()[0]) for _ in range(6)]
    clone = Codebook(k=8, pool=snapshot, rng_seed=77, draws_made=4)
    resumed = [int(clone.draw()[0]) for _ in range(6)]
    assert resumed == tail
    assert not set(head) & set(resumed)


def test_draw_first_pick_uniform_chi_square():
    # 3 df; 16.27 is the 0.001 upper tail of chi^2_3
    codes = [0, 1, 2, 4]
    counts = [0, 0, 0, 0]
    index_of = {c: i for i, c in enumerate(codes)}
    for trial in range(10_000):
        cb = Codebook(k=3, pool=codes, rng_seed=trial)
        counts[index_of[int(cb.draw()[0])]] += 1
    expected = 10_000 / 4
    stat = sum((n - expected) ** 2 / expected for n in counts)
    assert stat < 16.27


def test_bipartition_probability_k1():
    assert unique_bipartition_probability(5, 1) == 1.0


def test_bipartition_probability_2_2():
    # oracle: enumerate all 16 ordered pairs of 2-bit rows; columns
    # distinct iff the two rows differ, 12/16 = 0.75
    total = 0
    good = 0
    for a in range(4):
        for b in range(4):
            total += 1
            cols = [((a >> t) & 1, (b >> t) & 1) for t in range(2)]
            if len(set(cols)) == 2:
                good += 1
    assert good / total == 0.75
    assert unique_bipartition_probability(2, 2) == pytest.approx(0.75)


def test_bipartition_probability_3_4():
    # oracle: enumerate all 8^4 column assignments over 3 rows
    good = 0
    for cols in itertools.product(range(8), repeat=4):
        if len(set(cols)) == 4:
            good += 1
    assert unique_bipartition_probability(3, 4) == pytest.approx(good / 8**4)
    assert good == 1680


def test_bipartition_probability_k_exceeds_patterns():
    assert unique_bipartition_probability(2, 5) == 0.0


@given(st.integers(1, 12), st.integers(1, 40))
def test_bipartition_probability_in_unit_interval(rho, k):
    p = unique_bipartition_probability(rho, k)
    assert 0.0 <= p <= 1.0


def test_recommended_rho_values():
    assert recommended_rho(16) == 16
    assert recommended_rho(32) == 20
    assert recommended_rho(64) == 24
    assert recommended_rho(1) == 1


@pytest.mark.parametrize("k", [16, 32, 64])
def test_recommended_rho_gives_high_uniqueness(k):
    assert unique_bipartition_probability(recommended_rho(k), k) >= 0.9


def test_separation_stats_two_codes():
    both = separation_stats(Codebook(k=2, pool=[0b00, 0b11], rng_seed=0))
    assert both.min_distance == 2
    assert both.mean_distance == 2.0
    near = separation_stats(Codebook(k=2, pool=[0b00, 0b01], rng_seed=0))
    assert near.min_distance == 1
    assert near.mean_distance == 1.0


def test_separation_stats_matches_loop_oracle():
    cb = generate(10, 20, seed=6)
    stats = separation_stats(cb)
    min_d, mean_d = loop_min_mean_distance(cb.pool)
    assert stats.min_distance == min_d
    assert stats.mean_distance == pytest.approx(mean_d)


@pytest.mark.parametrize("k", [8, 64, 100])
def test_separation_stats_equals_the_pairwise_reference_exactly(k):
    # k=100 spans two 64-bit words per code.
    cb = generate(k, 60, seed=k)
    stats = separation_stats(cb)
    assert (stats.min_distance, stats.mean_distance) == loop_min_mean_distance(cb.pool)


def test_separation_stats_needs_two():
    with pytest.raises(ValueError):
        separation_stats(Codebook(k=2, pool=[0b01], rng_seed=0))


def test_default_capacity():
    assert default_capacity(None) == 1024
    assert default_capacity(10) == 40
    assert default_capacity(50) == 200
    assert default_capacity(500) == 2000
    # Given k, never more than the 2^(k-1) codes generate can draw.
    assert default_capacity(k=32) == 1024
    assert default_capacity(k=8) == 128
    assert default_capacity(10, k=32) == 40
    assert default_capacity(3, k=4) == 8
    assert default_capacity(40, k=8) == 128
    for k in (1, 4, 8):
        generate(k, default_capacity(500, k), seed=0)
    for k in (0, -3):
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            default_capacity(k=k)
