"""Portable generator: determinism, bounds, sampling without replacement."""

import numpy as np

from vmim.rng import Rng, derive_seed

# splitmix64 reference values for seed 0 (first three outputs of the
# standard algorithm, computed independently from the published constants).
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
]


def test_matches_published_splitmix64_stream():
    rng = Rng(0)
    assert [rng.u64() for _ in range(3)] == SPLITMIX64_SEED0


def test_same_seed_same_stream():
    a, b = Rng(1234), Rng(1234)
    assert [a.u64() for _ in range(50)] == [b.u64() for _ in range(50)]
    assert Rng(1).u64() != Rng(2).u64()


def test_uniform_in_unit_interval():
    rng = Rng(9)
    draws = [rng.uniform() for _ in range(2000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert abs(np.mean(draws) - 0.5) < 0.05


def test_randbelow_bounds_and_coverage():
    rng = Rng(5)
    draws = [rng.randbelow(7) for _ in range(5000)]
    assert set(draws) == set(range(7))


def test_sample_without_replacement_is_a_subset_without_dupes():
    rng = Rng(3)
    for n, k in [(10, 0), (10, 10), (216, 108), (5, 3)]:
        picks = rng.sample_without_replacement(n, k)
        assert len(picks) == k
        assert len(set(picks)) == k
        assert all(0 <= p < n for p in picks)


def test_permutation_is_a_permutation():
    perm = Rng(7).permutation(40)
    assert sorted(perm) == list(range(40))


def test_derive_seed_distinguishes_labels():
    assert derive_seed(0, "a") != derive_seed(0, "b")
    assert derive_seed(0, "a") == derive_seed(0, "a")
    assert derive_seed(1, "a") != derive_seed(0, "a")
