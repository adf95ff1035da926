import numpy as np
import pytest

from statnn import seeds

U64 = 0xFFFFFFFFFFFFFFFF


@pytest.mark.parametrize("seed", [0, 7, -1, 2 ** 70 + 3])
@pytest.mark.parametrize("parts", [(), (0,), (3, 1), (1, 2, 2), (0x5F01,)])
def test_streams_are_the_seed_sequence_of_seed_and_parts(seed, parts):
    """Restarts, replicates, folds and child seeds all name their stream
    as SeedSequence((seed mod 2**64, *parts)); stored seeds and recorded
    results depend on that definition staying fixed."""
    reference = np.random.SeedSequence((seed & U64, *parts))
    np.testing.assert_array_equal(
        seeds.rng(seed, *parts).integers(0, 2 ** 62, size=8),
        np.random.default_rng(reference).integers(0, 2 ** 62, size=8))
    assert seeds.derive_seed(seed, *parts) == int(
        reference.generate_state(1, np.uint64)[0])
