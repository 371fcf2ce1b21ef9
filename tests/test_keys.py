"""keys._absorb against a plain NumPy reference, np.unique for the first
occurrences and np.isin for the values already seen, on seeded keys:
fewer than 256 and at least 256 of them (both _first_occurrences
branches), int64 keys (rank 2 mod 5) and byte keys (rank 4 mod 25, where
q^16 >= 2^63), with seen overlapping the keys and disjoint from them."""

import numpy as np
import pytest

from h1loc.keys import _absorb, _keys

# (q, rank) of the int64 and the byte keys
SPACES = {"int64": (5, 2), "bytes": (25, 4)}


def _pool(rng, q, r, size):
    """The keys of size distinct random (r, r) matrices mod q, in random
    order."""
    keys = _keys(rng.integers(0, q, size=(4 * size, r, r)), q)
    first = np.unique(keys, return_index=True)[1]
    assert len(first) >= size
    return keys[rng.permutation(first)[:size]]


@pytest.mark.parametrize("overlap", [True, False])
@pytest.mark.parametrize("n", [100, 3000])
@pytest.mark.parametrize("space", sorted(SPACES))
def test_absorb_matches_unique_and_isin(space, n, overlap):
    q, r = SPACES[space]
    rng = np.random.default_rng([20261020, n, overlap])
    pool = _pool(rng, q, r, 400)
    # seen holds pool[:200]; the keys draw from pool[200:] or pool[100:]
    seen = np.unique(pool[:200])
    draw = pool[100:] if overlap else pool[200:]
    keys = draw[rng.integers(0, len(draw), size=n)]
    assert keys.dtype.kind == ("i" if space == "int64" else "V")
    assert np.isin(keys, seen).any() == overlap
    merged, new = _absorb(seen, keys)
    values, first = np.unique(keys, return_index=True)
    # first occurrences of the values outside seen, in key order
    assert np.array_equal(new, first[~np.isin(values, seen)])
    assert np.array_equal(merged, np.union1d(seen, keys))
    # absorbing the same keys again finds nothing new
    again, none = _absorb(merged, keys)
    assert np.array_equal(again, merged) and len(none) == 0
