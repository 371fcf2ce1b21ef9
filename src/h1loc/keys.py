"""Sort keys of matrices and row vectors over Z/q, and the sorted-key steps
that MatGroup.close and the stabilizer chain share.

A key packs the m entries of a matrix (m = r^2) or of a row vector (m = r),
each in [0, q), as a big-endian base-q number, so keys sort as the
flattened entries sort lexicographically.  While q^m < 2^63 a key is that
number as one int64.  Once q^m >= 2^63 (rank 4 mod 25, say, where
q^16 = 5^32) it is the entries' big-endian int64 bytes, one np.void of 8m
bytes, which numpy compares and sorts bytewise, so the order is the same.
A row of a matrix also has a base-q code below q^r, and a
matrix's int64 key is its r row codes packed in base q^r; the closure's
row-code phase (_row_table, _product_keys) builds keys from those codes.

The rest works on sorted key arrays: _find locates keys by searchsorted,
_distinct and _first_occurrences dedupe one batch, and _absorb takes a
batch's values that a sorted array seen does not hold yet.  Its merge is
one stable sort of the concatenation of two sorted runs, seen and the
fresh values: on int64 keys numpy's stable sort is a timsort, which finds
the two runs and merges them once.
"""

import numpy as np


def _keys(arr: np.ndarray, q: int) -> np.ndarray:
    """Sort keys of the N matrices (N, r, r) or row vectors (N, r) in arr,
    entries in [0, q), in the lexicographic order of the flattened entries:
    base-q packed int64 codes while q^m < 2^63 for the m entries of each,
    big-endian byte strings past that."""
    m = arr.shape[1] ** (arr.ndim - 1)
    flat = arr.reshape(len(arr), m)
    if q ** m < 2 ** 63:
        return flat @ _digit_weights(q, m)
    return np.ascontiguousarray(flat.astype(">i8")).view(
        np.dtype((np.void, 8 * m))).ravel()


def _digit_weights(q: int, r: int) -> np.ndarray:
    """q^(r-1), ..., q, 1: the weights of a big-endian base-q row code, so
    row x_i of a matrix with entries in [0, q) has code x_i @ weights."""
    return q ** np.arange(r - 1, -1, -1, dtype=np.int64)


def _code_space(q: int, r: int) -> np.ndarray:
    """The (q^r, r) rows of every code in [0, q^r), so the rows of any codes
    are one gather from it."""
    return np.arange(q ** r)[:, None] // _digit_weights(q, r) % q


def _row_table(garr: np.ndarray, space: np.ndarray) -> np.ndarray:
    """table[g, c]: the code of (row with code c) @ generator g mod q, for
    every code c in [0, q^r) and each of the (k, r, r) generators garr.
    space is _code_space(q, r); its last row, the code q^r - 1, has every
    entry q - 1."""
    q, r = int(space[-1, 0]) + 1, garr.shape[1]
    return ((space @ garr) % q) @ _digit_weights(q, r)


def _product_keys(table: np.ndarray, layer: np.ndarray,
                  q: int) -> np.ndarray:
    """_keys of the products x g, element-major (t = e * k + g), for the
    (L, r) row-coded matrices x of layer and the k generators of the
    code-major row table (the transpose of _row_table's).  Row i of x g
    has code table[row i of x, g], and packing the row codes in base q^r
    gives the base-q packing of the entries, so the int64 keys are r
    gathers of (L, k) codes combined by Horner, with no (k * L, r) array
    of the products.  Byte keys decode the gathered codes first."""
    r = layer.shape[1]
    if q ** (r * r) >= 2 ** 63:
        codes = table[layer].transpose(0, 2, 1)[..., None]
        return _keys((codes // _digit_weights(q, r) % q).reshape(-1, r, r), q)
    keys = table[layer[:, 0]]
    for i in range(1, r):
        keys *= q ** r
        keys += table[layer[:, i]]
    return keys.ravel()


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the 1-d array a, as np.unique(a) gives
    them, without the import of numpy.ma that the plain np.unique call
    makes (about 14 ms of every process that reaches it)."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _first_occurrences(keys: np.ndarray):
    """(distinct keys sorted, index of the first occurrence of each), as
    np.unique(keys, return_index=True) gives them.  From 256 keys on, where
    the n keys' indices fit in b bits and (max key + 1) << b fits in int64,
    the packed values key << b | index are distinct, so the default sort
    orders them with no stable argsort and each key's run starts at its
    first index: a shift gives the keys (packed codes, so never negative),
    a run starts where they change, and the low b bits of its first packed
    value are that index.  Fewer keys, where np.unique's fixed cost is the
    smaller, and byte keys go through np.unique."""
    n = len(keys)
    b = (n - 1).bit_length()
    if n < 256 or keys.dtype != np.int64 or \
            (int(keys.max()) + 1) << b > 2 ** 63:
        return np.unique(keys, return_index=True)
    packed = keys << b
    packed |= np.arange(n)
    packed.sort()
    run = packed >> b
    start = np.empty(n, dtype=bool)
    start[0] = True
    np.not_equal(run[1:], run[:-1], out=start[1:])
    start = np.flatnonzero(start)
    return run[start], packed[start] & ((1 << b) - 1)


def _find(sorted_keys: np.ndarray, keys: np.ndarray):
    """(pos, hit): searchsorted positions of keys in the non-empty
    sorted_keys, and which keys are present."""
    pos = np.searchsorted(sorted_keys, keys)
    return pos, sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == keys


def _absorb(seen: np.ndarray, keys: np.ndarray):
    """(merged, new): the sorted non-empty keys seen with the values of
    keys merged in, and the position in keys of the first occurrence of
    each value not in seen, in key order, so keys[new] is sorted."""
    values, first = _first_occurrences(keys)
    fresh = ~_find(seen, values)[1]
    # both runs are sorted, so the stable sort is one merge
    merged = np.sort(np.concatenate([seen, values[fresh]]), kind="stable")
    return merged, first[fresh]
