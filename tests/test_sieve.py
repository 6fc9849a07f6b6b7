import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nblab import sieve
from nblab.sieve import (CorruptCacheError, MobiusTable, _base_primes, _pack,
                         _sieve_segment, _unpack, cache_path, sieve_mobius,
                         sieve_mobius_cached)
from oracles import naive_mobius, naive_mu

# frozen oracle values: mu and Mertens spot checks computed by trial
# factorization independently of the sieve
KNOWN_MU = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 10: 1, 12: 0, 30: -1,
            210: 1, 1024: 0, 1999: -1}
KNOWN_MERTENS = {1: 1, 10: -1, 100: 1, 1000: 2, 10000: -23, 100000: -48}


def test_mu_array_decodes_only_its_prefix(monkeypatch):
    table = sieve_mobius(1000)
    expected = naive_mobius(1000)
    seen = []

    def recording(packed, n):
        seen.append(len(packed))
        return _unpack(packed, n)

    monkeypatch.setattr(sieve, "_unpack", recording)
    for upto in (0, 1, 4, 5, 999, 1000, None):
        assert np.array_equal(table.mu_array(upto), expected[:upto])
    assert seen == [0, 1, 1, 2, 250, 250, 250]
    for upto in (-1, 1001):
        with pytest.raises(ValueError, match="outside table range"):
            table.mu_array(upto)


def test_sieve_matches_naive_oracle():
    n = 3000
    assert np.array_equal(sieve_mobius(n).mu_array(), naive_mobius(n))


def test_known_values(table):
    for k, mu in KNOWN_MU.items():
        assert table.mu(k) == mu
    arr = table.mu_array().astype(np.int64)
    for n, m in KNOWN_MERTENS.items():
        if n <= table.limit:
            assert int(arr[:n].sum()) == m


def test_larger_mertens_values():
    arr = sieve_mobius(100000).mu_array().astype(np.int64)
    csum = np.cumsum(arr)
    for n, m in KNOWN_MERTENS.items():
        assert int(csum[n - 1]) == m


def test_mertens_from_packed_bytes():
    for n, m in KNOWN_MERTENS.items():
        assert sieve_mobius(n).mertens() == m


def test_segment_size_independence():
    big = sieve_mobius(500)
    for seg in (4, 16, 64, 100):
        assert np.array_equal(sieve_mobius(500, segment_size=seg).mu_array(),
                              big.mu_array())
    # segments that start at many phases of the pre-sieved pattern
    whole = sieve_mobius(200_000, segment_size=1 << 20)
    for seg in (44_100, 44_104, 65_536, 99_996):
        assert np.array_equal(sieve_mobius(200_000, segment_size=seg).packed,
                              whole.packed)


def test_default_segments_match_one_segment():
    table = sieve_mobius(10 ** 6)  # two default segments
    assert table.mertens() == 212
    assert int(table.mu_array().sum(dtype=np.int64)) == 212
    assert np.array_equal(sieve_mobius(10 ** 6, segment_size=10 ** 6 + 4).packed,
                          table.packed)


@pytest.mark.parametrize("lo, hi", [
    (2 ** 31 - 64, 2 ** 31 + 64),
    # 18 * 2**32 + 1 is prime, and congruent to its product lane 1 mod 2**32
    (18 * 2 ** 32 - 15, 18 * 2 ** 32 + 17),
])
def test_segment_beyond_int32(lo, hi):
    mu = _sieve_segment(lo, hi, _base_primes(math.isqrt(hi - 1)))
    assert mu.tolist() == [naive_mu(k) for k in range(lo, hi)]


def _is_prime(m):
    return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))


@pytest.mark.parametrize("bound", [7, 10, 30, 31, 32, 100, 210, 2310, 30030, 65535])
def test_largest_rounding_loss(bound):
    # k = P q with P a product of the smallest primes and q the least prime
    # above the sieve bound, in a table up to (bound + 1)^2 - 1
    q = next(m for m in range(bound + 1, 2 * bound + 2) if _is_prime(m))
    primes, P = _base_primes(bound), 1
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        P *= p
        k = P * q
        if k >= (bound + 1) ** 2:
            break
        lo, hi = k - 1, min(k + 2, (bound + 1) ** 2)
        assert _sieve_segment(lo, hi, primes).tolist() == [naive_mu(m) for m in range(lo, hi)]


def test_both_sides_of_each_log_run():
    # floor(2 log2 k) steps from j - 1 to j between isqrt(2^j - 1) and the next k
    for j in range(65):
        c = math.isqrt(2 ** j)
        lo, hi = max(1, c - 2), c + 3
        mu = _sieve_segment(lo, hi, _base_primes(math.isqrt(hi - 1)))
        assert mu.tolist() == [naive_mu(k) for k in range(lo, hi)], j


def test_every_small_limit():
    # sieve bounds isqrt(n) = 1..33; below 7 the pattern still sieves 2, 3, 5 and 7
    expected = naive_mobius(1100)
    for n in range(1, 1101):
        assert np.array_equal(sieve_mobius(n).mu_array(), expected[:n]), n


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2 ** 40))
def test_segment_windows_against_oracle(lo):
    hi = lo + 64
    mu = _sieve_segment(lo, hi, _base_primes(math.isqrt(hi - 1)))
    assert mu.tolist() == [naive_mu(k) for k in range(lo, hi)]


def test_uint8_lane_bound():
    # the log-weight lane holds 4 log2 k + omega(k) < 256 only below 2^48
    with pytest.raises(ValueError, match="2\\^48"):
        _sieve_segment(2 ** 48 - 8, 2 ** 48 + 1, np.array([2, 3, 5, 7]))
    with pytest.raises(ValueError, match="2\\^48"):
        sieve_mobius(2 ** 48)


def test_segment_size_validated():
    with pytest.raises(ValueError, match="multiple of 4"):
        sieve_mobius(100, segment_size=6)


@given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=200))
def test_pack_unpack_roundtrip(values):
    arr = np.array(values, dtype=np.int8)
    assert np.array_equal(_unpack(_pack(arr), len(arr)), arr)


def test_mu_bounds_checked(table):
    with pytest.raises(ValueError):
        table.mu(0)
    with pytest.raises(ValueError):
        table.mu(table.limit + 1)


def test_save_load_roundtrip(tmp_path, table):
    path = str(tmp_path / "m.bin")
    table.save(path)
    loaded = MobiusTable.load(path)
    assert loaded.limit == table.limit
    assert np.array_equal(loaded.mu_array(), table.mu_array())
    with open(path, "rb") as fh:
        assert fh.read(4) == b"NBL1"


def test_on_disk_format_is_pinned(tmp_path):
    # codes 00 -> 0, 01 -> +1, 10 -> -1, the lowest bits holding the lowest k
    assert _pack(np.array([1, -1, 0, 1], dtype=np.int8)).tobytes() == b"\x49"
    # mu(1..10) = 1 -1 -1 0 | -1 1 -1 0 | 0 1
    blob = b"NBL1" + struct.pack("<Q", 10) + b"\x29\x26\x04"
    path = tmp_path / "m.bin"
    sieve_mobius(10).save(str(path))
    assert path.read_bytes() == blob
    old = tmp_path / "old.bin"
    old.write_bytes(blob)
    assert MobiusTable.load(str(old)).mu_array().tolist() == naive_mobius(10).tolist()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\0" * 16)
    with pytest.raises(CorruptCacheError):
        MobiusTable.load(str(path))


def test_load_rejects_truncated_payload(tmp_path, table):
    path = tmp_path / "trunc.bin"
    import struct
    path.write_bytes(b"NBL1" + struct.pack("<Q", 1000) + b"\0" * 10)
    with pytest.raises(CorruptCacheError):
        MobiusTable.load(str(path))


def test_load_rejects_trailing_bytes(tmp_path, table):
    path = tmp_path / "long.bin"
    table.save(str(path))
    with open(path, "ab") as fh:
        fh.write(b"\0")
    with pytest.raises(CorruptCacheError, match="expected 500 packed bytes, got 501"):
        MobiusTable.load(str(path))


def test_load_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"NBL1" + b"\0" * 5)
    with pytest.raises(CorruptCacheError):
        MobiusTable.load(str(path))


def test_loaded_table_is_read_only(tmp_path, table):
    path = str(tmp_path / "m.bin")
    table.save(path)
    loaded = MobiusTable.load(path)
    assert loaded.packed.dtype == np.uint8 and len(loaded.packed) == 500
    with pytest.raises(ValueError):
        loaded.packed[0] = 0


def test_cached_miss_then_hit(tmp_path):
    d = str(tmp_path)
    t1, hit1 = sieve_mobius_cached(300, d)
    t2, hit2 = sieve_mobius_cached(300, d)
    assert (hit1, hit2) == (False, True)
    assert np.array_equal(t1.mu_array(), t2.mu_array())


def test_cached_regenerates_corrupt_file(tmp_path):
    d = str(tmp_path)
    sieve_mobius_cached(300, d)
    with open(cache_path(300, d), "r+b") as fh:
        fh.write(b"JUNK")
    with pytest.warns(UserWarning, match="regenerating"):
        t, hit = sieve_mobius_cached(300, d)
    assert not hit
    assert np.array_equal(t.mu_array(), naive_mobius(300))


def test_cache_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("NB_CACHE_DIR", str(tmp_path))
    assert cache_path(42).startswith(str(tmp_path))


def test_sieve_rejects_nonpositive():
    with pytest.raises(ValueError):
        sieve_mobius(0)
