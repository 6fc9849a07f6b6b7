import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nblab.sieve import (CorruptCacheError, MobiusTable, _pack, _unpack,
                         cache_path, sieve_mobius, sieve_mobius_cached)
from oracles import naive_mobius

# frozen oracle values: mu and Mertens spot checks computed by trial
# factorization independently of the sieve
KNOWN_MU = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 10: 1, 12: 0, 30: -1,
            210: 1, 1024: 0, 1999: -1}
KNOWN_MERTENS = {1: 1, 10: -1, 100: 1, 1000: 2, 10000: -23, 100000: -48}


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


def test_segment_size_independence():
    big = sieve_mobius(500)
    for seg in (4, 16, 64, 100):
        assert np.array_equal(sieve_mobius(500, segment_size=seg).mu_array(),
                              big.mu_array())


@given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=200))
def test_pack_unpack_roundtrip(values):
    arr = np.array(values, dtype=np.int8)
    assert np.array_equal(_unpack(_pack(arr), len(arr)), arr)


@given(st.integers(min_value=1, max_value=400))
@settings(max_examples=25, deadline=None)
def test_mu_range_matches_mu_array(n):
    t = sieve_mobius(400)
    lo = 1 + (n * 7) % 300
    hi = min(lo + n, 401)
    assert np.array_equal(t.mu_range(lo, hi), t.mu_array()[lo - 1:hi - 1])


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
