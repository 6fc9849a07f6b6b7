"""Segmented Moebius sieve with 2-bit packed storage and a binary disk cache.

The packed encoding is two bits per integer: 00 -> 0, 01 -> +1, 10 -> -1
(11 is reserved).  The cache file layout is the magic bytes ``NBL1``, an
unsigned little-endian 64-bit limit N, then ceil(N/4) packed bytes.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

MAGIC = b"NBL1"
CACHE_ENV = "NB_CACHE_DIR"
DEFAULT_CACHE_DIR = ".nbcache"

# code -> mu value (code 3 is reserved and decodes to 0)
_DECODE = np.array([0, 1, -1, 0], dtype=np.int8)


def _pack(values: np.ndarray) -> np.ndarray:
    """Pack an int8 array of mu values (k = 1..N) into 2-bit codes."""
    codes = np.zeros(len(values), dtype=np.uint8)
    codes[values == 1] = 1
    codes[values == -1] = 2
    pad = (-len(codes)) % 4
    if pad:
        codes = np.concatenate([codes, np.zeros(pad, dtype=np.uint8)])
    q = codes.reshape(-1, 4)
    return (q[:, 0] | (q[:, 1] << 2) | (q[:, 2] << 4) | (q[:, 3] << 6)).astype(np.uint8)


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """Unpack n leading mu values from a packed byte array."""
    out = np.empty(len(packed) * 4, dtype=np.int8)
    for lane in range(4):
        out[lane::4] = _DECODE[(packed >> 2 * lane) & 3]
    return out[:n]


@dataclass(frozen=True)
class MobiusTable:
    """Exact mu(k) for 1 <= k <= limit, immutable after construction."""

    limit: int
    packed: np.ndarray  # uint8, ceil(limit/4) bytes

    def mu(self, k: int) -> int:
        if not 1 <= k <= self.limit:
            raise ValueError(f"k={k} outside table range [1, {self.limit}]")
        byte = self.packed[(k - 1) >> 2]
        code = (byte >> (2 * ((k - 1) & 3))) & 3
        return int(_DECODE[code])

    def mu_range(self, lo: int, hi: int) -> np.ndarray:
        """mu(k) for lo <= k < hi as int8."""
        if not (1 <= lo <= hi <= self.limit + 1):
            raise ValueError(f"range [{lo}, {hi}) outside table [1, {self.limit}]")
        first_byte = (lo - 1) >> 2
        last_byte = (hi - 2) >> 2 if hi > lo else first_byte
        vals = _unpack(self.packed[first_byte:last_byte + 1], (last_byte + 1 - first_byte) * 4)
        off = (lo - 1) & 3
        return vals[off:off + (hi - lo)]

    def mu_array(self) -> np.ndarray:
        """All values mu(1..limit) as int8."""
        return _unpack(self.packed, self.limit)

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", self.limit))
            fh.write(self.packed.tobytes())

    @classmethod
    def load(cls, path: str) -> "MobiusTable":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != MAGIC:
                raise CorruptCacheError(f"bad magic {magic!r} in {path}")
            (limit,) = struct.unpack("<Q", fh.read(8))
            raw = fh.read()
        expected = (limit + 3) // 4
        if len(raw) != expected:
            raise CorruptCacheError(
                f"cache {path}: expected {expected} packed bytes, got {len(raw)}")
        return cls(limit=int(limit), packed=np.frombuffer(raw, dtype=np.uint8))


class CorruptCacheError(Exception):
    """Sieve cache file failed its magic/length validation."""


def _base_primes(limit: int) -> np.ndarray:
    """All primes <= limit by a plain bool sieve."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p:: p] = False
    return np.flatnonzero(is_p).astype(np.int64)


def sieve_mobius(n: int, segment_size: int = 1 << 21) -> MobiusTable:
    """Compute mu(k) for 1 <= k <= n by a segmented sieve.

    Peak working memory beyond the packed output is O(segment_size).
    """
    if n < 1:
        raise ValueError(f"sieve limit must be >= 1, got {n}")
    primes = _base_primes(math.isqrt(n))
    packed = np.empty((n + 3) // 4, dtype=np.uint8)
    for lo in range(1, n + 1, segment_size):
        hi = min(lo + segment_size, n + 1)
        mu = _sieve_segment(lo, hi, primes)
        # segment boundaries are multiples of 4 in the 1-based index
        packed[(lo - 1) // 4:(lo - 1) // 4 + (hi - lo + 3) // 4] = _pack(mu)
    return MobiusTable(limit=n, packed=packed)


def _sieve_segment(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """mu(k) for lo <= k < hi.  primes must cover sqrt(hi - 1)."""
    size = hi - lo
    mu = np.ones(size, dtype=np.int8)
    # product of the distinct sieved primes dividing k; a remaining
    # cofactor > 1 is a single prime above sqrt and flips the sign once more
    prod = np.ones(size, dtype=np.int64)
    for p in primes:
        p = int(p)
        start = ((lo + p - 1) // p) * p - lo
        mu[start::p] = -mu[start::p]
        prod[start::p] *= p
        p2 = p * p
        if p2 < hi:
            start2 = ((lo + p2 - 1) // p2) * p2 - lo
            mu[start2::p2] = 0
    ks = np.arange(lo, hi, dtype=np.int64)
    mu[prod != ks] = -mu[prod != ks]
    if lo == 1:
        mu[0] = 1
    return mu


def cache_dir() -> str:
    return os.environ.get(CACHE_ENV, DEFAULT_CACHE_DIR)


def cache_path(n: int, directory: str | None = None) -> str:
    return os.path.join(directory or cache_dir(), f"mobius_{n}.bin")


def sieve_mobius_cached(n: int, directory: str | None = None) -> tuple[MobiusTable, bool]:
    """Load mu(1..n) from cache if present and valid, else sieve and persist.

    Returns (table, cache_hit).  A corrupt cache file is regenerated with a
    warning instead of raising.
    """
    path = cache_path(n, directory)
    if os.path.exists(path):
        try:
            table = MobiusTable.load(path)
            if table.limit == n:
                return table, True
            raise CorruptCacheError(f"cache {path} has limit {table.limit}, wanted {n}")
        except CorruptCacheError as exc:
            warnings.warn(f"regenerating sieve cache: {exc}")
    table = sieve_mobius(n)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    table.save(path)
    return table, False
