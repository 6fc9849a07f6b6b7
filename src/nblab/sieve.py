"""Segmented Moebius sieve with 2-bit packed storage and a binary disk cache.

The packed encoding is two bits per integer: 00 -> 0, 01 -> +1, 10 -> -1
(11 is reserved).  The cache file layout is the magic bytes ``NBL1``, an
unsigned little-endian 64-bit limit N, then ceil(N/4) packed bytes.
"""

from __future__ import annotations

import functools
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
# packed byte -> its four mu values, lowest bits first, and their sum
_LUT = _DECODE[(np.arange(256)[:, None] >> np.array([0, 2, 4, 6])) & 3]
_BYTE_SUM = _LUT.sum(axis=1, dtype=np.int8)

_PRESIEVED = (2, 3, 5, 7)  # sieved once into a pattern every segment copies
_PERIOD = math.prod(_PRESIEVED)
_LANE_LIMIT = 1 << 48  # see _sieve_segment
_SUM_SLICE = 1 << 20   # packed bytes per slice of MobiusTable.mertens


def _pack(values: np.ndarray) -> np.ndarray:
    """Pack an int8 array of mu values (k = 1..N) into 2-bit codes."""
    codes = np.zeros(-(-len(values) // 4) * 4, dtype=np.uint8)
    c = codes[:len(values)]
    np.bitwise_and(values.view(np.uint8), 3, out=c)  # -1 is 0xff -> 3
    c ^= c >> 1                                     # 3 -> 2; 0 and 1 stay
    w = codes.view("<u4")
    return ((w | w >> 6 | w >> 12 | w >> 18) & 0xFF).astype(np.uint8)


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """Unpack n leading mu values from a packed byte array."""
    # one 4-byte lookup per packed byte; np.take would first copy packed to intp
    return _LUT.view("<u4")[packed, 0].view(np.int8)[:n]


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

    def mu_array(self, upto: int | None = None) -> np.ndarray:
        """mu(1..upto) as int8, all of them by default; only the leading
        bytes that hold them are decoded."""
        n = self.limit if upto is None else upto
        if not 0 <= n <= self.limit:
            raise ValueError(f"upto={n} outside table range [0, {self.limit}]")
        return _unpack(self.packed[:(n + 3) // 4], n)

    def mertens(self) -> int:
        """M(limit), the sum of mu(k) over 1 <= k <= limit."""
        # in slices: one int8 temporary of the whole table is n/4 bytes
        return sum(int(_BYTE_SUM[self.packed[i:i + _SUM_SLICE]].sum(dtype=np.int64))
                   for i in range(0, len(self.packed), _SUM_SLICE))

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", self.limit))
            fh.write(self.packed)

    @classmethod
    def load(cls, path: str) -> "MobiusTable":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != MAGIC:
                raise CorruptCacheError(f"bad magic {magic!r} in {path}")
            header = fh.read(8)
            if len(header) != 8:
                raise CorruptCacheError(f"cache {path}: truncated header")
            (limit,) = struct.unpack("<Q", header)
            expected = (limit + 3) // 4
            # checked before allocating, so a bad limit cannot ask for memory
            size = os.fstat(fh.fileno()).st_size - len(MAGIC) - len(header)
            if size != expected:
                raise CorruptCacheError(
                    f"cache {path}: expected {expected} packed bytes, got {size}")
            # read() would join its buffer with a second full copy
            packed = np.empty(expected, dtype=np.uint8)
            got = fh.readinto(packed)
        if got != expected:
            raise CorruptCacheError(
                f"cache {path}: expected {expected} packed bytes, read {got}")
        packed.flags.writeable = False
        return cls(limit=int(limit), packed=packed)


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


def sieve_mobius(n: int, segment_size: int = 1 << 19) -> MobiusTable:
    """Compute mu(k) for 1 <= k <= n by a segmented sieve.

    Each segment fills its own slice of the packed output, so peak working
    memory beyond the packed output is O(segment_size).
    """
    if not 1 <= n < _LANE_LIMIT:
        raise ValueError(f"sieve limit must be in [1, 2^48), got {n}")
    if segment_size < 4 or segment_size % 4:
        raise ValueError(f"segment size must be a positive multiple of 4, got {segment_size}")
    primes = _base_primes(math.isqrt(n))
    packed = np.empty((n + 3) // 4, dtype=np.uint8)
    for lo in range(1, n + 1, segment_size):
        hi = min(lo + segment_size, n + 1)
        # lo - 1 is a multiple of 4, so the segment's codes fill whole bytes
        packed[(lo - 1) // 4:(hi + 2) // 4] = _pack(_sieve_segment(lo, hi, primes))
    return MobiusTable(limit=n, packed=packed)


@functools.cache
def _presieve_pattern(bits: int) -> np.ndarray:
    """_sieve_segment's lane over _PRESIEVED at k % _PERIOD, 2**bits past one period."""
    pattern = np.zeros(_PERIOD + (1 << bits), dtype=np.uint8)
    for p in _PRESIEVED:
        pattern[::p] += 2 * (p * p).bit_length() - 1
    pattern.flags.writeable = False
    return pattern


def _sieve_segment(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """mu(k) for lo <= k < hi < 2^48.  primes must cover sqrt(hi - 1).

    Each prime p <= B = max(7, primes[-1]) adds 2 floor(2 log2 p) + 1 to a
    uint8 lane at its multiples: lane = r (mod 2) and 4 log2 P - r < lane <=
    4 log2 P + r for P the product and r the count of those dividing k.  With
    j = floor(2 log2 k) and L = floor(2 log2 (B + 1)), squarefree k < (B + 1)^2
    is P, so r <= log2 k gives r <= L and lane > 2j - L, or P q with one prime
    q > B, so r < log2 (B + 1) gives lane < 2j + 2 - 3 log2 (B + 1) <= 2j + 1 - L.
    So mu = (-1)^lane, flipped where lane <= 2j - L, and 0 at multiples of p^2.
    The lane stays below 4 log2 k + omega(k) < 4 * 48 + 12 < 256.
    """
    if hi > _LANE_LIMIT:
        raise ValueError(f"sieve segment must end below 2^48, got {hi}")
    lane = _presieve_pattern((hi - lo - 1).bit_length())[lo % _PERIOD:][:hi - lo].copy()
    for p in primes[primes > _PRESIEVED[-1]].tolist():
        lane[(-lo) % p::p] += 2 * (p * p).bit_length() - 1
    margin = ((max(_PRESIEVED[-1], int(primes.max(initial=0))) + 1) ** 2).bit_length() - 1
    for j in range((lo * lo).bit_length() - 1, ((hi - 1) ** 2).bit_length()):
        # floor(2 log2 k) = j for isqrt(2^j - 1) < k <= isqrt(2^(j+1) - 1)
        run = lane[max(lo, math.isqrt((1 << j) - 1) + 1) - lo:
                   min(hi, math.isqrt((2 << j) - 1) + 1) - lo]
        np.add(run, run <= 2 * j - margin, out=run)  # a prime above B flips mu
    mu = (1 - 2 * (lane & 1)).view(np.int8)
    for q in (primes[primes * primes < hi] ** 2).tolist():
        if (f := (-lo) % q) < hi - lo:
            mu[f::q] = 0
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
