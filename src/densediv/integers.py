"""Exact integer infrastructure: sieves, factorization, divisor generation.

Everything here is deterministic and pure once built; the sieve arrays are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, ResourceLimitError

# Budgets are deliberately conservative: inputs are desk-scale (<= ~1e12).
# The sieve holds 4 bytes per entry, 512 MiB at its budget; a divisor list
# past the cap is refused before it is built.
DEFAULT_SIEVE_BUDGET = 1 << 27
DEFAULT_DIVISOR_CAP = 1 << 20
# Trial division stops at this divisor, so what is left of n after its primes
# below it must be 1 or below (2**20 + 1)**2 to be proven prime: every
# n < 2**40 (~1.1e12) factors, and 3 * (2**40 - 87) does, but 3 * (2**61 - 1)
# is refused though 2**61 - 1 is prime.
TRIAL_DIVISION_LIMIT = 1 << 20


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer together with its ordered prime factorization.

    ``factors`` is a tuple of (prime, exponent) pairs with primes strictly
    increasing and exponents >= 1; the product reconstructs ``n``.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"positive integer required, got {self.n}")
        prod = 1
        prev = 1
        for p, e in self.factors:
            if e < 1 or p <= prev:
                raise DomainError(f"invalid factorization for {self.n}: {self.factors}")
            prev = p
            prod *= p**e
        if prod != self.n:
            raise DomainError(f"factorization of {self.n} does not reconstruct: {self.factors}")

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def prime_list(self) -> list[int]:
        """Primes of n repeated with multiplicity, in nondecreasing order."""
        out = []
        for p, e in self.factors:
            out.extend([p] * e)
        return out

    def divisor_count(self) -> int:
        return reduce(lambda acc, fe: acc * (fe[1] + 1), self.factors, 1)


def sieve_spf(limit: int) -> np.ndarray:
    """Smallest-prime-factor table for 2..limit.

    Returns a read-only int32 array ``spf`` of length limit+1 with spf[n] the
    smallest prime factor of n (spf[0] = 0, spf[1] = 1, spf[p] = p for
    primes); every entry is at most DEFAULT_SIEVE_BUDGET, below 2**31.
    """
    if limit < 2:
        raise DomainError("sieve limit must be >= 2")
    if limit + 1 > DEFAULT_SIEVE_BUDGET:
        raise ResourceLimitError(f"sieve limit {limit} exceeds budget {DEFAULT_SIEVE_BUDGET}")
    spf = np.arange(limit + 1, dtype=np.int32)
    spf[0] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            sl = spf[p * p :: p]
            np.minimum(sl, p, out=sl)
    spf.setflags(write=False)  # safe for concurrent readers
    return spf


def prime_array(n: int) -> np.ndarray:
    """All primes <= n as an int64 array, by Eratosthenes on a bool array.

    Refuses n past DEFAULT_SIEVE_BUDGET before allocating, as sieve_spf does.
    """
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    if n + 1 > DEFAULT_SIEVE_BUDGET:
        raise ResourceLimitError(f"prime sieve limit {n} exceeds budget {DEFAULT_SIEVE_BUDGET}")
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def primes_upto(n: int) -> list[int]:
    """All primes <= n as a list of ints (prime_array, converted)."""
    return prime_array(n).tolist()


def factorize(n: int) -> FactoredInteger:
    """Factor n >= 1 into a FactoredInteger by trial division.

    Raises ResourceLimitError when trial division would pass
    TRIAL_DIVISION_LIMIT.
    """
    if n < 1:
        raise DomainError(f"positive integer required, got {n}")
    factors = []
    m = n
    d = 2
    stop = min(math.isqrt(m), TRIAL_DIVISION_LIMIT)
    while d <= stop:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
            stop = min(math.isqrt(m), TRIAL_DIVISION_LIMIT)
        d += 1 if d == 2 else 2
    if d * d <= m:
        raise ResourceLimitError(
            f"factoring {n} needs trial division past {TRIAL_DIVISION_LIMIT}"
        )
    if m > 1:
        factors.append((m, 1))
    return FactoredInteger(n, tuple(factors))


def divisors(f: FactoredInteger) -> list[int]:
    """All divisors of f.n in increasing order, at most DEFAULT_DIVISOR_CAP."""
    if f.divisor_count() > DEFAULT_DIVISOR_CAP:
        raise ResourceLimitError(
            f"{f.n} has {f.divisor_count()} divisors, cap is {DEFAULT_DIVISOR_CAP}"
        )
    divs = [1]
    for p, e in f.factors:
        pk = 1
        ext = []
        for _ in range(e):
            pk *= p
            ext.extend(d * pk for d in divs)
        divs.extend(ext)
    divs.sort()
    return divs

