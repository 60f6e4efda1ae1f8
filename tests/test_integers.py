import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densediv.errors import DomainError, ResourceLimitError
from densediv.integers import (
    DEFAULT_SIEVE_BUDGET,
    FactoredInteger,
    divisors,
    factorize,
    prime_array,
    primes_upto,
    sieve_spf,
)


def trial_division_spf(n: int) -> int:
    # a composite n has a prime factor <= isqrt(n); past that, n is prime
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return d
    return n


class TestSieve:
    def test_small_entries(self):
        spf = sieve_spf(20)
        assert spf[2] == 2
        assert spf[15] == 3
        assert spf[17] == 17

    def test_int32_read_only(self):
        spf = sieve_spf(10_000)
        assert spf.dtype == np.int32 and not spf.flags.writeable

    def test_8424(self):
        spf = sieve_spf(10_000)
        assert spf[8424] == 2

    def test_agrees_with_trial_division(self, spf_1e5):
        # exhaustive to 1e5 against an independent trial-division oracle
        for n in range(2, 100_001):
            assert spf_1e5[n] == trial_division_spf(n)

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            sieve_spf(10**12)

    def test_bad_limit(self):
        with pytest.raises(DomainError):
            sieve_spf(1)


class TestFactorize:
    def test_one(self):
        f = factorize(1)
        assert f.factors == ()

    def test_8424(self):
        assert factorize(8424).factors == ((2, 3), (3, 4), (13, 1))

    def test_65520(self):
        assert factorize(65520).factors == ((2, 4), (3, 2), (5, 1), (7, 1), (13, 1))

    def test_with_sieve_matches_without(self, spf_1e4):
        # trial division against the factorization read off the sieve
        for n in range(1, 5000):
            factors, m = [], n
            while m > 1:
                p, e = int(spf_1e4[m]), 0
                while m % p == 0:
                    m, e = m // p, e + 1
                factors.append((p, e))
            assert factorize(n).factors == tuple(factors)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_reconstruction(self, n):
        f = factorize(n)
        prod = 1
        for p, e in f.factors:
            prod *= p**e
        assert prod == n

    def test_trial_division_budget(self):
        # the documented range (n <= ~1e12) factors; a prime near 1e18 does not
        assert factorize(999_999_999_989).factors == ((999_999_999_989, 1),)
        assert factorize(1_048_573 * 1_048_583).factors == ((1_048_573, 1), (1_048_583, 1))
        with pytest.raises(ResourceLimitError):
            factorize(10**18 + 3)

    def test_cofactor_past_the_square_of_the_limit_is_refused(self):
        # what is left after the primes below 2**20 is proven prime only below
        # (2**20 + 1)**2, whatever the primes below 2**20 are
        q = 2**40 - 87
        assert all(pow(b, q - 1, q) == 1 for b in (2, 3, 5, 7, 11, 13))
        assert factorize(3 * q).factors == ((3, 1), (q, 1))
        with pytest.raises(ResourceLimitError):
            factorize(3 * (2**61 - 1))

    def test_invalid_tuple_rejected(self):
        with pytest.raises(DomainError):
            FactoredInteger(12, ((3, 1), (2, 2)))
        with pytest.raises(DomainError):
            FactoredInteger(12, ((2, 2),))


class TestDivisors:
    def test_examples(self):
        assert divisors(factorize(12)) == [1, 2, 3, 4, 6, 12]
        assert divisors(factorize(1)) == [1]
        assert divisors(factorize(32)) == [1, 2, 4, 8, 16, 32]

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_count_matches_formula(self, n):
        f = factorize(n)
        divs = divisors(f)
        expected = 1
        for _, e in f.factors:
            expected *= e + 1
        assert len(divs) == expected
        assert divs == sorted(set(divs))
        assert all(n % d == 0 for d in divs)

    def test_cap(self):
        # the first 21 primes: 2**21 divisors, past DEFAULT_DIVISOR_CAP = 2**20
        primes = primes_upto(73)
        assert len(primes) == 21
        f = FactoredInteger(math.prod(primes), tuple((p, 1) for p in primes))
        with pytest.raises(ResourceLimitError):
            divisors(f)


def test_primes_upto():
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(1) == []


def test_prime_array_matches_the_spf_sieve_and_its_budget():
    arr = prime_array(10**5)
    assert arr.dtype == np.int64
    spf = sieve_spf(10**5)
    assert np.array_equal(arr, np.flatnonzero(spf == np.arange(spf.size))[2:])  # spf[p] = p
    assert prime_array(1).size == 0 and primes_upto(2) == [2]
    with pytest.raises(ResourceLimitError):
        prime_array(DEFAULT_SIEVE_BUDGET)  # refused before the array is allocated
