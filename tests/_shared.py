"""Heavy fixtures shared between the unit suites and the acceptance suite."""

import math
from fractions import Fraction
from functools import lru_cache

from densediv.families import membership_tables


@lru_cache(maxsize=8)
def tables_at(N: int, y: Fraction, imax: int = 4):
    return membership_tables(N, y, imax)


class DefinitionReference:
    """Dense(i) and StrongDense(i) for one y, straight from the definitions,
    sharing no code with the package.

    Level 0 holds every n >= 1.  n is in StrongDense(i) iff for every j + k =
    i - 1 (every j, no mirror halving) and every R in [1, y n] there is a
    factorisation n = q r with q in StrongDense(j), r in StrongDense(k) and
    R/y <= r <= R.  Dense(i) asks this for the one pair j = 0, k = i - 1:
    every R in [1, y n] has a divisor r of n in Dense(i - 1) with R/y <= r <= R.
    """

    def __init__(self, y):
        self.y = Fraction(y)
        self._memo = {}
        self._divs = {}

    def _divisors(self, n):
        if n not in self._divs:
            small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
            self._divs[n] = sorted(set(small + [n // d for d in small]))
        return self._divs[n]

    def _covers(self, rs, n):
        """Every R in [1, y n] lies in some [r, y r] with r in rs (sorted)."""
        # every R <= reach is covered by the r read so far (R = 1 by the next
        # r, which must be 1); an r > reach leaves the R just below r uncovered
        reach = Fraction(1)
        for r in rs:
            if r > reach:
                return False
            reach = max(reach, self.y * r)
        return reach >= self.y * n

    def member(self, kind, n, i):
        if i == 0:
            return True
        key = (kind, n, i)
        if key not in self._memo:
            ks = [i - 1] if kind == "dense" else range(i)
            self._memo[key] = all(
                self._covers([r for r in self._divisors(n)
                              if self.member(kind, r, k) and self.member(kind, n // r, i - 1 - k)],
                             n)
                for k in ks
            )
        return self._memo[key]
