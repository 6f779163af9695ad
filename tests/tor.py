"""Tor over Z/m from invariant factors: an oracle for module homology
that shares no code with the table route.

For Z/m-modules, burnside:k is the additive reflector A -> A/kA =
A (x) Z/e with e = gcd(k, m), and its first derived functor gives
H2(A) = Tor_1^{Z/m}(A, Z/e).  A cyclic Z/d with d | m has the periodic
free resolution ... -> Z/m --(m/d)--> Z/m --(d)--> Z/m -> Z/d, so
Tor_1(Z/d, Z/e) is the kernel of d on Z/e modulo the image of m/d:
cyclic of order gcd(d, e) * gcd(m/d, e) / e.
"""

from math import gcd


def _prime_powers(n: int):
    p = 2
    while n > 1:
        q = 1
        while n % p == 0:
            n //= p
            q *= p
        if q > 1:
            yield p, q
        p += 1


def invariant_factors(cyclic_orders) -> tuple[int, ...]:
    """The invariant factors d1 | d2 | ..., each above 1, of the direct
    sum of cyclic groups of the given orders: the i-th largest power of
    each prime goes into the i-th largest factor."""
    powers: dict[int, list[int]] = {}
    for n in cyclic_orders:
        for p, q in _prime_powers(n):
            powers.setdefault(p, []).append(q)
    factors: list[int] = []
    for qs in powers.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            if i == len(factors):
                factors.append(1)
            factors[i] *= q
    return tuple(sorted(factors))


def module_invariant_factors(A) -> tuple[int, ...]:
    """The invariant factors of a finite Z/m-module, from how many
    elements each prime power p^j dividing m kills.  That count is the
    product of gcd(p^j, d) over the factors d, so it grows from p^(j-1)
    to p^j by p to the number of factors divisible by p^j."""
    m = A.variety.modulus
    scalars = A.sorts[0].unary[1:]  # unary maps: neg, then scalars
    cyclic = []
    for p, top in _prime_powers(m):
        killed, q = [1], p
        while q <= top:
            killed.append(scalars[q % m].count(0))
            q *= p
        divisible = []  # divisible[j - 1]: factors divisible by p^j
        for before, after in zip(killed, killed[1:]):
            r, ratio = 0, after // before
            while ratio > 1:
                ratio //= p
                r += 1
            divisible.append(r)
        for j, r in enumerate(divisible, 1):
            cyclic += [p ** j] * (r - (divisible[j] if j < len(divisible) else 0))
    return invariant_factors(cyclic)


def tor1(factors, m: int, e: int) -> tuple[int, ...]:
    """Invariant factors of Tor_1^{Z/m}(A, Z/e) for A with the given
    invariant factors, each dividing m, and e dividing m."""
    return invariant_factors(gcd(d, e) * gcd(m // d, e) // e for d in factors)
