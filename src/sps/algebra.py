"""Exact arithmetic over GF(p) and GF(p^e), plus echelon linear algebra.

Field elements are plain Python values: an int in [0, p) for a prime field,
a length-e tuple of such ints (constant coefficient first) for an extension
field. Equality of elements is equality of representations, so elements are
hashable and canonical. Everything in this module is immutable after
construction; operations return new values, which makes all of it safe to
share between concurrent tasks.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import BudgetExceededError

IRREDUCIBLE_SEARCH_BUDGET = 1_000_000
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin over the prime bases up to 37: exact for every
    m < 3.18 * 10^23, the least strong pseudoprime to all twelve (Sorenson
    and Webster, Math. Comp. 86, 2017). Field asks only about p < 2^64."""
    if m < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if m % b == 0:
            return m == b
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = odd * 2^s
    odd = (m - 1) >> s
    for b in _MILLER_RABIN_BASES:
        # b proves m composite unless b^odd = 1 or b^(odd * 2^i) = -1, i < s
        powers = [pow(b, odd << i, m) for i in range(s)]
        if powers[0] != 1 and m - 1 not in powers:
            return False
    return True


# -- polynomial helpers over GF(p), coefficient lists with constant term first --

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a, b, mod, p):
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_divmod(prod, mod, p)[1]


def _poly_divmod(a, b, p):
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(da - db + 1, 0)
    while da >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
            da = len(a) - 1
        if da < db or not a:
            break
        c = (a[-1] * inv_lead) % p
        q[da - db] = c
        for j in range(db + 1):
            a[da - db + j] = (a[da - db + j] - c * b[j]) % p
    return q, _poly_trim(a)


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def _poly_pow_xq(q, mod, p):
    """x^q mod (mod) by square-and-multiply."""
    base = _poly_divmod([0, 1], mod, p)[1]
    result = [1]
    while q:
        if q & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        q >>= 1
    return result


def _prime_factors(m):
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


def _is_irreducible(mod, p):
    """Rabin test for a monic polynomial of degree e >= 1 over GF(p)."""
    e = len(mod) - 1
    if e == 1:
        return True
    if mod[0] == 0:  # divisible by x
        return False
    if _poly_pow_xq(p**e, mod, p) != [0, 1]:
        return False
    for r in _prime_factors(e):
        h = _poly_pow_xq(p ** (e // r), mod, p)
        h = list(h) + [0] * max(0, 2 - len(h))
        h[1] = (h[1] - 1) % p
        g = _poly_gcd(list(mod), _poly_trim(h), p)
        if len(g) != 1:
            return False
    return True


class Field:
    """Finite field GF(p^e) with a canonical, deterministically chosen modulus.

    For e > 1 the modulus is the lexicographically least monic irreducible
    polynomial of degree e (coefficient tuple (c_0, ..., c_{e-1}) compared
    left to right, constant term first), so construction is reproducible.
    """

    __slots__ = ("p", "e", "order", "modulus", "zero", "one", "_mod_packed")

    def __init__(self, p: int, e: int = 1, search_budget: int = IRREDUCIBLE_SEARCH_BUDGET):
        if not isinstance(p, int) or p >= 2**64 or not is_prime(p):
            raise ValueError(f"characteristic must be a prime below 2^64, got {p!r}")
        if not isinstance(e, int) or e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e!r}")
        # p**e > budget already when 2**e > budget; refuse before exponentiating
        if e > 1 and (e >= search_budget.bit_length() or p**e > search_budget):
            raise BudgetExceededError(
                f"irreducible search over {p}^{e} candidates exceeds budget {search_budget}"
            )
        self.p = p
        self.e = e
        self.order = p**e
        if e == 1:
            self.modulus = None
            self.zero = 0
            self.one = 1
            self._mod_packed = None
        else:
            self.modulus = self._find_modulus(p, e)
            self.zero = (0,) * e
            self.one = (1,) + (0,) * (e - 1)
            self._mod_packed = sum(c << i for i, c in enumerate(self.modulus)) if p == 2 else None

    @staticmethod
    def _find_modulus(p, e):
        for tail in itertools.product(range(p), repeat=e):
            cand = list(tail) + [1]
            if _is_irreducible(cand, p):
                return tuple(cand)
        raise ValueError(f"no irreducible polynomial of degree {e} over GF({p})")  # unreachable

    # -- identity / representation --

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"GF({self.p})" if self.e == 1 else f"GF({self.p}^{self.e})"

    def element(self, x):
        """Canonicalize x into this field (ints embed via the prime subfield)."""
        if self.e == 1:
            if isinstance(x, int):
                return x % self.p
            raise TypeError(f"prime-field element must be an int, got {type(x).__name__}")
        if isinstance(x, int):
            return (x % self.p,) + (0,) * (self.e - 1)
        c = tuple(int(v) % self.p for v in x)
        if len(c) != self.e:
            raise ValueError(f"extension element needs {self.e} coefficients, got {len(c)}")
        return c

    def is_element(self, x):
        # type() rather than isinstance(): bool is an int subclass, not an element
        if self.e == 1:
            return type(x) is int and 0 <= x < self.p
        return (
            isinstance(x, tuple)
            and len(x) == self.e
            and all(type(v) is int and 0 <= v < self.p for v in x)
        )

    # -- arithmetic --

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        p, e, m = self.p, self.e, self.modulus
        prod = [0] * (2 * e - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for j in range(e):
                    if m[j]:
                        prod[k - e + j] = (prod[k - e + j] - c * m[j]) % p
        return tuple(prod[:e])

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        # extended Euclid in GF(p)[x]
        p = self.p
        r0, r1 = list(self.modulus), _poly_trim(list(a))
        s0, s1 = [], [1]
        while r1:
            q, rem = _poly_divmod(r0, r1, p)
            r0, r1 = r1, rem
            qs = [0] * (len(q) + len(s1) - 1) if q and s1 else []
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        qs[i + j] = (qs[i + j] + qi * sj) % p
            new_s = [(x - y) % p for x, y in itertools.zip_longest(s0, qs, fillvalue=0)]
            s0, s1 = s1, _poly_trim(new_s)
        c_inv = pow(r0[0], p - 2, p)
        out = [(x * c_inv) % p for x in s0]
        out += [0] * (self.e - len(out))
        return tuple(out[: self.e])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, k: int):
        if k < 0:
            return self.pow(self.inv(a), -k)
        result = self.one
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def scale_int(self, c: int, a):
        """Multiply element a by the prime-subfield scalar c (an int)."""
        if self.e == 1:
            return (c * a) % self.p
        return tuple((c * x) % self.p for x in a)

    def rand_element(self, rng):
        if self.e == 1:
            return rng.randrange(self.p)
        return tuple(rng.randrange(self.p) for _ in range(self.e))


@lru_cache(maxsize=None)
def field_make(p: int, e: int = 1) -> Field:
    """Construct (and cache) GF(p^e) with the canonical modulus."""
    return Field(p, e)


# -- packed GF(2^m) helpers used by the fast evaluation paths --

def gf2_mulmod(a: int, b: int, mod: int, deg: int) -> int:
    """Carry-less multiply of bit-packed GF(2^deg) elements, reduced by mod."""
    r = 0
    top = 1 << deg
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= mod
    return r


# -- echelon span bases --

def eliminate(field: Field, rows, pivots, v):
    """Clear each row's pivot from v, in row order: (multipliers, remainder).

    Each row must be zero before its pivot, 1 at it, and zero at the pivots
    of the rows before it. Then v = sum(multipliers[i] * rows[i]) + remainder
    and the remainder is zero at every pivot, which makes it the unique such
    representative of v modulo the rows' span. Both results are lists.
    """
    z = field.zero
    out = list(v)
    mults = []
    for row, piv in zip(rows, pivots):
        c = out[piv]
        mults.append(c)
        if c != z:
            for j in range(piv, len(out)):
                rj = row[j]
                if rj != z:
                    out[j] = field.sub(out[j], field.mul(c, rj))
    return mults, out


class SpanBasis:
    """Reduced-row-echelon basis of a subspace of F^n.

    Rows carry pivot coefficient 1 with zeros above and below each pivot, and
    are ordered by pivot column, so two bases are equal iff they span the same
    subspace. Instances are immutable; ``insert`` returns a new basis.
    """

    __slots__ = ("field", "n", "rows", "pivots")

    def __init__(self, field: Field, n: int, rows=(), pivots=()):
        self.field = field
        self.n = n
        self.rows = tuple(rows)
        self.pivots = tuple(pivots)

    @classmethod
    def empty(cls, field: Field, n: int) -> "SpanBasis":
        return cls(field, n)

    @classmethod
    def from_vectors(cls, field: Field, n: int, vectors) -> "SpanBasis":
        basis = cls(field, n)
        for v in vectors:
            basis, _ = basis.insert(v)
        return basis

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _check(self, v):
        if len(v) != self.n:
            raise ValueError(f"vector has dimension {len(v)}, basis ambient is {self.n}")

    def reduce(self, v) -> tuple:
        """Canonical representative of v modulo the span (pivot coords eliminated)."""
        self._check(v)
        return tuple(eliminate(self.field, self.rows, self.pivots, v)[1])

    def contains(self, v) -> bool:
        self._check(v)
        z = self.field.zero
        return all(c == z for c in eliminate(self.field, self.rows, self.pivots, v)[1])

    def coordinates(self, v):
        """Coefficients of v over the basis rows, or None if v is outside the span."""
        self._check(v)
        coords, rest = eliminate(self.field, self.rows, self.pivots, v)
        z = self.field.zero
        if any(c != z for c in rest):
            return None
        return tuple(coords)

    def insert(self, v):
        """Return (basis', inserted). Rank grows by exactly 1 iff inserted."""
        field = self.field
        red = self.reduce(v)
        z = field.zero
        piv = next((j for j, c in enumerate(red) if c != z), None)
        if piv is None:
            return self, False
        inv = field.inv(red[piv])
        new_row = tuple(field.mul(inv, c) for c in red)
        rows, pivots = [], []
        placed = False
        for row, rp in zip(self.rows, self.pivots):
            c = row[piv]
            if c != z:
                row = tuple(field.sub(a, field.mul(c, b)) for a, b in zip(row, new_row))
            if not placed and rp > piv:
                rows.append(new_row)
                pivots.append(piv)
                placed = True
            rows.append(row)
            pivots.append(rp)
        if not placed:
            rows.append(new_row)
            pivots.append(piv)
        return SpanBasis(self.field, self.n, rows, pivots), True

    def __eq__(self, other):
        return (
            isinstance(other, SpanBasis)
            and self.field == other.field
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.n, self.rows))

    def __repr__(self):
        return f"SpanBasis(n={self.n}, rank={self.rank})"


def spans_orthogonal(bases: list[SpanBasis]) -> bool:
    """True iff each basis meets the span of its predecessors only in 0.

    Equivalently, the rank of the union equals the sum of the ranks; checked
    by cumulative insertion.
    """
    if not bases:
        return True
    field, n = bases[0].field, bases[0].n
    acc = SpanBasis.empty(field, n)
    for b in bases:
        if b.field != field or b.n != n:
            raise ValueError("orthogonality check needs a common field and dimension")
        for row in b.rows:
            acc, inserted = acc.insert(row)
            if not inserted:
                return False
    return True
