"""Exact arithmetic over GF(p) and GF(p^e), plus echelon linear algebra.

Every field element is an int: in GF(p^e) the residue sum(c_i * x^i) of the
modulus is the int sum(c_i * p^i), so the prime subfield is [0, p), zero is
0 and one is 1 in every field, and GF(2^m) elements are bit vectors. Only
``Field.element`` and ``Field.digits`` pack and unpack the digits c_i.
Prime fields compute mod p. Extension fields multiply through antilog/log
tables of their least primitive element and add by xor (p = 2) or through a
Zech logarithm table (odd p; Huber, IEEE Trans. IT 36(4), 1990), built once
per field in O(q) time and at most 16 bytes per element.
IRREDUCIBLE_SEARCH_BUDGET caps q = p^e at 10^6 and so bounds the tables too.
Linear algebra has one echelon format, ``SpanBasis``: rows in insertion
order, appended and never rewritten, reduced by the one kernel ``eliminate``.
``SpanBasis.from_vectors`` tests each vector for membership by one
``Field.dot`` per free (non-pivot) coordinate against that column of the
reduced row-echelon form, so only vectors that insert are eliminated.
Elements are canonical and hashable, and everything here is immutable after
construction, which makes all of it safe to share between concurrent tasks.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from functools import lru_cache, reduce

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


def _poly_powmod(base, k, mod, p):
    """base^k mod (mod) by square-and-multiply."""
    base = _poly_divmod(base, mod, p)[1]
    result = [1]
    while k:
        if k & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        k >>= 1
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
    if _poly_powmod([0, 1], p**e, mod, p) != [0, 1]:
        return False
    for r in _prime_factors(e):
        h = _poly_powmod([0, 1], p ** (e // r), mod, p)
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
    Every element is an int in [0, p^e); see the module docstring.
    """

    __slots__ = ("p", "e", "order", "modulus", "zero", "one", "_exp", "_log", "_zech")

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
        self.zero = 0
        self.one = 1
        if e == 1:
            self.modulus = None
            self._exp = self._log = self._zech = None
        else:
            self.modulus = self._find_modulus(p, e)
            self._exp, self._log, self._zech = self._log_tables()

    @staticmethod
    def _find_modulus(p, e):
        for tail in itertools.product(range(p), repeat=e):
            cand = list(tail) + [1]
            if _is_irreducible(cand, p):
                return tuple(cand)
        raise ValueError(f"no irreducible polynomial of degree {e} over GF({p})")  # unreachable

    def _log_tables(self):
        """(exp, log, zech) with g the least primitive element: exp[i] = g^i for
        i < 2(q - 1), so a sum of two logs indexes it directly; log[g^i] = i;
        for odd p, zech[n] = log(1 + g^n), or -1 where 1 + g^n = 0 (None for
        p = 2, where addition is xor)."""
        p, e, q, mod = self.p, self.e, self.order, list(self.modulus)
        factors = _prime_factors(q - 1)
        # g is primitive iff g^((q-1)/r) != 1 for every prime r dividing q - 1
        g = next(c for c in range(p, q)
                 if all(_poly_powmod(self.digits(c), (q - 1) // r, mod, p) != [1]
                        for r in factors))
        exp = array("i", [0]) * (2 * (q - 1))
        if p == 2:
            cur, mod_bits = 1, sum(c << i for i, c in enumerate(mod))
            for i in range(q - 1):
                exp[i] = cur
                cur = gf2_mulmod(cur, g, mod_bits, e)
        else:
            # multiplication by g is GF(p)-linear: digit j of g*a is a . cols[j]
            g_times_x = [_poly_mulmod(self.digits(g), [0] * i + [1], mod, p) for i in range(e)]
            cols = [[v[j] if j < len(v) else 0 for v in g_times_x] for j in range(e)]
            powers = [p**j for j in range(e)]
            cur = [1] + [0] * (e - 1)
            for i in range(q - 1):
                exp[i] = sum(map(operator.mul, cur, powers))
                cur = [sum(map(operator.mul, cur, col)) % p for col in cols]
        exp[q - 1:] = exp[:q - 1]
        log = array("i", [0]) * q
        for i in range(q - 1):
            log[exp[i]] = i
        if p == 2:
            return exp, log, None
        zech = array("i", [0]) * (q - 1)
        for n in range(q - 1):
            a = exp[n]
            one_plus = a - a % p + (a + 1) % p  # add 1 to the constant digit
            zech[n] = log[one_plus] if one_plus else -1
        return exp, log, zech

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
        """Canonicalize x into this field. A prime field takes any int mod p.
        An extension field takes an int in [0, p^e) as itself, or a sequence
        of e ints (constant coefficient first, each mod p) and packs it."""
        if self.e == 1:
            if isinstance(x, int):
                return x % self.p
            raise TypeError(f"prime-field element must be an int, got {type(x).__name__}")
        if isinstance(x, int):
            if 0 <= x < self.order:
                return x
            raise ValueError(f"extension element int must lie in [0, {self.order}), got {x}")
        c = [int(v) % self.p for v in x]
        if len(c) != self.e:
            raise ValueError(f"extension element needs {self.e} coefficients, got {len(c)}")
        return sum(ci * self.p**i for i, ci in enumerate(c))

    def digits(self, a) -> tuple:
        """The e coefficients of element a, constant first; element() packs them."""
        out = []
        for _ in range(self.e):
            a, c = divmod(a, self.p)
            out.append(c)
        return tuple(out)

    # -- arithmetic: ints mod p in a prime field, log tables otherwise --

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a or not b:
            return a or b
        log = self._log
        i = log[a]  # g^i + g^j = g^(i + zech[j - i])
        z = self._zech[(log[b] - i) % (self.order - 1)]
        return self._exp[i + z] if z >= 0 else 0

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        return a ^ b if self.p == 2 else self.add(a, self.neg(b))

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2 or not a:
            return a
        return self._exp[self._log[a] + (self.order - 1) // 2]  # -1 = g^((q-1)/2)

    def mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        if a and b:
            log = self._log
            return self._exp[log[a] + log[b]]
        return 0

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[-self._log[a]]  # exp has length 2(q - 1) and period q - 1

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, k: int):
        if k < 0:
            return self.pow(self.inv(a), -k)
        if self.e == 1:
            return pow(a, k, self.p)
        if not a:
            return 0 if k else 1
        return self._exp[self._log[a] * k % (self.order - 1)]

    def rand_element(self, rng):
        return rng.randrange(self.order)

    # -- batch arithmetic, one call per vector: the random oracle's inner loops --

    def add_vectors(self, u, v) -> list:
        """The element-wise sums u[i] + v[i] of two equally long sequences."""
        if self.e == 1:
            p = self.p
            return [(a + b) % p for a, b in zip(u, v)]
        return list(map(operator.xor if self.p == 2 else self.add, u, v))

    def product(self, xs: list):
        """The product of the elements of the list xs (1 when it is empty)."""
        if self.e == 1:
            p, acc = self.p, 1
            for x in xs:
                acc = acc * x % p
            return acc
        if 0 in xs:
            return 0
        return self._exp[sum(map(self._log.__getitem__, xs)) % (self.order - 1)]

    def dot(self, u, v):
        """The sum of the products u[i] * v[i] of two equally long sequences."""
        if self.e == 1:
            return sum(map(operator.mul, u, v)) % self.p
        return reduce(operator.xor if self.p == 2 else self.add, map(self.mul, u, v), 0)


@lru_cache(maxsize=None)
def field_make(p: int, e: int = 1) -> Field:
    """Construct (and cache) GF(p^e) with the canonical modulus and tables."""
    return Field(p, e)


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
    out = list(v)
    mults = []
    for row, piv in zip(rows, pivots):
        c = out[piv]
        mults.append(c)
        if c:
            for j in range(piv, len(out)):
                rj = row[j]
                if rj:
                    out[j] = field.sub(out[j], field.mul(c, rj))
    return mults, out


def pivot_row(field: Field, rest):
    """The echelon row a nonzero remainder of eliminate gives: (row, pivot),
    the remainder scaled to 1 at its first nonzero entry and that entry's
    index; None when the remainder is zero."""
    piv = next((j for j, c in enumerate(rest) if c), None)
    if piv is None:
        return None
    inv = field.inv(rest[piv])
    return tuple(field.mul(inv, c) for c in rest), piv


class SpanBasis:
    """Echelon basis of a subspace of F^n, rows in insertion order.

    Each row is zero before its pivot and at the pivots of earlier rows, and
    is 1 at its own pivot, which is what ``eliminate`` requires; ``insert``
    appends one row and never rewrites an earlier one. ``reduce`` and
    ``contains`` depend on the span alone: the pivots are the leading
    positions of the span's nonzero vectors (a combination leads where its
    row of least pivot does), and the remainder of v that is zero at every
    pivot is unique (two differ by a span vector leading at no pivot, so by
    0). ``coordinates`` are over the rows in insertion order. Two bases are
    equal iff they span the same subspace. Instances are immutable.
    """

    __slots__ = ("field", "n", "rows", "pivots")

    def __init__(self, field: Field, n: int, rows=(), pivots=()):
        self.field = field
        self.n = n
        self.rows = tuple(rows)
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, field: Field, n: int, vectors) -> "SpanBasis":
        """The insertions of vectors in order, eliminating only the vectors
        that insert. v lies in the span iff at every free (non-pivot)
        coordinate j, v[j] is the dot product of v's pivot entries with
        column j of the span's reduced row-echelon form; those columns are
        kept from the first vector on and updated by each inserted row, so
        rows and pivots are those of inserting every vector. Once the rank is
        n, later vectors are only checked for length."""
        basis = cls(field, n)
        cols = None  # free coordinate -> its RREF column, one entry per pivot
        sub, mul, dot = field.sub, field.mul, field.dot
        for v in vectors:
            basis._check(v)
            if basis.rank == n:
                continue
            if cols is None:
                cols = {j: [] for j in range(n)}
            at_pivots = [v[p] for p in basis.pivots]
            if all(v[j] == dot(col, at_pivots) for j, col in cols.items()):
                continue
            basis, _ = basis.insert(v)
            row, piv = basis.rows[-1], basis.pivots[-1]
            # the new RREF row is the inserted row; it is cleared from the others at piv
            col_piv = cols.pop(piv)
            for j, col in cols.items():
                if row[j]:
                    col[:] = [sub(c, mul(row[j], cp)) for c, cp in zip(col, col_piv)]
                col.append(row[j])
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
        return not any(eliminate(self.field, self.rows, self.pivots, v)[1])

    def coordinates(self, v):
        """Coefficients of v over the basis rows, or None if v is outside the span."""
        self._check(v)
        coords, rest = eliminate(self.field, self.rows, self.pivots, v)
        if any(rest):
            return None
        return tuple(coords)

    def insert(self, v):
        """Return (basis', inserted): v's remainder, scaled to 1 at its first
        nonzero entry, appended as the last row. Rank grows by 1 iff inserted."""
        new = pivot_row(self.field, self.reduce(v))
        if new is None:
            return self, False
        row, piv = new
        return SpanBasis(self.field, self.n, self.rows + (row,), self.pivots + (piv,)), True

    def __eq__(self, other):
        return (
            isinstance(other, SpanBasis)
            and self.field == other.field
            and self.n == other.n
            and self.rank == other.rank
            and all(other.contains(row) for row in self.rows)
        )

    def __hash__(self):
        return hash((self.field, self.n, frozenset(self.pivots)))

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
    acc = SpanBasis(field, n)
    for b in bases:
        if b.field != field or b.n != n:
            raise ValueError("orthogonality check needs a common field and dimension")
        for row in b.rows:
            acc, inserted = acc.insert(row)
            if not inserted:
                return False
    return True
