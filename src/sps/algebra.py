"""Exact arithmetic over GF(p) and GF(p^e), plus echelon linear algebra.

Every field element is an int: in GF(p^e) the residue sum(c_i * x^i) of the
modulus is the int sum(c_i * p^i), so the prime subfield is [0, p), zero is
0 and one is 1 in every field, and GF(2^m) elements are bit vectors. Only
``pack_digits`` (which ``Field.element`` and the loader call) and
``Field.digits`` pack and unpack the digits c_i.
Prime fields compute mod p. Extension fields multiply through antilog/log
tables of their least primitive element and add by xor (p = 2) or through a
Zech logarithm table (odd p; Huber, IEEE Trans. IT 36(4), 1990), built once
per field in O(q) time and at most 16 bytes per element. The modulus search
(Rabin's test, SIAM J. Comput. 9, 1980) skips every candidate with constant
term 0, which x divides. Over GF(2) it and the primitive-element search run
on bit-packed ints, and each step of the antilog table is two lookups in
tables of g times each half of an element's bits. Only this module
reads the tables: ``Field.product`` and ``Field.mul_by_form`` are the batch
kernels of the random and the exact oracle.
IRREDUCIBLE_SEARCH_BUDGET caps q = p^e at 10^6 and so bounds the tables too.
Linear algebra has one echelon format, ``SpanBasis``: sparse rows (pivot,
nonzero entries after it) in insertion order, appended and never rewritten.
The one kernel ``eliminate`` reduces a batch of vectors by the sparse rows,
visiting only their nonzero entries.
Elements are canonical and hashable. A ``Field`` is immutable after
construction; a ``SpanBasis`` is append-only, and only its builder appends,
so what either hands out is safe to share between concurrent tasks.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from functools import lru_cache

from .errors import BudgetExceededError

IRREDUCIBLE_SEARCH_BUDGET = 1_000_000
_ZERO_LOG = 1 << 64  # Field.product's log of 0: above (q - 2) * len(xs) for any xs in memory
# Field.product's list view of the log table costs about 40 bytes per element;
# it is built only up to this q, which keeps the random oracle's GF(2^13) and
# GF(2^14) lifts fast and a GF(2^19) file's memory bounded.
_LOG_VIEW_MAX_ORDER = 1 << 14
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
    return _poly_mod(prod, mod, p)


def _poly_mod(a, b, p):
    """The remainder of a divided by b over GF(p), trimmed; b's lead is nonzero."""
    a, db = list(a), len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while len(_poly_trim(a)) > db:
        c = a.pop() * inv_lead % p
        shift = len(a) - db
        for j in range(db):
            a[shift + j] = (a[shift + j] - c * b[j]) % p
    return a


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _poly_powmod(base, k, mod, p):
    """base^k mod (mod) by square-and-multiply."""
    base = _poly_mod(base, mod, p)
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


def _gf2_powmod(a, k, mod, e):
    """a^k in GF(2)[x]/(mod) by square-and-multiply, on bit-packed
    polynomials: a has degree below e, the degree of mod."""
    result = 1
    while k:
        if k & 1:
            result = gf2_mulmod(result, a, mod, e)
        a = gf2_mulmod(a, a, mod, e)
        k >>= 1
    return result


def _gf2_is_irreducible(mod, e):
    """Rabin test for a bit-packed monic polynomial of degree e >= 2 over
    GF(2): the e squarings x^(2^j), then a gcd by xors of shifted copies."""
    powers = [2]  # x^(2^j) mod (mod), j = 0..e
    for _ in range(e):
        powers.append(gf2_mulmod(powers[-1], powers[-1], mod, e))
    if powers[e] != 2:
        return False
    for r in _prime_factors(e):
        a, b = mod, powers[e // r] ^ 2  # gcd(mod, x^(2^(e/r)) - x)
        while b:
            while a.bit_length() >= b.bit_length():  # a mod b
                a ^= b << (a.bit_length() - b.bit_length())
            a, b = b, a
        if a != 1:
            return False
    return True


def _is_irreducible(mod, p):
    """Rabin test for a monic polynomial of degree e >= 1 over GF(p), on
    bit-packed ints when p = 2."""
    e = len(mod) - 1
    if e == 1:
        return True
    if p == 2:
        return _gf2_is_irreducible(pack_digits(2, mod), e)
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

    __slots__ = ("p", "e", "order", "modulus", "_exp", "_log", "_zech", "_logs")
    zero, one = 0, 1

    def __init__(self, p: int, e: int = 1):
        if not isinstance(p, int) or p >= 2**64 or not is_prime(p):
            raise ValueError(f"characteristic must be a prime below 2^64, got {p!r}")
        if not isinstance(e, int) or e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e!r}")
        # p**e > budget already when 2**e > budget; refuse before exponentiating
        budget = IRREDUCIBLE_SEARCH_BUDGET
        if e > 1 and (e >= budget.bit_length() or p**e > budget):
            raise BudgetExceededError(
                f"irreducible search over {p}^{e} candidates exceeds budget {budget}"
            )
        self.p = p
        self.e = e
        self.order = p**e
        self._logs = None  # product's list view of _log, built (the same each time) on first use
        if e == 1:
            self.modulus = None
            self._exp = self._log = self._zech = None
        else:
            self.modulus = self._find_modulus(p, e)
            self._exp, self._log, self._zech = self._log_tables()

    @staticmethod
    def _find_modulus(p, e):
        # e > 1, so every tail with c_0 = 0 is divisible by x: the search
        # starts at c_0 = 1, in the same order
        for tail in itertools.product(range(1, p), *[range(p)] * (e - 1)):
            cand = [*tail, 1]
            if _is_irreducible(cand, p):
                return tuple(cand)
        raise ValueError(f"no irreducible polynomial of degree {e} over GF({p})")  # unreachable

    def _log_tables(self):
        """(exp, log, zech) with g the least primitive element: exp[i] = g^i for
        i < 2(q - 1), so a sum of two logs indexes it directly; log[g^i] = i;
        for odd p, zech[n] = log(1 + g^n), or -1 where 1 + g^n = 0 (None for
        p = 2, where addition is xor). Multiplication by g is GF(p)-linear, so
        exp steps by one fixed map: over GF(2) the xor of two table lookups,
        the images of g times an element's low and high halves of bits, each
        table built by xors from the e products g*x^j; over odd p, one dot
        product of the digits per digit. log is filled in the same pass."""
        p, e, q, mod = self.p, self.e, self.order, list(self.modulus)
        mod_bits = pack_digits(p, mod)  # for p = 2, the modulus as a bit vector

        def is_one(c, k):  # c^k = 1, on bit-packed ints when p = 2
            if p == 2:
                return _gf2_powmod(c, k, mod_bits, e) == 1
            return _poly_powmod(self.digits(c), k, mod, p) == [1]

        # g is primitive iff g^((q-1)/r) != 1 for every prime r dividing q - 1
        factors = _prime_factors(q - 1)
        g = next(c for c in range(p, q) if not any(is_one(c, (q - 1) // r) for r in factors))
        exp, log = array("i", [0]) * (2 * (q - 1)), array("i", [0]) * q
        if p == 2:
            # g*a is the xor of g times a's low h bits and g times its high bits
            h = (e + 1) // 2
            low, high = [0], [0]
            for images, bits in ((low, range(h)), (high, range(h, e))):
                for j in bits:
                    image = gf2_mulmod(1 << j, g, mod_bits, e)
                    images += [x ^ image for x in images]
            cur, mask = 1, (1 << h) - 1
            for i in range(q - 1):
                exp[i] = cur
                log[cur] = i
                cur = low[cur & mask] ^ high[cur >> h]
        else:
            # multiplication by g is GF(p)-linear: digit j of g*a is a . cols[j]
            g_times_x = [_poly_mulmod(self.digits(g), [0] * i + [1], mod, p) for i in range(e)]
            cols = [[v[j] if j < len(v) else 0 for v in g_times_x] for j in range(e)]
            powers = [p**j for j in range(e)]
            cur = [1] + [0] * (e - 1)
            for i in range(q - 1):
                exp[i] = a = sum(map(operator.mul, cur, powers))
                log[a] = i
                cur = [sum(map(operator.mul, cur, col)) % p for col in cols]
        exp[q - 1:] = exp[:q - 1]
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
        return pack_digits(self.p, c)

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

    def rand_element(self, rng):
        return rng.randrange(self.order)

    # -- batch arithmetic, one call per sequence: the oracles' inner loops --

    def product(self, xs):
        """The product of the elements xs yields (1 when there are none); in an
        extension field, g to the sum of their logs. Up to q =
        _LOG_VIEW_MAX_ORDER the logs come from a list view of the log table
        (no int boxed per read) where 0 has log _ZERO_LOG; above it, from the
        table itself, stopping at the first 0."""
        if self.e == 1:
            p, acc = self.p, 1
            for x in xs:
                acc = acc * x % p
            return acc
        if self.order > _LOG_VIEW_MAX_ORDER:
            log, s = self._log, 0
            for x in xs:
                if not x:
                    return 0
                s += log[x]
            return self._exp[s % (self.order - 1)]
        if self._logs is None:
            self._logs = [_ZERO_LOG, *self._log[1:]]
        s = sum(map(self._logs.__getitem__, xs))
        return self._exp[s % (self.order - 1)] if s < _ZERO_LOG else 0

    def mul_by_form(self, poly: dict, form) -> dict:
        """poly times a linear form, as a new dict without zero coefficients.

        poly maps monomials to nonzero elements, and form is a sequence of
        (step, nonzero coefficient) pairs, one per variable of the form, where
        a monomial times that variable is the int monomial + step. Any sparse
        polynomial given as (monomial, coefficient) pairs serves as form:
        _expand_terms multiplies its block polynomials so, and over GF(2) its
        pairs of partial products. GF(p) sums the int products unreduced and
        reduces each sum once. GF(p^e) takes one log per monomial of poly and
        multiplies by adding logs. GF(2^e) adds the products by xor where two
        meet; odd p keeps each sum as its log, adds through the Zech table
        (-1 marks a sum that cancelled) and maps every sum back through the
        antilog table once, at the end.
        """
        out: dict = {}
        get = out.get
        if self.e == 1:
            for key, c in poly.items():
                for step, fc in form:
                    k = key + step
                    out[k] = get(k, 0) + c * fc
            p = self.p
            return {k: r for k, v in out.items() if (r := v % p)}
        exp, log = self._exp, self._log
        form = [(step, log[fc]) for step, fc in form]
        if self.p == 2:
            for key, c in poly.items():
                lc = log[c]
                for step, lf in form:
                    k = key + step
                    out[k] = get(k, 0) ^ exp[lc + lf]
            return {k: v for k, v in out.items() if v}
        zech, m = self._zech, self.order - 1
        for key, c in poly.items():
            lc = log[c]
            for step, lf in form:
                k = key + step
                prev = get(k, -1)
                if prev < 0:
                    out[k] = lc + lf
                else:  # g^prev + g^l = g^(prev + zech[l - prev])
                    z = zech[(lc + lf - prev) % m]
                    out[k] = (prev + z) % m if z >= 0 else -1
        return {k: exp[v] for k, v in out.items() if v >= 0}


def pack_digits(p: int, digits) -> int:
    """The element sum(c_i * p^i) of GF(p^e) with digits c_i in [0, p),
    constant first; it needs only p, not a field's tables."""
    x = 0
    for c in reversed(digits):
        x = x * p + c
    return x


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

def eliminate(field: Field, rows, vectors):
    """Clear each row's pivot from each vector, in row order, yielding one
    (multipliers, remainder) pair of lists per vector as it is read.

    rows are sparse echelon rows (pivot, ((column, entry), ...)): the row is
    1 at its pivot, the pairs are its nonzero entries after the pivot, and
    it is zero before the pivot and at the pivots of the rows before it.
    Then v = sum(multipliers[i] * row i) + remainder and the remainder is
    zero at every pivot, which makes it the unique such representative of v
    modulo the rows' span. Only the rows' nonzero entries are visited: a
    pivot is cleared by setting it to 0, and each entry after it costs one
    Field.mul and one Field.sub when its multiplier is nonzero.
    """
    sub, mul = field.sub, field.mul
    for v in vectors:
        out = list(v)
        mults = []
        for piv, entries in rows:
            c = out[piv]
            mults.append(c)
            if c:
                out[piv] = 0
                for j, r in entries:
                    out[j] = sub(out[j], mul(c, r))
        yield mults, out


class SpanBasis:
    """Echelon basis of a subspace of F^n: sparse rows (pivot, nonzero
    entries after it) in insertion order, each zero before its pivot and at
    the earlier rows' pivots and 1 at its own, as ``eliminate`` requires.
    ``insert`` appends one row and never rewrites one. ``reduce`` and
    ``contains`` depend on the span alone: the pivots are the leading
    positions of the span's nonzero vectors, and the remainder of v that is
    zero at every pivot is unique (two differ by a span vector leading at no
    pivot, so by 0). ``sources`` holds the vectors that inserted, as given:
    a basis of the same span that elimination does not mix (the exact oracle
    expands over a circuit's sources), and ``coordinates`` are over it,
    derived from the sources on each call. The basis keeps nothing else but
    the running remainders of the vectors ``reduce`` and ``outside`` read. A
    basis is append-only; only its builder appends, so one handed out is
    complete.
    """

    __slots__ = ("field", "n", "sparse_rows", "sources", "_rest")

    def __init__(self, field: Field, n: int):
        self.field = field
        self.n = n
        self.sparse_rows = ()
        self.sources = ()
        self._rest = {}  # vector -> [its remainder, the number of rows it is reduced by]

    @classmethod
    def from_vectors(cls, field: Field, n: int, vectors) -> "SpanBasis":
        """The insertions of vectors in order, each vector eliminated by the
        rows so far and none of them recorded."""
        return cls(field, n).appended(vectors)

    def appended(self, vectors) -> "SpanBasis":
        """A new basis: this one's rows and sources, then the insertions of
        vectors in order as ``from_vectors`` makes them, so only the new
        vectors are eliminated. Once the rank is n, the later vectors are
        only checked for length, all in one pass."""
        basis = SpanBasis(self.field, self.n)
        basis.sparse_rows, basis.sources = self.sparse_rows, self.sources
        vectors = iter(vectors)
        for v in vectors:
            basis._check(v)
            if len(basis.sparse_rows) == self.n:
                break
            [(_, rest)] = eliminate(self.field, basis.sparse_rows, (v,))
            basis._append(v, rest)
        bad = set(map(len, vectors)) - {self.n}  # of the vectors left at full rank
        if bad:
            raise ValueError(f"vector has dimension {min(bad)}, basis ambient is {self.n}")
        return basis

    @property
    def rank(self) -> int:
        return len(self.sparse_rows)

    def _check(self, v):
        if len(v) != self.n:
            raise ValueError(f"vector has dimension {len(v)}, basis ambient is {self.n}")
        return v

    def reduce(self, v: tuple) -> tuple:
        """Canonical representative of v modulo the span (pivot coords
        eliminated). v's remainder is kept and extended only by the rows
        appended since it was last read: eliminate clears rows in order and
        each is zero at the earlier pivots, so that is the full elimination,
        operation for operation."""
        rec = self._rest.get(v)
        if rec is None:
            rec = self._rest[v] = [self._check(v), 0]
        rows = self.sparse_rows
        if rec[1] < len(rows):
            [(_, rest)] = eliminate(self.field, rows[rec[1]:], (rec[0],))
            rec[:] = tuple(rest), len(rows)
        return rec[0]

    def contains(self, v: tuple) -> bool:
        return not any(self.reduce(v))

    def outside(self, vectors) -> list[bool]:
        """Per vector, not contains(v), in one pass: each distinct vector's
        stale running remainder is extended and kept as ``reduce`` does it,
        by one eliminate call per distinct number of rows already read."""
        rows, rest = self.sparse_rows, self._rest
        n = len(rows)
        recs, stale = [], {}
        for v in vectors:
            rec = rest.get(v)
            if rec is None:
                rec = rest[v] = [self._check(v), 0]
            if rec[1] < n:
                stale.setdefault(rec[1], []).append(rec)
                rec[1] = n
            recs.append(rec)
        for done, group in stale.items():
            reduced = eliminate(self.field, rows[done:], [rec[0] for rec in group])
            for rec, (_, r) in zip(group, reduced):
                rec[0] = tuple(r)
        return [any(rec[0]) for rec in recs]

    def coordinates(self, vectors) -> list:
        """Per vector, its coefficients over ``sources``, or None if it is
        outside the span. The sources' multipliers of the rows are lower
        triangular, source i's own entry being its multiple of row i; each
        vector's multipliers are back-substituted through them from the
        last source."""
        field = self.field
        sub, mul = field.sub, field.mul
        lower = [(field.inv(m[i]), [(j, x) for j, x in enumerate(m[:i]) if x])
                 for i, (m, _) in enumerate(eliminate(field, self.sparse_rows, self.sources))]
        out = []
        for a, rest in eliminate(field, self.sparse_rows, map(self._check, vectors)):
            if any(rest):
                out.append(None)
                continue
            for i in range(len(a) - 1, -1, -1):
                if a[i]:
                    inv, earlier = lower[i]
                    b = a[i] = mul(a[i], inv)
                    for j, x in earlier:
                        a[j] = sub(a[j], mul(b, x))
            out.append(tuple(a))
        return out

    def insert(self, v: tuple) -> bool:
        """Append v's remainder, scaled to 1 at its first nonzero entry, as
        the last row; False (and no row) when v lies in the span."""
        return self._append(v, self.reduce(v))

    def _append(self, v, rest) -> bool:
        """The one insertion path: v's remainder rest becomes a row."""
        if not any(rest):
            return False
        piv = next(j for j, c in enumerate(rest) if c)
        inv, mul = self.field.inv(rest[piv]), self.field.mul
        entries = tuple((j, mul(inv, rest[j])) for j in range(piv + 1, self.n) if rest[j])
        self.sparse_rows += ((piv, entries),)
        self.sources += (v,)
        return True

    def __repr__(self):
        return f"SpanBasis(n={self.n}, rank={self.rank})"


def spans_orthogonal(bases: list[SpanBasis]) -> bool:
    """True iff each basis meets the span of its predecessors only in 0:
    equivalently, the rank of the union of their sources is the sum of
    their ranks."""
    if not bases:
        return True
    field, n = bases[0].field, bases[0].n
    if any(b.field != field or b.n != n for b in bases):
        raise ValueError("orthogonality check needs a common field and dimension")
    union = SpanBasis.from_vectors(field, n, [v for b in bases for v in b.sources])
    return union.rank == sum(b.rank for b in bases)
