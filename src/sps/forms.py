"""Linear forms, ordered form lists, multiplication terms, similarity, and
two terms compared modulo a form-ideal.

A linear form is a homogeneous degree-1 polynomial, stored as its coefficient
vector. Lists of forms are ordinary tuples: the order is semantically
unimportant but disambiguates repeated forms, which is what makes bijections
between lists well defined. Everything here is immutable.

``LinearForm(field, coeffs)`` canonicalizes every coefficient through
``Field.element``; it is the constructor for values from outside (the
loader, the generators, ``--ideal``). Results of field arithmetic are
already canonical, so ``scale`` and ideal reduction wrap their tuples with
the private ``LinearForm._wrap`` instead.

Modulo a form-ideal I, F[x]/I is again a polynomial ring, so two terms
cancel iff their forms' classes modulo I agree as multisets and their
constants times leading coefficients cancel (``pair_is_zero_mod``). The
records it reads (``reduction_records``) come from any reduction that
leaves remainders zero at the pivots: ``FormIdeal.reductions`` in the
quotient module, or one form's in ``pair_cancels_mod``, the check of the
exact oracle's divisibility rung.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .algebra import Field


def _shown(field: Field, c):
    """An element as messages print it: an extension element as its digit tuple."""
    return c if field.e == 1 else field.digits(c)


class LinearForm:
    """A homogeneous linear polynomial sum(a_i * x_i) over a fixed field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        self.field = field
        self.coeffs = tuple(field.element(c) for c in coeffs)

    @classmethod
    def _wrap(cls, field: Field, coeffs: tuple) -> "LinearForm":
        """Form over a tuple of canonical elements that field operations
        produced; skips the per-coefficient ``Field.element`` call."""
        form = object.__new__(cls)
        form.field = field
        form.coeffs = coeffs
        return form

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def scale(self, c) -> "LinearForm":
        f = self.field
        c = f.element(c)
        if c == 1:
            return self
        return LinearForm._wrap(f, tuple(f.mul(c, a) for a in self.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, LinearForm)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"LinearForm({[_shown(self.field, c) for c in self.coeffs]!r})"

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if c == 1:
                parts.append(f"x{i + 1}")
            else:
                parts.append(f"{_shown(self.field, c)}*x{i + 1}")
        return " + ".join(parts) if parts else "0"


class Term:
    """A nonzero constant times an ordered multiset of nonzero linear forms."""

    __slots__ = ("field", "coef", "forms")

    def __init__(self, field: Field, coef, forms):
        self.field = field
        self.coef = field.element(coef)
        if not self.coef:
            raise ValueError("term constant must be nonzero")
        forms = tuple(forms)
        for f in forms:
            if f.field is not field and f.field != field:
                raise ValueError("term forms must live in the term's field")
            if not any(f.coeffs):
                raise ValueError("term forms must be nonzero")
        if forms and any(len(f.coeffs) != len(forms[0].coeffs) for f in forms):
            raise ValueError("term forms must share one dimension")
        self.forms = forms

    @property
    def degree(self) -> int:
        return len(self.forms)

    def __eq__(self, other):
        return (
            isinstance(other, Term)
            and self.field == other.field
            and self.coef == other.coef
            and self.forms == other.forms
        )

    def __hash__(self):
        return hash((self.field, self.coef, self.forms))

    def __repr__(self):
        body = "*".join(f"({f})" for f in self.forms) or "1"
        return f"{_shown(self.field, self.coef)}*{body}"


def normalize(f: LinearForm) -> tuple[LinearForm, object]:
    """Split a nonzero form as scalar * canonical, leading coefficient 1.

    Two forms are similar exactly when their canonical parts are equal, so
    the canonical coefficient vector doubles as a similarity-class key.
    """
    if f.is_zero:
        raise ValueError("cannot normalize the zero form")
    lead = next(c for c in f.coeffs if c)
    return f.scale(f.field.inv(lead)), lead


def similarity_key(f: LinearForm) -> tuple:
    """Canonical coefficient vector of the similarity class of a nonzero form:
    its own when its leading coefficient is already 1, else scaled by _monic."""
    lead = next(filter(None, f.coeffs), 0)
    if lead == 1:
        return f.coeffs
    if not lead:
        raise ValueError("cannot normalize the zero form")
    return _monic(f.field, f.coeffs, lead)


def _monic(field: Field, v, lead) -> tuple:
    """v divided by lead, its first nonzero entry: v's similarity-class key."""
    c, mul = field.inv(lead), field.mul
    return tuple(mul(c, x) if x else 0 for x in v)


def similar(f: LinearForm, g: LinearForm):
    """Scalar c with f = c*g, or None. Zero forms are similar only to zero."""
    if f.is_zero or g.is_zero:
        return 1 if (f.is_zero and g.is_zero) else None
    cf, sf = normalize(f)
    cg, sg = normalize(g)
    if cf.coeffs != cg.coeffs:
        return None
    return f.field.div(sf, sg)


def pair_by_key(keys_u, keys_v):
    """Bijection sigma with keys_v[sigma[i]] == keys_u[i], pairing equal keys
    in list order on both sides; None unless both lists hold the same keys."""
    if len(keys_u) != len(keys_v):
        return None
    slots: dict = {}
    for j in reversed(range(len(keys_v))):
        slots.setdefault(keys_v[j], []).append(j)
    sigma = []
    for k in keys_u:  # one lookup, so one hash, per key
        js = slots.get(k)
        if not js:
            return None
        sigma.append(js.pop())
    return tuple(sigma)


def pair_common(key_lists) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """The gcd pairing of key lists: per list, the ascending positions of
    the keys common to all lists, each key keeping its first m occurrences
    for m its least count over the lists; and per list the bijection sigma
    pairing the first list's common keys with its own, equal keys in list
    order (sigma[i] indexes that list's common positions).

    Each key is read once, as it is numbered by first appearance. One pass
    per list ranks each position among its equal keys and counts keys in a
    list; a position is common when its rank is below its key's least count.
    A stable sort by key lines up equal (key, rank) slots across the lists."""
    ids: dict = {}
    key_lists = [[ids.setdefault(k, len(ids)) for k in keys] for keys in key_lists]
    ranks, counts = [], []
    for keys in key_lists:
        seen, rank = [0] * len(ids), []
        for k in keys:
            rank.append(seen[k])
            seen[k] += 1
        ranks.append(rank)
        counts.append(seen)
    least = [min(col) for col in zip(*counts)]
    positions, orders = [], []
    for keys, rank in zip(key_lists, ranks):
        pos = [p for p, (k, r) in enumerate(zip(keys, rank)) if r < least[k]]
        common = [keys[p] for p in pos]
        positions.append(pos)
        orders.append(sorted(range(len(pos)), key=common.__getitem__))
    back = sorted(range(len(orders[0])), key=orders[0].__getitem__)  # list 0's order, inverted
    return positions, [tuple(map(order.__getitem__, back)) for order in orders]


def lists_similar(u, v):
    """Positionwise bijection sigma with u[i] similar to v[sigma[i]], or None.

    Exists iff every similarity class has equal multiplicity on both sides;
    pairing is in list order within each class. Empty lists are similar
    vacuously (the empty bijection).
    """
    return pair_by_key([similarity_key(f) for f in u], [similarity_key(g) for g in v])


# -- two terms modulo a form-ideal, by unique factorization --

Reduction = namedtuple("Reduction", "a rest key lead")  # see reduction_records


def reduction_records(field: Field, pairs):
    """The record of each form f given as a pair (a, rest) with f = sum(a[i]
    * row i) + rest modulo a span, rest zero at the pivots of its echelon
    rows, yielded in order: rest = lead * key with key's first nonzero entry
    1 (f's similarity class modulo the span), or key = lead = None when rest
    is zero."""
    new = tuple.__new__  # skips the namedtuple's Python-level __new__
    for a, rest in pairs:
        lead = next(filter(None, rest), None)
        if lead is None:
            yield new(Reduction, (a, rest, None, None))
        elif lead == 1:  # rest is its own key: hold one tuple for both
            rest = tuple(rest)
            yield new(Reduction, (a, rest, rest, lead))
        else:
            yield new(Reduction, (a, rest, _monic(field, rest, lead), lead))


def pair_is_zero_mod(field: Field, pair) -> bool:
    """Whether c1*M1 + c2*M2 is zero modulo an ideal I, exactly, for the pair
    ((c1, recs1), (c2, recs2)) of constants and reductions of each term's
    forms. A term with a form in sp(I) vanishes. F[x]/I is a polynomial ring,
    so by unique factorization two terms with no form in sp(I) cancel iff
    their keys agree as multisets and c1 * prod(leads1) + c2 * prod(leads2)
    = 0."""
    (c1, recs1), (c2, recs2) = pair
    gone1, gone2 = (any(x.key is None for x in recs) for recs in (recs1, recs2))
    if gone1 or gone2:
        return gone1 and gone2
    # plain dicts compare by the hashes they hold; Counter's == looks each key up again
    if dict(Counter(x.key for x in recs1)) != dict(Counter(x.key for x in recs2)):
        return False
    return not field.add(field.mul(c1, field.product([x.lead for x in recs1])),
                         field.mul(c2, field.product([x.lead for x in recs2])))


def pair_cancels_mod(field: Field, terms, form) -> bool:
    """Whether the two terms sum to zero modulo (form), or over the zero
    ideal when form is None (pair_is_zero_mod). A form v is reduced to
    v - (v[j] / form[j]) * form, j form's first nonzero coordinate: the
    remainder zero at j that SpanBasis.reduce would give."""
    remainder = tuple  # over the zero ideal, v itself
    if form is not None:
        j = next(j for j, x in enumerate(form.coeffs) if x)
        s, sub, mul = field.inv(form.coeffs[j]), field.sub, field.mul
        entries = [(i, mul(s, x)) for i, x in enumerate(form.coeffs) if x]

        def remainder(v):
            c = v[j]
            if not c:
                return v
            out = list(v)
            for i, x in entries:
                out[i] = sub(out[i], mul(c, x))
            return out

    return pair_is_zero_mod(field, [
        (t.coef, list(reduction_records(field, ((None, remainder(f.coeffs)) for f in t.forms))))
        for t in terms])
