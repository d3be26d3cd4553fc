"""Linear forms, ordered form lists, multiplication terms, and similarity.

A linear form is a homogeneous degree-1 polynomial, stored as its coefficient
vector. Lists of forms are ordinary tuples: the order is semantically
unimportant but disambiguates repeated forms, which is what makes bijections
between lists well defined. Everything here is immutable.
"""

from __future__ import annotations

from .algebra import Field


class LinearForm:
    """A homogeneous linear polynomial sum(a_i * x_i) over a fixed field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        self.field = field
        self.coeffs = tuple(field.element(c) for c in coeffs)

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        z = self.field.zero
        return all(c == z for c in self.coeffs)

    def scale(self, c) -> "LinearForm":
        f = self.field
        c = f.element(c)
        return LinearForm(f, tuple(f.mul(c, a) for a in self.coeffs))

    def add(self, other: "LinearForm") -> "LinearForm":
        f = self.field
        return LinearForm(f, tuple(f.add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def sub(self, other: "LinearForm") -> "LinearForm":
        f = self.field
        return LinearForm(f, tuple(f.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __eq__(self, other):
        return (
            isinstance(other, LinearForm)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"LinearForm({list(self.coeffs)!r})"

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == self.field.zero:
                continue
            if c == self.field.one:
                parts.append(f"x{i + 1}")
            else:
                parts.append(f"{c}*x{i + 1}")
        return " + ".join(parts) if parts else "0"


class Term:
    """A nonzero constant times an ordered multiset of nonzero linear forms."""

    __slots__ = ("field", "coef", "forms")

    def __init__(self, field: Field, coef, forms):
        self.field = field
        self.coef = field.element(coef)
        if self.coef == field.zero:
            raise ValueError("term constant must be nonzero")
        forms = tuple(forms)
        for f in forms:
            if f.field != field:
                raise ValueError("term forms must live in the term's field")
            if f.is_zero:
                raise ValueError("term forms must be nonzero")
        if forms and any(f.n != forms[0].n for f in forms):
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
        return f"{self.coef}*{body}"


def normalize(f: LinearForm) -> tuple[LinearForm, object]:
    """Split a nonzero form as scalar * canonical, leading coefficient 1.

    Two forms are similar exactly when their canonical parts are equal, so
    the canonical coefficient vector doubles as a similarity-class key.
    """
    if f.is_zero:
        raise ValueError("cannot normalize the zero form")
    field = f.field
    lead = next(c for c in f.coeffs if c != field.zero)
    inv = field.inv(lead)
    return f.scale(inv), lead


def similarity_key(f: LinearForm) -> tuple:
    """Canonical coefficient vector of the similarity class of a nonzero form."""
    return normalize(f)[0].coeffs


def similar(f: LinearForm, g: LinearForm):
    """Scalar c with f = c*g, or None. Zero forms are similar only to zero."""
    if f.is_zero or g.is_zero:
        return f.field.one if (f.is_zero and g.is_zero) else None
    cf, sf = normalize(f)
    cg, sg = normalize(g)
    if cf.coeffs != cg.coeffs:
        return None
    return f.field.div(sf, sg)


def similar_sublist(ell: LinearForm, forms) -> tuple:
    """Order-preserving sublist of forms similar to ell; its length is the
    multiplicity of ell's similarity class."""
    if ell.is_zero:
        raise ValueError("similarity class of the zero form is not defined")
    key = similarity_key(ell)
    return tuple(f for f in forms if not f.is_zero and similarity_key(f) == key)


def lists_similar(u, v):
    """Positionwise bijection sigma with u[i] similar to v[sigma[i]], or None.

    Exists iff every similarity class has equal multiplicity on both sides;
    pairing is in list order within each class. Empty lists are similar
    vacuously (the empty bijection).
    """
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        return None
    slots: dict[tuple, list[int]] = {}
    for j, g in enumerate(v):
        slots.setdefault(similarity_key(g), []).append(j)
    taken = {k: 0 for k in slots}
    sigma = []
    for f in u:
        key = similarity_key(f)
        pos = slots.get(key)
        if pos is None or taken[key] >= len(pos):
            return None
        sigma.append(pos[taken[key]])
        taken[key] += 1
    return tuple(sigma)


def lists_coprime(u, v) -> bool:
    """True iff no form of u has a similar form in v."""
    vkeys = {similarity_key(g) for g in v}
    return all(similarity_key(f) not in vkeys for f in u)
