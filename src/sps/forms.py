"""Linear forms, ordered form lists, multiplication terms, and similarity.

A linear form is a homogeneous degree-1 polynomial, stored as its coefficient
vector. Lists of forms are ordinary tuples: the order is semantically
unimportant but disambiguates repeated forms, which is what makes bijections
between lists well defined. Everything here is immutable.

``LinearForm(field, coeffs)`` canonicalizes every coefficient through
``Field.element``; it is the constructor for values from outside (the
loader, the generators, ``--ideal``). Results of field arithmetic are
already canonical, so ``scale``, ``add``, ``sub`` and ideal reduction wrap
their tuples with the private ``LinearForm._wrap`` instead.
"""

from __future__ import annotations

from collections import Counter

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

    def add(self, other: "LinearForm") -> "LinearForm":
        f = self.field
        return LinearForm._wrap(f, tuple(f.add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def sub(self, other: "LinearForm") -> "LinearForm":
        f = self.field
        return LinearForm._wrap(f, tuple(f.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)))

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
    its own when its leading coefficient is already 1."""
    lead = next((c for c in f.coeffs if c), 0)
    return f.coeffs if lead == 1 else normalize(f)[0].coeffs


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
    slots: dict = {}
    for j in reversed(range(len(keys_v))):
        slots.setdefault(keys_v[j], []).append(j)
    sigma = tuple(slots[k].pop() if slots.get(k) else None for k in keys_u)
    if len(keys_u) != len(keys_v) or None in sigma:
        return None
    return sigma


def pair_common(key_lists) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """The gcd pairing of key lists: common_positions, and per list the
    bijection sigma pairing the first list's common keys with its own, equal
    keys in list order (sigma[i] indexes that list's common positions)."""
    positions = common_positions(key_lists)
    u_keys = [key_lists[0][p] for p in positions[0]]
    sigmas = [pair_by_key(u_keys, [keys[p] for p in pos])
              for keys, pos in zip(key_lists, positions)]
    return positions, sigmas


def common_positions(key_lists) -> list[list[int]]:
    """Per key list, the ascending positions of the keys common to all lists:
    each key keeps its first m occurrences, m its least count over the lists."""
    common = Counter(key_lists[0])
    for keys in key_lists[1:]:
        common &= Counter(keys)
    out = []
    for keys in key_lists:
        left = Counter(common)
        picked = []
        for pos, k in enumerate(keys):
            if left[k] > 0:
                left[k] -= 1
                picked.append(pos)
        out.append(picked)
    return out


def lists_similar(u, v):
    """Positionwise bijection sigma with u[i] similar to v[sigma[i]], or None.

    Exists iff every similarity class has equal multiplicity on both sides;
    pairing is in list order within each class. Empty lists are similar
    vacuously (the empty bijection).
    """
    return pair_by_key([similarity_key(f) for f in u], [similarity_key(g) for g in v])

