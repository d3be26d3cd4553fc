"""Form-ideals, reduction modulo an ideal, linear factors, and gcd/simple-part
decomposition.

A form-ideal is generated by linearly independent nonzero linear forms; the
quotient by it is again a polynomial ring, so reduction is plain Gaussian
elimination on coefficient vectors and products of forms factor uniquely
modulo the ideal. The ideal is its generators plus the ``SpanBasis`` that
``SpanBasis.appended`` builds from them in order, so its first j rows
span the first j generators and one elimination pass writes a form in
coordinates over every generator prefix at once: ``FormIdeal.reduction``,
the one record of a form modulo the ideal that every later decision about
the form reads; ``FormIdeal.reductions`` gives the records of a whole form
list from one elimination call, and ``FormIdeal.carry`` brings them up to
date by one row when ``FormIdeal.extended`` appends a generator.
``sum_is_zero_mod`` decides a sum of terms modulo the ideal from their
forms' records. A linear factor q of a circuit is a form with C = 0 mod
(q). The zero ideal is the same type with no generators, and every
operation treats it uniformly as "span is {0}".
"""

from __future__ import annotations

import itertools

from .algebra import Field, SpanBasis, eliminate
from .circuit import Circuit, ZeroOracle
from .errors import BudgetExceededError
from .forms import (LinearForm, Reduction, Term, pair_common, pair_is_zero_mod,
                    reduction_records)
from .matching import split_term

FACTOR_BUDGET = 1_000_000


class FormIdeal:
    """Ordered form-ideal: its generators and their span, built by
    ``SpanBasis.appended`` and so keeping no running remainder.

    Row j is generator j with the earlier rows' pivots cleared and its own
    pivot (first nonzero column) scaled to 1, so the first j rows span
    prefix(j), the span of the first j generators, which is what level-j
    matching certificates quantify over. Elimination by those rows leaves
    the representative that is zero at their pivots, a set fixed by the
    span alone, so it equals reduction by any echelon basis of prefix(j).
    ``reductions`` computes records afresh on every call and keeps none.
    ``extended`` appends one generator on the rows already built, and
    ``carry`` brings records mod the ideal without its last generator up to
    date by that generator's row alone.
    Generators must be nonzero and linearly independent; an empty generator
    list is the distinguished zero ideal.
    """

    __slots__ = ("field", "n", "generators", "span")

    def __init__(self, field: Field, n: int, generators):
        self.field, self.n, self.generators, self.span = field, n, (), SpanBasis(field, n)
        self._add(tuple(generators))

    def extended(self, g: LinearForm) -> "FormIdeal":
        """The ideal with g appended to the generators, as the constructor
        builds it from them all but on this ideal's rows: g alone is
        checked and eliminated."""
        ideal = object.__new__(FormIdeal)
        for name in self.__slots__:
            setattr(ideal, name, getattr(self, name))
        ideal._add((g,))
        return ideal

    def _add(self, generators: tuple):
        for g in generators:
            if not isinstance(g, LinearForm) or g.field != self.field or g.n != self.n:
                raise ValueError("generators must be forms over the ideal's space")
            if g.is_zero:
                raise ValueError("ideal generators must be nonzero")
        self.generators += generators
        self.span = self.span.appended(g.coeffs for g in generators)
        if self.span.rank < self.r:
            raise ValueError("ideal generators must be linearly independent")

    @property
    def r(self) -> int:
        return len(self.generators)

    def reductions(self, forms):
        """The records of the forms, yielded in order as each is reduced, all
        by one elimination pass over the span's sparse rows. A form f's record
        is (a, rest, key, lead): f = sum(a[i] * row i) + rest with rest zero
        at every pivot, and rest = lead * key with key's first nonzero entry
        1 (f's similarity class modulo the ideal), or key = lead = None when
        rest is zero (forms.reduction_records). f lies in prefix(j) iff rest
        and a[j:] are zero."""
        field = self.field
        return reduction_records(field, eliminate(field, self.span.sparse_rows,
                                                  (f.coeffs for f in forms)))

    def carry(self, records) -> list:
        """The records mod this ideal of the forms whose records mod the ideal
        of its first r - 1 generators are given, in order, as ``reductions``
        would yield them: each is extended by the last row alone, which is
        zero at the earlier pivots. A record whose rest is 0 at that row's
        pivot is returned itself, rest, key and lead unchanged. Every
        record's a list is extended in place, so no given record still reads
        as a record mod the smaller ideal."""
        sub, mul = self.field.sub, self.field.mul
        piv, entries = self.span.sparse_rows[-1]
        out, moved = list(records), {}  # position -> (a, rest) of a record the row moves
        for i, rec in enumerate(out):
            c = rec.rest[piv]
            rec.a.append(c)
            if c:
                rest = list(rec.rest)
                rest[piv] = 0
                for j, x in entries:
                    rest[j] = sub(rest[j], mul(c, x))
                moved[i] = rec.a, rest
        for i, rec in zip(moved, reduction_records(self.field, moved.values())):
            out[i] = rec
        return out

    def reduction(self, f: LinearForm) -> Reduction:
        """f's record, as ``reductions`` gives it."""
        return next(self.reductions((f,)))

    def reduce_prefix(self, j: int, f: LinearForm) -> LinearForm:
        [(_, rest)] = eliminate(self.field, self.span.sparse_rows[:j], (f.coeffs,))
        return LinearForm._wrap(self.field, tuple(rest))

    def __eq__(self, other):
        return (
            isinstance(other, FormIdeal)
            and self.field == other.field
            and self.n == other.n
            and tuple(g.coeffs for g in self.generators)
            == tuple(g.coeffs for g in other.generators)
        )

    def __hash__(self):
        return hash((self.field, self.n, tuple(g.coeffs for g in self.generators)))

    def __repr__(self):
        return f"FormIdeal({[str(g) for g in self.generators]})"


def reduced_class_key(f: LinearForm, ideal: FormIdeal):
    """Similarity-class key of f modulo the ideal; None for forms in the span."""
    return ideal.reduction(f).key


def reductions(forms, ideal: FormIdeal):
    """The ideal's records of the forms, or None as soon as one form lies in
    the span (a term with that form vanishes mod the ideal): the forms after
    it are not reduced."""
    out = []
    for rec in ideal.reductions(forms):
        if rec.key is None:
            return None
        out.append(rec)
    return out


def sum_is_zero_mod(field: Field, n: int, terms) -> bool:
    """Whether sum(c * M) is zero modulo an ideal I, for the terms given as a
    list of (c, the records mod I of M's forms) pairs. A term with a form in
    sp(I) (key None) vanishes. Up to two live terms are decided exactly from
    the records (forms.pair_is_zero_mod, by unique factorization); three or
    more go to ZeroOracle() on the live terms with each form rewritten by its
    rest, a circuit that is zero iff the sum is zero mod I."""
    if len(terms) > 2:
        terms = [(c, recs) for c, recs in terms if all(x.key is not None for x in recs)]
        if len(terms) > 2:
            return ZeroOracle().is_zero(Circuit(field, n, [
                Term(field, c, [LinearForm._wrap(field, tuple(x.rest)) for x in recs])
                for c, recs in terms]))
    if len(terms) == 2:
        return pair_is_zero_mod(field, terms)
    return not terms or any(x.key is None for x in terms[0][1])


def is_zero_mod(circuit: Circuit, ideal: FormIdeal) -> bool:
    """Whether the circuit is zero modulo the ideal: sum_is_zero_mod on the
    ideal's records of its forms."""
    return sum_is_zero_mod(circuit.field, circuit.n,
                           [(t.coef, list(ideal.reductions(t.forms))) for t in circuit.terms])


def linear_factors(circuit: Circuit) -> tuple[LinearForm, ...]:
    """All normalized forms q with C = 0 modulo (q): the linear factors of the
    computed polynomial, without multiplicity.

    Enumerates every normalized candidate over the prime field ((p^n - 1) /
    (p - 1) of them) and tests the circuit modulo the ideal (q) (is_zero_mod):
    a reduction with at most two live terms exactly, by unique factorization,
    a longer one under ZeroOracle().
    The caller should check the circuit is nonzero first; on an identity the
    enumeration degenerates to every form.
    """
    field = circuit.field
    if field.e != 1:
        raise ValueError("linear factor enumeration supports prime fields only")
    p, n = field.p, circuit.n
    n_candidates = (p**n - 1) // (p - 1)
    if n_candidates > FACTOR_BUDGET:
        raise BudgetExceededError(
            f"{n_candidates} candidate forms exceed budget {FACTOR_BUDGET}"
        )
    found = []
    for piv in range(n):
        for tail in itertools.product(range(p), repeat=n - piv - 1):
            q = LinearForm(field, (0,) * piv + (1,) + tail)
            if is_zero_mod(circuit, FormIdeal(field, n, [q])):
                found.append(q)
    return tuple(found)


class GcdData:
    """Certified common-factor decomposition of a subcircuit modulo an ideal.

    For each term q, a certified matching pi_q from the common factor list u
    (a sublist of the first term, every matching's domain) to the sublist of
    term q at u_positions[q] (its codomain), and the residual simple part.
    The defining identity M(codomain) = sc(pi_q) * M(u) modulo the ideal is
    certified once per matching: edge by edge by its constructor, or, for
    the first term, whose sublist is u itself, by OrderedMatching.identity.
    """

    __slots__ = ("ideal", "u_positions", "matchings", "sim")

    def __init__(self, ideal, u_positions, matchings, sim):
        self.ideal = ideal
        self.u_positions = u_positions
        self.matchings = matchings
        self.sim = sim


def gcd_data(circuit: Circuit, ideal: FormIdeal) -> GcdData:
    """Common-factor data of a regular subcircuit modulo a form-ideal.

    The gcd list u is the maximal sublist of the first term whose product
    divides every term mod the ideal: per similarity class mod the ideal, u
    carries the minimum multiplicity over the terms. Candidate forms are
    taken in list order of the first term and matched to targets in list
    order of each term (forms.pair_common), which pins the decomposition to
    one deterministic representative. Raises on non-regular input.
    """
    recs = [reductions(t.forms, ideal) for t in circuit.terms]
    if None in recs:  # a form in the span
        raise ValueError("gcd data requires a circuit that is regular mod the ideal")

    positions, sigmas = pair_common([[x.key for x in rq] for rq in recs])
    u = tuple(circuit.terms[0].forms[p] for p in positions[0])
    u_recs = [recs[0][p] for p in positions[0]]

    u_positions = {q: tuple(pos) for q, pos in enumerate(positions)}
    matchings, sim_terms = {}, []
    for q, t in enumerate(circuit.terms):
        matchings[q], residual = split_term(ideal, u, t, positions[q], sigmas[q],
                                            (u_recs, [recs[q][p] for p in positions[q]]))
        sim_terms.append(residual)

    sim = Circuit(circuit.field, circuit.n, sim_terms)
    return GcdData(ideal, u_positions, matchings, sim)


def simple_part(circuit: Circuit, ideal: FormIdeal) -> Circuit:
    """Residual circuit after dividing out the gcd modulo the ideal.

    Satisfies C_Q = gcd * sim (mod I); when C_Q is an identity mod I the
    simple part is a simple identity mod I.
    """
    return gcd_data(circuit, ideal).sim
