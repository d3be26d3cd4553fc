"""Generators for the concrete identity families and counterexamples.

Everything here is constructed, then *verified*: where a generator's output is
claimed simple, minimal, and zero with a known rank, the claim is re-checked
with the circuit oracles (cheap insurance against variable-bookkeeping bugs),
and failures raise rather than warn.

Every generator checks its output size against ``FAMILY_FORMS_BUDGET``
before it builds anything and raises ``BudgetExceededError`` when the size
is over it, so an oversized request is refused in constant time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .algebra import Field, field_make
from .circuit import Circuit, ZeroOracle, circuit_rank, is_simple
from .errors import BudgetExceededError, VerificationError
from .forms import LinearForm, Term
from .matching import find_matching
from .quotient import FormIdeal

FAMILY_FORMS_BUDGET = 250_000


def _parity_degree(r: int) -> int:
    """2^(r-2), the number of parity forms of each kind in r variables, or
    FAMILY_FORMS_BUDGET + 1 once that is over the budget, so a huge r costs
    no big-int work."""
    return 1 << (r - 2) if r - 2 < FAMILY_FORMS_BUDGET.bit_length() else FAMILY_FORMS_BUDGET + 1


def _check_budget(what: str, size: int, unit: str = "forms") -> None:
    if size > FAMILY_FORMS_BUDGET:
        raise BudgetExceededError(
            f"{what} needs at least {size} {unit}, over budget {FAMILY_FORMS_BUDGET}"
        )


def _parity_forms(field: Field, r: int, parity: int, with_last: bool):
    """Forms b_1 x_1 + ... + b_{r-1} x_{r-1} (+ x_r) in r variables, b ranging
    over bit vectors of the given parity, enumerated with b_1 as the low bit.
    0 and 1 are canonical in every field, so the tuples are wrapped as they are."""
    last = (int(with_last),)
    return [LinearForm._wrap(field, bits[::-1] + last)
            for bits in itertools.product((0, 1), repeat=r - 1) if sum(bits) % 2 == parity]


def _unit(field: Field, n: int, i: int) -> LinearForm:
    """The form x_{i+1} in n variables."""
    return LinearForm._wrap(field, (0,) * i + (1,) + (0,) * (n - i - 1))


def gen_ks(r: int) -> Circuit:
    """The 3-term parity-product identity over GF(2) in r variables.

    Degree is 2^(r-2), top fanin 3, and the rank is exactly r = log2(d) + 2;
    the circuit is simple, minimal, and zero.
    """
    if r < 2:
        raise ValueError("the parity family needs r >= 2")
    _check_budget(f"gen_ks({r})", 3 * _parity_degree(r))
    field = field_make(2)
    t1 = Term(field, 1, _parity_forms(field, r, 1, with_last=False))
    t2 = Term(field, 1, _parity_forms(field, r, 0, with_last=True))
    t3 = Term(field, 1, _parity_forms(field, r, 1, with_last=True))
    return Circuit(field, r, [t1, t2, t3])


def _shift_forms(term: Term, n_total: int, offset: int) -> Term:
    """term with its forms' already canonical coefficients moved to start at
    variable offset of n_total."""
    field = term.field
    forms = [
        LinearForm._wrap(field, (0,) * offset + f.coeffs + (0,) * (n_total - offset - f.n))
        for f in term.forms
    ]
    return Term(field, term.coef, forms)


def gen_joined(base_identity: Circuit, block: Circuit, verify: bool = True) -> Circuit:
    """Join a k-term identity with a 3-term block on fresh variables.

    With base terms T_1..T_k and block terms S_1, S_2, S_3 (shifted onto
    fresh variables appended after the base's), the result is
    (T_1 + .. + T_{k-1}) * S_1 - T_k * S_2 - T_k * S_3: degree d + d_block,
    fanin k + 1, rank r + r_block. The output's zero / simple / minimal /
    rank claims are re-verified, zero and minimal under ZeroOracle(trials=40),
    unless verify=False.
    """
    field = base_identity.field
    if block.field != field:
        raise ValueError("join requires a common field")
    if block.k != 3:
        raise ValueError("the joined block must have exactly 3 terms")
    n = base_identity.n + block.n
    base_terms = [_shift_forms(t, n, 0) for t in base_identity.terms]
    s1, s2, s3 = (_shift_forms(t, n, base_identity.n) for t in block.terms)

    def merge(t: Term, s: Term, negate: bool) -> Term:
        coef = field.mul(t.coef, s.coef)
        if negate:
            coef = field.neg(coef)
        return Term(field, coef, t.forms + s.forms)

    last = base_terms[-1]
    terms = [merge(t, s1, False) for t in base_terms[:-1]]
    terms.append(merge(last, s2, True))
    terms.append(merge(last, s3, True))
    out = Circuit(field, n, terms)

    if verify:
        expect_rank = circuit_rank(base_identity) + circuit_rank(block)
        if out.k != base_identity.k + 1:
            raise VerificationError("join produced the wrong fanin")
        if out.degree != base_identity.degree + block.degree:
            raise VerificationError("join produced the wrong degree")
        if circuit_rank(out) != expect_rank:
            raise VerificationError("join produced the wrong rank")
        values = ZeroOracle(trials=40).term_values(out)
        if not values.is_zero():
            raise VerificationError("join output failed the zero oracle")
        if not is_simple(out):
            raise VerificationError("join output is not simple")
        if not values.is_minimal():
            raise VerificationError("join output is not minimal")
    return out


def gen_family(r: int, i: int, verify: bool = True) -> Circuit:
    """i-fold join of the parity identity with fresh copies of itself.

    Member i has degree (i+1) * 2^(r-2), fanin i + 3 and rank (i+1) * r, so
    the family realizes rank growing like (k/3) * log2(d); the generator
    re-checks rank > (k/3) * log2(d) whenever 3 <= i < d.
    """
    if r < 2 or i < 0:
        raise ValueError("family parameters need r >= 2 and i >= 0")
    d = _parity_degree(r)
    _check_budget(f"family member ({r}, {i})", (i + 3) * (i + 1) * d)
    member = gen_ks(r)
    for _ in range(i):
        member = gen_joined(member, gen_ks(r), verify=verify)
    if verify:
        rank = circuit_rank(member)
        if (member.k, member.degree, rank) != (i + 3, (i + 1) * d, (i + 1) * r):
            raise VerificationError("family member has wrong parameters")
        if 3 <= i < d and not rank > (member.k / 3) * math.log2(member.degree):
            raise VerificationError("family member misses the rank growth bound")
    return member


@dataclass(frozen=True)
class TightLists:
    """Output of gen_tight_lists: the parity-split form lists with the ideals
    whose matchings verified, plus how many of the claimed count did."""

    field: Field
    n: int
    u: tuple[LinearForm, ...]
    v: tuple[LinearForm, ...]
    ideals: tuple[FormIdeal, ...]
    claimed: int


def gen_tight_lists(s: int, p: int = 5) -> TightLists:
    """Nonsimilar lists of size 2^(s-2) admitting many orthogonal matchings.

    U takes the forms b_1 x_1 + ... + b_{s-1} x_{s-1} + x_s with even bit
    parity, V the odd ones. Candidate ideals are (x_1), ..., (x_{s-1}) and
    (x_1 + ... + x_{s-1} + 2 x_s); each is kept only if a matching between U
    and V by it actually verifies, and the report compares the verified count
    against the claimed log2(|U|) + 2. The coefficient 2 needs p > 2, and
    p >= 5 keeps all constructions exact.
    """
    if s < 3:
        raise ValueError("tight lists need s >= 3")
    if p < 5:
        raise ValueError("tight lists need a prime p >= 5")
    _check_budget(f"tight lists ({s})", 2 * _parity_degree(s))
    field = field_make(p)
    u = tuple(_parity_forms(field, s, 0, with_last=True))
    v = tuple(_parity_forms(field, s, 1, with_last=True))

    candidates = [FormIdeal(field, s, (_unit(field, s, i),)) for i in range(s - 1)]
    candidates.append(
        FormIdeal(field, s, (LinearForm(field, [1] * (s - 1) + [2]),))
    )

    kept = [ideal for ideal in candidates if find_matching(u, v, ideal) is not None]
    claimed = (len(u).bit_length() - 1) + 2  # log2(|U|) + 2, |U| a power of 2
    return TightLists(
        field=field,
        n=s,
        u=u,
        v=v,
        ideals=tuple(kept),
        claimed=claimed,
    )


def gen_intro_counterexamples(d: int, p: int = 5) -> tuple[Circuit, Circuit]:
    """The standard non-simple and non-minimal zero circuits.

    First: (x_1 ... x_d) - (x_1 ... x_d), rank d, which fails simplicity.
    Second: the 4-term circuit Y*x - Y*x + Z*y - Z*y on disjoint variable
    blocks (degree d + 1, rank 2d + 2), which fails minimality. Both pass the
    zero oracle. Their forms have d and 2d + 2 coefficients, so the budget
    counts coefficients here: 2d^2 + 8(d + 1)^2 of them.
    """
    if d < 1:
        raise ValueError("counterexamples need d >= 1")
    _check_budget(f"counterexamples ({d})", 2 * d * d + 8 * (d + 1) ** 2,
                  unit="form coefficients")
    field = field_make(p)

    xs = [_unit(field, d, i) for i in range(d)]
    nonsimple = Circuit(
        field, d, [Term(field, 1, xs), Term(field, field.neg(field.one), xs)]
    )

    n = 2 * d + 2
    ys = [_unit(field, n, i) for i in range(d)]
    zs = [_unit(field, n, d + i) for i in range(d)]
    x1, x2 = _unit(field, n, 2 * d), _unit(field, n, 2 * d + 1)
    neg = field.neg(field.one)
    nonminimal = Circuit(
        field,
        n,
        [
            Term(field, 1, ys + [x1]),
            Term(field, neg, ys + [x1]),
            Term(field, 1, zs + [x2]),
            Term(field, neg, zs + [x2]),
        ],
    )
    return nonsimple, nonminimal

