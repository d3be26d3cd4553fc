"""Depth-3 circuits: evaluation, zero testing, structure checks, file formats.

A circuit is a sum of multiplication terms, each a nonzero constant times a
product of nonzero linear forms. Whether it computes the zero polynomial is
always the verdict of one rung of an oracle ladder, picked once per circuit
for is_zero and term_values alike by ZeroOracle.rung: each rung tried gets a
Rung record, built when reached, the first that accepts answers, and where
none does one refusal names them all. Exact rungs, the cheaper first:
- Divisibility (_divisibility_rung) decides two terms, and three terms of
  one degree with a squarefree term and a witness form, by unique
  factorization modulo one form at a time. Nothing is expanded.
- Expansion (_expand_terms) rewrites each form over the circuit's first
  rank(C) independent forms, so a form of a join on fresh variables reads
  only its own block of them (_source_blocks). One kernel, Field.mul_by_form,
  multiplies dicts monomial -> coefficient, exponents packed into ints, over
  every field. A term's blocks are expanded one by one and multiplied last:
  over GF(2) a block's forms in a tree of neighbour pairs, so cancellation
  mod 2 shrinks the products early, elsewhere folded in one at a time.

The random rung compiles the circuit's forms once (_EvalPlan) and has one
pass (_term_values) for any number of trials. Each point coordinate is one
randrange(q) draw over the evaluation field GF(q), and its values in all
trials are packed into one int, one lane per trial (_lanes), so a slice of
_CHUNK coordinates or a form costs one int sum for every trial. Over
characteristic 2 lanes add by xor; over odd p a lane holds the element's
digits in fields too wide to carry, each reduced mod p once per form. Trial
0 is a pass of one lane, so a nonzero circuit pays for one point, and every
later trial shares a second pass.

The codec defines both file formats, circuits and gen tight's doubling
lists, and both digests (circuit_digest, loads_lists). The loader checks a
term's vectors as one array of digits and goes element by element only to
name a bad one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import random
import re
import sys
from array import array
from collections import namedtuple
from functools import partial, reduce
from operator import attrgetter

from .algebra import Field, SpanBasis, field_make, pack_digits
from .errors import OracleRefusalError
from .forms import LinearForm, Term, pair_cancels_mod, similarity_key

EXPANSION_BUDGET = 10_000_000  # read at call time, like ZeroOracle.auto_budget
MAX_TRIALS = 128  # every evaluation field has |E| > 2d: 128 trials err below 2^-128


class Circuit:
    """Sum of k multiplication terms over n variables."""

    __slots__ = ("field", "n", "terms", "_basis", "_keys")

    def __init__(self, field: Field, n: int, terms):
        terms = tuple(terms)
        if not terms:
            raise ValueError("a circuit needs at least one term")
        for t in terms:
            if not isinstance(t, Term) or (t.field is not field and t.field != field):
                raise ValueError("circuit terms must be Terms over the circuit field")
            if any(len(f.coeffs) != n for f in t.forms):
                raise ValueError("all forms must have the circuit's dimension")
        self.field = field
        self.n = n
        self.terms = terms
        self._basis = None  # form_basis, built on first use
        self._keys = None  # form_keys, computed on first use

    @property
    def k(self) -> int:
        return len(self.terms)

    @property
    def degree(self) -> int:
        return max(t.degree for t in self.terms)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(t.degree for t in self.terms)

    def all_forms(self) -> tuple[LinearForm, ...]:
        """Concatenation of the term form lists, in term order."""
        return tuple(itertools.chain.from_iterable(t.forms for t in self.terms))

    def __eq__(self, other):
        return (
            isinstance(other, Circuit)
            and self.field == other.field
            and self.n == other.n
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"Circuit(k={self.k}, d={self.degree}, n={self.n}, field={self.field})"


def make_circuit(field: Field, n: int, term_specs) -> Circuit:
    """Build a circuit from (coef, [coeff-vector, ...]) pairs of raw ints."""
    terms = [
        Term(field, coef, [LinearForm(field, c) for c in vectors])
        for coef, vectors in term_specs
    ]
    return Circuit(field, n, terms)


def subcircuit(circuit: Circuit, q_set) -> Circuit:
    """Restriction to the term indices in q_set (0-based), original order."""
    q = sorted(set(q_set))
    if not q:
        raise ValueError("subcircuit needs a nonempty index set")
    if q[0] < 0 or q[-1] >= circuit.k:
        raise ValueError(f"term indices must lie in [0, {circuit.k})")
    return Circuit(circuit.field, circuit.n, [circuit.terms[i] for i in q])


def circuit_rank(circuit: Circuit) -> int:
    """Rank of the circuit's forms viewed as n-dimensional vectors."""
    return form_basis(circuit).rank


def form_basis(circuit: Circuit) -> SpanBasis:
    """Echelon basis of the circuit's forms, built once per (immutable) circuit
    and shared by the rank, the exact cost bound and the expansion."""
    if circuit._basis is None:
        circuit._basis = SpanBasis.from_vectors(
            circuit.field, circuit.n, map(attrgetter("coeffs"), circuit.all_forms())
        )
    return circuit._basis


def form_keys(circuit: Circuit) -> tuple[tuple, ...]:
    """Per term, the similarity key of each form, computed once per
    (immutable) circuit and shared by is_simple and the chain's type
    classification: once per distinct coefficient vector, but over GF(2),
    where every nonzero form is its own key and hashing the vectors would
    cost more than keying each form, once per form."""
    if circuit._keys is None:
        terms = circuit.terms
        if circuit.field.order == 2:
            circuit._keys = tuple(tuple(map(similarity_key, t.forms)) for t in terms)
        else:
            first = {f.coeffs: f for t in terms for f in t.forms}
            key = {v: similarity_key(f) for v, f in first.items()}
            circuit._keys = tuple(tuple(key[f.coeffs] for f in t.forms) for t in terms)
    return circuit._keys


# -- exact zero test (rank compression + packed sparse expansion) --

def exact_cost_bound(circuit: Circuit) -> int:
    """Summed per-term bound C(d_t + r - 1, r - 1) on the monomials of each
    expanded term, which also bounds every partial product of its forms (each
    has degree <= d_t). It bounds the sizes the expansion holds, not the work
    it does multiplying them."""
    r = circuit_rank(circuit)
    if r == 0:
        return len(circuit.terms)
    return sum(math.comb(t.degree + r - 1, r - 1) for t in circuit.terms)


def zero_test_exact(circuit: Circuit) -> bool:
    """Deterministic zero test by sparse expansion over the circuit's first
    rank(C) independent forms (_source_coordinates), so its cost depends on
    rank(C), not on n: the expansion rung alone, refused (OracleRefusalError)
    when exact_cost_bound exceeds EXPANSION_BUDGET (10^7)."""
    return _pick([_expansion(circuit, EXPANSION_BUDGET)]).factory()(range(circuit.k))


def _source_coordinates(circuit: Circuit) -> dict:
    """Each distinct form's coefficients -> its coordinates over the sources
    of form_basis(circuit), the circuit's first rank(C) independent forms.
    Over the echelon rows, which elimination mixes, a form of a join on
    fresh variables would be dense.
    """
    distinct = dict.fromkeys(map(attrgetter("coeffs"), circuit.all_forms()))
    return dict(zip(distinct, form_basis(circuit).coordinates(distinct)))


def _expand_terms(circuit: Circuit) -> list:
    """Each term expanded over the circuit's sources (_source_coordinates)
    as a dict monomial -> nonzero coefficient, exponents packed into ints.

    A term's forms are grouped by block (_source_blocks) and each block is
    expanded on its own by Field.mul_by_form. Over GF(2) neighbouring forms
    are multiplied pairwise until one polynomial is left, so cancellation mod
    2 shrinks the partial products early (on gen_ks(6) a third of the
    coefficient products of a fold); elsewhere the block's forms are folded
    into a running polynomial one at a time. The block polynomials share no
    variable, so their product, taken last, cancels nothing and costs only
    its own size; a term of degree 0 is {0: coef}.
    """
    field = circuit.field
    # pack exponent vectors into ints: degree <= d fits in shift-sized fields,
    # so a form's variable j multiplies a monomial by adding 1 << (shift * j);
    # each distinct form is converted once
    shift_bits = max(1, circuit.degree.bit_length())
    coordinates = _source_coordinates(circuit)
    block_of = _source_blocks(coordinates)
    packed = {coeffs: [(1 << (shift_bits * j), c) for j, c in enumerate(coords) if c]
              for coeffs, coords in coordinates.items()}
    mul = field.mul_by_form
    pairwise = field.p == 2 and field.e == 1  # cancellation mod 2 shrinks pair products early
    polys = []
    for t in circuit.terms:
        blocks: dict = {}  # block -> the term's forms there, in term order
        for f in t.forms:
            blocks.setdefault(block_of[f.coeffs], []).append(packed[f.coeffs])
        poly = {0: t.coef}
        for forms in blocks.values():
            if pairwise:
                parts = list(map(dict, forms))
                while len(parts) > 1:  # neighbours multiplied, an odd last part carried over
                    parts = [*(mul(a, list(b.items())) for a, b in zip(parts[::2], parts[1::2])),
                             *parts[len(parts) // 2 * 2:]]
                part = parts[0]
            else:
                part = reduce(mul, forms, {0: 1})
            poly = mul(poly, list(part.items()))
        polys.append(poly)
    return polys


def _source_blocks(coordinates: dict) -> dict:
    """Each form of _source_coordinates -> its block, the least source index
    of a connected component of the graph on sources in which the sources
    one form reads are joined (union-find over their nonzero coordinates)."""
    supports = {coeffs: [j for j, c in enumerate(coords) if c]
                for coeffs, coords in coordinates.items()}
    parent = {j: j for support in supports.values() for j in support}

    def find(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    for first, *rest in supports.values():
        for j in rest:
            a, b = find(first), find(j)
            parent[max(a, b)] = min(a, b)
    return {coeffs: find(support[0]) for coeffs, support in supports.items()}


def _sums_to_zero(field: Field, polys: list, q) -> bool:
    """Whether the polynomials of _expand_terms indexed by q sum to zero;
    stops at the first monomial whose coefficients do not cancel. Each
    monomial is summed once, from the first polynomial that holds it; the
    first polynomial needs no set difference, and most subsets stop there."""
    chosen = [polys[i] for i in q]
    # GF(p) adds ints and reduces each sum once; an element of GF(p^e) is
    # already below the order p^e, so one test mod the order serves every field
    add, order = (operator.add if field.e == 1 else field.add), field.order
    done: set = set()
    for pos, poly in enumerate(chosen):
        later = chosen[pos + 1:]
        for key in poly.keys() - done if done else poly:
            total = poly[key]
            for other in later:
                if key in other:
                    total = add(total, other[key])
            if total % order:
                return False
        done.update(poly)
    return True


# -- exact zero test by divisibility (unique factorization modulo one form) --

def _divisibility_rung(circuit: Circuit):
    """(price, sums) of the zero test by divisibility (Kayal and Saxena,
    Computational Complexity 16, 2007), or None where it does not apply.

    sums(q) decides a pair of terms over the zero ideal, and for k = 3 the
    whole circuit C = c1*M1 + c2*M2 + c3*M3 when its terms have one degree
    d >= 1, some term M1 is squarefree (pairwise non-similar forms) and a
    form w of M2 or M3 is similar to no form of M1. Then C = 0 iff (i)
    c2*M2 + c3*M3 = 0 modulo (l) for every form l of M1, which makes M1
    divide C, so C = c*M1, and (ii) C = 0 modulo (w), where M1 is not 0, so
    c = 0. Every check is a pair modulo one form (forms.pair_cancels_mod);
    nothing is expanded. price is (d + 1) * sum of degrees * n, the
    coefficient operations of reducing every form modulo d + 1 forms.
    """
    terms, degrees, d = circuit.terms, circuit.degrees, circuit.degree

    def cancel(q, form=None):  # whether the two terms indexed by q cancel modulo (form)
        return pair_cancels_mod(circuit.field, [terms[i] for i in q], form)

    if circuit.k == 2:
        return sum(degrees) * circuit.n, cancel
    if circuit.k != 3 or d == 0 or len(set(degrees)) != 1:
        return None
    keys = form_keys(circuit)
    m = next((i for i in range(3) if len(set(keys[i])) == d), None)
    if m is None:
        return None
    classes = set(keys[m])
    w = next(((i, f) for i in range(3) if i != m
              for f, key in zip(terms[i].forms, keys[i]) if key not in classes), None)
    if w is None:
        return None

    def sums(q) -> bool:
        if len(q) == 2:
            return cancel(q)
        return (all(cancel([j for j in range(3) if j != m], f) for f in terms[m].forms)
                and cancel([j for j in range(3) if j != w[0]], w[1]))

    return (d + 1) * 3 * d * circuit.n, sums


# -- the oracle ladder: one record per rung, one pick --

# one rung's record: price and limit are None for random, factory None if refused
Rung = namedtuple("Rung", "name price limit factory refusal")


def _pick(rungs) -> Rung:
    """The first of the rungs, records built as they are reached, that
    accepts; else one refusal naming every rung tried."""
    refusals = []
    for rung in rungs:
        if rung.factory:
            return rung
        refusals.append(rung.refusal)
    raise OracleRefusalError("no oracle answers: " + "; ".join(refusals))


def _priced(name: str, price, limit: int, factory, label: str) -> Rung:
    """A rung's record, refused where the rung does not apply (price None)
    or its price, called label, exceeds limit."""
    if price is not None and price <= limit:
        return Rung(name, price, limit, factory, None)
    return Rung(name, price, limit, None, f"{name} does not apply" if price is None
                else f"{label} {price} exceeds budget {limit}")


def _expansion(circuit: Circuit, limit: int) -> Rung:
    """The expansion rung's record, priced by exact_cost_bound."""
    return _priced("expansion", exact_cost_bound(circuit), limit,
                   lambda: partial(_sums_to_zero, circuit.field, _expand_terms(circuit)),
                   "exact expansion bound")


def _exact_rungs(circuit: Circuit, expansion: Rung) -> list:
    """The records of divisibility (_divisibility_rung), within expansion's
    limit, and of expansion, the cheaper first (divisibility on a tie)."""
    price, sums = _divisibility_rung(circuit) or (None, None)
    divisibility = _priced("divisibility", price, expansion.limit, lambda: sums,
                           "divisibility price")
    return sorted([divisibility, expansion], key=lambda rung: rung.price or 0)


# -- randomized zero test (seeded evaluation, lifted to a large field) --

def zero_test_random(circuit: Circuit) -> bool:
    """ZeroOracle("random").is_zero: 20 trials from seed 0 (see _random_rung)."""
    return ZeroOracle("random").is_zero(circuit)


def _random_rung(circuit: Circuit, trials: int, seed: int) -> Rung:
    """The random rung's record: evaluation over E = F if |F| > 2d, else for
    prime F the least GF(p^m) with p^m > 4d; any other F is refused."""
    field, d = circuit.field, circuit.degree
    if field.order <= 2 * d and field.e > 1:
        return Rung("random", None, None, None,
                    "random evaluation cannot lift an extension-field circuit")
    ev = field if field.order > 2 * d else field_make(
        field.p, next(m for m in itertools.count(1) if field.p**m > 4 * d))
    return Rung("random", None, None, partial(_random_sums, circuit, ev, trials, seed), None)


def _random_sums(circuit: Circuit, ev: Field, trials: int, seed: int):
    """Whether the terms indexed by q sum to zero, for any subset q, over the
    evaluation field ev; each subset stops at its first nonzero trial. Trials
    are kept once evaluated: trial 0 in one _term_values pass, then all the
    rest in a second. False is always correct; True errs with probability at
    most (d/|E|)**trials. Points derive from (seed, trial) alone."""
    plan = _EvalPlan(circuit)
    values: list = []  # per trial evaluated so far, its term values

    def trial_values(t: int) -> list:
        if t == len(values):  # subsets read trials in order: t is the next
            stop = trials if t else t + 1
            values.extend(_term_values(plan, ev, seed, range(t, stop)))
        return values[t]

    return lambda q: all(_trial_is_zero(trial_values(t), q, ev.add) for t in range(trials))


def _trial_is_zero(values: list, q, add) -> bool:
    """Whether one trial's values of the terms indexed by q sum to zero."""
    return reduce(add, (values[i] for i in q), 0) == 0


_CHUNK = 8  # coordinates per chunk of an _EvalPlan


class _EvalPlan:
    """A circuit's forms compiled once for evaluation at many points.

    The coordinates fall into chunks of _CHUNK. ``chunks`` holds, per chunk,
    the distinct coefficient slices the forms have there, each as its list
    of nonzero (coordinate in the chunk, coefficient) pairs, and each
    distinct form's slice id; a zero slice has no pairs. ``terms`` holds
    each term's constant and the ids of its distinct forms.
    """

    __slots__ = ("n", "chunks", "terms")

    def __init__(self, circuit: Circuit):
        distinct: dict = {}  # coefficient vector -> distinct-form id, first seen first
        form_ids = [distinct.setdefault(f.coeffs, len(distinct)) for f in circuit.all_forms()]
        # with no form no coordinate is read, so the point is empty, whatever n says
        n = self.n = circuit.n if form_ids else 0
        self.chunks = []
        for start in range(0, n, _CHUNK):
            ids: dict = {}  # slice -> its id in this chunk
            slices, col = [], []
            for coeffs in distinct:
                chunk = coeffs[start:start + _CHUNK]
                i = ids.get(chunk)
                if i is None:
                    i = ids[chunk] = len(slices)
                    slices.append([(j, a) for j, a in enumerate(chunk) if a])
                col.append(i)
            self.chunks.append((slices, col))
        remaining = iter(form_ids)
        self.terms = [(t.coef, list(itertools.islice(remaining, t.degree)))
                      for t in circuit.terms]


def _term_values(plan: _EvalPlan, ev: Field, seed, trials: range) -> list:
    """Per trial t in trials, each term's value over ev (the circuit's field or
    a lift) at the point of n ev.rand_element draws on random.Random(f"{seed}:{t}").
    All trials share one pass in any characteristic: each coordinate's values
    over the trials are packed into one int (_lanes), a slice or a form is a
    sum of such ints, a coefficient of GF(p) multiplies a whole int and any
    other one each lane through Field.mul, and each trial is a strided slice
    of a term's unpacked form lanes. Draws go chunk by chunk over all n
    coordinates, each trial's in coordinate order."""
    rngs = [random.Random(f"{seed}:{t}") for t in trials]
    count = len(rngs)
    pack, unpack, add, code = _lanes(ev, plan.n, count)
    rand, mul, p = ev.rand_element, ev.mul, ev.p
    form_values = []
    for start, (slices, col) in zip(range(0, plan.n, _CHUNK), plan.chunks):
        size = min(_CHUNK, plan.n - start)  # draw this chunk of every trial's point
        drawn = [rand(rng) for rng in rngs for _ in range(size)]
        cols = [drawn[i::size] for i in range(size)]  # per coordinate, its lanes
        packed = list(map(pack, cols))
        slice_values = []
        for pairs in slices:
            s = 0
            for j, a in pairs:
                x = packed[j]
                s = add(s, x if a == 1 else a * x if a < p
                        else pack(map(partial(mul, a), cols[j])))
            slice_values.append(s)
        values = map(slice_values.__getitem__, col)
        form_values = list(map(add, form_values, values) if form_values else values)
    form_lanes = unpack(form_values)  # each distinct form unpacked once
    per_term = []
    for coef, forms in plan.terms:
        lanes = array(code, b"".join(map(form_lanes.__getitem__, forms)))
        per_term.append([mul(coef, ev.product(lanes[t::count])) for t in range(count)])
    return list(map(list, zip(*per_term)))


_TYPECODES = {array(code).itemsize: code for code in "QIHB"}  # bytes -> unsigned typecode


def _field_bytes(bits: int) -> int:
    """Bytes per packed field of the given bits: 1, 2, 4 or 8, which an array
    typecode holds, else the least number of bytes."""
    size = max(1, (bits + 7) // 8)
    return 1 << (size - 1).bit_length() if size <= 8 else size


def _lanes(ev: Field, n: int, count: int):
    """(pack, unpack, add, code): the lane layout of _term_values' pass over
    ev for count trials at points of n coordinates.

    A packed int holds one lane per trial, in trial order, and a lane holds
    fields of equal width. Over characteristic 2 a lane is one field, the
    element itself, and lanes add by xor, which never carries. Over odd p a
    lane holds the element's e digits, one per field, and lanes add with +:
    a field wide enough for n(p - 1)^2, the largest sum of n coefficient x
    digit products, never carries into the next. pack(xs) is the int whose
    lanes hold the elements xs; unpack(vs) reduces each field of the packed
    ints vs mod p, all at once, recombines each lane's digits and returns,
    per int, its elements as the bytes of an array of typecode code; add
    adds two packed ints lane by lane.
    """
    p, e, order = ev.p, ev.e, sys.byteorder
    if p == 2:
        fields, add, size = 1, operator.xor, _field_bytes(e)
    else:
        fields, add, size = e, operator.add, _field_bytes((max(n, 1) * (p - 1) ** 2).bit_length())
    field_code = _TYPECODES.get(size)  # None for fields wider than 8 bytes (large p)
    length = count * fields * size  # bytes of a packed int
    code = _TYPECODES[_field_bytes((ev.order - 1).bit_length())]  # every ev has q <= 2^64
    powers = [p**i for i in range(fields)]

    def pack(xs) -> int:
        if fields > 1:  # each element's digits, constant first
            xs = [x // power % p for x in xs for power in powers]
        if field_code:
            return int.from_bytes(array(field_code, xs).tobytes(), order)
        return int.from_bytes(b"".join(x.to_bytes(size, order) for x in xs), order)

    def unpack(vs) -> list:
        raws = [v.to_bytes(length, order) for v in vs]
        if p == 2:
            return raws
        raw = b"".join(raws)
        items = array(field_code, raw) if field_code else [
            int.from_bytes(raw[i:i + size], order) for i in range(0, len(raw), size)]
        xs = [x % p for x in items[fields - 1::fields]]
        for i in range(fields - 2, -1, -1):
            xs = [a * p + x % p for a, x in zip(xs, items[i::fields])]
        out, step = array(code, xs).tobytes(), count * array(code).itemsize
        return [out[i:i + step] for i in range(0, len(out), step)]

    return pack, unpack, add, code


class ZeroOracle:
    """Zero-test strategy: exact, random, or auto, each a ladder (_ladder)."""

    __slots__ = ("mode", "trials", "seed")
    auto_budget = 200_000  # mode auto goes exact first while exact_cost_bound is within it

    def __init__(self, mode="auto", trials=20, seed=0):
        if mode not in ("exact", "random", "auto"):
            raise ValueError(f"unknown oracle mode {mode!r}")
        if type(trials) is not int or not 1 <= trials <= MAX_TRIALS:  # bools fail too
            raise ValueError(f"trials must be in [1, {MAX_TRIALS}], got {trials!r}")
        self.mode = mode
        self.trials = trials
        self.seed = seed

    def _ladder(self, circuit: Circuit):
        """The rungs for the circuit in the order this mode tries them, each
        stage built when reached: exact, the cheaper exact rung within
        EXPANSION_BUDGET; random, random; auto, the cheaper exact rung where
        exact_cost_bound is within auto_budget, else random, else exact as
        in mode exact."""
        if self.mode == "auto":
            auto = _expansion(circuit, self.auto_budget)
            yield from _exact_rungs(circuit, auto) if auto.factory else [auto]
        if self.mode != "exact":
            yield _random_rung(circuit, self.trials, self.seed)
        if self.mode != "random":
            yield from _exact_rungs(circuit, _expansion(circuit, EXPANSION_BUDGET))

    def rung(self, circuit: Circuit) -> Rung:
        """The record of the rung that answers the circuit (_pick)."""
        return _pick(self._ladder(circuit))

    def is_zero(self, circuit: Circuit) -> bool:
        return self.rung(circuit).factory()(range(circuit.k))

    def term_values(self, circuit: Circuit) -> TermValues:
        """Zero and minimality verdicts from one set of term values; k > 16
        (2^k - k - 2 subsets) is refused before any oracle work."""
        if circuit.k > 16:
            raise OracleRefusalError("minimality testing is capped at k <= 16 terms")
        return TermValues(circuit.k, self.rung(circuit).factory())

    def __repr__(self):
        return f"ZeroOracle({self.mode}, trials={self.trials}, seed={self.seed})"


class TermValues:
    """Subsets q of one circuit's terms, each decided by sums_to_zero(q)."""

    def __init__(self, k: int, sums_to_zero):
        self.k = k
        self.sums_to_zero = sums_to_zero

    def is_zero(self) -> bool:
        return self.sums_to_zero(range(self.k))

    def is_minimal(self) -> bool:
        """No proper subset of >= 2 terms sums to zero (singletons are nonzero)."""
        k = self.k
        masks = (m for m in range(3, (1 << k) - 1) if m.bit_count() >= 2)
        return not any(self.sums_to_zero([i for i in range(k) if m >> i & 1]) for m in masks)


# -- structural predicates --

def is_simple(circuit: Circuit) -> bool:
    """True iff no nonzero form divides every term (no common similarity class)."""
    common = None
    for keys in form_keys(circuit):
        common = set(keys) if common is None else common.intersection(keys)
        if not common:
            return True
    return not common


def is_minimal(circuit: Circuit) -> bool:
    """True iff no proper nonempty subset of the terms sums to zero.

    All subsets are read off one set of term values under ZeroOracle()'s one
    decision for the circuit (auto, 20 trials, seed 0; random ones in the
    circuit's evaluation field); k <= 2 needs no work, k > 16 is refused.
    Another oracle's verdict is oracle.term_values(circuit).is_minimal().
    """
    return circuit.k < 3 or ZeroOracle().term_values(circuit).is_minimal()


# -- persistent format: the one JSON codec for numbers, elements, forms, circuits, lists --

def dumps_json(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace variance."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


_BETWEEN_KEYS = re.compile(r'[0-9\[\],{}:]*')  # one loop, keeps no backtracking state


def _canonical_text(text: str, keys) -> str | None:
    """text, but for one final newline, when it is already the canonical
    dump (dumps_json) of the JSON it holds, given the keys that dump writes,
    in order; None when it may not be. It is when it is ASCII, its quoted
    strings are those keys, and every letter lies inside one: outside them
    there are only digits, brackets, braces, commas and colons, so no
    whitespace, sign, point, exponent or literal."""
    text = text[:-1] if text.endswith("\n") else text
    parts = text.split('"')
    if text.isascii() and parts[1::2] == keys and all(map(_BETWEEN_KEYS.fullmatch, parts[::2])):
        return text
    return None


def json_number(x: float):
    return int(x) if float(x).is_integer() else x


def _element_to_json(field: Field, el):
    return el if field.e == 1 else list(field.digits(el))


def form_to_json(f: LinearForm) -> list:
    if f.field.e == 1:
        return list(f.coeffs)
    return [_element_to_json(f.field, c) for c in f.coeffs]


def _json_int(obj: dict, key: str) -> int:
    value = obj[key]
    if type(value) is not int:  # rejects bools, floats and strings
        raise ValueError(f'"{key}" must be a JSON integer, got {value!r}')
    return value


def _header_from_json(obj: dict) -> tuple[int, int, int]:
    """The (p, e, n) named by a file's header, n >= 1. The field GF(p^e) is
    built by the caller once the body has been checked against them, so a
    malformed body never pays for an extension field's tables."""
    if type(obj) is not dict:
        raise ValueError("the input must be a JSON object")
    p, e, n = (_json_int(obj, key) for key in ("p", "e", "n"))
    if e < 1:  # the body is checked against e before Field would refuse it
        raise ValueError(f"extension degree must be >= 1, got {e}")
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    return p, e, n


def _element_from_json(p: int, e: int, obj):
    """A file element checked against GF(p^e), as the field's int: for e > 1
    the digit list packed where it is checked."""
    if e == 1:
        if type(obj) is not int:
            raise ValueError("prime-field elements serialize as ints")
        if not 0 <= obj < p:
            raise ValueError(f"element {obj} out of range [0, {p})")
        return obj
    if type(obj) is not list or len(obj) != e:
        raise ValueError(f"extension elements serialize as length-{e} arrays")
    if not all(type(c) is int and 0 <= c < p for c in obj):
        raise ValueError("extension element coefficients out of range")
    return pack_digits(p, obj)


def _vectors_from_json(p: int, e: int, n: int, vectors, name: str) -> list:
    """The nonzero coefficient vectors in the JSON array vectors (called name
    in messages), checked against GF(p^e) and n. Vectors of length n whose
    digits (over GF(p^e), each element a list of e of them) are all ints in
    [0, p) pass in one pass over the whole array (type() is not isinstance():
    bools fail it), and extension elements are packed a digit column at a
    time; anything else goes element by element, which names the first bad
    one."""
    if type(vectors) is not list or set(map(type, vectors)) - {list}:
        raise ValueError(f"{name} must be an array of arrays")
    flat = itertools.chain.from_iterable
    out = digits = None
    if set(map(len, vectors)) <= {n}:
        digits = list(flat(vectors))
        if e > 1:  # every element a list of e digits, or the element loop names one
            lists = set(map(type, digits)) <= {list} and set(map(len, digits)) <= {e}
            digits = list(flat(digits)) if lists else None
    if digits is not None and set(map(type, digits)) <= {int}:
        values = set(digits) or {0}  # ints only, so no bool or float hides in the set
        if min(values) >= 0 and max(values) < p:
            if e == 1:
                out = list(map(tuple, vectors))
            else:
                packed = digits[e - 1::e]  # digits go constant first: the top column leads
                for i in range(e - 2, -1, -1):
                    packed = [a * p + c for a, c in zip(packed, digits[i::e])]
                out = [tuple(packed[j:j + n]) for j in range(0, len(packed), n)]
    if out is None:  # some element is bad: name the first
        for vec in vectors:
            if len(vec) != n:
                raise ValueError(f"form has {len(vec)} coordinates, expected {n}")
            for c in vec:
                _element_from_json(p, e, c)
    if not all(map(any, out)):
        raise ValueError(f"every form of {name} must be nonzero")
    return out


def _forms_from_vectors(field: Field, vectors: list) -> list:
    """The forms over vectors that _vectors_from_json checked against field."""
    return list(map(partial(LinearForm._wrap, field), vectors))


def circuit_to_dict(circuit: Circuit) -> dict:
    field = circuit.field
    return {
        "p": field.p,
        "e": field.e,
        "n": circuit.n,
        "terms": [
            {
                "coef": _element_to_json(field, t.coef),
                "forms": [form_to_json(f) for f in t.forms],
            }
            for t in circuit.terms
        ],
    }


def circuit_from_dict(obj: dict) -> Circuit:
    p, e, n = _header_from_json(obj)
    if type(obj["terms"]) is not list:
        raise ValueError('"terms" must be an array')
    if not obj["terms"]:
        raise ValueError("a circuit needs at least one term")
    body = []
    for i, tobj in enumerate(obj["terms"]):
        if type(tobj) is not dict or not tobj.keys() >= {"coef", "forms"}:
            raise ValueError(f'terms[{i}] must be an object with "coef" and "forms"')
        coef = _element_from_json(p, e, tobj["coef"])
        if not coef:
            raise ValueError(f"terms[{i}] constant must be nonzero")
        body.append((coef, _vectors_from_json(p, e, n, tobj["forms"], f'terms[{i}]["forms"]')))
    field = field_make(p, e)
    terms = [Term(field, coef, _forms_from_vectors(field, vectors)) for coef, vectors in body]
    return Circuit(field, n, terms)


def dumps_circuit(circuit: Circuit) -> str:
    """Canonical emission: sorted keys, no whitespace variance."""
    return dumps_json(circuit_to_dict(circuit))


def circuit_digest(text: str, circuit: Circuit) -> str:
    """The digest of circuit's canonical dump, where text is the file it was
    loaded from: of text itself when it is that dump (_canonical_text), which
    the dump's keys decide, since the loader has checked every value as an
    int; any other text is re-encoded."""
    keys = ["e", "n", "p", "terms", *["coef", "forms"] * circuit.k]
    return _digest(_canonical_text(text, keys) or dumps_circuit(circuit))


def lists_to_dict(t) -> dict:
    """The lists file object of gen_tight_lists' t: its field, n, the form
    lists U and V, each ideal's generators, and the claimed and verified
    matching counts."""
    return {
        "p": t.field.p,
        "e": t.field.e,
        "n": t.n,
        "U": [form_to_json(f) for f in t.u],
        "V": [form_to_json(f) for f in t.v],
        "ideals": [[form_to_json(g) for g in ideal.generators] for ideal in t.ideals],
        "claimed": t.claimed,
        "verified": len(t.ideals),
    }


# the keys lists_to_dict writes, in dump order
_LISTS_KEYS = ["U", "V", "claimed", "e", "ideals", "n", "p", "verified"]


def _json_loads(text: str):
    """json.loads; input nested too deeply to decode is malformed (ValueError)."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def loads_circuit(text: str) -> Circuit:
    return circuit_from_dict(_json_loads(text))


def loads_lists(text: str) -> tuple:
    """(field, n, U, V, each ideal's generators, digest) of a lists file, "e"
    defaulting to 1; every list is checked before the header's field is
    built. The digest hashes text as it stands when it is the canonical dump
    in lists_to_dict's layout, else the whole object re-encoded."""
    obj = _json_loads(text)
    p, e, n = _header_from_json({"e": 1, **obj} if type(obj) is dict else obj)
    if type(obj["ideals"]) is not list:
        raise ValueError('"ideals" must be an array')
    named = {'"U"': obj["U"], '"V"': obj["V"]}
    named.update((f"ideals[{i}]", g) for i, g in enumerate(obj["ideals"]))
    lists = [_vectors_from_json(p, e, n, vectors, name) for name, vectors in named.items()]
    field = field_make(p, e)
    u, v, *gens = [tuple(_forms_from_vectors(field, vectors)) for vectors in lists]
    return field, n, u, v, gens, _digest(_canonical_text(text, _LISTS_KEYS) or dumps_json(obj))
