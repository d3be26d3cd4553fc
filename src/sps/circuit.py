"""Depth-3 circuits: evaluation, zero testing, structure checks, file format.

A circuit is a sum of multiplication terms, each a nonzero constant times a
product of nonzero linear forms. Zero-ness is never structural: a circuit
value is a syntax tree, and "computes the zero polynomial" is always the
verdict of one of the two oracles below (exact sparse expansion after rank
compression, or seeded random evaluation over a large enough field).
Over GF(2) a term is expanded as a balanced tree of pairwise products of its
forms' monomial sets, so cancellation mod 2 shrinks them early; elsewhere the
forms are multiplied into one coefficient dict, one at a time.
One ZeroOracle method (_sums) picks the oracle for is_zero and term_values alike.
The random oracle compiles the circuit's forms once (_EvalPlan): each trial
evaluates every distinct coefficient slice of a chunk of 8 coordinates once,
then sums slices into forms and multiplies forms into terms with the batch
Field methods, so a trial's values equal a coordinate-by-coordinate evaluation.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from functools import lru_cache, partial, reduce

from .algebra import Field, SpanBasis, field_make
from .errors import BudgetExceededError
from .forms import LinearForm, Term, similarity_key

DEFAULT_EXPANSION_BUDGET = 10_000_000
MAX_TRIALS = 128  # every evaluation field has |E| > 2d: 128 trials err below 2^-128


def _expansion_budget(budget):
    if budget is not None:
        return budget
    env = os.environ.get("SPS_BUDGET")
    return int(env) if env else DEFAULT_EXPANSION_BUDGET


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
        out = []
        for t in self.terms:
            out.extend(t.forms)
        return tuple(out)

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
            circuit.field, circuit.n, (f.coeffs for f in circuit.all_forms())
        )
    return circuit._basis


def form_keys(circuit: Circuit) -> tuple[tuple, ...]:
    """Per term, the similarity key of each form, computed once per
    (immutable) circuit and shared by is_simple and the chain's type
    classification."""
    if circuit._keys is None:
        circuit._keys = tuple(tuple(map(similarity_key, t.forms)) for t in circuit.terms)
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


def zero_test_exact(circuit: Circuit, budget: int | None = None) -> bool:
    """Deterministic zero test by sparse expansion in rank-many variables.

    Forms are rewritten in coordinates over an echelon basis of their span, so
    the expansion cost depends on rank(C), not on n. Raises
    BudgetExceededError instead of attempting an oversized expansion; the
    budget is the summed bound C(d + r - 1, r - 1) per term (default 10^7,
    overridable via the SPS_BUDGET environment variable).
    """
    return _sums_to_zero(circuit.field, _expand_terms(circuit, budget), range(circuit.k))


def _expand_terms(circuit: Circuit, budget: int | None) -> list:
    """Each term expanded over a basis of the circuit's span, exponents packed
    into ints: a set of monomials over GF(2), else a dict monomial -> coef.

    Over GF(2) each form starts as its set of monomials and neighbouring sets
    are multiplied pairwise (_gf2_product) until one is left, so cancellation
    mod 2 shrinks the partial products early; a term of degree 0 is {0}. The
    dict path multiplies the forms into the running polynomial one at a time.
    """
    field = circuit.field
    basis = form_basis(circuit)
    r = basis.rank
    if r:
        budget = _expansion_budget(budget)
        bound = exact_cost_bound(circuit)
        if bound > budget:
            raise BudgetExceededError(
                f"exact expansion bound {bound} exceeds budget {budget}"
            )

    # pack exponent vectors into ints: degree <= d fits in shift-sized fields
    shift_bits = max(1, circuit.degree.bit_length())
    compressed = []
    for t in circuit.terms:
        forms = []
        for f in t.forms:
            coords = basis.coordinates(f.coeffs)
            forms.append(
                tuple((j, coords[j]) for j in range(r) if coords[j])
            )
        compressed.append((t.coef, forms))

    polys = []
    if field.p == 2 and field.e == 1:
        for _, forms in compressed:
            sets = [{1 << (shift_bits * j) for j, _c in nz} for nz in forms] or [{0}]
            while len(sets) > 1:  # neighbours multiplied, an odd last set carried over
                sets = [*map(_gf2_product, sets[::2], sets[1::2]), *sets[len(sets) // 2 * 2:]]
            polys.append(sets[0])
        return polys

    add, mul = field.add, field.mul
    for coef, forms in compressed:
        cur = {0: coef}
        for nz in forms:
            nxt: dict = {}
            for key, c in cur.items():
                for j, fc in nz:
                    kk = key + (1 << (shift_bits * j))
                    prev = nxt.get(kk)
                    v = mul(c, fc) if prev is None else add(prev, mul(c, fc))
                    if not v:
                        nxt.pop(kk, None)
                    else:
                        nxt[kk] = v
            cur = nxt
        polys.append(cur)
    return polys


def _gf2_product(a: set, b: set) -> set:
    """Product of two GF(2) polynomials as sets of packed monomials: one set
    xor per monomial of the smaller factor (packed keys add without carry)."""
    if len(a) > len(b):
        a, b = b, a
    out: set[int] = set()
    for m in a:
        out.symmetric_difference_update(map(m.__add__, b))
    return out


def _sums_to_zero(field: Field, polys: list, q) -> bool:
    """Whether the polynomials of _expand_terms indexed by q sum to zero;
    outside GF(2), stops at the first monomial whose coefficients do not cancel."""
    if field.p == 2 and field.e == 1:
        acc: set[int] = set()
        for i in q:
            acc.symmetric_difference_update(polys[i])
        return not acc
    chosen = [polys[i] for i in q]
    for pos, poly in enumerate(chosen):
        earlier, later = chosen[:pos], chosen[pos + 1:]
        for key, total in poly.items():
            if any(key in other for other in earlier):
                continue
            for other in later:
                if key in other:
                    total = field.add(total, other[key])
            if total:
                return False
    return True


# -- randomized zero test (seeded evaluation, lifted to a large field) --

def _lift_degree(p: int, d: int) -> int:
    m = 1
    while p**m <= 4 * d:
        m += 1
    return m


def zero_test_random(
    circuit: Circuit,
    trials: int = 20,
    seed: int = 0,
    lift_field: Field | None = None,
) -> bool:
    """One-sided randomized zero test: False is always correct; True errs with
    probability at most (d / |E|) ** trials over the evaluation field E.

    When |F| <= 2d the evaluation is lifted to GF(p^m) with p^m > 4d
    (coefficients embed via the prime subfield; only prime-field circuits are
    lifted). Points derive deterministically from (seed, trial), so trials
    are order-independent and runs are reproducible.
    """
    return _random_sums(circuit, trials, seed, lift_field)(range(circuit.k))


def _random_sums(circuit: Circuit, trials: int, seed: int, lift_field: Field | None = None):
    """Whether the terms indexed by q sum to zero, for any subset q, evaluated in
    the circuit's field E: trial t's term values are computed when a subset
    first needs them and kept; each subset stops at its first nonzero trial."""
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in [1, {MAX_TRIALS}]")
    field = circuit.field
    d = circuit.degree
    if lift_field is not None:
        if lift_field.p != field.p:
            raise ValueError("lift field must share the circuit characteristic")
        if field.e != 1 and lift_field != field:
            raise ValueError("extension-field circuits evaluate in their own field")
        ev = lift_field
    elif field.order > 2 * d:
        ev = field
    elif field.e == 1:
        ev = field_make(field.p, _lift_degree(field.p, d))
    else:
        raise ValueError(
            "cannot lift an extension-field circuit; supply lift_field explicitly"
        )

    plan = _EvalPlan(circuit)

    @lru_cache(maxsize=None)
    def trial_values(t: int) -> list:
        return _term_values(plan, ev, random.Random(f"{seed}:{t}"))

    return lambda q: all(_trial_is_zero(trial_values(t), q, ev.add) for t in range(trials))


def _trial_is_zero(values: list, q, add) -> bool:
    """Whether one trial's values of the terms indexed by q sum to zero."""
    return reduce(add, (values[i] for i in q), 0) == 0


_CHUNK = 8  # coordinates per chunk of an _EvalPlan


class _EvalPlan:
    """A circuit's forms compiled once for evaluation at many points.

    The coordinates fall into chunks of _CHUNK. ``slices`` holds each distinct
    nonzero coefficient slice of a chunk that some form has, as its first
    (coordinate, coefficient) pair and a list of the others. The distinct
    forms are ordered by how many nonzero slices they have, most first;
    ``columns[i]`` holds the i-th slice id of every form that has more than i
    of them, so it covers a prefix of that order and no form pays for a chunk
    where it is zero. ``terms`` holds each term's constant and the positions
    of its forms.
    """

    __slots__ = ("n", "slices", "columns", "terms")

    def __init__(self, circuit: Circuit):
        distinct: dict = {}  # coefficient vector -> distinct-form id, first seen first
        form_ids = [distinct.setdefault(f.coeffs, len(distinct)) for f in circuit.all_forms()]
        # with no form no coordinate is read, so the point is empty, whatever n says
        n = self.n = circuit.n if form_ids else 0
        self.slices = []
        chunk_ids = []  # per chunk, each distinct form's slice id there (-1: zero)
        for start in range(0, n, _CHUNK):
            ids = {(0,) * min(_CHUNK, n - start): -1}
            col = []
            for coeffs in distinct:
                chunk = coeffs[start:start + _CHUNK]
                i = ids.get(chunk)
                if i is None:
                    i = ids[chunk] = len(self.slices)
                    (j, a), *rest = [(start + j, a) for j, a in enumerate(chunk) if a]
                    self.slices.append((j, a, rest))
                col.append(i)
            chunk_ids.append(col)
        form_slices = [[i for i in row if i >= 0] for row in zip(*chunk_ids)]
        order = sorted(range(len(distinct)), key=lambda f: len(form_slices[f]), reverse=True)
        depth = max(map(len, form_slices), default=1)  # columns[0] exists, maybe empty
        self.columns = [[form_slices[f][c] for f in order if len(form_slices[f]) > c]
                        for c in range(depth)]
        position = {f: pos for pos, f in enumerate(order)}
        remaining = iter(form_ids)
        self.terms = [(t.coef, [position[f] for f in itertools.islice(remaining, t.degree)])
                      for t in circuit.terms]


def _term_values(plan: _EvalPlan, ev: Field, rng) -> list:
    """Each term's value at one random point over ev, in ev's arithmetic; the
    circuit's coefficients are elements of ev as they stand (ints mod p embed).
    Each distinct slice is evaluated once, each distinct form once."""
    point = [ev.rand_element(rng) for _ in range(plan.n)]
    add, mul = ev.add, ev.mul
    slice_values = []
    for j, a, rest in plan.slices:
        s = point[j] if a == 1 else mul(a, point[j])
        for j, a in rest:  # unit coefficients, all of a GF(2) circuit's, need no mul
            s = add(s, point[j] if a == 1 else mul(a, point[j]))
        slice_values.append(s)
    get = slice_values.__getitem__
    columns = plan.columns
    form_values = list(map(get, columns[0]))
    for col in columns[1:]:
        m = len(col)
        form_values[:m] = ev.add_vectors(form_values[:m], map(get, col))
    get = form_values.__getitem__
    return [mul(coef, ev.product(list(map(get, forms)))) for coef, forms in plan.terms]


class ZeroOracle:
    """Zero-test strategy: exact, random, or auto (exact within a size cap)."""

    __slots__ = ("mode", "trials", "seed", "budget", "auto_budget")

    def __init__(self, mode="auto", trials=20, seed=0, budget=None, auto_budget=200_000):
        if mode not in ("exact", "random", "auto"):
            raise ValueError(f"unknown oracle mode {mode!r}")
        self.mode = mode
        self.trials = trials
        self.seed = seed
        self.budget = budget
        self.auto_budget = auto_budget

    def answers_exactly(self, circuit: Circuit) -> bool:
        """The one exact-vs-random decision, made once per circuit: exact in mode
        exact, and in mode auto while exact_cost_bound is within auto_budget."""
        return self.mode == "exact" or (self.mode == "auto"
                                        and exact_cost_bound(circuit) <= self.auto_budget)

    def _sums(self, circuit: Circuit):
        """Whether the terms indexed by q sum to zero, for any subset q: read off
        one expansion of each term, or one evaluation of each term per trial."""
        if self.answers_exactly(circuit):
            return partial(_sums_to_zero, circuit.field, _expand_terms(circuit, self.budget))
        return _random_sums(circuit, self.trials, self.seed)

    def is_zero(self, circuit: Circuit) -> bool:
        return self._sums(circuit)(range(circuit.k))

    def term_values(self, circuit: Circuit) -> TermValues:
        """Zero and minimality verdicts from one set of term values; k > 16
        (2^k - k - 2 subsets) is refused before any oracle work."""
        if circuit.k > 16:
            raise ValueError("minimality testing is capped at k <= 16 terms")
        return TermValues(circuit.k, self._sums(circuit))

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


def is_minimal(circuit: Circuit, oracle: ZeroOracle | None = None) -> bool:
    """True iff no proper nonempty subset of the terms sums to zero.

    All subsets are read off one set of term values under the oracle's one
    decision for the circuit (ZeroOracle.term_values), random ones in the
    circuit's evaluation field; k <= 2 needs no work, k > 16 is refused.
    """
    return circuit.k < 3 or (oracle or ZeroOracle()).term_values(circuit).is_minimal()


# -- persistent format: the one JSON codec for numbers, elements, forms, circuits --

def _dumps(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace variance."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _json_number(x: float):
    return int(x) if float(x).is_integer() else x


def _element_to_json(field: Field, el):
    return el if field.e == 1 else list(field.digits(el))


def _form_to_json(f: LinearForm) -> list:
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
    p, e, n = (_json_int(obj, key) for key in ("p", "e", "n"))
    if e < 1:  # the body is checked against e before Field would refuse it
        raise ValueError(f"extension degree must be >= 1, got {e}")
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    return p, e, n


def _element_from_json(p: int, e: int, obj):
    """A file element checked against GF(p^e): an int for e = 1, else a digit
    list, which Field.element packs."""
    if e == 1:
        if type(obj) is not int:
            raise ValueError("prime-field elements serialize as ints")
        if not 0 <= obj < p:
            raise ValueError(f"element {obj} out of range [0, {p})")
        return obj
    if not isinstance(obj, list) or len(obj) != e:
        raise ValueError(f"extension elements serialize as length-{e} arrays")
    if not all(type(c) is int and 0 <= c < p for c in obj):
        raise ValueError("extension element coefficients out of range")
    return obj


def _vector_from_json(p: int, e: int, n: int, vec) -> tuple:
    """A form's coefficient vector checked against GF(p^e) and n. A prime-field
    vector of ints in [0, p) passes in one whole-vector check (type() is not
    isinstance(): bools fail it); anything else goes element by element,
    which names the first bad one."""
    if len(vec) != n:
        raise ValueError(f"form has {len(vec)} coordinates, expected {n}")
    if e == 1 and set(map(type, vec)) == {int} and min(vec) >= 0 and max(vec) < p:
        return tuple(vec)
    return tuple(_element_from_json(p, e, c) for c in vec)


def _form_from_vector(field: Field, vec: tuple) -> LinearForm:
    """The form over a vector that _vector_from_json checked against field."""
    return LinearForm._wrap(field, vec if field.e == 1 else tuple(map(field.element, vec)))


def circuit_to_dict(circuit: Circuit) -> dict:
    field = circuit.field
    return {
        "p": field.p,
        "e": field.e,
        "n": circuit.n,
        "terms": [
            {
                "coef": _element_to_json(field, t.coef),
                "forms": [_form_to_json(f) for f in t.forms],
            }
            for t in circuit.terms
        ],
    }


def circuit_from_dict(obj: dict) -> Circuit:
    p, e, n = _header_from_json(obj)
    body = [
        (_element_from_json(p, e, tobj["coef"]),
         [_vector_from_json(p, e, n, vec) for vec in tobj["forms"]])
        for tobj in obj["terms"]
    ]
    field = field_make(p, e)
    terms = [Term(field, coef, [_form_from_vector(field, vec) for vec in vectors])
             for coef, vectors in body]
    return Circuit(field, n, terms)


def dumps_circuit(circuit: Circuit) -> str:
    """Canonical emission: sorted keys, no whitespace variance."""
    return _dumps(circuit_to_dict(circuit))


def _json_loads(text: str):
    """json.loads; input nested too deeply to decode is malformed (ValueError)."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def loads_circuit(text: str) -> Circuit:
    return circuit_from_dict(_json_loads(text))
