import itertools
import math
import random
from collections import Counter
from functools import partial
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sps import (
    BudgetExceededError,
    Circuit,
    LinearForm,
    SpanBasis,
    Term,
    ZeroOracle,
    circuit_rank,
    dumps_circuit,
    field_make,
    gen_family,
    gen_intro_counterexamples,
    gen_joined,
    gen_ks,
    is_minimal,
    is_simple,
    linear_factors,
    loads_circuit,
    make_circuit,
    similarity_key,
    subcircuit,
    zero_test_exact,
)
import sps.circuit
from sps.algebra import Field
from sps.circuit import (
    _EvalPlan,
    _expand_terms,
    _source_coordinates,
    MAX_TRIALS,
    TermValues,
    _sums_to_zero,
    _term_values,
    circuit_from_dict,
    exact_cost_bound,
    form_keys,
)
from sps.errors import OracleRefusalError
from helpers import (
    brute_expand,
    count_trials,
    echelon_expand,
    form_add,
    load_bench,
    perturbed,
    planted_triple,
    random_circuit,
    random_form,
    random_invertible,
    random_pair_identity,
    random_unit,
    rescaled,
    reference_term_values,
    reference_vectors_from_json,
    refuse_oracle_work,
    sequential_dict_expand,
    sequential_gf2_expand,
    sequential_sums_to_zero,
    subset_reference,
    substitute,
    vanishing_identity,
)

F2 = field_make(2)
F5 = field_make(5)
F7 = field_make(7)
F8 = field_make(2, 3)
F9 = field_make(3, 2)


def _planted(rng, field, n, k, d, size):
    """k random terms of degree d >= 1, `size` of them (0 or 2..k) summing to
    zero: c*(f_1 + ... + f_{size-1})*H and -c*f_i*H for each i, with H a
    product of d - 1 forms. Positions and form orders are shuffled."""
    terms = []
    if size:
        while True:
            fs = [random_form(rng, field, n, any_element=True) for _ in range(size - 1)]
            total = fs[0]
            for f in fs[1:]:
                total = form_add(total, f)
            if not total.is_zero:
                break
        h = [random_form(rng, field, n, any_element=True) for _ in range(d - 1)]
        c = random_unit(rng, field)
        for coef, f in [(c, total)] + [(field.neg(c), f) for f in fs]:
            forms = [f, *h]
            rng.shuffle(forms)
            terms.append(Term(field, coef, forms))
    extra = random_circuit(rng, field, n, k - size, d, any_element=True).terms if k > size else ()
    terms.extend(extra)
    rng.shuffle(terms)
    return Circuit(field, n, terms)


def test_all_forms_order_and_length():
    ks3 = gen_ks(3)
    assert len(ks3.all_forms()) == 6  # k = 3, d = 2
    c = make_circuit(F5, 2, [(1, [[1, 0], [1, 0]])])
    assert [f.coeffs for f in c.all_forms()] == [(1, 0), (1, 0)]  # duplicates kept
    two = make_circuit(F5, 3, [(1, [[1, 0, 0], [0, 1, 0]]), (2, [[0, 0, 1], [1, 1, 1]])])
    assert len(two.all_forms()) == 4


def test_circuit_rank_examples():
    xs = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    c = make_circuit(F5, 3, [(1, xs), (4, xs)])
    assert circuit_rank(c) == 3
    assert circuit_rank(gen_ks(4)) == 4
    only_x1 = make_circuit(F5, 3, [(1, [[1, 0, 0], [2, 0, 0]]), (3, [[3, 0, 0]])])
    assert circuit_rank(only_x1) == 1


def test_rank_invariant_under_permutations():
    rng = random.Random(5)
    for _ in range(30):
        c = random_circuit(rng, F5, 4, 3, 3)
        base = circuit_rank(c)
        terms = list(c.terms)
        rng.shuffle(terms)
        assert circuit_rank(make_circuit(F5, 4, [
            (t.coef, [list(f.coeffs) for f in sorted(t.forms, key=lambda f: f.coeffs)])
            for t in terms
        ])) == base


def test_zero_test_exact_examples():
    c = make_circuit(F2, 3, [(1, [[1, 0, 0], [0, 1, 0]]), (1, [[1, 0, 0], [0, 1, 0]])])
    assert zero_test_exact(c)
    assert zero_test_exact(gen_ks(3))
    nz = make_circuit(F5, 3, [(1, [[1, 0, 0], [0, 1, 0]]), (1, [[1, 0, 0], [0, 0, 1]])])
    assert not zero_test_exact(nz)


def test_exact_agrees_with_brute_force():
    rng = random.Random(17)
    for _ in range(120):
        field = F2 if rng.random() < 0.5 else F5
        c = random_circuit(rng, field, rng.randrange(1, 4), rng.randrange(1, 4),
                           rng.randrange(0, 4))
        assert zero_test_exact(c) == (not brute_expand(c))
    # extension fields, coordinates drawn from the whole field
    rng = random.Random(18)
    for field in (F8, F9):
        verdicts = set()
        for _ in range(60):
            c = (
                _planted(rng, field, rng.randrange(1, 4), rng.randrange(2, 4),
                         rng.randrange(1, 4), 2)
                if rng.random() < 0.3
                else random_circuit(rng, field, rng.randrange(1, 4), rng.randrange(1, 4),
                                    rng.randrange(0, 4), any_element=True)
            )
            zero = zero_test_exact(c)
            assert zero == (not brute_expand(c))
            verdicts.add(zero)
        assert verdicts == {True, False}


def _random_gf2_circuit(rng, n, k, max_degree):
    """Random GF(2) circuit with k terms of random degrees in [0, max_degree]:
    each form is, at random, a repeat of one of its term's earlier forms, a
    single coordinate, or a random nonzero vector."""
    terms = []
    for _ in range(k):
        forms = []
        for _ in range(rng.randrange(max_degree + 1)):
            kind = rng.randrange(3)
            if kind == 0 and forms:
                forms.append(rng.choice(forms))
            elif kind == 1:
                hot = rng.randrange(n)
                forms.append(LinearForm(F2, [int(j == hot) for j in range(n)]))
            else:
                forms.append(random_form(rng, F2, n))
        terms.append(Term(F2, 1, forms))
    return Circuit(F2, n, terms)


def test_gf2_pairwise_expansion_equals_sequential_reference():
    named = [gen_ks(r) for r in range(3, 7)]
    named += [gen_family(r, i) for r in (3, 4) for i in (1, 2)]
    for c in named:
        assert _expand_terms(c) == sequential_gf2_expand(c)
    rng = random.Random(2008)
    degrees, repeats, units = set(), 0, 0
    for _ in range(250):
        c = _random_gf2_circuit(rng, rng.randrange(1, 8), rng.randrange(1, 5), 9)
        assert _expand_terms(c) == sequential_gf2_expand(c)
        for t in c.terms:
            degrees.add(t.degree)
            repeats += len(set(t.forms)) < t.degree
            units += sum(sum(f.coeffs) == 1 for f in t.forms)
    # odd and even form counts (an odd set carried over), repeats, single coordinates
    assert degrees == set(range(10)) and repeats >= 100 and units >= 100


DICT_FIELDS = [F5, F7, F8, F9, field_make(2**61 - 1)]  # the last sums big ints


def _random_dict_circuit(rng, field, n, k, max_degree):
    """Random circuit with k terms of random degrees in [0, max_degree] and
    constants from the whole field: each form is, at random, a repeat of an
    earlier form of the circuit, a multiple of one coordinate, or a vector
    with entries from the whole field."""
    seen, terms = [], []
    for _ in range(k):
        forms = []
        for _ in range(rng.randrange(max_degree + 1)):
            kind = rng.randrange(3)
            if kind == 0 and seen:
                f = rng.choice(seen)
            elif kind == 1:
                hot = rng.randrange(n)
                f = LinearForm(field, [random_unit(rng, field) if j == hot else 0
                                       for j in range(n)])
            else:
                f = random_form(rng, field, n, any_element=True)
            forms.append(f)
            seen.append(f)
        terms.append(Term(field, random_unit(rng, field), forms))
    return Circuit(field, n, terms)


def test_gf2_expansion_multiplies_neighbours_pairwise(monkeypatch):
    # ks6 costs 31,952 coefficient products when each block's forms are
    # multiplied in a tree of neighbour pairs, and 93,840 when they are folded
    # into one running polynomial a form at a time
    products = []
    original = Field.mul_by_form

    def counted(self, poly, form):
        form = list(form)
        products.append(len(poly) * len(form))
        return original(self, poly, form)

    monkeypatch.setattr(Field, "mul_by_form", counted)
    c = gen_ks(6)
    polys = _expand_terms(c)
    monkeypatch.undo()
    assert sum(products) <= 31_952, sum(products)
    assert polys == sequential_gf2_expand(c)


def test_expansion_returns_dicts_of_nonzero_coefficients_over_every_field():
    rng = random.Random(38)
    for field in (F2, *DICT_FIELDS):
        for _ in range(20):
            if field is F2:
                c = _random_gf2_circuit(rng, rng.randrange(1, 5), rng.randrange(1, 4), 6)
            else:
                c = _random_dict_circuit(rng, field, rng.randrange(1, 5), rng.randrange(1, 4), 4)
            for poly in _expand_terms(c):
                assert type(poly) is dict and all(poly.values()), (field, poly)


@pytest.mark.parametrize("field", DICT_FIELDS, ids=repr)
def test_dict_expansion_equals_sequential_reference(field):
    rng = random.Random(f"dict-expand:{field!r}")
    degrees, repeats = set(), 0
    for _ in range(60):
        c = _random_dict_circuit(rng, field, rng.randrange(1, 5), rng.randrange(1, 5), 6)
        assert _expand_terms(c) == sequential_dict_expand(c)
        degrees.update(c.degrees)
        repeats += len(set(c.all_forms())) < len(c.all_forms())
    assert degrees == set(range(7)) and repeats >= 20


def _planted_zero_circuit(rng, field, n):
    """Six shuffled terms: a random pair identity, the three-term identity
    c(a + b)P - caP - cbP for random forms a, b and a random product P, and
    one random term. The pair, the triple and their union sum to zero."""
    pair = random_pair_identity(rng, field, n, rng.randrange(1, 4)).terms
    a = random_form(rng, field, n, any_element=True)
    b = random_form(rng, field, n, any_element=True)
    while form_add(a, b).is_zero:
        b = random_form(rng, field, n, any_element=True)
    prod = [random_form(rng, field, n, any_element=True) for _ in range(rng.randrange(3))]
    c = random_unit(rng, field)
    triple = [Term(field, c, [form_add(a, b), *prod]), Term(field, field.neg(c), [a, *prod]),
              Term(field, field.neg(c), [b, *prod])]
    other = Term(field, random_unit(rng, field),
                 [random_form(rng, field, n, any_element=True) for _ in range(rng.randrange(4))])
    terms = [*pair, *triple, other]
    rng.shuffle(terms)
    return Circuit(field, n, terms)


@pytest.mark.parametrize("field", DICT_FIELDS, ids=repr)
def test_subset_sums_equal_sequential_reference(field):
    rng = random.Random(f"subset-sums:{field!r}")
    verdicts = {True: 0, False: 0}
    for _ in range(15):
        planted = _planted_zero_circuit(rng, field, rng.randrange(1, 5))
        i = rng.randrange(planted.k)  # a perturbed copy: one constant changed
        t = planted.terms[i]
        coef = field.add(t.coef, random_unit(rng, field)) or t.coef
        perturbed = Circuit(field, planted.n, [*planted.terms[:i], Term(field, coef, t.forms),
                                                *planted.terms[i + 1:]])
        for c in (planted, perturbed):
            polys = _expand_terms(c)
            for m in range(1, 1 << c.k):
                q = [j for j in range(c.k) if m >> j & 1]
                got = _sums_to_zero(field, polys, q)
                assert got == sequential_sums_to_zero(field, polys, q)
                verdicts[got] += 1
    assert verdicts[True] >= 60 and verdicts[False] >= 1000


SOURCE_FIELDS = [F2, F5, F7, F8, F9]


def _joined_image(rng, field):
    """A 3-term planted identity joined with another on fresh variables, under
    a random invertible change of variables, and the coefficient vectors of
    its base forms (the first forms of each term, before the block's)."""
    n0, n1 = rng.randrange(2, 4), rng.randrange(2, 4)  # over GF(2), n = 1 plants no triple
    base = _planted(rng, field, n0, 3, rng.randrange(1, 4), 3)
    block = _planted(rng, field, n1, 3, rng.randrange(1, 3), 3)
    c = substitute(gen_joined(base, block, verify=False),
                   random_invertible(rng, field, n0 + n1))
    base_degrees = [t.degree for t in base.terms]
    base_degrees.insert(2, base_degrees[2])  # the last base term is joined twice
    return c, {f.coeffs for t, d in zip(c.terms, base_degrees) for f in t.forms[:d]}


def _source_corpus(rng, field):
    """Random circuits (repeats, single coordinates and degree-0 terms among
    them), joined identities after a change of variables, one-constant
    perturbations of both, and a circuit of rank 0; each joined image comes
    with its base forms, any other circuit with None."""
    corpus = [(make_circuit(field, 2, [(1, []), (field.neg(1), [])]), None)]
    for _ in range(30):
        corpus.append((_random_dict_circuit(rng, field, rng.randrange(1, 5),
                                            rng.randrange(1, 5), 4), None))
        corpus.append(_joined_image(rng, field))
    for c, base_forms in corpus[1:]:
        i = rng.randrange(c.k)
        t = c.terms[i]
        coef = field.add(t.coef, random_unit(rng, field)) or t.coef
        terms = [*c.terms[:i], Term(field, coef, t.forms), *c.terms[i + 1:]]
        corpus.append((Circuit(field, c.n, terms), base_forms))
    return corpus


@pytest.mark.parametrize("field", SOURCE_FIELDS, ids=repr)
def test_expansion_over_sources_keeps_every_subset_verdict(field):
    rng = random.Random(f"sources:{field!r}")
    verdicts, brute, ranks, sparse = {True: 0, False: 0}, 0, set(), 0
    for c, base_forms in _source_corpus(rng, field):
        basis = sps.circuit.form_basis(c)
        sources, r = basis.sources, basis.rank
        ranks.add(r)
        # the sources are the circuit's first r independent forms, in order
        forms = [f.coeffs for f in c.all_forms()]
        assert len(sources) == r == SpanBasis.from_vectors(field, c.n, sources).rank
        picked = []
        for v in forms:
            if SpanBasis.from_vectors(field, c.n, picked + [v]).rank > len(picked):
                picked.append(v)
        assert list(sources) == picked
        # sum_j b_j * source_j is every form, in plain Field arithmetic
        coords = _source_coordinates(c)
        assert coords.keys() == set(forms)
        for v, b in coords.items():
            assert len(b) == r
            got = [0] * c.n
            for bj, src in zip(b, sources):
                got = [field.add(x, field.mul(bj, s)) for x, s in zip(got, src)]
            assert tuple(got) == v
        if base_forms is not None:  # a form reads only its own block's sources
            on_base = [s in base_forms for s in sources]
            for v, b in coords.items():
                assert all(on_base[j] == (v in base_forms) for j, x in enumerate(b) if x)
            sparse += 1
        polys, former = _expand_terms(c), echelon_expand(c)
        small = math.prod(sum(map(bool, f.coeffs)) for f in c.all_forms()) <= 2000
        brute += small
        for m in range(1, 1 << c.k):
            q = [j for j in range(c.k) if m >> j & 1]
            got = _sums_to_zero(field, polys, q)
            assert got == _sums_to_zero(field, former, q)
            if small:
                assert got == (not brute_expand(subcircuit(c, q)))
            verdicts[got] += 1
    assert 0 in ranks and verdicts[True] >= 31 and verdicts[False] >= 1000
    assert brute >= 50 and sparse == 60


def _join_corpus(rng, field):
    """(circuit, zero) pairs over the field, zero True where the construction
    makes the circuit an identity and None where it says nothing: a pair
    identity, a planted triple or the vanishing-product identity joined once or twice with planted triples, under a random
    invertible change of variables, each also with a degree-0 term, a term
    holding some of a term's forms (so reading some of the blocks), a term
    repeating a form, and a term whose one form reads two blocks, which
    merges them; over GF(2) also the single-block gen_ks(3..5)."""
    corpus = [(gen_ks(r), True) for r in (3, 4, 5)] if field is F2 else []
    bases = [partial(random_pair_identity, d=2), partial(planted_triple, d=2),
             vanishing_identity]
    for _ in range(4):
        for base in bases:
            c = base(rng, field, rng.randrange(2, 4))
            for _ in range(rng.randrange(1, 3)):
                c = gen_joined(c, planted_triple(rng, field, 2, rng.randrange(1, 3)),
                               verify=False)
            c = substitute(c, random_invertible(rng, field, c.n))
            forms = c.terms[0].forms  # its first form is the base's, its last a block's
            unit = partial(random_unit, rng, field)
            extra = [Term(field, unit(), []),
                     Term(field, unit(), rng.sample(forms, rng.randrange(1, len(forms)))),
                     Term(field, unit(), [forms[0], forms[0], forms[-1]]),
                     Term(field, unit(), [form_add(forms[0], forms[-1])])]
            corpus.append((c, True))
            corpus += [(Circuit(field, c.n, [*c.terms, t]), None) for t in extra]
    return corpus


@pytest.mark.parametrize("field", SOURCE_FIELDS, ids=repr)
def test_block_expansion_equals_sequential_reference_on_joins(field):
    rng = random.Random(f"blocks:{field!r}")
    sequential = sequential_gf2_expand if field is F2 else sequential_dict_expand
    exact = ZeroOracle("exact")
    counts = Counter()
    for c, zero in _join_corpus(rng, field):
        blocks = len(set(sps.circuit._source_blocks(_source_coordinates(c)).values()))
        counts[f"blocks {min(blocks, 3)}"] += 1
        polys = _expand_terms(c)
        assert polys == sequential(c)
        values = TermValues(c.k, partial(_sums_to_zero, field, polys))
        if zero is not None:
            assert values.is_zero() is zero
        minimal = values.is_minimal()
        assert minimal == subset_reference(c, exact)
        counts[minimal] += 1
        if zero and blocks > 1:  # a form reading a join's two blocks merges them
            merged = Circuit(field, c.n, [*c.terms, Term(field, 1, [
                form_add(c.terms[0].forms[0], c.terms[0].forms[-1])])])
            coordinates = _source_coordinates(merged)
            assert len(set(sps.circuit._source_blocks(coordinates).values())) < blocks
    assert counts["blocks 3"] >= 25 and counts["blocks 2"] + counts["blocks 3"] >= 50
    assert counts[True] >= 10 and counts[False] >= 30
    if field is F2:  # gen_ks is one block
        assert counts["blocks 1"] >= 3


@pytest.mark.parametrize("p, e, joins, most", [(5, 1, 2, 747), (3, 2, 1, 635)])
def test_block_expansion_work_on_joins(p, e, joins, most, monkeypatch):
    # coefficient products of the dict kernel, len(poly) * len(form) per
    # Field.mul_by_form call, on check-exact's dense joins: expanding each
    # block on its own and multiplying the block polynomials last does at
    # most this; one running product over all forms did 1844 and 1694
    bench = load_bench("instances")
    work = []
    mul_by_form = Field.mul_by_form

    def counted(self, poly, form):
        work.append(len(poly) * len(form))
        return mul_by_form(self, poly, form)

    for seed in range(3):
        rng = random.Random(seed)
        c = loads_circuit(bench.canon(
            bench.change_variables(bench.joined_identity(sps, p, e, joins), rng)))
        with monkeypatch.context() as m:
            m.setattr(Field, "mul_by_form", counted)
            polys = _expand_terms(c)
        assert sum(work) <= most
        assert polys == sequential_dict_expand(c)
        work.clear()


def test_form_basis_keeps_no_record_per_vector():
    # a circuit's cached form basis lives as long as the circuit: building it
    # from every form, and the verdicts and coordinates that read it, leave
    # no running remainder of any vector on it
    ks = gen_ks(13)
    values = ZeroOracle().term_values(ks)
    assert values.is_zero() and values.is_minimal()
    bench = load_bench("instances")
    obj = bench.change_variables(bench.joined_identity(sps, 5, 1, 2), random.Random(1))
    vp = loads_circuit(bench.canon(obj))
    assert zero_test_exact(vp)
    for c in (ks, vp):
        assert sps.circuit.form_basis(c)._rest == {}


@pytest.mark.parametrize("workload, kind, distinct", [
    ("check-random", "vp-7^1-j3", 32), ("check-random", "vp-5^1-j3", None),
    ("check-exact", "vp-2^3-j1", None), ("check-exact", "vp-3^2-j1", None),
])
def test_form_keys_keys_each_distinct_vector_once(workload, kind, distinct, monkeypatch):
    # over a field with more than two elements a repeated coefficient vector
    # is keyed once (vp-7^1-j3: 144 forms, 32 vectors), and the keys are
    # those of keying every form on its own
    bench = load_bench("instances")
    instance = bench.kinds(workload)[kind][1](sps, random.Random(7), None)
    c = loads_circuit(instance.stdin)
    vectors = {f.coeffs for f in c.all_forms()}
    calls = []
    original = sps.circuit.similarity_key
    monkeypatch.setattr(sps.circuit, "similarity_key", lambda f: calls.append(f) or original(f))
    keys = form_keys(c)
    assert len(calls) == len(vectors) < len(c.all_forms())
    assert distinct is None or len(calls) == distinct
    assert keys == tuple(tuple(map(original, t.forms)) for t in c.terms)


def test_exact_budget_refusal(monkeypatch):
    monkeypatch.setattr(sps.circuit, "EXPANSION_BUDGET", 1000)
    with pytest.raises(BudgetExceededError):
        zero_test_exact(gen_ks(8))
    monkeypatch.undo()  # the constant 10^7 refuses ks8's 3,989,672,115 too
    with pytest.raises(BudgetExceededError, match="budget 10000000"):
        zero_test_exact(gen_ks(8))


def test_budget_ignores_the_environment(monkeypatch):
    # the budget is read from the module constant at call time; SPS_BUDGET,
    # once an override, changes nothing
    monkeypatch.setenv("SPS_BUDGET", "1")
    assert zero_test_exact(gen_ks(4))
    monkeypatch.setattr(sps.circuit, "EXPANSION_BUDGET", 1)
    with pytest.raises(BudgetExceededError, match="budget 1$"):
        zero_test_exact(gen_ks(4))


def _divisibility_applies(c):
    """Whether the divisibility rung should decide c: k = 2, or k = 3 terms
    of one degree d >= 1 with a squarefree term whose classes miss some
    form of the others."""
    keys = form_keys(c)
    classes = [set(ks) for ks in keys]
    if c.k == 2:
        return True
    return (c.k == 3 and len(set(c.degrees)) == 1 and c.degree >= 1
            and any(len(cl) == len(ks) and set().union(*classes) - cl
                    for cl, ks in zip(classes, keys)))


def _divisibility_corpus(rng, field):
    """(circuits, fallbacks) over the field. circuits: planted three-term
    identities, the vanishing-product identity, k = 2 pairs and random
    triples, each rescaled and with a perturbed copy, and triples where a
    term vanishes mod a form of the squarefree term. fallbacks: one circuit
    per case the rung leaves to expansion."""
    one = field.one
    circuits, fallbacks = [], []
    for _ in range(6):
        n = rng.randrange(2, 5)
        for c in (planted_triple(rng, field, n, rng.randrange(1, 4)),
                  vanishing_identity(rng, field, n),
                  random_pair_identity(rng, field, n, rng.randrange(0, 4)),
                  random_circuit(rng, field, n, 2, rng.randrange(1, 3), any_element=True),
                  random_circuit(rng, field, n, 3, rng.randrange(1, 3), any_element=True)):
            circuits += [c, rescaled(rng, c), perturbed(rng, c)]
        x, y = random_form(rng, field, n), random_form(rng, field, n)
        while similarity_key(x) == similarity_key(y):
            y = random_form(rng, field, n)
        u, v = random_unit(rng, field), random_unit(rng, field)
        # a term vanishing mod the form x of the squarefree term x*y
        circuits.append(Circuit(field, n, [Term(field, one, [x, y]), Term(field, u, [x, x]),
                                           Term(field, v, [y, y])]))
        # no squarefree term: P = h^2 in every term of a planted identity
        repeated = planted_triple(rng, field, n, 3, repeat=True)
        # mixed degrees, and three constants summing to zero (degree 0)
        mixed = Circuit(field, n, [Term(field, one, [x, y]), Term(field, field.neg(one), [y, x]),
                                   Term(field, one, [x])])
        constants = Circuit(field, n, [Term(field, u, []), Term(field, v, []),
                                       Term(field, field.neg(field.add(u, v)) or one, [])])
        # no witness: every form of the others is similar to one of x*y's;
        # (1 + u*v + 1) * x*y is zero when u*v = -2
        witnessless = Circuit(field, n, [Term(field, one, [x, y]),
                                         Term(field, one, [x.scale(u), y.scale(v)]),
                                         Term(field, one, [y, x])])
        fallbacks += [repeated, mixed, constants, witnessless]
    return circuits, fallbacks


@pytest.mark.parametrize("field", [F2, F5, F7, F8, F9], ids=repr)
def test_divisibility_rung_agrees_with_expansion(field):
    rng = random.Random(f"divisibility:{field!r}")
    expand_subsets = SimpleNamespace(is_zero=zero_test_exact)
    circuits, fallbacks = _divisibility_corpus(rng, field)
    assert not any(map(_divisibility_applies, fallbacks))
    verdicts = Counter()  # (k, zero) over the circuits the rung decides
    for c in circuits + fallbacks:
        rung = sps.circuit._divisibility_rung(c)
        assert (rung is not None) == _divisibility_applies(c), c
        polys = _expand_terms(c)
        values = ZeroOracle("exact").term_values(c)
        zero = _sums_to_zero(field, polys, range(c.k))
        assert values.is_zero() == zero == zero_test_exact(c)
        assert values.is_minimal() == subset_reference(c, expand_subsets)
        if rung is not None:
            _, sums = rung
            for q in (q for size in (2, 3) for q in itertools.combinations(range(c.k), size)):
                assert sums(q) == _sums_to_zero(field, polys, q), (c, q)
            verdicts[c.k, zero] += 1
    assert min(verdicts[k, zero] for k in (2, 3) for zero in (True, False)) >= 10, verdicts


def test_zero_test_random_soundness_and_agreement():
    rng = random.Random(29)
    # identities: always reported zero, any seed
    for seed in (0, 1, 12345):
        assert ZeroOracle("random", trials=10, seed=seed).is_zero(gen_ks(4))
    # agreement with the exact oracle on seeded random circuits
    for i in range(100):
        field = F2 if i % 2 else F5
        c = (
            random_pair_identity(rng, field, 3, rng.randrange(1, 4))
            if i % 3 == 0
            else random_circuit(rng, field, rng.randrange(1, 4), rng.randrange(1, 4),
                                rng.randrange(1, 4))
        )
        assert ZeroOracle("random", trials=20, seed=i).is_zero(c) == zero_test_exact(c)


def test_zero_test_random_stops_at_first_nonzero_trial(monkeypatch):
    trials = count_trials(monkeypatch)
    # nonzero: the first trial decides, the other 19 are never evaluated
    assert not ZeroOracle("random").is_zero(subcircuit(gen_ks(4), [0, 1]))
    assert [seed for seed, _ in trials] == ["0:0"]
    trials.clear()
    # zero: each trial once, in characteristic 2 (GF(2^4)) and odd (GF(5))
    assert ZeroOracle("random").is_zero(gen_ks(4))
    assert [seed for seed, _ in trials] == [f"0:{t}" for t in range(20)]
    x = LinearForm(F5, [1, 0])
    for nonzero, want in ((3, ["1:0"]), (4, [f"1:{t}" for t in range(20)])):
        trials.clear()
        c = Circuit(F5, 2, [Term(F5, 1, [x]), Term(F5, nonzero, [x])])
        assert ZeroOracle("random", seed=1).is_zero(c) == (nonzero == 4)
        assert [seed for seed, _ in trials] == want


def test_zero_oracle_checks_trials_when_built():
    # at construction, whichever oracle would answer: ks3 is answered exactly
    for trials in (0, MAX_TRIALS + 1, -1, True, 2.0, "3", None):
        with pytest.raises(ValueError, match=r"trials must be in \[1, 128\]"):
            ZeroOracle("auto", trials=trials)
    for trials in (1, MAX_TRIALS):
        assert ZeroOracle("auto", trials=trials).is_zero(gen_ks(3))
        assert ZeroOracle("random", trials=trials).is_zero(gen_ks(9))


def test_random_oracle_lifts_prime_fields_and_refuses_extension_fields():
    # GF(2) with d = 64 evaluates over GF(2^9), the least 2^m > 4d
    assert ZeroOracle("random", trials=40, seed=3).is_zero(gen_ks(8))
    # GF(3^2) with d = 8: |F| = 9 <= 2d, and an extension field is not lifted
    x, y = [1, 0], [0, 1]
    c = make_circuit(field_make(3, 2), 2, [(1, [x] * 8), (1, [y] * 8), (2, [x] * 4 + [y] * 4)])
    with pytest.raises(OracleRefusalError, match="cannot lift"):
        ZeroOracle("random").is_zero(c)


def _odd_characteristic_corpus(rng):
    """The vanishing-product identity over GF(5) and GF(7), whose degree
    q - 1 makes the random oracle lift it, joined 0-2 times with copies of
    itself, each also under a random change of variables, and a perturbed
    copy of each; then the non-simple and non-minimal counterexamples over
    GF(1009) and GF(65521)."""
    corpus = []
    for field in (F5, F7):
        for joins in range(3):
            c = vanishing_identity(rng, field, 2)
            for _ in range(joins):
                c = gen_joined(c, vanishing_identity(rng, field, 2), verify=False)
            corpus += [c, substitute(c, random_invertible(rng, field, c.n))]
    corpus += [perturbed(rng, c) for c in corpus]
    for p in (1009, 65521):
        for d in (2, 3):
            corpus += gen_intro_counterexamples(d, p)
    return corpus


def test_random_oracle_agrees_with_exact_beyond_gf2():
    # every packed pass here is in odd characteristic, over a lift GF(5^m),
    # GF(7^m) or a large prime field, with 39 or 127 trials after trial 0
    verdicts = Counter()
    for c in _odd_characteristic_corpus(random.Random(35)):
        exact = ZeroOracle("exact").term_values(c)
        want = exact.is_zero(), exact.is_minimal()
        verdicts[want] += 1
        for trials, seed in itertools.product((40, MAX_TRIALS), (0, 7)):
            got = ZeroOracle("random", trials=trials, seed=seed).term_values(c)
            assert (got.is_zero(), got.is_minimal()) == want, (c, trials, seed)
    assert verdicts[True, True] and verdicts[True, False] and verdicts[False, True], verdicts


def _chunky_circuit(rng, field, n, k, d):
    """k terms of degree d whose forms are zero on whole chunks of 8
    coordinates with probability 1/2 each, repeat an earlier form with
    probability 1/4, and carry constants other than 1."""
    pool = []
    terms = []
    for _ in range(k):
        forms = []
        while len(forms) < d:
            if pool and rng.random() < 0.25:
                forms.append(rng.choice(pool))
                continue
            coeffs = [field.rand_element(rng) for _ in range(n)]
            for start in range(0, n, 8):
                if rng.random() < 0.5:
                    coeffs[start:start + 8] = [0] * len(coeffs[start:start + 8])
            if any(coeffs):
                pool.append(LinearForm(field, coeffs))
                forms.append(pool[-1])
        terms.append(Term(field, random_unit(rng, field), forms))
    return Circuit(field, n, terms)


# (circuit field, evaluation field): each field in itself, GF(2^64 - 59)
# among them, whose lane fields are wider than 64 bits; lifts, one to GF(3^5)
# with five digits a lane; and two evaluation fields small enough that forms
# and products vanish often
EVALUATIONS = [(F2, F2), (F5, F5), (F7, F7), (F8, F8), (F9, F9),
               (field_make(1009), field_make(1009)),
               (F2, field_make(2, 9)), (F5, field_make(5, 3)), (F7, field_make(7, 3)),
               (F2, field_make(2, 2)), (field_make(3), field_make(3)),
               (F2, field_make(2, 17)), (field_make(2**64 - 59), field_make(2**64 - 59)),
               (field_make(3), field_make(3, 5))]


def test_term_values_match_reference():
    # trial 0 alone, then trials 1..T-1 in one call: the packed-lane pass in
    # every characteristic, with T up to MAX_TRIALS; GF(2^17) fills lanes
    # above 16 bits, GF(2^64 - 59) needs fields wider than 64 bits, GF(3^5)
    # packs 5 digits a lane, and GF(2), GF(2^2) make forms and products vanish
    rng = random.Random(1970)
    zeros = {2: 0, "odd": 0}
    for field, ev in EVALUATIONS:
        for n in range(1, 21):
            c = _chunky_circuit(rng, field, n, rng.randrange(1, 4), rng.randrange(1, 5))
            plan = _EvalPlan(c)
            stop = MAX_TRIALS if n % 5 == 0 else rng.randrange(2, 41)
            for trials in (range(0, 1), range(1, stop)):
                got = _term_values(plan, ev, n, trials)
                want = [reference_term_values(c, ev, random.Random(f"{n}:{t}"))
                        for t in trials]
                assert got == want, (field, ev, n, trials)
                zeros[2 if ev.p == 2 else "odd"] += sum(v.count(0) for v in want)
    assert all(zeros.values())  # the zero-product path ran, packed and not


def test_packed_products_of_zero_lanes_match_one_point_at_a_time():
    # d = 2 lifts GF(2) to GF(2^4), where each form vanishes at one point in
    # 16: every term is 0 in some trials' lanes and not in others, so the
    # product's log of 0 is summed along with nonzero logs
    c = make_circuit(F2, 3, [(1, [[1, 0, 0], [0, 1, 1]]), (1, [[1, 1, 0], [0, 0, 1]]),
                             (1, [[1, 0, 1], [0, 1, 0]])])
    plan, ev = _EvalPlan(c), field_make(2, 4)
    got = _term_values(plan, ev, 5, range(1, 40))
    assert got == [reference_term_values(c, ev, random.Random(f"5:{t}")) for t in range(1, 40)]
    assert [sum(v == 0 for v in term) for term in zip(*got)] == [2, 4, 4]


def test_degree_0_gf2_products_take_no_log():
    # with d = 0 the evaluation field is GF(2) itself, which has no log table
    c = make_circuit(F2, 2, [(1, []), (1, [])])
    plan = _EvalPlan(c)
    assert _term_values(plan, F2, 0, range(1, 40)) == [[1, 1]] * 39
    assert _term_values(plan, F2, 0, range(0, 1)) == [[1, 1]]
    assert ZeroOracle("random", trials=40).is_zero(c)


def _counted_field_calls(monkeypatch, evaluate):
    """Field.add + Field.mul calls made by evaluate()."""
    calls = []
    for name in ("add", "mul"):
        original = getattr(Field, name)

        def counted(self, a, b, original=original):
            calls.append(None)
            return original(self, a, b)

        monkeypatch.setattr(Field, name, counted)
    evaluate()
    monkeypatch.undo()
    return len(calls)


def _field_work(monkeypatch, c, plan, ev, trials):
    """Field.add + Field.mul calls of the kernel and of the reference on the
    seeded trials: (kernel per trial alone, kernel on all of them in one
    call, reference per trial)."""
    def count(evaluate):
        return _counted_field_calls(monkeypatch, evaluate)

    alone = [count(lambda: _term_values(plan, ev, 0, range(t, t + 1))) for t in range(trials)]
    batched = count(lambda: _term_values(plan, ev, 0, range(trials)))
    ref = [count(lambda: reference_term_values(c, ev, random.Random(f"0:{t}")))
           for t in range(trials)]
    return alone, batched, ref


def test_term_values_do_less_field_work_than_reference(monkeypatch):
    # ks12 in its lift field: 270 distinct chunk slices stand in for 3,072
    # forms, and forms and products go through the batch methods
    c = gen_ks(12)
    alone, batched, ref = _field_work(monkeypatch, c, _EvalPlan(c), field_make(2, 13), 3)
    assert all(8 * a <= b for a, b in zip(alone, ref)), (alone, ref)
    assert 8 * batched <= min(ref) * 3, (batched, ref)
    # wide sparse forms pay for their nonzero coordinates, not for every chunk
    rng = random.Random(64)
    terms = []
    for _ in range(4):
        forms = []
        for _ in range(4):
            coeffs = [0] * 64
            for j in rng.sample(range(64), rng.choice([1, 2])):
                coeffs[j] = random_unit(rng, F9)
            forms.append(LinearForm(F9, coeffs))
        terms.append(Term(F9, random_unit(rng, F9), forms))
    c = Circuit(F9, 64, terms)
    alone, batched, ref = _field_work(monkeypatch, c, _EvalPlan(c), F9, 10)
    assert all(a <= b for a, b in zip(alone, ref)), (alone, ref)
    # the packed pass multiplies lanes through Field.mul only for coefficients
    # outside GF(3), and adds no lanes through Field.add, however many lanes
    assert batched == sum(alone) < sum(ref), (batched, alone, ref)


def test_is_simple_examples():
    xs = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert not is_simple(make_circuit(F5, 3, [(1, xs), (4, xs)]))
    assert is_simple(gen_ks(3))
    assert not is_simple(make_circuit(F5, 2, [(1, [[1, 0], [0, 1]])]))


def test_is_minimal_examples():
    assert is_minimal(gen_ks(4))
    # T2 = -T1: the only proper subsets are singletons, so minimal
    xs = [[1, 0], [0, 1]]
    assert is_minimal(make_circuit(F5, 2, [(1, xs), (4, xs)]))
    # two cancelling pairs: non-minimal
    four = make_circuit(
        F5,
        4,
        [
            (1, [[1, 0, 0, 0], [0, 1, 0, 0]]),
            (4, [[1, 0, 0, 0], [0, 1, 0, 0]]),
            (1, [[0, 0, 1, 0], [0, 0, 0, 1]]),
            (4, [[0, 0, 1, 0], [0, 0, 0, 1]]),
        ],
    )
    assert not is_minimal(four)
    with pytest.raises(OracleRefusalError):
        is_minimal(random_circuit(random.Random(0), F2, 2, 17, 1))


def _minimal_by_reference(c):
    """No proper subcircuit of >= 2 terms expands to zero (brute force)."""
    return not any(
        not brute_expand(subcircuit(c, q))
        for size in range(2, c.k)
        for q in itertools.combinations(range(c.k), size)
    )


def test_is_minimal_matches_subset_reference(monkeypatch):
    rng = random.Random(41)
    exact, auto = ZeroOracle("exact"), ZeroOracle("auto")
    # every field here is larger than 2d or a prime field, so no lift is refused
    rand = ZeroOracle("random", trials=20, seed=41)
    for field in (F2, F5, F8, F9):
        cases = []
        for k in range(2, 6):
            for size in sorted({0, 2, min(3, k), k - 1, k} - {1}):
                for _ in range(3):
                    cases.append(_planted(rng, field, rng.randrange(2, 5), k,
                                          rng.randrange(1, 4), size))
        if field is F2:
            # gen_ks(3) is a vanishing triple; one or two extra terms
            for extra in (1, 1, 2, 2):
                more = random_circuit(rng, F2, 3, extra, 2)
                cases.append(Circuit(F2, 3, gen_ks(3).terms + more.terms))
        verdicts = set()
        for c in cases:
            want = _minimal_by_reference(c)
            assert exact_cost_bound(c) <= auto.auto_budget
            assert exact.term_values(c).is_minimal() == want
            assert is_minimal(c) == auto.term_values(c).is_minimal() == want
            assert rand.term_values(c).is_minimal() == want
            verdicts.add(want)
        assert verdicts == {True, False}, field
    monkeypatch.setattr(sps.circuit, "EXPANSION_BUDGET", 10)
    with pytest.raises(BudgetExceededError):
        exact.term_values(gen_ks(5)).is_minimal()


def _mixed_degrees(rng, field, n, k, size):
    """_planted with `size` planted terms of one degree and the other k - size
    terms of random degrees 1..3."""
    planted = _planted(rng, field, n, size, rng.randrange(1, 4), size).terms if size else ()
    extra = [random_circuit(rng, field, n, 1, rng.randrange(1, 4), any_element=True).terms[0]
             for _ in range(k - size)]
    terms = [*planted, *extra]
    rng.shuffle(terms)
    return Circuit(field, n, terms)


def test_random_minimality_matches_subset_reference(monkeypatch):
    # the per-subset loop gave each subcircuit its own evaluation field and, in
    # auto mode, its own exact-vs-random path; is_minimal now reads every
    # subset off one set of term values in the circuit's evaluation field.
    # Degrees stay <= 3, so GF(2^3) and GF(3^2) are never asked to lift.
    rng = random.Random(43)
    monkeypatch.setattr(ZeroOracle, "auto_budget", 8)
    verdicts, own_field = set(), 0
    for i, field in enumerate([F2, F5, F7, F8, F9] * 24):
        k = rng.randrange(3, 6)
        c = _mixed_degrees(rng, field, rng.randrange(2, 5), k,
                           rng.choice([0, 2, 3, k - 1, k]))
        degrees = sorted(c.degrees)
        # the reference evaluates the two lowest-degree terms in F, not lifted
        own_field += field.order <= 2 * degrees[-1] and field.order > 2 * degrees[1]
        for oracle in (ZeroOracle("random", trials=20, seed=i),
                       ZeroOracle("auto", trials=20, seed=i)):
            want = subset_reference(c, oracle)
            assert oracle.term_values(c).is_minimal() == want, (i, field, c.degrees)
            verdicts.add(want)
    assert verdicts == {True, False}
    assert own_field >= 3


def test_subcircuit():
    ks3 = gen_ks(3)
    assert subcircuit(ks3, range(3)) == ks3
    first = subcircuit(ks3, [0])
    assert first.k == 1 and first.terms[0] == ks3.terms[0]
    pair = subcircuit(ks3, [1, 2])
    assert pair.k == 2 and pair.degree == 2
    with pytest.raises(ValueError):
        subcircuit(ks3, [])
    with pytest.raises(ValueError):
        subcircuit(ks3, [3])


def test_linear_factors_examples():
    c = make_circuit(F5, 3, [(1, [[1, 0, 0], [0, 1, 0]]), (1, [[1, 0, 0], [0, 0, 1]])])
    got = {f.coeffs for f in linear_factors(c)}
    assert got == {(1, 0, 0), (0, 1, 1)}  # x1 * (x2 + x3)

    c2 = make_circuit(F2, 3, [(1, [[1, 0, 0], [0, 1, 0]]), (1, [[0, 1, 0], [0, 0, 1]])])
    got2 = {f.coeffs for f in linear_factors(c2)}
    assert got2 == {(0, 1, 0), (1, 0, 1)}  # x2 * (x1 + x3)

    with pytest.raises(BudgetExceededError):  # 2^20 - 1 candidates, over the 10^6 cap
        linear_factors(make_circuit(F2, 20, [(1, [[1] * 20])]))


def test_linear_factors_match_term_structure():
    # a single product: every distinct normalized form is a factor
    rng = random.Random(31)
    for _ in range(20):
        c = random_circuit(rng, F5, 3, 1, 3)
        want = {similarity_key(f) for f in c.terms[0].forms}
        got = {f.coeffs for f in linear_factors(c)}
        assert got == want


def test_json_round_trip_byte_identical():
    for c in (gen_ks(3), random_circuit(random.Random(1), F5, 3, 2, 2)):
        text = dumps_circuit(c)
        again = loads_circuit(text)
        assert dumps_circuit(again) == text
        assert again == c
    # extension-field circuits serialize coefficients as arrays
    c = Circuit(F9, 2, [Term(F9, (1, 1), [LinearForm(F9, [(1, 0), (0, 1)])])])
    assert loads_circuit(dumps_circuit(c)) == c


def test_load_canonicalizes_each_element_once(monkeypatch):
    # every coefficient is a checked int, an extension one packed from its
    # digit array where it is checked; only each term constant goes through
    # Field.element, once, in Term, and through _element_from_json, whose
    # per-element pass over the forms runs only to name a bad element
    bench = load_bench("instances")
    texts = [dumps_circuit(c) for c in (
        gen_ks(4), gen_family(3, 2),
        random_circuit(random.Random(2), F5, 3, 3, 2, any_element=True),
        random_circuit(random.Random(3), F9, 3, 3, 2, any_element=True))]
    texts += [bench.canon(bench.change_variables(bench.joined_identity(sps, p, e, 1),
                                                 random.Random(1)))
              for p, e in ((5, 1), (2, 3), (3, 2))]
    calls, checks = [], []
    element, element_from_json = Field.element, sps.circuit._element_from_json

    def counted(self, x):
        calls.append(x)
        return element(self, x)

    def checked(p, e, obj):
        checks.append(obj)
        return element_from_json(p, e, obj)

    monkeypatch.setattr(Field, "element", counted)
    monkeypatch.setattr(sps.circuit, "_element_from_json", checked)
    for text in texts:
        calls.clear()
        checks.clear()
        c = loads_circuit(text)
        assert dumps_circuit(c) == text
        assert len(calls) == len(checks) == c.k


@st.composite
def _loader_bodies(draw):
    """Valid file bodies over small fields, most with one spot spoiled: an
    element out of range, negative, a bool, a float, a string or a nested
    list, a vector of the wrong length or not a list, a forms value that is
    not a list, or a bad constant."""
    p, e = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]))
    n = draw(st.integers(1, 4))
    digit = st.integers(0, p - 1)
    valid = digit if e == 1 else st.lists(digit, min_size=e, max_size=e)
    bad = st.one_of(
        st.integers(p, 3 * p), st.integers(-3 * p, -1), st.integers(2**63, 2**70),
        st.booleans(), st.floats(allow_nan=False), st.text(max_size=2),
        st.lists(st.one_of(digit, st.integers(-1, p), st.booleans(), st.lists(digit, max_size=2)),
                 max_size=e + 1),
    )
    terms = draw(st.lists(st.fixed_dictionaries({
        "coef": valid.filter(lambda c: c not in (0, [0] * e)),
        "forms": st.lists(st.lists(valid, min_size=n, max_size=n), max_size=3),
    }), min_size=1, max_size=3))
    term = draw(st.sampled_from(terms))
    spoil = draw(st.sampled_from(["none", "coef", "element", "vector", "forms"]))
    if spoil == "coef":
        term["coef"] = draw(bad)
    elif spoil == "forms":
        term["forms"] = draw(st.one_of(st.integers(), st.text(max_size=n)))
    elif term["forms"] and spoil == "element":
        draw(st.sampled_from(term["forms"]))[draw(st.integers(0, n - 1))] = draw(bad)
    elif term["forms"] and spoil == "vector":
        term["forms"][draw(st.integers(0, len(term["forms"]) - 1))] = draw(st.one_of(
            st.lists(valid, min_size=n + 1, max_size=n + 2), st.lists(valid, max_size=n - 1),
            st.integers(), st.text(max_size=n)))
    return {"p": p, "e": e, "n": n, "terms": terms}


def _load_or_refusal(obj):
    try:
        return circuit_from_dict(obj)
    except (ValueError, TypeError, KeyError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_loader_bodies())
def test_whole_vector_check_loads_as_the_per_element_loop(obj):
    got = _load_or_refusal(obj)
    with mock.patch.object(sps.circuit, "_vectors_from_json", reference_vectors_from_json):
        want = _load_or_refusal(obj)
    assert type(got) is type(want) and got == want


def test_oracle_auto_mode(monkeypatch):
    monkeypatch.setattr(ZeroOracle, "auto_budget", 10)
    auto = ZeroOracle("auto", trials=10, seed=0)
    assert auto.is_zero(gen_ks(5))  # falls to the randomized path
    assert ZeroOracle("exact").is_zero(gen_ks(3))
    with pytest.raises(ValueError):
        ZeroOracle("bogus")


def _perturbed(rng, c):
    """c with one form of one term replaced by a fresh random form."""
    i = rng.randrange(c.k)
    forms = list(c.terms[i].forms)
    forms[rng.randrange(len(forms))] = random_form(rng, c.field, c.n, any_element=True)
    terms = list(c.terms)
    terms[i] = Term(c.field, c.terms[i].coef, forms)
    return Circuit(c.field, c.n, terms)


def test_one_kernel_choice_answers_is_zero_and_term_values(monkeypatch):
    """is_zero and term_values(c).is_zero() give the verdict of the one
    oracle call the mode picks, exact or random, on planted identities and
    perturbed copies over prime and extension fields."""
    rng = random.Random(2007)
    monkeypatch.setattr(ZeroOracle, "auto_budget", 12)
    oracles = [ZeroOracle("exact"), ZeroOracle("random", trials=20, seed=5),
               ZeroOracle("auto", trials=20, seed=5)]
    seen = set()
    for field in (F2, F5, F8, F9):
        for _ in range(10):
            n, k, d = rng.randrange(2, 4), rng.randrange(2, 5), rng.randrange(1, 4)
            planted = _planted(rng, field, n, k, d, rng.choice([0, 2, k]))
            for c in (planted, _perturbed(rng, planted)):
                for oracle in oracles:
                    exact = oracle.rung(c).name != "random"
                    if exact:
                        want = zero_test_exact(c)
                    else:
                        want = ZeroOracle("random", oracle.trials, oracle.seed).is_zero(c)
                    assert oracle.is_zero(c) == want
                    assert oracle.term_values(c).is_zero() == want
                    seen.add((oracle.mode, exact, want))
    assert {("auto", True), ("auto", False)} <= {(m, e) for m, e, _ in seen}
    assert {want for _, _, want in seen} == {True, False}


def test_is_zero_answers_k_over_16_and_term_values_refuses_first(monkeypatch):
    x1 = LinearForm(F5, [1, 0])
    ones = [Term(F5, 1, [x1])] * 16
    zero = Circuit(F5, 2, ones + [Term(F5, 4, [x1])])      # 16 + 4 = 0 mod 5
    nonzero = Circuit(F5, 2, ones + [Term(F5, 3, [x1])])
    for mode in ("exact", "random", "auto"):
        oracle = ZeroOracle(mode)
        assert zero.k == 17 and oracle.is_zero(zero) and not oracle.is_zero(nonzero)
    refuse_oracle_work(monkeypatch)
    for mode in ("exact", "random", "auto"):
        with pytest.raises(OracleRefusalError, match="k <= 16"):
            ZeroOracle(mode).term_values(zero)
