import random
from collections import Counter

import pytest

import sps.algebra
import sps.matching
import sps.quotient

from sps import (
    Circuit,
    FormIdeal,
    LinearForm,
    SpanBasis,
    Term,
    VerificationError,
    ZeroOracle,
    field_make,
    gcd_data,
    gen_ks,
    linear_factors,
    make_circuit,
    similar,
    similarity_key,
    simple_part,
    subcircuit,
    zero_test_exact,
)
from sps.forms import pair_is_zero_mod
from sps.quotient import is_zero_mod, reductions, sum_is_zero_mod
from helpers import (
    CountedKey,
    brute_expand,
    brute_product,
    counting_eliminate,
    dense_rows,
    form_add,
    form_sub,
    gcd_term,
    is_zero_ideal,
    linear_factors_reference,
    random_circuit,
    random_form,
    random_ideal,
    random_pair_identity,
    random_span_element,
    random_unit,
    reduce_circuit,
    refuse_oracle_work,
    verify_gcd_by_expansion,
)

F2 = field_make(2)
F3 = field_make(3)
F5 = field_make(5)
F7 = field_make(7)


def ideal(field, n, *gens):
    return FormIdeal(field, n, [LinearForm(field, g) for g in gens])


def test_form_ideal_invariants():
    with pytest.raises(ValueError, match="nonzero"):
        ideal(F5, 2, [0, 0])
    with pytest.raises(ValueError, match="linearly independent"):
        ideal(F5, 2, [1, 0], [2, 0])  # dependent generators
    # every generator is checked before the span is built, so a zero or a
    # foreign generator is reported ahead of a dependence among the others
    with pytest.raises(ValueError, match="nonzero"):
        ideal(F5, 2, [1, 0], [2, 0], [0, 0])
    with pytest.raises(ValueError, match="over the ideal's space"):
        FormIdeal(F5, 2, [LinearForm(F5, [1, 0]), LinearForm(F5, [2, 0]),
                          LinearForm(F5, [1, 0, 0])])
    z = FormIdeal(F5, 2, ())  # no generators: the zero ideal
    assert is_zero_ideal(z) and z.r == 0
    assert z.reduce_prefix(z.r, LinearForm(F5, [1, 2])).coeffs == (1, 2)


def test_extended_ideal_refuses_what_the_constructor_refuses():
    # extending by one generator checks it as the constructor checks its
    # whole generator list, with the same message; a full-rank ideal takes
    # no further generator
    base = ideal(F5, 3, [1, 0, 2], [0, 1, 1])
    bad = {
        "zero": LinearForm(F5, [0, 0, 0]),
        "wrong field": LinearForm(F7, [0, 0, 1]),
        "wrong dimension": LinearForm(F5, [0, 1]),
        "dependent": LinearForm(F5, [2, 1, 0]),
    }
    for name, g in bad.items():
        with pytest.raises(ValueError) as want:
            FormIdeal(F5, 3, base.generators + (g,))
        with pytest.raises(ValueError) as got:
            base.extended(g)
        assert str(got.value) == str(want.value), name
    full = base.extended(LinearForm(F5, [0, 0, 1]))
    with pytest.raises(ValueError, match="linearly independent"):
        full.extended(LinearForm(F5, [1, 1, 1]))
    assert base.r == 2 and full.r == 3 and full == ideal(F5, 3, [1, 0, 2], [0, 1, 1], [0, 0, 1])


def test_form_ideal_span_is_its_echelon_basis():
    i = ideal(F5, 4, [0, 2, 1, 0], [1, 3, 0, 4], [0, 1, 0, 0])
    assert i.span is i.span
    # row j is generator j with earlier pivots cleared, its own pivot 1
    assert dense_rows(i.span) == (((0, 1, 3, 0), (1, 0, 1, 4), (0, 0, 1, 0)), (1, 0, 2))


def test_linear_factors_match_substitution_reference():
    # reduction modulo (q) against substituting the pivot variable away, on
    # circuits whose terms repeat and rescale forms of a small pool
    rng = random.Random(71)
    exact = ZeroOracle("exact")
    sizes = set()
    for field in (F2, F3, F5, F7):
        for _ in range(8):
            n = rng.randrange(2, 4)
            pool = [random_form(rng, field, n) for _ in range(3)]
            terms = [
                Term(field, random_unit(rng, field),
                     [rng.choice(pool).scale(random_unit(rng, field))
                      for _ in range(rng.randrange(1, 4))])
                for _ in range(rng.randrange(1, 4))
            ]
            for c in (Circuit(field, n, terms), random_pair_identity(rng, field, n, 2)):
                want = linear_factors_reference(c, exact)
                # ZeroOracle() answers every reduction mod (q) exactly, as c's
                # own exact price is within auto_budget and reducing cannot raise it
                assert ZeroOracle().rung(c).name != "random"
                assert linear_factors(c) == want
                sizes.add(len(want))
    assert 0 in sizes and len(sizes) > 3


# linear_factors of the first two terms of gen_ks(5), recorded when
# ZeroOracle() still decided every reduction modulo (q)
KS5_PAIR_FACTORS = {(1, 0, 0, 0, 1), (1, 0, 1, 1, 1), (1, 1, 0, 1, 1), (1, 1, 1, 0, 1),
                    (0, 1, 0, 0, 1), (0, 1, 1, 1, 1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1)}


def test_linear_factors_decides_two_term_reductions_exactly(monkeypatch):
    # modulo each candidate (q) a two-term circuit keeps at most two live
    # terms, decided by unique factorization: no ZeroOracle is built or run
    pair = subcircuit(gen_ks(5), [0, 1])
    decided = []
    decide = sps.quotient.sum_is_zero_mod

    def spied(field, n, terms):
        decided.append(len(terms))
        return decide(field, n, terms)

    monkeypatch.setattr(sps.quotient, "sum_is_zero_mod", spied)
    monkeypatch.setattr(sps.quotient, "ZeroOracle", None)
    refuse_oracle_work(monkeypatch)
    assert {f.coeffs for f in linear_factors(pair)} == KS5_PAIR_FACTORS
    assert decided == [2] * (2**5 - 1)  # one decision per candidate


def test_reduce_form_examples():
    i3 = ideal(F5, 3, [0, 0, 1])
    assert i3.reduce_prefix(i3.r, LinearForm(F5, [1, 0, 1])).coeffs == (1, 0, 0)
    assert i3.reduce_prefix(i3.r, LinearForm(F5, [0, 0, 1])).is_zero
    isum = ideal(F5, 3, [1, 1, 1])
    red = isum.reduce_prefix(isum.r, LinearForm(F5, [1, 1, 0]))
    assert red.coeffs == (0, 0, 4)
    # the difference went into the span
    assert isum.span.contains(form_sub(LinearForm(F5, [1, 1, 0]), red).coeffs)


def test_similar_mod_examples():
    # f = c*g modulo the ideal, decided on the reduced representatives
    i3 = ideal(F5, 3, [0, 0, 1])

    def similar_mod(f, g):
        f, g = (i3.reduce_prefix(i3.r, LinearForm(F5, x)) for x in (f, g))
        return similar(f, g)

    assert similar_mod([0, 1, 1], [0, 1, 0]) == 1
    assert similar_mod([0, 2, 1], [0, 1, 0]) == 2
    assert similar_mod([1, 0, 0], [0, 1, 0]) is None
    # degenerate: both in the span reduce to zero, scalar 1 by convention
    assert similar_mod([0, 0, 2], [0, 0, 3]) == 1


def test_is_regular_examples():
    # a circuit is regular mod the ideal when no form lies in its span, which
    # reductions reports by returning None
    c = make_circuit(F5, 3, [(1, [[1, 0, 0], [0, 1, 0]])])
    assert reductions(c.all_forms(), ideal(F5, 3, [1, 0, 0])) is None
    c2 = make_circuit(F5, 3, [(1, [[1, 1, 0], [0, 1, 0]])])
    assert reductions(c2.all_forms(), ideal(F5, 3, [1, 0, 0])) is not None
    ks = gen_ks(3)
    assert reductions(subcircuit(ks, [1, 2]).all_forms(), ideal(F2, 3, [1, 0, 0])) is not None


def test_gcd_data_worked_example_f7():
    c = make_circuit(F7, 3, [(2, [[1, 0, 0], [0, 1, 1]]), (3, [[1, 0, 1], [0, 1, 0]])])
    i3 = ideal(F7, 3, [0, 0, 1])
    gd = gcd_data(c, i3)
    assert [f.coeffs for f in gd.matchings[0].domain] == [(1, 0, 0), (0, 1, 1)]
    assert gd.matchings[0].codomain == c.terms[0].forms  # identity matching on T1
    assert [f.coeffs for f in gd.matchings[1].codomain] == [(1, 0, 1), (0, 1, 0)]
    assert gd.matchings[0].scaling_factor() == 1
    assert gd.matchings[1].scaling_factor() == 1
    sim = gd.sim
    assert [t.degree for t in sim.terms] == [0, 0]
    assert sorted(t.coef for t in sim.terms) == [2, 3]
    # M(U_2) = sc * M(U) mod I, by expansion
    left = brute_product(F7, 3, [i3.reduce_prefix(i3.r, f) for f in gd.matchings[1].codomain])
    right = brute_product(F7, 3, [i3.reduce_prefix(i3.r, f) for f in gd.matchings[1].domain])
    assert left == right


def test_gcd_data_zero_ideal_and_coprime():
    xs = [[1, 0], [0, 1]]
    c = make_circuit(F5, 2, [(1, xs), (4, xs)])
    gd = gcd_data(c, FormIdeal(F5, 2, ()))
    assert len(gd.matchings[0].domain) == 2
    assert all(t.degree == 0 for t in gd.sim.terms)

    cop = make_circuit(F5, 2, [(1, [[1, 0]]), (2, [[0, 1]])])
    gd2 = gcd_data(cop, FormIdeal(F5, 2, ()))
    assert gd2.matchings[0].domain == ()
    assert gcd_term(gd2) is None
    assert [t.coef for t in gd2.sim.terms] == [1, 2]  # sim = C_Q up to constants

    with pytest.raises(ValueError):
        gcd_data(make_circuit(F5, 2, [(1, [[1, 0]])]), ideal(F5, 2, [1, 0]))


def test_simple_part_examples():
    ks = gen_ks(3)
    sub = subcircuit(ks, [1, 2])
    i1 = ideal(F2, 3, [1, 0, 0])
    sim = simple_part(sub, i1)
    assert all(t.degree == 0 for t in sim.terms)
    assert is_zero_mod(sim, i1)  # 1 + 1 = 0 over GF(2)

    # already coprime terms: sim is the whole circuit, scaling factors 1
    cop = make_circuit(F5, 3, [(1, [[1, 0, 0]]), (2, [[0, 1, 0]])])
    sim2 = simple_part(cop, ideal(F5, 3, [0, 0, 1]))
    assert sim2 == cop


def _random_regular_instance(rng, plant=True):
    n = rng.randrange(2, 6)
    r = rng.randrange(1, min(3, n - 1) + 1)  # keep sp(I) a proper subspace
    ideal_ = random_ideal(rng, F5, n, r)
    k = rng.randrange(2, 4)
    shared = [random_form(rng, F5, n, avoid_span=ideal_.span)
              for _ in range(rng.randrange(0, 3) if plant else 0)]
    terms = []
    for _ in range(k):
        forms = []
        for base in shared:
            c = random_unit(rng, F5)
            w = LinearForm(F5, [0] * n)
            for g in ideal_.generators:
                w = form_add(w, g.scale(rng.randrange(5)))
            cand = form_add(base.scale(c), w)
            if ideal_.span.contains(cand.coeffs):
                cand = base.scale(c)
            forms.append(cand)
        for _ in range(rng.randrange(0, 3)):
            forms.append(random_form(rng, F5, n, avoid_span=ideal_.span))
        if not forms:
            forms.append(random_form(rng, F5, n, avoid_span=ideal_.span))
        terms.append(Term(F5, random_unit(rng, F5), forms))
    return Circuit(F5, n, terms), ideal_


def test_gcd_times_sim_recovers_subcircuit():
    # C_Q = gcd * sim modulo the ideal: red(C) - sum_q coef_q * M(red U) * M(red sim_q)
    # expands to zero (every reduced form stays nonzero on regular instances)
    rng = random.Random(77)
    for _ in range(50):
        c, ideal_ = _random_regular_instance(rng)
        gd = gcd_data(c, ideal_)
        verify_gcd_by_expansion(gd)
        red_c = reduce_circuit(c, ideal_)
        assert red_c is not None  # regular instances never vanish
        red_u = [ideal_.reduce_prefix(ideal_.r, f) for f in gd.matchings[0].domain]
        products = [
            Term(F5, F5.neg(s.coef), red_u + [ideal_.reduce_prefix(ideal_.r, f) for f in s.forms])
            for s in gd.sim.terms
        ]
        assert not brute_expand(Circuit(F5, c.n, list(red_c.terms) + products))


def test_gcd_data_deterministic():
    rng = random.Random(123)
    for _ in range(20):
        c, ideal_ = _random_regular_instance(rng)
        a, b = (gcd_data(c, ideal_) for _ in range(2))
        assert a.u_positions == b.u_positions and a.sim == b.sim
        assert ([(m.domain, m.codomain, m.sigma, m.edges) for m in a.matchings.values()]
                == [(m.domain, m.codomain, m.sigma, m.edges) for m in b.matchings.values()])


def test_orthogonal_ideal_zero_promotion():
    # a circuit with forms inside sp(I1), zero mod an orthogonal I2, is zero
    rng = random.Random(55)
    for _ in range(40):
        n = 5
        i1 = random_ideal(rng, F5, n, 2)
        # build I2 orthogonal to I1
        span = SpanBasis.from_vectors(F5, n, [g.coeffs for g in i1.generators])
        gens2 = []
        while len(gens2) < 2:
            g = random_form(rng, F5, n, avoid_span=span)
            span.insert(g.coeffs)
            gens2.append(g)
        i2 = FormIdeal(F5, n, gens2)
        base = [
            LinearForm(F5, i1.generators[0].coeffs),
            LinearForm(F5, i1.generators[1].coeffs),
        ]
        make_zero = rng.random() < 0.5
        t1 = Term(F5, 1, [base[0], base[1]])
        t2 = Term(F5, 4 if make_zero else 3, [base[0], base[1]])
        d = Circuit(F5, n, [t1, t2])
        if is_zero_mod(d, i2):
            assert zero_test_exact(d)
            assert ZeroOracle("random", seed=9).is_zero(d)


def test_sim_membership_characterizes_unbalanced_classes():
    # a class appears in sim(C_Q) iff two terms carry it with different
    # multiplicity; checked exhaustively over all normalized forms
    rng = random.Random(91)
    for _ in range(40):
        n = rng.randrange(2, 4)
        c = random_circuit(rng, F5, n, rng.randrange(2, 4), rng.randrange(1, 4))
        gd = gcd_data(c, FormIdeal(F5, n, ()))
        sim_keys = {similarity_key(f) for t in gd.sim.terms for f in t.forms}
        import itertools

        for piv in range(n):
            for tail in itertools.product(range(5), repeat=n - piv - 1):
                key = (0,) * piv + (1,) + tail  # the normalized form's key
                counts = {
                    sum(similarity_key(f) == key for f in t.forms) for t in c.terms
                }
                assert (key in sim_keys) == (len(counts) > 1)


def test_sim_span_monotone_under_subsets_and_unions():
    rng = random.Random(101)
    from sps import SpanBasis

    for _ in range(40):
        n = rng.randrange(2, 5)
        c = random_circuit(rng, F5, n, 4, rng.randrange(1, 4))
        z = FormIdeal(F5, n, ())

        def sim_forms(q):
            return [
                f
                for t in gcd_data(subcircuit(c, q), z).sim.terms
                for f in t.forms
            ]

        # nested subsets
        q1 = [0, 1, 2]
        q2 = sorted(rng.sample(q1, rng.randrange(1, 3)))
        span1 = SpanBasis.from_vectors(F5, n, [f.coeffs for f in sim_forms(q1)])
        assert all(span1.contains(f.coeffs) for f in sim_forms(q2))

        # overlapping subsets
        qa, qb = [0, 1, 2], [2, 3]
        forms_union = sim_forms(qa) + sim_forms(qb)
        span_u = SpanBasis.from_vectors(F5, n, [f.coeffs for f in forms_union])
        assert all(span_u.contains(f.coeffs) for f in sim_forms(sorted(set(qa + qb))))


def test_gcd_expansion_check_catches_corruption():
    c = make_circuit(F7, 3, [(2, [[1, 0, 0], [0, 1, 1]]), (3, [[1, 0, 1], [0, 1, 0]])])
    i3 = ideal(F7, 3, [0, 0, 1])
    gd = gcd_data(c, i3)
    verify_gcd_by_expansion(gd)

    pi = gd.matchings[1]
    pi.codomain = (pi.codomain[0].scale(2), pi.codomain[1])
    with pytest.raises(VerificationError):
        verify_gcd_by_expansion(gd)


def test_gcd_data_reads_regularity_off_its_class_keys(monkeypatch):
    # a form lies in the ideal's span exactly when its class key is None, so
    # each form is reduced once and no separate membership elimination runs
    rng = random.Random(5)
    instances = [_random_regular_instance(rng) for _ in range(10)]
    calls = []
    counted = counting_eliminate(lambda rows, v: calls.append(v))
    for module in (sps.algebra, sps.quotient, sps.matching):
        monkeypatch.setattr(module, "eliminate", counted)
    for c, ideal_ in instances:
        calls.clear()
        gcd_data(c, ideal_)
        assert len(calls) == sum(t.degree for t in c.terms)
    i3 = ideal(F7, 3, [0, 0, 1])
    in_span_late = make_circuit(F7, 3, [(2, [[1, 0, 0], [0, 1, 1]]), (3, [[1, 0, 1], [0, 0, 4]])])
    with pytest.raises(ValueError, match="regular mod the ideal"):
        gcd_data(in_span_late, i3)
    with pytest.raises(ValueError, match="regular mod the ideal"):
        gcd_data(make_circuit(F5, 2, [(1, [[1, 0]])]), ideal(F5, 2, [1, 0]))


def _two_term_corpus(rng):
    """(circuit, ideal) pairs over GF(2), GF(5), GF(7), GF(2^3) and GF(3^2):
    planted pair identities, the same with one scalar or one form changed,
    each under random ideals of rank 0 to 2 and under an ideal whose span
    holds one of the first term's forms."""
    out = []
    for field in (F2, F5, F7, field_make(2, 3), field_make(3, 2)):
        for _ in range(30):
            n, d = rng.randrange(2, 5), rng.randrange(1, 5)
            planted = random_pair_identity(rng, field, n, d)
            t1, t2 = planted.terms
            changed = [planted]
            if field.order > 2:  # GF(2) has one unit: no scalar to change
                other = t2.coef
                while other == t2.coef:
                    other = random_unit(rng, field)
                changed.append(Circuit(field, n, [t1, Term(field, other, t2.forms)]))
            forms = list(t1.forms)
            forms[rng.randrange(d)] = random_form(rng, field, n)
            changed.append(Circuit(field, n, [Term(field, t1.coef, forms), t2]))
            ideals = [random_ideal(rng, field, n, r) for r in range(min(2, n - 1) + 1)]
            extra = [random_form(rng, field, n)] if rng.random() < 0.5 else []
            gens = [rng.choice(t1.forms)] + extra
            if SpanBasis.from_vectors(field, n, [g.coeffs for g in gens]).rank == len(gens):
                ideals.append(FormIdeal(field, n, gens))
            out += [(c, i) for c in changed for i in ideals]
    return out


def test_two_term_verdict_hashes_each_key_once_per_side():
    # the key multisets are compared as plain dicts, which read the hashes
    # they hold; Counter's == looked every key up again
    checked = 0
    for c, ideal_ in _two_term_corpus(random.Random(2009))[:400]:
        recs = [[ideal_.reduction(f) for f in t.forms] for t in c.terms]
        if any(x.key is None for r in recs for x in r):
            continue
        counted = [[x._replace(key=CountedKey(x.key)) for x in r] for r in recs]
        pairs = [[(t.coef, r) for t, r in zip(c.terms, rs)] for rs in (recs, counted)]
        assert pair_is_zero_mod(c.field, pairs[1]) == pair_is_zero_mod(c.field, pairs[0])
        assert max(x.key.hashes for r in counted for x in r) <= 1
        checked += 1
    assert checked >= 100


def _many_term_corpus(rng):
    """(circuit, ideal) pairs of at least three terms over GF(2), GF(5),
    GF(2^3) and GF(3^2), under random ideals of rank 0 to 2: 0 to 4 live
    terms (copies of one product modulo the ideal, each form scaled by a
    unit and moved by a span element), the last constant mostly chosen so
    that their sum cancels, and dead terms (one form in the span) to make up
    three; and gen_ks(3) and gen_ks(4) under random ideals."""
    out = []
    for field in (F2, F5, field_make(2, 3), field_make(3, 2)):
        for _ in range(50):
            n, d, r = rng.randrange(3, 5), rng.randrange(1, 4), rng.randrange(3)
            ideal_ = random_ideal(rng, field, n, r)
            live = rng.randrange(5) if r else rng.randrange(3, 5)
            base = [random_form(rng, field, n, avoid_span=ideal_.span) for _ in range(d)]
            terms, total = [], 0
            for i in range(live):
                units = [random_unit(rng, field) for _ in base]
                forms = [form_add(b.scale(u), random_span_element(rng, field, ideal_, r))
                         for b, u in zip(base, units)]
                rng.shuffle(forms)
                scale, c = field.product(units), random_unit(rng, field)
                if i == live - 1 and total and rng.random() < 0.6:
                    c = field.neg(field.div(total, scale))  # the sum cancels mod I
                total = field.add(total, field.mul(c, scale))
                terms.append(Term(field, c, forms))
            while len(terms) < 3 or (r and rng.random() < 0.3):
                w = random_span_element(rng, field, ideal_, r)
                if not w.is_zero:
                    forms = [random_form(rng, field, n) for _ in range(d - 1)]
                    forms.insert(rng.randrange(d), w)
                    terms.append(Term(field, random_unit(rng, field), forms))
            rng.shuffle(terms)
            out.append((Circuit(field, n, terms), ideal_))
    for r in (3, 4):
        out += [(gen_ks(r), random_ideal(rng, F2, r, rng.randrange(3))) for _ in range(20)]
    return out


def test_two_term_verdict_by_factorization_equals_expansion(monkeypatch):
    # pair_is_zero_mod and sum_is_zero_mod, each against the reduction
    # expanded; the latter also on three or more terms
    corpus = _two_term_corpus(random.Random(2008))
    seen = Counter()
    for c, ideal_ in corpus:
        recs = [[ideal_.reduction(f) for f in t.forms] for t in c.terms]
        pairs = [(t.coef, r) for t, r in zip(c.terms, recs)]
        verdict = pair_is_zero_mod(c.field, pairs)
        reduced = reduce_circuit(c, ideal_)
        assert verdict == (reduced is None or zero_test_exact(reduced)), (c, ideal_)
        assert sum_is_zero_mod(c.field, c.n, pairs) == verdict, (c, ideal_)
        vanishing = sum(any(x.key is None for x in r) for r in recs)
        if vanishing:
            seen[f"{vanishing} vanishing"] += 1
        elif verdict:
            seen["zero"] += 1
        elif Counter(x.key for x in recs[0]) == Counter(x.key for x in recs[1]):
            seen["keys agree, constants do not cancel"] += 1
        else:
            seen["keys differ"] += 1
    assert len(seen) == 5 and min(seen.values()) >= 50, seen

    by_live = Counter()  # (live terms, 3 meaning three or more; verdict)
    for c, ideal_ in _many_term_corpus(random.Random(2010)):
        reduced = reduce_circuit(c, ideal_)
        want = reduced is None or zero_test_exact(reduced)
        pairs = [(t.coef, [ideal_.reduction(f) for f in t.forms]) for t in c.terms]
        assert sum_is_zero_mod(c.field, c.n, pairs) == want, (c, ideal_)
        by_live[min(reduced.k if reduced else 0, 3), want] += 1
    assert set(by_live) == {(0, True), (1, False), (2, True), (2, False),
                            (3, True), (3, False)}, by_live
    assert min(by_live.values()) >= 10, by_live

    # three terms, one with a form in sp(I): the two live ones cancel (or do
    # not) by unique factorization, with no oracle built or run
    refuse_oracle_work(monkeypatch)
    monkeypatch.setattr(sps.quotient, "ZeroOracle", None)
    i3 = ideal(F5, 3, [0, 0, 1])
    for second, zero in ((4, True), (3, False)):
        c = make_circuit(F5, 3, [(1, [[1, 0, 1], [0, 1, 0]]), (second, [[1, 0, 0], [0, 1, 3]]),
                                 (2, [[1, 1, 0], [0, 0, 2]])])
        assert reduce_circuit(c, i3).k == 2
        assert is_zero_mod(c, i3) is zero
