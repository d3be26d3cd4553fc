import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sps import (
    BudgetExceededError,
    Circuit,
    LinearForm,
    Term,
    ZeroOracle,
    circuit_rank,
    dumps_circuit,
    field_make,
    gen_family,
    gen_ks,
    is_minimal,
    is_simple,
    linear_factors,
    loads_circuit,
    make_circuit,
    similarity_key,
    subcircuit,
    zero_test_exact,
    zero_test_random,
)
import sps.circuit
from sps.algebra import Field
from sps.circuit import (
    _EvalPlan,
    _expand_terms,
    _term_values,
    circuit_from_dict,
    exact_cost_bound,
)
from helpers import (
    brute_expand,
    count_calls,
    random_circuit,
    random_form,
    random_pair_identity,
    random_unit,
    reference_term_values,
    reference_vector_from_json,
    refuse_oracle_work,
    sequential_gf2_expand,
    subset_reference,
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
                total = total.add(f)
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
        assert _expand_terms(c, None) == sequential_gf2_expand(c)
    rng = random.Random(2008)
    degrees, repeats, units = set(), 0, 0
    for _ in range(250):
        c = _random_gf2_circuit(rng, rng.randrange(1, 8), rng.randrange(1, 5), 9)
        assert _expand_terms(c, None) == sequential_gf2_expand(c)
        for t in c.terms:
            degrees.add(t.degree)
            repeats += len(set(t.forms)) < t.degree
            units += sum(sum(f.coeffs) == 1 for f in t.forms)
    # odd and even form counts (an odd set carried over), repeats, single coordinates
    assert degrees == set(range(10)) and repeats >= 100 and units >= 100


def test_exact_budget_refusal():
    with pytest.raises(BudgetExceededError):
        zero_test_exact(gen_ks(8), budget=1000)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("SPS_BUDGET", "1")
    with pytest.raises(BudgetExceededError):
        zero_test_exact(gen_ks(4))
    monkeypatch.delenv("SPS_BUDGET")


def test_zero_test_random_soundness_and_agreement():
    rng = random.Random(29)
    # identities: always reported zero, any seed
    for seed in (0, 1, 12345):
        assert zero_test_random(gen_ks(4), trials=10, seed=seed)
    # agreement with the exact oracle on seeded random circuits
    for i in range(100):
        field = F2 if i % 2 else F5
        c = (
            random_pair_identity(rng, field, 3, rng.randrange(1, 4))
            if i % 3 == 0
            else random_circuit(rng, field, rng.randrange(1, 4), rng.randrange(1, 4),
                                rng.randrange(1, 4))
        )
        assert zero_test_random(c, trials=20, seed=i) == zero_test_exact(c)


def test_zero_test_random_stops_at_first_nonzero_trial(monkeypatch):
    calls = count_calls(monkeypatch, "_term_values")
    # nonzero: the first trial decides, the other 19 are never evaluated
    assert not zero_test_random(subcircuit(gen_ks(4), [0, 1]), trials=20, seed=0)
    assert len(calls) == 1
    calls.clear()
    assert zero_test_random(gen_ks(4), trials=20, seed=0)
    assert len(calls) == 20


def test_zero_test_random_lift_override():
    F4096 = field_make(2, 12)
    assert zero_test_random(gen_ks(8), trials=40, seed=3, lift_field=F4096)
    with pytest.raises(ValueError):
        zero_test_random(gen_ks(3), lift_field=field_make(3, 2))


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


# (circuit field, evaluation field): each field in itself, three lifts, and
# two evaluation fields small enough that forms and products vanish often
EVALUATIONS = [(F2, F2), (F5, F5), (F7, F7), (F8, F8), (F9, F9),
               (field_make(1009), field_make(1009)),
               (F2, field_make(2, 9)), (F5, field_make(5, 3)), (F7, field_make(7, 3)),
               (F2, field_make(2, 2)), (field_make(3), field_make(3))]


def test_term_values_match_reference():
    rng = random.Random(1970)
    zeros = 0
    for field, ev in EVALUATIONS:
        for n in range(1, 21):
            c = _chunky_circuit(rng, field, n, rng.randrange(1, 4), rng.randrange(1, 5))
            plan = _EvalPlan(c)
            for trial in range(4):
                got = _term_values(plan, ev, random.Random(f"{n}:{trial}"))
                want = reference_term_values(c, ev, random.Random(f"{n}:{trial}"))
                assert got == want, (field, ev, n, trial)
                zeros += want.count(0)
    assert zeros > 0  # the zero-product path ran


def _counted_field_calls(monkeypatch, evaluate, trials):
    """Field.add + Field.mul calls made by evaluate(rng), per seeded trial."""
    calls = []
    for name in ("add", "mul"):
        original = getattr(Field, name)

        def counted(self, a, b, original=original):
            calls.append(None)
            return original(self, a, b)

        monkeypatch.setattr(Field, name, counted)
    per_trial = []
    for t in range(trials):
        calls.clear()
        evaluate(random.Random(f"0:{t}"))
        per_trial.append(len(calls))
    monkeypatch.undo()
    return per_trial


def test_term_values_do_less_field_work_than_reference(monkeypatch):
    # ks12 in its lift field: 270 distinct chunk slices stand in for 3,072
    # forms, and forms and products go through the batch methods
    c = gen_ks(12)
    ev = field_make(2, 13)
    plan = _EvalPlan(c)
    new = _counted_field_calls(monkeypatch, lambda rng: _term_values(plan, ev, rng), 3)
    ref = _counted_field_calls(monkeypatch,
                               lambda rng: reference_term_values(c, ev, rng), 3)
    assert all(8 * a <= b for a, b in zip(new, ref)), (new, ref)
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
    plan = _EvalPlan(c)
    new = _counted_field_calls(monkeypatch, lambda rng: _term_values(plan, F9, rng), 10)
    ref = _counted_field_calls(monkeypatch,
                               lambda rng: reference_term_values(c, F9, rng), 10)
    assert all(a <= b for a, b in zip(new, ref)), (new, ref)


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
    with pytest.raises(ValueError):
        is_minimal(random_circuit(random.Random(0), F2, 2, 17, 1))


def _minimal_by_reference(c):
    """No proper subcircuit of >= 2 terms expands to zero (brute force)."""
    return not any(
        not brute_expand(subcircuit(c, q))
        for size in range(2, c.k)
        for q in itertools.combinations(range(c.k), size)
    )


def test_is_minimal_matches_subset_reference():
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
            assert is_minimal(c, exact) == want
            assert is_minimal(c, auto) == want
            assert is_minimal(c, rand) == want
            verdicts.add(want)
        assert verdicts == {True, False}, field
    with pytest.raises(BudgetExceededError):
        is_minimal(gen_ks(5), ZeroOracle("exact", budget=10))


def _mixed_degrees(rng, field, n, k, size):
    """_planted with `size` planted terms of one degree and the other k - size
    terms of random degrees 1..3."""
    planted = _planted(rng, field, n, size, rng.randrange(1, 4), size).terms if size else ()
    extra = [random_circuit(rng, field, n, 1, rng.randrange(1, 4), any_element=True).terms[0]
             for _ in range(k - size)]
    terms = [*planted, *extra]
    rng.shuffle(terms)
    return Circuit(field, n, terms)


def test_random_minimality_matches_subset_reference():
    # the per-subset loop gave each subcircuit its own evaluation field and, in
    # auto mode, its own exact-vs-random path; is_minimal now reads every
    # subset off one set of term values in the circuit's evaluation field.
    # Degrees stay <= 3, so GF(2^3) and GF(3^2) are never asked to lift.
    rng = random.Random(43)
    verdicts, own_field = set(), 0
    for i, field in enumerate([F2, F5, F7, F8, F9] * 24):
        k = rng.randrange(3, 6)
        c = _mixed_degrees(rng, field, rng.randrange(2, 5), k,
                           rng.choice([0, 2, 3, k - 1, k]))
        degrees = sorted(c.degrees)
        # the reference evaluates the two lowest-degree terms in F, not lifted
        own_field += field.order <= 2 * degrees[-1] and field.order > 2 * degrees[1]
        for oracle in (ZeroOracle("random", trials=20, seed=i),
                       ZeroOracle("auto", trials=20, seed=i, auto_budget=8)):
            want = subset_reference(c, oracle)
            assert is_minimal(c, oracle) == want, (i, field, c.degrees)
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

    with pytest.raises(BudgetExceededError):
        linear_factors(gen_ks(3), budget=1)


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
    # a prime-field coefficient is a checked int; only each term constant and
    # each extension-field coordinate (packed from its digit array) goes
    # through Field.element, once: an extension term constant is packed by Term
    circuits = [gen_ks(4), random_circuit(random.Random(2), F5, 3, 3, 2, any_element=True),
                random_circuit(random.Random(3), F9, 3, 3, 2, any_element=True)]
    texts = [dumps_circuit(c) for c in circuits]
    calls = []
    element = Field.element

    def counted(self, x):
        calls.append(x)
        return element(self, x)

    monkeypatch.setattr(Field, "element", counted)
    for c, text in zip(circuits, texts):
        calls.clear()
        assert loads_circuit(text) == c
        ext_coordinates = sum(t.degree for t in c.terms) * c.n if c.field.e > 1 else 0
        assert len(calls) == c.k + ext_coordinates


@st.composite
def _loader_bodies(draw):
    """Valid file bodies over small fields, most with one spot spoiled: an
    element out of range, negative, a bool, a float, a string or a nested
    list, a vector of the wrong length or not a list, or a bad constant."""
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
    spoil = draw(st.sampled_from(["none", "coef", "element", "vector"]))
    if spoil == "coef":
        term["coef"] = draw(bad)
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
    with mock.patch.object(sps.circuit, "_vector_from_json", reference_vector_from_json):
        want = _load_or_refusal(obj)
    assert type(got) is type(want) and got == want


def test_oracle_auto_mode():
    auto = ZeroOracle("auto", trials=10, seed=0, auto_budget=10)
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


def test_one_kernel_choice_answers_is_zero_and_term_values():
    """is_zero and term_values(c).is_zero() give the verdict of the one
    oracle call the mode picks, exact or random, on planted identities and
    perturbed copies over prime and extension fields."""
    rng = random.Random(2007)
    oracles = [ZeroOracle("exact"), ZeroOracle("random", trials=20, seed=5),
               ZeroOracle("auto", trials=20, seed=5, auto_budget=12)]
    seen = set()
    for field in (F2, F5, F8, F9):
        for _ in range(10):
            n, k, d = rng.randrange(2, 4), rng.randrange(2, 5), rng.randrange(1, 4)
            planted = _planted(rng, field, n, k, d, rng.choice([0, 2, k]))
            for c in (planted, _perturbed(rng, planted)):
                for oracle in oracles:
                    exact = oracle.answers_exactly(c)
                    if exact:
                        want = zero_test_exact(c, oracle.budget)
                    else:
                        want = zero_test_random(c, oracle.trials, oracle.seed)
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
        with pytest.raises(ValueError, match="k <= 16"):
            ZeroOracle(mode).term_values(zero)
