import math

import pytest

import sps.forms
from sps import (
    BudgetExceededError,
    ZeroOracle,
    circuit_rank,
    dumps_circuit,
    field_make,
    find_matching,
    gen_family,
    gen_intro_counterexamples,
    gen_joined,
    gen_ks,
    gen_tight_lists,
    is_minimal,
    is_simple,
    lists_similar,
    zero_test_exact,
)
from sps.algebra import Field
from helpers import (
    reference_gen_family,
    reference_gen_ks,
    refuse_generator_work,
    tight_lists_orthogonal,
)

F2 = field_make(2)


def checked(circuit, oracle):
    """The circuit, once it is simple and its zero and minimal claims hold
    under the oracle."""
    values = oracle.term_values(circuit)
    assert is_simple(circuit) and values.is_zero() and values.is_minimal()
    return circuit


def test_gen_ks_base_case():
    c = gen_ks(2)
    assert (c.k, c.degree, c.n) == (3, 1, 2)
    forms = [f.coeffs for f in c.all_forms()]
    assert forms == [(1, 0), (0, 1), (1, 1)]  # x1 + x2 + (x1 + x2)
    assert zero_test_exact(c)


def test_gen_ks_r3_structure():
    c = gen_ks(3)
    assert (c.k, c.degree, c.n) == (3, 2, 3)
    assert [f.coeffs for f in c.terms[0].forms] == [(1, 0, 0), (0, 1, 0)]
    assert [f.coeffs for f in c.terms[1].forms] == [(0, 0, 1), (1, 1, 1)]
    assert [f.coeffs for f in c.terms[2].forms] == [(1, 0, 1), (0, 1, 1)]
    assert circuit_rank(c) == 3
    assert is_simple(c) and is_minimal(c) and zero_test_exact(c)


def test_gen_ks_parameters():
    for r in (2, 3, 4, 5, 6):
        c = gen_ks(r)
        d = 2 ** (r - 2)
        assert (c.k, c.degree, c.n) == (3, d, r)
        assert circuit_rank(c) == r
        if d >= 2:
            assert r == int(math.log2(d)) + 2
    with pytest.raises(ValueError):
        gen_ks(1)


def test_gen_joined_parameters():
    d4 = gen_ks(4)
    joined = checked(gen_joined(d4, gen_ks(4)), ZeroOracle(trials=20, seed=3))
    assert (joined.k, joined.degree, joined.n) == (4, 8, 8)
    assert circuit_rank(joined) == 8
    assert is_simple(joined)


def test_gen_joined_rejects_wrong_block():
    d4 = gen_ks(4)
    with pytest.raises(ValueError):
        gen_joined(d4, gen_intro_counterexamples(2)[0])  # k=2 block, wrong field too


def test_gen_family_members():
    oracle = ZeroOracle(trials=12, seed=11)
    base = gen_family(4, 0)
    assert base == gen_ks(4)

    m3 = checked(gen_family(4, 3), oracle)
    assert (m3.k, m3.degree) == (6, 16)
    assert circuit_rank(m3) == 16
    assert circuit_rank(m3) > (m3.k / 3) * math.log2(m3.degree)

    m54 = checked(gen_family(5, 4), ZeroOracle(trials=8, seed=4))
    assert (m54.k, m54.degree) == (7, 40)
    assert circuit_rank(m54) == 25

    # the closed-form relation between rank, fanin and degree
    for r, i in ((4, 2), (5, 1)):
        m = checked(gen_family(r, i), ZeroOracle(trials=8, seed=9))
        k, d = m.k, m.degree
        rank = circuit_rank(m)
        assert rank == (i + 1) * r
        assert rank == (k - 2) * (math.log2(d / (k - 2)) + 2)

    with pytest.raises(BudgetExceededError):
        gen_family(4, 400)  # 403 * 401 * 4 forms, over the 250,000 cap


def test_generated_forms_match_forms_built_one_coefficient_at_a_time():
    for r in range(2, 14):
        assert dumps_circuit(gen_ks(r)) == dumps_circuit(reference_gen_ks(r)), r
    for r in (4, 5):
        for i in range(6):
            got = dumps_circuit(gen_family(r, i, verify=False))
            assert got == dumps_circuit(reference_gen_family(r, i)), (r, i)


def test_gen_ks_canonicalizes_only_the_term_constants(monkeypatch):
    # the parity forms' 0/1 coefficients are wrapped as they are: no form goes
    # through LinearForm.__init__, and Field.element sees the 3 constants only
    made, canonicalized = [], []
    init, element = sps.forms.LinearForm.__init__, Field.element

    def counted_init(self, *args):
        made.append(None)
        init(self, *args)

    def counted_element(self, x):
        canonicalized.append(x)
        return element(self, x)

    monkeypatch.setattr(sps.forms.LinearForm, "__init__", counted_init)
    monkeypatch.setattr(Field, "element", counted_element)
    c = gen_ks(12)
    assert made == [] and canonicalized == [1, 1, 1]
    assert len(c.all_forms()) == 3 * 2**10


def test_generators_refuse_oversized_output_before_any_work(monkeypatch):
    refuse_generator_work(monkeypatch)
    calls = [
        lambda: gen_ks(40),
        lambda: gen_ks(10**30),  # no 2^(10^30) is ever formed
        lambda: gen_family(30, 30),
        lambda: gen_tight_lists(40),
        lambda: gen_intro_counterexamples(10**8),
        lambda: gen_intro_counterexamples(158),  # 252176 coefficients > 250000
    ]
    for call in calls:
        with pytest.raises(BudgetExceededError):
            call()


def test_tight_lists_shapes_and_reports():
    expected_verified = {3: 2, 4: 4, 5: 4, 6: 6}
    for s in (3, 4, 5, 6):
        t = gen_tight_lists(s)
        assert len(t.u) == len(t.v) == 2 ** (s - 2)
        assert t.claimed == s
        assert lists_similar(t.u, t.v) is None  # parity classes never meet
        assert tight_lists_orthogonal(t)
        assert len(t.ideals) == expected_verified[s]
        assert all(find_matching(t.u, t.v, ideal) is not None for ideal in t.ideals)
    with pytest.raises(ValueError):
        gen_tight_lists(2)
    with pytest.raises(ValueError):
        gen_tight_lists(4, p=3)


def test_intro_counterexamples():
    for d in (1, 2, 3, 5):
        nonsimple, nonminimal = gen_intro_counterexamples(d)
        assert circuit_rank(nonsimple) == d
        assert circuit_rank(nonminimal) == 2 * d + 2
        assert not is_simple(nonsimple)
        assert is_minimal(nonsimple)  # only singleton proper subsets
        assert not is_minimal(nonminimal)
        assert is_simple(nonminimal)
        assert zero_test_exact(nonsimple)
        assert zero_test_exact(nonminimal)


def test_family_member_d4_random_zero_over_small_lift():
    # degree-20 member in 20 variables, evaluated over GF(2^7), the least 2^m > 4d
    m = checked(gen_family(4, 4), ZeroOracle(trials=10, seed=44))
    assert (m.k, m.degree, m.n, circuit_rank(m)) == (7, 20, 20, 20)
    assert ZeroOracle("random", trials=40, seed=4).is_zero(m)


def test_family_members_verify_under_randomized_oracle():
    m = checked(gen_family(4, 2), ZeroOracle(trials=20, seed=21))
    assert (m.k, m.degree, circuit_rank(m)) == (5, 12, 12)
    assert ZeroOracle("random", seed=99).is_zero(m)
    assert is_simple(m)
    assert ZeroOracle("random", trials=20, seed=7).term_values(m).is_minimal()
