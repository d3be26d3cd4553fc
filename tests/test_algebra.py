import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sps import SpanBasis, field_make, spans_orthogonal
from sps.algebra import Field, is_prime
from sps.errors import BudgetExceededError
from helpers import reference_from_vectors


def test_prime_fields():
    assert field_make(2).order == 2
    assert field_make(5).order == 5
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(5, 0)


def test_prime_test():
    def reference(m):
        return m >= 2 and all(m % f for f in range(2, m))

    for m in range(-2, 200):
        assert is_prime(m) == reference(m)


def test_prime_test_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the bases 2, ..., 23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)


def test_prime_test_large_primes():
    # timed first, so a slow primality test fails here within seconds instead
    # of running for minutes on 2^61 - 1
    started = time.perf_counter()
    assert is_prime(10**16 + 61)
    assert time.perf_counter() - started < 0.1
    assert is_prime(2**61 - 1)
    assert is_prime(2**64 - 59)


def test_field_refuses_characteristic_from_2_64(monkeypatch):
    import sps.algebra

    def no_primality_test(m):
        raise AssertionError("primality test reached")

    monkeypatch.setattr(sps.algebra, "is_prime", no_primality_test)
    with pytest.raises(ValueError):
        Field(2**64 + 13)


def test_extension_field_fermat():
    # x^(2^10) == x for all elements of GF(2^10); spot-check 10 random ones
    F = field_make(2, 10)
    rng = random.Random(42)
    for _ in range(10):
        a = F.rand_element(rng)
        assert F.pow(a, 2**10) == a


def test_modulus_is_deterministic_and_monic():
    F = field_make(2, 10)
    assert F.modulus == Field(2, 10).modulus
    assert F.modulus[-1] == 1
    assert len(F.modulus) == 11
    # the canonical degree-2 modulus over GF(2) is x^2 + x + 1
    assert Field(2, 2).modulus == (1, 1, 1)


def test_irreducible_search_budget():
    with pytest.raises(BudgetExceededError):
        Field(2, 30, search_budget=1000)


def test_oversized_extension_refused_before_exponentiating():
    # 3**4_000_000 has over six million bits; computing it takes about a second
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        Field(3, 4_000_000)
    assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize("p,e", [(2, 4), (5, 2), (3, 3)])
def test_field_axioms_random_triples(p, e):
    F = field_make(p, e)
    rng = random.Random(7)
    for _ in range(1000):
        a, b, c = (F.rand_element(rng) for _ in range(3))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one


@pytest.mark.parametrize("p,e", [(2, 1), (7, 1), (2, 4), (3, 3)])
def test_batch_arithmetic_matches_add_and_mul(p, e):
    F = field_make(p, e)
    rng = random.Random(11)
    for length in range(6):
        u, v = ([F.rand_element(rng) for _ in range(length)] for _ in range(2))
        assert F.add_vectors(u, v) == [F.add(a, b) for a, b in zip(u, v)]
        want = 1
        for x in u:
            want = F.mul(want, x)
        assert F.product(u) == want
        want = 0
        for a, b in zip(u, v):
            want = F.add(want, F.mul(a, b))
        assert F.dot(u, v) == want


def test_span_insert_basics():
    F2 = field_make(2)
    b = SpanBasis(F2, 3)
    b, ins = b.insert((1, 0, 1))
    assert ins and b.rank == 1
    b2, ins = b.insert((1, 0, 1))
    assert not ins and b2 is b

    F5 = field_make(5)
    b = SpanBasis.from_vectors(F5, 3, [(1, 0, 0), (0, 1, 0)])
    _, ins = b.insert((2, 3, 0))
    assert not ins


def test_from_vectors_stops_eliminating_at_full_rank():
    rng = random.Random(13)
    for p, e in ((2, 1), (5, 1), (3, 2)):
        F = field_make(p, e)
        vecs = [tuple(F.rand_element(rng) for _ in range(4)) for _ in range(30)]
        plain = SpanBasis(F, 4)
        for v in vecs:
            plain, _ = plain.insert(v)
        fast = SpanBasis.from_vectors(F, 4, vecs)
        assert fast.rank == 4
        assert (fast.rows, fast.pivots) == (plain.rows, plain.pivots)
        with pytest.raises(ValueError, match="dimension"):
            SpanBasis.from_vectors(F, 4, vecs + [(1, 0, 0)])


def _from_vectors_corpus(rng, F, n):
    """Vector lists of the shapes from_vectors meets: zero vectors, repeats,
    scalar multiples, long in-span runs between insertions (gen_ks's shape),
    full rank and rank-deficient inputs."""
    def rand_vec():
        return tuple(F.rand_element(rng) for _ in range(n))

    def in_span(gens):
        out = (0,) * n
        for g in gens:
            c = F.rand_element(rng)
            out = tuple(F.add(a, F.mul(c, b)) for a, b in zip(out, g))
        return out

    zero = (0,) * n
    gens = [rand_vec() for _ in range(max(1, n - 1))]
    yield [zero, zero, *gens, *gens]
    yield [rand_vec() for _ in range(2 * n + 2)]
    yield [g if rng.random() < 0.5 else tuple(F.mul(F.rand_element(rng) or 1, a) for a in g)
           for g in gens for _ in range(3)]
    ks_shape = []
    for i in range(len(gens)):
        ks_shape.append(gens[i])
        ks_shape += [in_span(gens[:i + 1]) for _ in range(2 ** i)]
    yield ks_shape
    yield [in_span(gens) for _ in range(3 * n)]  # rank-deficient
    yield [zero] * 3 + [rand_vec() for _ in range(n + 5)]


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_from_vectors_matches_inserting_every_vector(p, e):
    F = field_make(p, e)
    rng = random.Random(100 * p + e)
    for n in (1, 2, 3, 5, 7):
        for vecs in _from_vectors_corpus(rng, F, n):
            want = reference_from_vectors(F, n, vecs)
            got = SpanBasis.from_vectors(F, n, vecs)
            assert (got.rows, got.pivots) == (want.rows, want.pivots)


def test_span_insert_appends_one_row():
    # insert never rewrites a row: each row is zero before its pivot and at
    # the earlier rows' pivots, and 1 at its own
    rng = random.Random(17)
    for p, e in ((2, 1), (5, 1), (2, 3), (3, 2)):
        F = field_make(p, e)
        b = SpanBasis(F, 5)
        for _ in range(8):
            v = tuple(F.rand_element(rng) for _ in range(5))
            b2, ins = b.insert(v)
            assert b2.rows[:b.rank] == b.rows and b2.pivots[:b.rank] == b.pivots
            assert b2.rank == b.rank + ins and b2.contains(v)
            b = b2
        for i, (row, piv) in enumerate(zip(b.rows, b.pivots)):
            assert not any(row[:piv]) and row[piv] == 1
            assert not any(row[q] for q in b.pivots[:i])
    b = SpanBasis.from_vectors(field_make(5), 3, [(1, 2, 0), (0, 0, 1)])
    assert b.insert((0, 3, 0))[0].rows == ((1, 2, 0), (0, 0, 1), (0, 1, 0))
    assert b != SpanBasis.from_vectors(field_make(5), 3, [(1, 0, 0), (0, 0, 1)])


def test_span_membership_and_coordinates():
    F5 = field_make(5)
    b = SpanBasis.from_vectors(F5, 4, [(1, 2, 0, 0), (0, 0, 1, 3)])
    v = (2, 4, 3, 9 % 5)
    assert b.contains(v)
    coords = b.coordinates(v)
    assert coords == (2, 3)
    assert not b.contains((1, 0, 0, 0))
    assert b.coordinates((1, 0, 0, 0)) is None


def test_spans_orthogonal_examples():
    F2 = field_make(2)
    x1 = SpanBasis.from_vectors(F2, 3, [(1, 0, 0)])
    x2 = SpanBasis.from_vectors(F2, 3, [(0, 1, 0)])
    x3 = SpanBasis.from_vectors(F2, 3, [(0, 0, 1)])
    x1x2 = SpanBasis.from_vectors(F2, 3, [(1, 1, 0)])
    both = SpanBasis.from_vectors(F2, 3, [(1, 0, 0), (0, 1, 0)])
    assert spans_orthogonal([x1, x2, x3])
    assert not spans_orthogonal([x1, x1x2, x2])
    assert spans_orthogonal([both, x3])


vectors_f2 = st.lists(
    st.tuples(*[st.integers(0, 1)] * 5), min_size=1, max_size=8
)
vectors_f5 = st.lists(
    st.tuples(*[st.integers(0, 4)] * 4), min_size=1, max_size=8
)


@settings(max_examples=60, deadline=None)
@given(vecs=vectors_f2, data=st.data())
def test_span_insertion_order_invariance_f2(vecs, data):
    # bases are equal when they span the same subspace, so every insertion
    # order gives an equal basis with an equal hash, though not equal rows
    F = field_make(2)
    perm = data.draw(st.permutations(vecs))
    a = SpanBasis.from_vectors(F, 5, vecs)
    b = SpanBasis.from_vectors(F, 5, perm)
    assert a == b and hash(a) == hash(b)
    assert a.rank <= 5


@settings(max_examples=60, deadline=None)
@given(vecs=vectors_f5, data=st.data())
def test_span_insertion_order_invariance_f5(vecs, data):
    F = field_make(5)
    perm = data.draw(st.permutations(vecs))
    a = SpanBasis.from_vectors(F, 4, vecs)
    b = SpanBasis.from_vectors(F, 4, perm)
    assert a == b and hash(a) == hash(b)
    assert all(a.reduce(v) == b.reduce(v) for v in vecs + [(1, 2, 3, 4)])


def test_rank_never_exceeds_dimension():
    F2 = field_make(2)
    rng = random.Random(3)
    b = SpanBasis(F2, 4)
    for _ in range(5):
        b, _ = b.insert(tuple(rng.randrange(2) for _ in range(4)))
    assert b.rank <= 4


@pytest.mark.parametrize("p,e", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_field_agrees_with_independent_reference(p, e):
    # bench/instances.py's GF shares only the JSON element encoding with sps
    from helpers import load_bench
    from sps.circuit import _element_from_json, _element_to_json

    G, F = load_bench("instances").GF(p, e), field_make(p, e)
    assert tuple(G.mod) == F.modulus
    ref = [G.to_json(a) for a in G.elements()]
    els = [F.element(_element_from_json(p, e, x)) for x in ref]

    def ours(x):
        return G.from_json(_element_to_json(F, x))

    assert [_element_to_json(F, x) for x in els] == ref
    for a, x in zip(G.elements(), els):
        assert ours(F.neg(x)) == G.neg(a)
        if a != G.zero:
            assert ours(F.inv(x)) == G.inv(a)
        for b, y in zip(G.elements(), els):
            assert ours(F.add(x, y)) == G.add(a, b)
            assert ours(F.sub(x, y)) == G.add(a, G.neg(b))
            assert ours(F.mul(x, y)) == G.mul(a, b)


def test_extension_elements_are_packed_ints():
    F9 = field_make(3, 2)
    assert F9.element((2, 1)) == F9.element([5, 4]) == 5 == 2 + 1 * 3
    assert F9.digits(5) == (2, 1) and F9.element(F9.digits(8)) == 8
    assert F9.element(5) == 5
    for bad in (9, -1):
        with pytest.raises(ValueError):
            F9.element(bad)
    with pytest.raises(ValueError):
        F9.element((1, 2, 0))
    assert field_make(5).element(-1) == 4  # prime fields still reduce any int
