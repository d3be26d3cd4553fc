import random
import time
import tracemalloc
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sps.algebra
from sps import FormIdeal, LinearForm, SpanBasis, field_make, spans_orthogonal
from sps.algebra import Field, eliminate, is_prime
from sps.errors import BudgetExceededError
from helpers import (
    counting_eliminate,
    dense_eliminate,
    dense_rows,
    reference_field_tables,
    reference_from_vectors,
)


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
        a = x = F.rand_element(rng)
        for _ in range(10):  # ten squarings: x = a^(2^10)
            x = F.mul(x, x)
        assert x == a


def test_modulus_is_deterministic_and_monic():
    F = field_make(2, 10)
    assert F.modulus == Field(2, 10).modulus
    assert F.modulus[-1] == 1
    assert len(F.modulus) == 11
    # the canonical degree-2 modulus over GF(2) is x^2 + x + 1
    assert Field(2, 2).modulus == (1, 1, 1)


def test_poly_mod_returns_the_remainder_of_q_b_plus_r():
    # a = q*b + r with deg r < deg b, q*b by plain convolution here, so the
    # remainder is checked by no sps code; a's top may hold zeros, and q = 0
    # gives deg a < deg b
    rng = random.Random(43)
    shapes = set()
    for p in (2, 3, 5, 7, 13):
        for _ in range(60):
            db = rng.randrange(0, 6)
            b = [rng.randrange(p) for _ in range(db)] + [rng.randrange(1, p)]
            q = [rng.randrange(p) for _ in range(rng.randrange(0, 5))]
            r = [rng.randrange(p) for _ in range(db)]
            a = [0] * max(len(q) + len(b) - 1, len(r))
            for i, qi in enumerate(q):
                for j, bj in enumerate(b):
                    a[i + j] = (a[i + j] + qi * bj) % p
            for i, ri in enumerate(r):
                a[i] = (a[i] + ri) % p
            a += [0] * rng.randrange(0, 3)
            while r and r[-1] == 0:
                r.pop()
            shapes.add((any(q), a[-1:] == [0]))
            assert sps.algebra._poly_mod(a, b, p) == r, (p, a, b)
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


# GF(2^e) for e = 2..16, and odd characteristic up to q = 961
TABLE_GRID = ([(2, e) for e in range(2, 17)] + [(3, e) for e in range(2, 7)]
              + [(5, 2), (5, 3), (7, 3), (31, 2)])


def test_field_tables_match_direct_construction():
    # the search from c_0 = 1, the packed GF(2) Rabin and primitive-element
    # tests and the half-bit image tables give the direct construction's
    # modulus and tables
    for p, e in TABLE_GRID:
        F = Field(p, e)
        modulus, exp, log, zech = reference_field_tables(p, e)
        assert F.modulus == modulus, (p, e)
        assert list(F._exp) == exp and list(F._log) == log, (p, e)
        assert (F._zech is None) if p == 2 else list(F._zech) == zech, (p, e)


def test_modulus_search_skips_constant_term_0(monkeypatch):
    tested = []
    is_irreducible = sps.algebra._is_irreducible

    def spy(mod, p):
        tested.append(mod[0])
        return is_irreducible(mod, p)

    monkeypatch.setattr(sps.algebra, "_is_irreducible", spy)
    for p, e in TABLE_GRID + [(2, 19), (3, 12), (31, 4)]:
        tested.clear()
        Field._find_modulus(p, e)
        assert tested and 0 not in tested, (p, e)


def test_gf2_tables_make_no_product_per_element(monkeypatch):
    # GF(2^14)'s exp table has 16,383 steps, so one gf2_mulmod per step
    # would break the bound; the search, the primitive element and the 14
    # image products take a few hundred
    calls = []
    mulmod = sps.algebra.gf2_mulmod

    def counted(*args):
        calls.append(None)
        return mulmod(*args)

    monkeypatch.setattr(sps.algebra, "gf2_mulmod", counted)
    Field(2, 14)
    assert 0 < len(calls) <= 1000


def test_irreducible_search_budget():
    with pytest.raises(BudgetExceededError):  # 2^30 candidates, over the 10^6 cap
        Field(2, 30)


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
        u = [F.rand_element(rng) for _ in range(length)]
        want = 1
        for x in u:
            want = F.mul(want, x)
        assert F.product(u) == want
        poly = {rng.randrange(8): F.rand_element(rng) or 1 for _ in range(length)}
        form = [(1 << j, F.rand_element(rng) or 1) for j in range(3)]
        want = {}
        for key, c in poly.items():
            for step, fc in form:
                want[key + step] = F.add(want.get(key + step, 0), F.mul(c, fc))
        assert F.mul_by_form(poly, form) == {key: c for key, c in want.items() if c}


def _mul_by_form_by_add_and_mul(F, poly, form):
    want = {}
    for key, c in poly.items():
        for step, fc in form:
            want[key + step] = F.add(want.get(key + step, 0), F.mul(c, fc))
    return {key: c for key, c in want.items() if c}


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2)])
def test_mul_by_form_zech_sums_match_add_and_mul(p, e):
    F = field_make(p, e)
    rng = random.Random(26)
    cancelled = 0
    for _ in range(400):
        poly = {rng.randrange(6): F.rand_element(rng) or 1 for _ in range(rng.randint(1, 6))}
        steps = rng.sample(range(4), rng.randint(1, 4))
        form = [(step, F.rand_element(rng) or 1) for step in steps]
        want = _mul_by_form_by_add_and_mul(F, poly, form)
        assert F.mul_by_form(poly, form) == want
        cancelled += len({key + step for key in poly for step, _ in form} - want.keys())
    assert cancelled > 10  # some sums cancel to 0, and are dropped
    for a in range(1, F.order):
        for c in range(1, F.order):
            # monomial 2 sums a, then -a (cancelled), then c; monomial 3 sums -a and c
            poly, form = {0: a, 1: F.neg(a), 2: c}, [(2, 1), (1, 1), (0, 1)]
            got = F.mul_by_form(poly, form)
            assert got == _mul_by_form_by_add_and_mul(F, poly, form)
            assert 1 not in got and got[2] == c and got.get(3, 0) == F.sub(c, a)


def test_product_above_the_list_view_cap_keeps_memory_bounded():
    # a product reads GF(2^19)'s logs from its table: a list view of it held
    # about 20 MB
    F = Field(2, 19)
    rng = random.Random(19)
    xs = [F.rand_element(rng) or 1 for _ in range(64)]
    tracemalloc.start()
    try:
        got, zero = F.product(xs), F.product(iter([*xs, 0, *xs]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert got == reduce(F.mul, xs, 1) and zero == 0 and F.product([]) == 1
    # the random oracle's largest lift, GF(2^14), still reads the list view
    # (check-random runs 7 % slower on the table loop) and GF(2^19) never builds it
    lift = Field(2, 14)
    ys = [x % lift.order or 1 for x in xs[:8]]
    assert lift.product(ys) == reduce(lift.mul, ys, 1)
    assert lift._logs is not None and F._logs is None


def test_span_insert_basics():
    F2 = field_make(2)
    b = SpanBasis(F2, 3)
    assert b.insert((1, 0, 1)) and b.rank == 1
    assert not b.insert((1, 0, 1)) and b.rank == 1

    F5 = field_make(5)
    b = SpanBasis.from_vectors(F5, 3, [(1, 0, 0), (0, 1, 0)])
    assert not b.insert((2, 3, 0))


def test_from_vectors_stops_eliminating_at_full_rank():
    rng = random.Random(13)
    for p, e in ((2, 1), (5, 1), (3, 2)):
        F = field_make(p, e)
        vecs = [tuple(F.rand_element(rng) for _ in range(4)) for _ in range(30)]
        plain = SpanBasis(F, 4)
        for v in vecs:
            plain.insert(v)
        fast = SpanBasis.from_vectors(F, 4, vecs)
        assert fast.rank == 4
        assert dense_rows(fast) == dense_rows(plain)
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
            assert dense_rows(got) == dense_rows(want)


def test_span_insert_appends_one_row():
    # insert never rewrites a row: each row is zero before its pivot and at
    # the earlier rows' pivots, and 1 at its own
    rng = random.Random(17)
    for p, e in ((2, 1), (5, 1), (2, 3), (3, 2)):
        F = field_make(p, e)
        b = SpanBasis(F, 5)
        for _ in range(8):
            v = tuple(F.rand_element(rng) for _ in range(5))
            before = b.rank
            earlier = dense_rows(b)
            ins = b.insert(v)
            rows, pivots = dense_rows(b)
            assert (rows[:before], pivots[:before]) == earlier
            assert b.rank == before + ins and b.contains(v)
        for i, (row, piv) in enumerate(zip(rows, pivots)):
            assert not any(row[:piv]) and row[piv] == 1
            assert not any(row[q] for q in pivots[:i])
    b = SpanBasis.from_vectors(field_make(5), 3, [(1, 2, 0), (0, 0, 1)])
    assert not same_span(b, SpanBasis.from_vectors(field_make(5), 3, [(1, 0, 0), (0, 0, 1)]))
    assert b.insert((0, 3, 0)) and dense_rows(b)[0] == ((1, 2, 0), (0, 0, 1), (0, 1, 0))


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (2, 3), (3, 2)])
def test_running_remainders_answer_as_a_basis_built_from_scratch(p, e):
    # one basis answers insert, contains and reduce, interleaved and repeated
    # on the same vectors, from the remainders it keeps; each answer is that
    # of a basis rebuilt from the vectors inserted so far
    F = field_make(p, e)
    rng = random.Random(10 * p + e)
    n = 6
    gens = [tuple(F.rand_element(rng) for _ in range(n)) for _ in range(4)]
    mixes = []
    for _ in range(4):
        c, (g, h) = F.rand_element(rng), rng.sample(gens, 2)
        mixes.append(tuple(F.add(F.mul(c, a), b) for a, b in zip(g, h)))
    pool = gens + mixes + [(0,) * n]
    basis, inserted = SpanBasis(F, n), []
    for _ in range(80):
        v, op = rng.choice(pool), rng.choice(("insert", "contains", "reduce"))
        want = reference_from_vectors(F, n, inserted)
        if op == "insert":
            assert basis.insert(v) == (not want.contains(v))
            inserted.append(v)
            want = reference_from_vectors(F, n, inserted)
            assert dense_rows(basis) == dense_rows(want)
        elif op == "contains":
            assert basis.contains(v) == want.contains(v)
        else:
            assert basis.reduce(v) == want.reduce(v)
    assert 0 < basis.rank < n


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (2, 3), (3, 2)])
def test_outside_answers_every_vector_in_one_pass(p, e, monkeypatch):
    # one batch holds vectors read before more rows were appended (stale
    # remainders, read at two different ranks), vectors never read, span
    # vectors and a repeated vector; each answer is not contains(v) of a
    # basis built from the same sources, each distinct vector is eliminated
    # once, by the rows it had not met, and reduce then agrees with that basis
    F = field_make(p, e)
    rng = random.Random(20 * p + e)
    n = 7
    rand = [tuple(F.rand_element(rng) for _ in range(n)) for _ in range(10)]
    rows = [(0,) * i + (1,) + v[i + 1:] for i, v in enumerate(rand[:3])]  # independent
    basis = SpanBasis(F, n)
    basis.insert(rows[0])
    for v in rand[3:6]:
        basis.contains(v)
    basis.insert(rows[1])
    for v in rand[6:8]:
        basis.contains(v)
    basis.insert(rows[2])
    c = F.rand_element(rng) or 1
    in_span = tuple(F.add(F.mul(c, a), b) for a, b in zip(rows[0], rows[2]))
    batch = [*rand[3:], in_span, rand[4], rand[8], (0,) * n]
    read = {v: basis._rest[v][1] for v in batch if v in basis._rest}
    assert sorted(set(read.values())) == [1, 2]

    met = []  # the number of rows each eliminated remainder meets
    monkeypatch.setattr(sps.algebra, "eliminate",
                        counting_eliminate(lambda rows, v: met.append(len(rows))))
    got = basis.outside(batch)
    monkeypatch.undo()
    fresh = SpanBasis.from_vectors(F, n, basis.sources)
    assert got == [not fresh.contains(v) for v in batch]
    assert not got[batch.index(in_span)] and got.count(True) >= 5
    assert sorted(met) == sorted(basis.rank - read.get(v, 0) for v in set(batch))
    for v in batch:
        assert basis._rest[v][1] == basis.rank
        assert basis.reduce(v) == fresh.reduce(v)


def test_span_membership_and_coordinates():
    F5 = field_make(5)
    b = SpanBasis.from_vectors(F5, 4, [(1, 2, 0, 0), (0, 0, 1, 3)])
    v = (2, 4, 3, 9 % 5)
    assert b.contains(v)
    assert not b.contains((1, 0, 0, 0))
    assert b.coordinates([v, (1, 0, 0, 0), (0, 0, 0, 0)]) == [(2, 3), None, (0, 0)]
    assert b.coordinates([]) == []
    with pytest.raises(ValueError, match="dimension 3"):
        b.coordinates([v, (1, 2, 0)])


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


def same_span(a, b):
    """Whether two bases of the same space span the same subspace: equal
    ranks, and every row of one lies in the span of the other."""
    return a.rank == b.rank and all(b.contains(row) for row in dense_rows(a)[0])


vectors_f2 = st.lists(
    st.tuples(*[st.integers(0, 1)] * 5), min_size=1, max_size=8
)
vectors_f5 = st.lists(
    st.tuples(*[st.integers(0, 4)] * 4), min_size=1, max_size=8
)


@settings(max_examples=60, deadline=None)
@given(vecs=vectors_f2, data=st.data())
def test_span_insertion_order_invariance_f2(vecs, data):
    # every insertion order spans the same subspace, though not with equal rows
    F = field_make(2)
    perm = data.draw(st.permutations(vecs))
    a = SpanBasis.from_vectors(F, 5, vecs)
    b = SpanBasis.from_vectors(F, 5, perm)
    assert same_span(a, b)
    assert a.rank <= 5


@settings(max_examples=60, deadline=None)
@given(vecs=vectors_f5, data=st.data())
def test_span_insertion_order_invariance_f5(vecs, data):
    F = field_make(5)
    perm = data.draw(st.permutations(vecs))
    a = SpanBasis.from_vectors(F, 4, vecs)
    b = SpanBasis.from_vectors(F, 4, perm)
    assert same_span(a, b)
    assert all(a.reduce(v) == b.reduce(v) for v in vecs + [(1, 2, 3, 4)])


KERNEL_FIELDS = [(2, 1), (5, 1), (7, 1), (2, 3), (3, 2)]


@st.composite
def span_cases(draw):
    """(field, n, generators, probes): generators in F^n, often sparse, the n
    unit vectors added (shuffled) for a full-rank basis half the time; probes
    are the zero vector, random vectors and combinations of generators."""
    F = field_make(*draw(st.sampled_from(KERNEL_FIELDS)))
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(0, F.order - 1))
    vector = st.tuples(*[entry] * n)
    gens = draw(st.lists(vector, max_size=n + 2))
    if draw(st.booleans()):
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        gens += draw(st.permutations(units))
    probes = [(0,) * n] + draw(st.lists(vector, max_size=4))
    for _ in range(draw(st.integers(0, 3)) if gens else 0):
        out = (0,) * n
        for g in draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3)):
            c = draw(st.integers(0, F.order - 1))
            out = tuple(F.add(x, F.mul(c, y)) for x, y in zip(out, g))
        probes.append(out)
    return F, n, gens, probes


def _dense_record(F, ideal, f):
    """FormIdeal's record of f from the dense reference elimination, with the
    remainder as a tuple."""
    a, rest = dense_eliminate(F, *dense_rows(ideal.span), f.coeffs)
    lead = next(filter(None, rest), None)
    key = None if lead is None else tuple(F.mul(F.inv(lead), x) for x in rest)
    return a, tuple(rest), key, lead


@settings(max_examples=200, deadline=None)
@given(case=span_cases())
def test_sparse_kernel_matches_dense_elimination(case):
    F, n, gens, probes = case
    basis = SpanBasis.from_vectors(F, n, gens)
    # a sparse row lists its nonzero entries after the pivot, by column
    for piv, entries in basis.sparse_rows:
        columns = [j for j, _ in entries]
        assert columns == sorted(set(columns)) and all(j > piv and x for j, x in entries)
    rows, pivots = dense_rows(basis)
    got = list(eliminate(F, basis.sparse_rows, probes))
    assert got == [dense_eliminate(F, rows, pivots, v) for v in probes]

    ideal = FormIdeal(F, n, [LinearForm(F, row) for row in rows])
    forms = [LinearForm(F, v) for v in probes + gens]
    recs = list(ideal.reductions(forms))
    assert recs == [ideal.reduction(f) for f in forms]
    assert [(a, tuple(rest), key, lead) for a, rest, key, lead in recs] == [
        _dense_record(F, ideal, f) for f in forms]


@settings(max_examples=100, deadline=None)
@given(case=span_cases(), data=st.data())
def test_span_basis_matches_dense_reference_under_interleaving(case, data):
    # rows, pivots and running remainders after inserts and reads in any
    # order equal those of dense elimination from scratch; a batch of
    # coordinates, mixing vectors in and outside the span, is over the
    # sources, None exactly where the dense remainder is nonzero
    F, n, gens, probes = case
    pool = gens + probes
    basis, rows, pivots = SpanBasis(F, n), [], []
    ops = st.sampled_from(("insert", "reduce", "contains", "coordinates"))
    for op, v in data.draw(st.lists(st.tuples(ops, st.sampled_from(pool)), max_size=30)):
        rest = dense_eliminate(F, rows, pivots, v)[1]
        if op == "insert":
            piv = next((j for j, c in enumerate(rest) if c), None)
            assert basis.insert(v) == (piv is not None)
            if piv is not None:
                inv = F.inv(rest[piv])
                rows.append(tuple(F.mul(inv, c) for c in rest))
                pivots.append(piv)
            assert dense_rows(basis) == (tuple(rows), tuple(pivots))
        elif op == "reduce":
            assert basis.reduce(v) == tuple(rest)
        elif op == "contains":
            assert basis.contains(v) == (not any(rest))
        else:
            batch = [v, (0,) * n, *data.draw(st.lists(st.sampled_from(pool), max_size=6))]
            for w, coords in zip(batch, basis.coordinates(batch), strict=True):
                assert (coords is None) == any(dense_eliminate(F, rows, pivots, w)[1])
                if coords is not None:
                    assert len(coords) == len(basis.sources)
                    total = (0,) * n
                    for c, source in zip(coords, basis.sources):
                        total = tuple(F.add(t, F.mul(c, x)) for t, x in zip(total, source))
                    assert total == tuple(w)
    for v in pool:
        assert basis.reduce(v) == tuple(dense_eliminate(F, rows, pivots, v)[1])


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_kernel_multiplies_only_nonzero_row_entries(p, e, monkeypatch):
    # one Field.mul per nonzero multiplier and nonzero row entry after its
    # pivot (the pivot itself is set to 0), none for the zeros of a row
    F = field_make(p, e)
    rng = random.Random(31 * p + e)
    n = 12

    def sparse_vector():
        return tuple(F.rand_element(rng) if rng.random() < 0.25 else 0 for _ in range(n))

    basis = SpanBasis.from_vectors(F, n, [sparse_vector() for _ in range(8)])
    probes = [sparse_vector() for _ in range(10)] + [tuple(F.rand_element(rng)
                                                          for _ in range(n))]
    pairs = dense_walk = 0
    rows, pivots = dense_rows(basis)
    for v in probes:
        mults = dense_eliminate(F, rows, pivots, v)[0]
        for c, row, piv in zip(mults, rows, pivots):
            if c:
                pairs += sum(1 for x in row[piv + 1:] if x)
                dense_walk += n - piv - 1
    assert 0 < pairs < dense_walk  # the basis really is sparse

    calls = []
    mul = Field.mul

    def counted(self, a, b):
        calls.append((a, b))
        return mul(self, a, b)

    monkeypatch.setattr(Field, "mul", counted)
    list(eliminate(F, basis.sparse_rows, probes))
    assert len(calls) == pairs


def test_rank_never_exceeds_dimension():
    F2 = field_make(2)
    rng = random.Random(3)
    b = SpanBasis(F2, 4)
    for _ in range(5):
        b.insert(tuple(rng.randrange(2) for _ in range(4)))
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
