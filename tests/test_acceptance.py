"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them). Every
tolerance is exact; randomized oracles run with pinned seeds."""

import math
import random
import time

from sps import (
    Circuit,
    FormIdeal,
    LinearForm,
    SpanBasis,
    Term,
    ZeroOracle,
    build_chain,
    chain_length_bound,
    circuit_rank,
    doubling_check,
    field_make,
    find_matching,
    gcd_data,
    gen_family,
    gen_intro_counterexamples,
    gen_ks,
    gen_tight_lists,
    is_minimal,
    is_simple,
    linear_factors,
    lists_similar,
    similarity_key,
    subcircuit,
    unscramble,
    zero_test_exact,
)
from helpers import (
    brute_expand,
    brute_product,
    random_circuit,
    random_embedding,
    random_form,
    random_pair_identity,
    reduce_circuit,
    substitute,
    tight_lists_orthogonal,
    verify_gcd_by_expansion,
)
from test_matching import composite, inverse, random_ordered_matching, union
from test_quotient import _random_regular_instance

F2 = field_make(2)
F3 = field_make(3)
F5 = field_make(5)


def _report(number, name, failures, detail=""):
    status = "PASS" if not failures else f"FAIL ({len(failures)} problems)"
    print(f"[ACCEPTANCE] criterion {number} ({name}): {status} {detail}".rstrip())
    assert not failures, f"criterion {number}: {failures[:5]}"


# -- criterion 1: the parity identity family ---------------------------------

def test_criterion_1_ks_identities():
    failures = []
    started = time.monotonic()
    for r in range(2, 8):
        c = gen_ks(r)
        d = 2 ** (r - 2)
        if not zero_test_exact(c):
            failures.append(f"r={r}: exact zero test failed")
        if not is_simple(c):
            failures.append(f"r={r}: not simple")
        if not ZeroOracle("exact").term_values(c).is_minimal():
            failures.append(f"r={r}: not minimal")
        rank = circuit_rank(c)
        if not (rank == r == int(math.log2(d)) + 2 if d >= 1 else False):
            failures.append(f"r={r}: rank {rank} != log2({d}) + 2")
        if c.degree != d:
            failures.append(f"r={r}: degree {c.degree} != {d}")
    for r in (8, 9, 10):
        c = gen_ks(r)
        if not ZeroOracle("random", trials=40, seed=1000 + r).is_zero(c):
            failures.append(f"r={r}: randomized zero test failed")
        if not is_simple(c):
            failures.append(f"r={r}: not simple")
        if not ZeroOracle("random", trials=40, seed=r).term_values(c).is_minimal():
            failures.append(f"r={r}: not minimal")
        if circuit_rank(c) != r:
            failures.append(f"r={r}: wrong rank")
    elapsed = time.monotonic() - started
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(1, "parity identities r=2..10", failures, f"[{elapsed:.1f}s]")


# -- criterion 2: the iterated-join family -----------------------------------

def test_criterion_2_family():
    failures = []
    started = time.monotonic()
    for i in (1, 2, 3, 4):
        oracle = ZeroOracle("random", trials=40, seed=2000 + i)
        member = gen_family(4, i, verify=True)  # its own checks, under ZeroOracle(trials=40)
        k, d, rank = member.k, member.degree, circuit_rank(member)
        if (k, d, rank) != (i + 3, (i + 1) * 4, (i + 1) * 4):
            failures.append(f"i={i}: parameters ({k},{d},{rank})")
        if not ZeroOracle("random", trials=40, seed=2100 + i).is_zero(member):
            failures.append(f"i={i}: zero test failed")
        if not is_simple(member):
            failures.append(f"i={i}: not simple")
        values = oracle.term_values(member)
        if not values.is_zero():
            failures.append(f"i={i}: zero test failed under seed {2000 + i}")
        if not values.is_minimal():
            failures.append(f"i={i}: not minimal")
        if i >= 3 and not rank > (k / 3) * math.log2(d):
            failures.append(f"i={i}: rank {rank} <= (k/3) log2 d")
    elapsed = time.monotonic() - started
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    _report(2, "iterated-join family r=4", failures, f"[{elapsed:.1f}s]")


# -- criterion 3: chain bounds on every identity from criteria 1-2 -----------

def test_criterion_3_chain_bounds():
    failures = []
    started = time.monotonic()
    instances = [("ks", r, gen_ks(r)) for r in range(2, 11)]
    instances += [
        ("family", i, gen_family(4, i, verify=False))
        for i in (1, 2, 3, 4)
    ]
    for kind, param, c in instances:
        label = f"{kind}({param})"
        k, d = c.k, c.degree
        values = ZeroOracle(trials=40, seed=3000 + d).term_values(c)
        if not (values.is_zero() and values.is_minimal()):
            failures.append(f"{label}: not a minimal identity under seed {3000 + d}")
        try:
            chain = build_chain(c)  # checks both again, under ZeroOracle()
        except Exception as exc:  # bound violations must fail the suite
            failures.append(f"{label}: build_chain raised {exc!r}")
            continue
        ideals = SpanBasis.from_vectors(
            c.field, c.n, [g.coeffs for link in chain.links for g in link.ideal.generators])
        if not all(ideals.contains(f.coeffs) for f in c.all_forms()):
            failures.append(f"{label}: chain not maximal")
        if chain.rank > (k - 2) * chain.m:
            failures.append(f"{label}: rank > (k-2) m")
        if d >= 2 and chain.m > chain_length_bound(k, d):
            failures.append(f"{label}: m over the chain bound")
        if d >= 2 and chain.n1 > math.comb(k, 2) * (math.log2(d) + 2):
            failures.append(f"{label}: N1 over its bound")
        if chain.n2 > math.comb(k, 2):
            failures.append(f"{label}: N2 over its bound")
        if chain.n3 > k - 1:
            failures.append(f"{label}: N3 over its bound")
    elapsed = time.monotonic() - started
    _report(3, "chain bounds", failures, f"[{elapsed:.1f}s]")


# -- criterion 4: doubling tightness ------------------------------------------

def test_criterion_4_doubling_tightness():
    failures = []
    boundary_hit = False
    for s in (3, 4, 5, 6):
        t = gen_tight_lists(s, p=5)
        if len(t.u) != 2 ** (s - 2) or len(t.v) != len(t.u):
            failures.append(f"s={s}: wrong sizes")
        if lists_similar(t.u, t.v) is not None:
            failures.append(f"s={s}: lists are similar")
        if not tight_lists_orthogonal(t):
            failures.append(f"s={s}: ideals not orthogonal")
        claimed = int(math.log2(len(t.u))) + 2
        if len(t.ideals) == claimed:
            rep = doubling_check(t.u, t.v, list(t.ideals))
            if rep.verdict != "BOUND_OK":
                failures.append(f"s={s}: verdict {rep.verdict}")
            elif rep.r != claimed or rep.r != rep.bound:
                failures.append(f"s={s}: not at the boundary (r={rep.r})")
            else:
                boundary_hit = True
    if not boundary_hit:
        failures.append("no s <= 6 reached the exact boundary")
    _report(4, "doubling tightness", failures)


# -- criterion 5: matching algebra --------------------------------------------

def test_criterion_5_matching_algebra():
    failures = []
    rng = random.Random(50_000)
    for t in range(200):
        pi1 = random_ordered_matching(rng, F5, n_max=6, size_max=8)
        sc1 = pi1.scaling_factor()
        if F5.mul(sc1, inverse(pi1).scaling_factor()) != 1:
            failures.append(f"#{t}: invert scaling")
        pi2 = random_ordered_matching(rng, F5, ideal_=pi1.ideal, size_max=8)
        if union(pi1, pi2).scaling_factor() != F5.mul(
            sc1, pi2.scaling_factor()
        ):
            failures.append(f"#{t}: union scaling")
        pi3 = random_ordered_matching(rng, F5, ideal_=pi1.ideal, domain=pi1.codomain)
        if composite(pi3, pi1).scaling_factor() != F5.mul(sc1, pi3.scaling_factor()):
            failures.append(f"#{t}: compose scaling")

    for t in range(100):
        n = rng.randrange(2, 6)
        r = rng.randrange(1, min(3, n - 1) + 1)
        from helpers import random_ideal, random_unit

        ideal = random_ideal(rng, F5, n, r)
        size = rng.randrange(1, 7)
        u = tuple(
            random_form(rng, F5, n, avoid_span=ideal.span) for _ in range(size)
        )
        v = [f.scale(random_unit(rng, F5)) for f in u]
        rng.shuffle(v)
        v = tuple(v)
        pi = find_matching(u, v, ideal)
        if pi is None:
            failures.append(f"sim #{t}: no matching found")
            continue
        sc = pi.scaling_factor()
        out = unscramble(pi, range(size), range(size))  # trivialized
        if any(e.level for e in out.edges):
            failures.append(f"sim #{t}: trivialize left a non-similar edge")
        if out.scaling_factor() != sc:
            failures.append(f"sim #{t}: trivialize changed sc")
        mu = brute_product(F5, n, u)
        mv = brute_product(F5, n, v)
        if mv != {key: F5.mul(sc, val) for key, val in mu.items()}:
            failures.append(f"sim #{t}: M(V) != sc * M(U)")
    _report(5, "matching algebra, 200 + 100 instances", failures)


# -- criterion 6: gcd / sim decomposition -------------------------------------

def test_criterion_6_gcd_sim():
    failures = []
    rng = random.Random(60_000)
    for t in range(200):
        c, ideal = _random_regular_instance(rng)
        try:
            gd = gcd_data(c, ideal)
            verify_gcd_by_expansion(gd)
        except Exception as exc:
            failures.append(f"#{t}: gcd_data raised {exc!r}")
            continue
        red_c = reduce_circuit(c, ideal)
        lhs = brute_expand(red_c)
        gcd_part = brute_product(F5, c.n, [ideal.reduce_prefix(ideal.r, f)
                                           for f in gd.matchings[0].domain])
        sim_red = reduce_circuit(gd.sim, ideal)
        rhs_terms = brute_expand(sim_red)
        # multiply the two expansions
        rhs = {}
        for e1, c1 in gcd_part.items():
            for e2, c2 in rhs_terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                s = F5.add(rhs.get(key, 0), F5.mul(c1, c2))
                if s == 0:
                    rhs.pop(key, None)
                else:
                    rhs[key] = s
        if lhs != rhs:
            failures.append(f"#{t}: C_Q != gcd * sim mod I")

    # unbalanced-class membership (gcd taken mod 0), exhaustive over forms
    import itertools

    for t in range(100):
        n = rng.randrange(2, 4)
        c = random_circuit(rng, F5, n, rng.randrange(2, 4), rng.randrange(1, 4))
        sim = gcd_data(c, FormIdeal(F5, n, ())).sim
        sim_keys = {similarity_key(f) for tt in sim.terms for f in tt.forms}
        for piv in range(n):
            for tail in itertools.product(range(5), repeat=n - piv - 1):
                ell = LinearForm(F5, (0,) * piv + (1,) + tail)
                key = similarity_key(ell)
                counts = {
                    sum(1 for f in tt.forms if similarity_key(f) == key)
                    for tt in c.terms
                }
                if (key in sim_keys) != (len(counts) > 1):
                    failures.append(f"membership #{t}: form {ell}")

    # span monotonicity under subsets and overlapping unions
    for t in range(100):
        n = rng.randrange(2, 5)
        c = random_circuit(rng, F5, n, 4, rng.randrange(1, 4))
        z = FormIdeal(F5, n, ())

        def sim_forms(q):
            return [
                f for tt in gcd_data(subcircuit(c, q), z).sim.terms for f in tt.forms
            ]

        q2 = sorted(rng.sample([0, 1, 2], rng.randrange(1, 3)))
        span1 = SpanBasis.from_vectors(F5, n, [f.coeffs for f in sim_forms([0, 1, 2])])
        if not all(span1.contains(f.coeffs) for f in sim_forms(q2)):
            failures.append(f"subset #{t}")
        qa, qb = [0, 1, 2], [2, 3]
        span_u = SpanBasis.from_vectors(
            F5, n, [f.coeffs for f in sim_forms(qa) + sim_forms(qb)]
        )
        if not all(span_u.contains(f.coeffs) for f in sim_forms([0, 1, 2, 3])):
            failures.append(f"union #{t}")
    _report(6, "gcd/sim decomposition, 200 + 100 + 100", failures)


# -- criterion 7: intro counterexamples ---------------------------------------

def test_criterion_7_counterexamples():
    failures = []
    for d in (1, 2, 3, 5):
        nonsimple, nonminimal = gen_intro_counterexamples(d)
        if circuit_rank(nonsimple) != d:
            failures.append(f"d={d}: nonsimple rank")
        if circuit_rank(nonminimal) != 2 * d + 2:
            failures.append(f"d={d}: nonminimal rank")
        if is_simple(nonsimple):
            failures.append(f"d={d}: nonsimple passed simplicity")
        if is_minimal(nonminimal):
            failures.append(f"d={d}: nonminimal passed minimality")
        if not zero_test_exact(nonsimple) or not zero_test_exact(nonminimal):
            failures.append(f"d={d}: zero oracle")
    _report(7, "intro counterexamples", failures)


# -- criterion 8: oracle cross-validation -------------------------------------

def _criterion8_circuit(rng, index):
    field = F2 if index % 2 else F5
    kind = index % 5
    if kind == 0:
        return random_pair_identity(rng, field, rng.randrange(2, 6),
                                    rng.randrange(1, 5))
    if kind == 1:
        # perturb an identity's constant: almost surely nonzero
        c = random_pair_identity(rng, field, rng.randrange(2, 6),
                                 rng.randrange(1, 5))
        t0 = c.terms[0]
        coef = field.add(t0.coef, field.one)
        if coef == field.zero:
            coef = field.one
        return Circuit(field, c.n, [Term(field, coef, t0.forms), c.terms[1]])
    if kind == 2:
        # two cancelling pairs: zero but non-minimal
        a = random_pair_identity(rng, field, 5, rng.randrange(1, 3))
        b = random_pair_identity(rng, field, 5, rng.randrange(1, 3))
        return Circuit(field, 5, a.terms + b.terms)
    if kind == 3 and field is F2:
        base = gen_ks(rng.choice((2, 3)))
        rows = random_embedding(rng, F2, base.n, 5)
        return substitute(base, rows, 5)
    return random_circuit(rng, field, rng.randrange(1, 6), rng.randrange(1, 5),
                          rng.randrange(1, 5))


def test_criterion_8_oracle_agreement():
    failures = []
    rng = random.Random(80_000)
    zeros = 0
    for index in range(500):
        c = _criterion8_circuit(rng, index)
        exact = zero_test_exact(c)
        rand = ZeroOracle("random", seed=index).is_zero(c)
        zeros += exact
        if exact != rand:
            failures.append(f"#{index}: exact={exact} random={rand}")
    detail = f"[{zeros} zero / {500 - zeros} nonzero]"
    _report(8, "oracle cross-validation, 500 circuits", failures, detail)


# -- criterion 9: linear factors ----------------------------------------------

def _frobenius_cube_identity(m):
    """x_1^3 + .. + x_m^3 + 2 (x_1 + .. + x_m)^3 is zero over GF(3)."""
    xs = [LinearForm(F3, [1 if j == i else 0 for j in range(m)]) for i in range(m)]
    total = LinearForm(F3, [1] * m)
    terms = [Term(F3, 1, [x] * 3) for x in xs]
    terms.append(Term(F3, 2, [total] * 3))
    return Circuit(F3, m, terms)


def _drop_one_term_cases(rng):
    """Simple, minimal, nonzero circuits whose polynomial is (minus) one term
    of a known identity, so the linear-factor set is known exactly."""
    out = []
    sources = [gen_ks(3), gen_ks(4), gen_ks(5),
               _frobenius_cube_identity(2), _frobenius_cube_identity(3)]
    while len(out) < 50:
        base = sources[rng.randrange(len(sources))]
        k = base.k
        drop = rng.randrange(k)
        kept = subcircuit(base, [q for q in range(k) if q != drop])
        n_out = rng.randrange(base.n, 9)
        rows = random_embedding(rng, base.field, base.n, n_out)
        c = substitute(kept, rows, n_out)
        dropped = substitute(subcircuit(base, [drop]), rows, n_out)
        want = {similarity_key(f) for f in dropped.terms[0].forms}
        out.append((c, want))
    return out


def test_criterion_9_linear_factors():
    failures = []
    rng = random.Random(90_000)
    cases = _drop_one_term_cases(rng)
    for index, (c, want) in enumerate(cases):
        if not (is_simple(c) and ZeroOracle("exact").term_values(c).is_minimal()
                and not zero_test_exact(c)):
            failures.append(f"#{index}: constructed case not simple/minimal/nonzero")
            continue
        if ZeroOracle().rung(c).name == "random":  # exact, so every reduction mod (q) is too
            failures.append(f"#{index}: linear_factors would not answer exactly")
            continue
        got_forms = linear_factors(c)
        got = {f.coeffs for f in got_forms}
        if got != want:
            failures.append(f"#{index}: factor set mismatch")
        k, d = c.k, c.degree
        factor_rank = SpanBasis.from_vectors(
            c.field, c.n, [f.coeffs for f in got_forms]
        ).rank
        if d >= 2 and factor_rank > k**3 * math.log2(d):
            failures.append(f"#{index}: factor rank {factor_rank} over k^3 log2 d")
    _report(9, "linear factors, 50 known cases", failures)
