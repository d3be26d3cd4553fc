import hashlib
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from sps import (
    BoundViolationError,
    FormIdeal,
    LinearForm,
    SpanBasis,
    VerificationError,
    ZeroOracle,
    build_chain,
    build_forest,
    chain_length_bound,
    circuit_rank,
    classify_matching_data,
    doubling_check,
    dumps_circuit,
    field_make,
    gen_family,
    gen_intro_counterexamples,
    gen_joined,
    gen_ks,
    gen_tight_lists,
    loads_circuit,
    make_circuit,
    similarity_key,
    single_round,
    subcircuit,
)
import sps.algebra
import sps.chain
import sps.circuit
import sps.forms
import sps.matching
import sps.quotient
from sps.chain import MatchingData
from sps.circuit import form_basis, form_keys
from sps.errors import OracleRefusalError
from helpers import (
    CountedKey,
    counting_eliminate,
    dense_rows,
    form_sub,
    load_bench,
    refuse_oracle_work,
    spy_edge_passes,
    trivial_link_simple_part_check,
)

F2 = field_make(2)
F5 = field_make(5)


def running_span(field, n, vecs):
    """The chain's running span S after appending the given independent vectors."""
    span = SpanBasis(field, n)
    for vec in vecs:
        span.insert(vec)
    return span


def span_of(field, n, vecs):
    return SpanBasis.from_vectors(field, n, vecs)


def test_build_chain_refuses_more_than_16_terms_before_any_work(monkeypatch):
    refuse_oracle_work(monkeypatch)
    # 17 distinct variables: simple, equal degrees, so only k stops it
    c = make_circuit(F2, 17, [(1, [[int(i == j) for j in range(17)]]) for i in range(17)])
    with pytest.raises(OracleRefusalError, match="k <= 16"):
        build_chain(c)
    for mode in ("exact", "random"):  # the refusal holds whichever oracle would answer
        with pytest.raises(OracleRefusalError, match="k <= 16"):
            ZeroOracle(mode).term_values(c)


def test_gen_joined_refuses_more_than_16_terms_before_any_work(monkeypatch):
    refuse_oracle_work(monkeypatch)
    base = make_circuit(F2, 1, [(1, [[1]])] * 16)
    with pytest.raises(OracleRefusalError, match="k <= 16"):
        gen_joined(base, gen_ks(3))
    joined = gen_joined(base, gen_ks(3), verify=False)
    for mode in ("exact", "random"):  # the refusal holds whichever oracle would answer
        with pytest.raises(OracleRefusalError, match="k <= 16"):
            ZeroOracle(mode).term_values(joined)


def test_single_round_ks3_from_empty():
    ks = gen_ks(3)
    ideal, md = single_round(ks, SpanBasis(F2, 3))
    assert [g.coeffs for g in ideal.generators] == [(1, 0, 0)]
    assert md.q_set == (1, 2)
    assert md.matchings[1].codomain == ks.terms[1].forms
    assert md.matchings[2].codomain == ks.terms[2].forms
    assert md.v0 == () and len(md.v1) == 2  # nothing in sp(I), all outside sp(S u I)


def test_single_round_ks3_final_round():
    ks = gen_ks(3)
    s = running_span(F2, 3, [(1, 0, 0), (0, 1, 0)])
    ideal, md = single_round(ks, s)
    assert [g.coeffs for g in ideal.generators] == [(0, 0, 1)]
    assert md.q_set == (0, 2)
    assert md.matchings[0].codomain == () and md.matchings[2].codomain == ()
    assert classify_matching_data(md, form_keys(ks)) == md.mtype == 3


def test_single_round_precondition():
    # build_chain never starts a round with every form in sp(S); a direct call
    # that does trips the assertion instead of returning an empty round
    full = running_span(F2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(AssertionError, match="outside sp"):
        single_round(gen_ks(3), full)


def test_build_chain_ks3_frozen_trace():
    chain = build_chain(gen_ks(3))
    assert chain.m == 3 and chain.rank == 3
    assert chain.rank <= (3 - 2) * chain.m
    assert chain.bound == 14  # 3 * (log2(2) + 3) + 2
    ideals = [[g.coeffs for g in link.ideal.generators] for link in chain.links]
    assert ideals == [[(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1)]]
    assert [link.mdata.mtype for link in chain.links] == [1, 1, 3]
    assert [link.mdata.q_set for link in chain.links] == [(1, 2), (1, 2), (0, 2)]
    assert (chain.n1, chain.n2, chain.n3) == (2, 0, 1)
    assert [row["external"] for row in chain.trace_rounds()] == [False, False, True]


def test_chain_trace_deterministic():
    a, b = build_chain(gen_ks(4)), build_chain(gen_ks(4))
    assert (a.trace_rounds(), a.summary()) == (b.trace_rounds(), b.summary())


def test_chain_bounds_ks():
    for r in (2, 3, 4, 5):
        c = gen_ks(r)
        chain = build_chain(c)
        k, d = c.k, c.degree
        assert chain.rank <= (k - 2) * chain.m
        assert chain.m <= chain_length_bound(k, max(d, 1))
        if d >= 2:
            assert chain.n1 <= math.comb(k, 2) * (math.log2(d) + 2)
            assert chain.n2 <= math.comb(k, 2)
        assert chain.n3 <= k - 1


def test_chain_family_member():
    member = gen_family(4, 1)
    values = ZeroOracle(trials=20, seed=5).term_values(member)
    assert values.is_zero() and values.is_minimal()
    chain = build_chain(member)
    k, d = member.k, member.degree
    assert (k, d) == (4, 8)
    assert chain.rank == 8 <= (k - 2) * chain.m
    assert chain.m <= chain_length_bound(k, d)


def test_trivial_link_simple_part_diagnostic():
    chain = build_chain(gen_ks(3))
    for i, link in enumerate(chain.links):
        if link.mdata.mtype == 3:
            assert trivial_link_simple_part_check(chain, i)


def test_build_chain_rejects_bad_input():
    with pytest.raises(VerificationError):
        build_chain(make_circuit(F2, 2, [(1, [[1, 0]]), (1, [[1, 0]])]))  # k < 3
    nonzero = make_circuit(
        F2, 3, [(1, [[1, 0, 0]]), (1, [[0, 1, 0]]), (1, [[0, 0, 1]])]
    )
    with pytest.raises(VerificationError):
        build_chain(nonzero)
    nonsimple, nonminimal = gen_intro_counterexamples(2)
    with pytest.raises(VerificationError):
        build_chain(
            make_circuit(F5, 2, list(
                (t.coef, [list(f.coeffs) for f in t.forms]) for t in nonsimple.terms
            ) + [(1, [[1, 0], [0, 1]]), (4, [[1, 0], [0, 1]])])
        )


def _synthetic_mdata(v_lists, ideal_span_forms, su_extra, field, n):
    """Hand-built matching data over term indices 0..len(v_lists)-1 for
    classifier unit tests. The classifier reads only each matching's
    positions (the lists themselves), the partition, which is taken from
    the first list, and the keys, so the matchings are stand-ins between
    V = v_lists[0] and each list."""
    ideal_span = span_of(field, n, [f.coeffs for f in ideal_span_forms])
    su = span_of(field, n, [f.coeffs for f in [*ideal_span_forms, *su_extra]])
    v = tuple(v_lists[0])
    return MatchingData(
        q_set=tuple(range(len(v_lists))),
        v_positions={q: tuple(range(len(forms))) for q, forms in enumerate(v_lists)},
        matchings={q: SimpleNamespace(domain=v, codomain=tuple(forms))
                   for q, forms in enumerate(v_lists)},
        v0=tuple(t for t, f in enumerate(v) if ideal_span.contains(f.coeffs)),
        v1=tuple(t for t, f in enumerate(v) if not su.contains(f.coeffs)),
        keys=synthetic_keys(v_lists),
    )


def synthetic_keys(v_lists):
    """form_keys of the circuit whose term q has the forms v_lists[q]."""
    return tuple(tuple(similarity_key(f) for f in forms) for forms in v_lists)


def test_classifier_types():
    x1, x2, x3 = (LinearForm(F5, [1, 0, 0]), LinearForm(F5, [0, 1, 0]), LinearForm(F5, [0, 0, 1]))
    cases = [
        ([[x1, x2], [x1, x3]], [x1], 1),  # Type 1: outside parts dissimilar
        ([[x2, x2, x3], [x2, x3.scale(4), x3]], [x1], 1),  # same classes, other counts
        # Type 2: outside parts similar (both empty), full lists dissimilar
        ([[x1, x2], [x1, x3]], [x1, x2, x3], 2),
        ([[x1, x2], [x1.scale(2), x2]], [x1], 3),  # Type 3: all lists similar, slot by slot
        ([[], []], [x1], 3),
    ]
    for v_lists, ideal_forms, mtype in cases:
        md = _synthetic_mdata(v_lists, ideal_forms, [], F5, 3)
        assert md.mtype == classify_matching_data(md, synthetic_keys(v_lists)) == mtype


def test_classifier_hashes_each_key_once_per_multiset():
    x1, x2, x3 = (LinearForm(F5, [1, 0, 0]), LinearForm(F5, [0, 1, 0]), LinearForm(F5, [0, 0, 1]))
    for v_lists, mtype in [([[x2, x3, x2]] * 3, 3), ([[x2, x3], [x3, x2], [x3, x3]], 1)]:
        md = _synthetic_mdata(v_lists, [x1], [], F5, 3)
        counted = [[CountedKey(k) for k in keys] for keys in synthetic_keys(v_lists)]
        assert classify_matching_data(md, counted) == mtype
        # every slot is outside sp(S u I), so a key sits in both multisets of its list
        assert max(k.hashes for keys in counted for k in keys) <= (2 if mtype == 3 else 1)


def test_forest_processing():
    def link(mtype, q_set):  # stand-in: the forest reads only mdata.mtype and q_set
        return SimpleNamespace(mdata=SimpleNamespace(mtype=mtype, q_set=q_set))

    # two external trivial links merge trees; a Type 1 link is not a forest link
    assert build_forest([link(3, (0, 1)), link(1, (0, 1)), link(3, (1, 2))], k=4) is None
    assert build_forest([link(3, (0, 1)), link(3, (1, 2)), link(3, (2, 3))], k=4) is None

    # an internal link (entirely inside one tree) must raise
    with pytest.raises(BoundViolationError, match="round 2"):
        build_forest([link(3, (0, 1)), link(3, (0, 1))], k=4)
    with pytest.raises(BoundViolationError, match="round 3"):
        build_forest([link(3, (0, 1)), link(3, (1, 2)), link(3, (0, 2))], k=4)


def test_type2_search_on_natural_chains():
    found = None
    for c in (gen_ks(3), gen_ks(4), gen_ks(5),
              gen_family(4, 1), gen_family(4, 2)):
        chain = build_chain(c)
        for link in chain.links:
            if link.mdata.mtype == 2:
                found = link
    if found is None:
        pytest.skip("no Type 2 link arose on the generated identities; recorded")


def test_chain_green_rank_monotone():
    chain = build_chain(gen_ks(5))
    ranks = [row["green_rank"] for row in chain.trace_rounds()]
    assert ranks == sorted(ranks)
    assert ranks[-1] == circuit_rank(chain.circuit)


def test_green_rank_is_the_rank_of_the_links_generators():
    for circuit in [gen_ks(r) for r in range(3, 8)] + [gen_family(3, i) for i in (1, 2)]:
        chain = build_chain(circuit)
        gens = []
        for row, link in zip(chain.trace_rounds(), chain.links):
            gens.extend(g.coeffs for g in link.ideal.generators)
            assert row["green_rank"] == span_of(circuit.field, circuit.n, gens).rank
        assert [row["external"] for row in chain.trace_rounds()] == [
            link.mdata.mtype == 3 for link in chain.links]


def test_round_ideals_mutually_orthogonal():
    from sps import spans_orthogonal

    for r in (3, 4, 6):
        chain = build_chain(gen_ks(r))
        assert spans_orthogonal([link.ideal.span for link in chain.links])


def _round_certificates_digest(chain):
    """Digest of every link's trace row, list positions, span partition and
    final edge certificates (c, level, ordered) with the offset
    w = image - c * source."""
    rows = chain.trace_rounds()
    for row, link in zip(rows, chain.links):
        md = link.mdata
        row["v_positions"] = {str(q): list(p) for q, p in md.v_positions.items()}
        row["v0"], row["v1"] = list(md.v0), list(md.v1)
        # every V_q partitions like V
        row["vq0"] = {str(q): list(md.v0) for q in md.q_set}
        row["vq1"] = {str(q): list(md.v1) for q in md.q_set}
        row["edges"] = {
            str(q): [[e.c, e.level, e.ordered,
                      list(form_sub(m.codomain[m.sigma[i]], m.domain[i].scale(e.c)).coeffs)]
                     for i, e in enumerate(m.edges)]
            for q, m in md.matchings.items()
        }
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# recorded when every round still derived its gcd edges through gcd_data
PINNED_ROUND_CERTIFICATES = {
    "ks3": "94241ba17af48619",
    "ks4": "b53085035e19d0da",
    "ks5": "e46a23c5c37980f8",
    "ks6": "b2fc184d1e1fa614",
    "ks7": "eac6de20aa69c81e",
    "ks8": "d42d15532ac40c22",
    "ks9": "fe9a4a49a1d79f3e",
    "family-3-1": "5862734f54cb75f8",
    "family-3-2": "ddf7c5d7ef89cd09",
    "family-3-3": "a9fdaca6ef9fec54",
    "family-4-1": "f9e3465021b755ad",
    "family-4-2": "1240035d5586972c",
    "vp-5^1": "ea5b32bc3d356636",
    "vp-2^3": "c22255076123d16b",
    "vp-3^2": "f8628aeb76daaec6",
    # recorded when each iteration of a round still reduced every remaining
    # form afresh; each round of these holds 2 or 3 generators
    "vp-5^1-j1": "9d076fa31bb63a22",
    "vp-5^1-j2": "e3615d50d15af072",
    "vp-7^1-j1": "192622a5bc6d94ba",
    "vp-2^3-j1": "a27035578b1bd05b",
    "vp-3^2-j1": "7f891253f3ed553e",
}


@pytest.fixture(scope="module")
def pinned_chains():
    """The chains of the PINNED_ROUND_CERTIFICATES corpus, by name."""
    bench = load_bench("instances")
    cases = {f"ks{r}": lambda r=r: gen_ks(r) for r in range(3, 10)}
    for r, i in ((3, 1), (3, 2), (3, 3), (4, 1), (4, 2)):
        cases[f"family-{r}-{i}"] = lambda r=r, i=i: gen_family(r, i)
    for p, e in ((5, 1), (2, 3), (3, 2)):  # the densified vanishing-product identities
        obj = bench.change_variables(bench.vanishing_identity(p, e), random.Random(1))
        cases[f"vp-{p}^{e}"] = lambda obj=obj: loads_circuit(bench.canon(obj))
    # densified joins, as check-exact draws them: odd characteristic and
    # rounds of several iterations, so carried records with leads other than 1
    for p, e, j in ((5, 1, 1), (5, 1, 2), (7, 1, 1), (2, 3, 1), (3, 2, 1)):
        obj = bench.change_variables(bench.joined_identity(sps, p, e, j), random.Random(1))
        cases[f"vp-{p}^{e}-j{j}"] = lambda obj=obj: loads_circuit(bench.canon(obj))
    return {name: build_chain(make()) for name, make in cases.items()}


def test_round_certificates_pinned(pinned_chains):
    digests = {name: _round_certificates_digest(chain)
               for name, chain in pinned_chains.items()}
    assert digests == PINNED_ROUND_CERTIFICATES


def test_implied_round_facts_hold_on_pinned_chains(pinned_chains):
    # single_round does not check these facts, because its construction
    # implies them; recompute each with SpanBasis alone. Trimming agreement
    # along every V -> V_q pairing is among them: the kept V_q forms
    # partition like V (v0 in sp(I), v1 outside sp(S u I)), and every untaken
    # form, the trimmed V_q forms included, lies in sp(S u I) \ sp(I)
    for name, chain in pinned_chains.items():
        circuit = chain.circuit
        field, n, k = circuit.field, circuit.n, circuit.k
        su_span = SpanBasis(field, n)  # S, then S u I once I's rows are in
        for link in chain.links:
            md, gens = link.mdata, [g.coeffs for g in link.ideal.generators]
            assert 1 < len(md.q_set) < k, name
            assert len(gens) <= k - 2, name
            i_span = SpanBasis.from_vectors(field, n, gens)
            for g in gens:  # I is orthogonal to S
                assert su_span.insert(g), name
            for q in md.q_set:
                pi = md.matchings[q]
                for forms in (pi.domain, pi.codomain):  # V and V_q partition alike
                    assert md.v0 == tuple(t for t, f in enumerate(forms)
                                          if i_span.contains(f.coeffs)), name
                    assert md.v1 == tuple(t for t, f in enumerate(forms)
                                          if not su_span.contains(f.coeffs)), name
                    assert len(md.v0) + len(md.v1) == len(forms), name
                taken = set(md.v_positions[q])
                for p, f in enumerate(circuit.terms[q].forms):
                    if p not in taken:  # leftovers lie in sp(S u I) \ sp(I)
                        assert su_span.contains(f.coeffs), name
                        assert not i_span.contains(f.coeffs), name


@pytest.mark.parametrize("field, n, spec, message", [
    (F2, 2, [(1, [[0, 1]]), (1, [[1, 1]]), (1, [[0, 1]])], "fewer than two terms survived"),
    (F2, 2, [(1, [[0, 1]]), (1, [[1, 0]]), (1, [[1, 0]]), (1, [[1, 1]])],
     "residual circuit is not an identity mod the ideal"),
    # the residual 1 + 2 of the two survivors, decided by factorization
    (F5, 2, [(1, [[1, 0]]), (1, [[0, 1]]), (2, [[0, 1]])],
     "residual circuit is not an identity mod the ideal"),
    (F2, 4, [(1, [[0, 1, 1, 1], [0, 1, 1, 1]]), (1, [[0, 0, 1, 0], [1, 1, 0, 1]]),
             (1, [[1, 0, 0, 1], [1, 0, 1, 1]]), (1, [[1, 0, 1, 1], [0, 1, 1, 0]])],
     "fanin-2 stop left unmatched forms"),
], ids=["survivors", "residual", "two-term-residual", "fanin-2"])
def test_single_round_refuses_non_identities(field, n, spec, message, monkeypatch):
    # the input-dependent checks a round keeps, each reached by a
    # non-identity that build_chain would have refused before its first round
    if len(spec) == 3:  # k = 3: a two-term residual, decided with no oracle work
        refuse_oracle_work(monkeypatch)
    with pytest.raises(VerificationError, match=message):
        single_round(make_circuit(field, n, spec), SpanBasis(field, n))


def test_every_split_term_matching_is_ordered():
    # split_term does not check that its matching is ordered, as scaling_factor
    # would refuse it otherwise: gcd_data takes regular terms only, and a
    # chain round pairs a form at iteration j only while it lies outside
    # prefix(j). Here every matching of a link, and of gcd_data mod the zero
    # ideal and mod each link's ideal on the terms regular mod it, is ordered
    bench = load_bench("instances")
    cases = {"ks9": gen_ks(9), "family-4-3": gen_family(4, 3)}
    for p, e in ((5, 1), (3, 2)):  # vp-5^1-j2 and vp-3^2-j2, densified
        obj = bench.change_variables(bench.joined_identity(sps, p, e, 2), random.Random(1))
        cases[f"vp-{p}^{e}-j2"] = loads_circuit(bench.canon(obj))
    for name, circuit in cases.items():
        chain = build_chain(circuit)
        matchings = [pi for link in chain.links for pi in link.mdata.matchings.values()]
        gcd_terms = 0
        ideals = [FormIdeal(circuit.field, circuit.n, ())] + [link.ideal for link in chain.links]
        for ideal in ideals:
            regular = [q for q, t in enumerate(circuit.terms)
                       if sps.quotient.reductions(t.forms, ideal) is not None]
            if regular:
                gd = sps.quotient.gcd_data(subcircuit(circuit, regular), ideal)
                matchings += gd.matchings.values()
                gcd_terms += len(regular)
        assert gcd_terms > circuit.k, name
        assert all(pi.is_ordered for pi in matchings), name


def test_each_round_derives_each_edge_once(monkeypatch):
    # a round pairs forms by their class keys alone; only its final matchings
    # derive edges, one per slot of V for every term of Q, and check each
    gcd_calls = []
    derived, checked = spy_edge_passes(monkeypatch)

    def refused_gcd(*args, **kwargs):
        gcd_calls.append(args)
        raise AssertionError("a chain round ran gcd_data")

    for mod in (sps.quotient, sps.chain):
        monkeypatch.setattr(mod, "gcd_data", refused_gcd, raising=False)
    for circuit in (gen_ks(6), gen_family(3, 2)):
        derived.clear()
        checked.clear()
        chain = build_chain(circuit)
        expected = sum(len(m.domain) for link in chain.links
                       for m in link.mdata.matchings.values())
        assert len(derived) == expected
        assert len(checked) == len(derived)
    assert gcd_calls == []


def test_first_survivor_edges_come_from_shared_records(monkeypatch):
    # V is a sublist of the first survivor's term, so that survivor's
    # matching pairs each slot with one record object: half of gen_ks(9)'s
    # edges, each the identity certificate
    derived, _ = spy_edge_passes(monkeypatch)
    chain = build_chain(gen_ks(9))
    shared = [s is d for s, d, _ in derived]
    assert (len(shared), sum(shared)) == (2048, 1024)
    for link in chain.links:
        md = link.mdata
        assert all(e == (1, 0, True) for e in md.matchings[md.q_set[0]].edges)


def _round_facts(ideal, md):
    """Everything a round returns, as comparable values."""
    return (ideal, md.q_set, md.v_positions, md.v0, md.v1, md.mtype,
            {q: (m.domain, m.codomain, m.sigma, m.edges) for q, m in md.matchings.items()})


# _round_facts of every link, as repr text, recorded when each iteration
# still reduced the forms of the term that supplied its picked form
PINNED_ROUND_FACTS = {
    "ks3": "6a8f251ce40508b2",
    "ks4": "7beaae1f42710d35",
    "ks5": "47d2caf638c3f7a6",
    "ks6": "0ec405e2eacac12f",
    "ks7": "e5db50f0e7d3598e",
    "ks8": "eae5508f21450317",
    "ks9": "cf33d8b1c5b51c96",
    "family-3-1": "cf0976bc280f86fa",
    "family-3-2": "52df7bd470a8fb31",
    "family-3-3": "d23b0848278fe2ea",
    "family-4-1": "0720134e9039dea9",
    "family-4-2": "0fb23f08a03880c6",
    "family-4-3": "5afcf084c999101a",
}


def _spy_record_steps(monkeypatch, on_step):
    """Patch a round's two record steps, the first iteration's
    quotient.reductions and each later iteration's FormIdeal.carry, to call
    on_step(kind, ideal, forms, records) as each returns, where forms are
    the forms whose records the step took (the first step's forms, followed
    through every carry) and records is what it returned."""
    form_of = {}  # id of a record a step returned -> its form
    reductions, carry = sps.chain.reductions, FormIdeal.carry

    def spied_reductions(forms, ideal):
        forms = list(forms)
        out = reductions(forms, ideal)
        on_step("reductions", ideal, forms, out)
        form_of.update(zip(map(id, out or ()), forms))
        return out

    def spied_carry(ideal, records):
        forms = [form_of[id(rec)] for rec in records]
        out = carry(ideal, records)
        on_step("carry", ideal, forms, out)
        form_of.update(zip(map(id, out), forms))
        return out

    monkeypatch.setattr(sps.chain, "reductions", spied_reductions)
    monkeypatch.setattr(FormIdeal, "carry", spied_carry)


def test_rounds_never_reduce_the_term_that_owns_the_picked_form(monkeypatch):
    # the picked form lies in sp(I), so its term dies in that iteration and
    # none of its forms is reduced: neither by the first iteration's
    # reductions nor by a later one's FormIdeal.carry, each call of which
    # takes the records of one other term's forms. The rounds stay those
    # pinned above. The circuits are reloaded so that no form object is
    # shared by two terms
    calls = []  # per record step: its kind, the terms of its forms, the picked form
    _spy_record_steps(monkeypatch, lambda kind, ideal, forms, out: calls.append(
        (kind, {term_of[id(f)] for f in forms}, ideal.generators[-1])))
    carried = 0
    cases = {f"ks{r}": gen_ks(r) for r in range(3, 10)}
    for r in (3, 4):
        for i in (1, 2, 3):
            cases[f"family-{r}-{i}"] = gen_family(r, i)
    digests = {}
    for name, circuit in cases.items():
        circuit = loads_circuit(dumps_circuit(circuit))
        term_of = {id(f): q for q, t in enumerate(circuit.terms) for f in t.forms}
        assert len(term_of) == sum(circuit.degrees), name
        calls.clear()
        chain = build_chain(circuit)
        assert calls, name
        for kind, terms, picked in calls:
            assert len(terms) == 1 and term_of[id(picked)] not in terms, name
        carried += sum(kind == "carry" for kind, _, _ in calls)
        text = repr([_round_facts(link.ideal, link.mdata) for link in chain.links])
        digests[name] = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digests == PINNED_ROUND_FACTS
    assert carried  # some rounds ran several iterations


def test_carried_records_equal_fresh_reductions(pinned_chains, monkeypatch):
    # at every iteration of every round of the pinned corpus, the ideal built
    # on the previous one's rows is the constructor's, and each term's
    # carried records are the ones a fresh elimination gives, field for
    # field (a list and a tuple differ, so the rest's type is compared too)
    extended = FormIdeal.extended
    ideals, checked = [], Counter()

    def spied_extended(ideal, g):
        got = extended(ideal, g)
        want = FormIdeal(ideal.field, ideal.n, ideal.generators + (g,))
        assert got.generators == want.generators
        assert got.span.sparse_rows == want.span.sparse_rows
        assert got.span.sources == want.span.sources
        assert got == want and hash(got) == hash(want)
        ideals.append(got)
        return got

    def compare(kind, ideal, forms, out):
        if out is not None:
            fresh = list(FormIdeal(ideal.field, ideal.n, ideal.generators).reductions(forms))
            assert list(out) == fresh
            checked[kind] += len(fresh)
            if kind == "carry":
                checked["lead not 1"] += sum(rec.lead not in (None, 1) for rec in fresh)

    monkeypatch.setattr(FormIdeal, "extended", spied_extended)
    _spy_record_steps(monkeypatch, compare)
    for name, chain in pinned_chains.items():
        got = build_chain(chain.circuit)
        assert got.trace_rounds() == chain.trace_rounds(), name
    assert len(ideals) > 30 and checked["carry"] > 500 and checked["reductions"] > 1000
    # the joins over odd characteristic and extension fields carry records
    # whose key is their rest scaled, lead != 1
    assert checked["lead not 1"] > 50


# build_chain's row applications per kernel (helpers.chain_work), recorded
# when each iteration of a round first carried its records by one row
PINNED_CHAIN_WORK = {
    "ks9": {"eliminate": 5377, "carry": 0},
    "family-4-3": {"eliminate": 942, "carry": 576},
}


def test_chain_work_pinned():
    # a round that reduced its forms afresh at each iteration, or rebuilt
    # its ideal from every generator, would move these counts; they are the
    # same under two hash seeds
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests), str(Path(sps.__file__).resolve().parent.parent)])
    code = "import json, helpers; print(json.dumps(helpers.pinned_chain_work()))"
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert json.loads(run.stdout) == PINNED_CHAIN_WORK


def _count_span_rows(monkeypatch, skip=None):
    """The number of rows each vector eliminated by a SpanBasis meets, one
    entry per vector; eliminations by the sparse row tuple skip are left
    out."""
    counts = []

    def record(rows, v):
        if rows is not skip:
            counts.append(len(rows))

    monkeypatch.setattr(sps.algebra, "eliminate", counting_eliminate(record))
    return counts


def test_k3_rounds_run_on_remainders_and_factorization_alone(pinned_chains, monkeypatch):
    # sp(S u I) is read off running remainders, so over a chain's rounds each
    # distinct form meets each row of S u I at most once, and a k = 3 round's
    # residual has two terms, decided by factorization: no oracle
    chains = [(name, chain) for name, chain in pinned_chains.items() if chain.circuit.k == 3]
    assert len(chains) == 10
    rows = _count_span_rows(monkeypatch)
    refuse_oracle_work(monkeypatch)
    for name, chain in chains:
        circuit = chain.circuit
        rows.clear()
        s_span = SpanBasis(circuit.field, circuit.n)  # S, grown by each round in turn
        for link in chain.links:
            got = single_round(circuit, s_span)
            assert _round_facts(*got) == _round_facts(link.ideal, link.mdata), name
        distinct = len({f.coeffs for f in circuit.all_forms()})
        assert sum(rows) <= distinct * s_span.rank, name


def test_build_chain_makes_no_membership_test(monkeypatch):
    # no membership test from scratch: each distinct form meets each row of
    # the chain's span at most once. Besides, iteration j's ideal eliminates
    # its new generator by the j - 1 rows before it, and the exact oracle's
    # coordinates are over the circuit's cached form basis
    for circuit in (gen_ks(6), gen_family(3, 2)):
        want = build_chain(circuit)
        with monkeypatch.context() as patched:
            rows = _count_span_rows(patched, skip=form_basis(circuit).sparse_rows)
            got = build_chain(circuit)
        assert (got.trace_rounds(), got.summary()) == (want.trace_rounds(), want.summary())
        distinct = len({f.coeffs for f in circuit.all_forms()})
        ideals = sum(link.ideal.r * (link.ideal.r - 1) // 2 for link in got.links)
        assert sum(rows) <= distinct * got.rank + ideals


def test_chain_spans_keep_remainders_and_row_counts_only(monkeypatch):
    # the chain's running span records, per form it reduced, the remainder
    # and the number of rows it is reduced by, and no multipliers; the
    # links' ideals are built in one pass and record nothing
    spans = []
    original = sps.chain.single_round

    def capturing(circuit, su_span):
        spans.append(su_span)
        return original(circuit, su_span)

    monkeypatch.setattr(sps.chain, "single_round", capturing)
    chain = build_chain(gen_ks(9))
    span = spans[0]
    assert all(s is span for s in spans) and span.rank == chain.rank
    records = list(span._rest.values())
    assert records and all(len(rec) == 2 and type(rec[0]) is tuple and type(rec[1]) is int
                           and rec[1] <= span.rank for rec in records)
    assert all(link.ideal.span._rest == {} for link in chain.links)


def test_handed_out_bases_keep_their_rank():
    # only the code that builds a basis appends to it: a chain, a doubling
    # check and the verdicts of check leave a circuit's cached form basis and
    # every ideal's span at the rank they were built with
    circuit = gen_family(3, 2)
    basis = form_basis(circuit)
    rank = basis.rank
    chain = build_chain(circuit)
    t = gen_tight_lists(8, p=5)
    assert doubling_check(t.u, t.v, list(t.ideals)).verdict == "BOUND_OK"
    for mode in ("exact", "random"):
        values = ZeroOracle(mode).term_values(circuit)
        assert values.is_zero() and values.is_minimal()
    assert form_basis(circuit) is basis and basis.rank == rank == chain.rank
    for ideal in [link.ideal for link in chain.links] + list(t.ideals):
        assert ideal.span.rank == ideal.r
        rebuilt = FormIdeal(ideal.field, ideal.n, ideal.generators)
        assert dense_rows(ideal.span) == dense_rows(rebuilt.span)


def test_similarity_keys_once_per_distinct_form(monkeypatch):
    calls = []
    original = sps.forms.similarity_key

    def counted(f):
        calls.append(f.coeffs)
        return original(f)

    for mod in (sps.forms, sps.circuit, sps.matching):
        monkeypatch.setattr(mod, "similarity_key", counted)
    circuit = gen_ks(7)  # its forms are distinct
    build_chain(circuit)
    assert len(calls) == len(set(calls)) == len({f.coeffs for f in circuit.all_forms()})
