import hashlib
import json
import random
from dataclasses import asdict

import pytest

import sps.matching
import sps.quotient
from sps import (
    FormIdeal,
    LinearForm,
    OrderedMatching,
    SpanBasis,
    Term,
    VerificationError,
    doubling_check,
    field_make,
    find_matching,
    gen_tight_lists,
    similar,
    similarity_key,
    unscramble,
)
from helpers import (
    brute_product,
    counting_eliminate,
    doubling_corpus,
    form_add,
    form_sub,
    per_edge_check,
    per_edge_derive,
    random_form,
    random_ideal,
    random_span_element,
    random_unit,
    reference_check_edge,
    reference_common_positions,
    reference_derive_edge,
    scan_edge,
)
from sps.matching import MatchEdge, split_term

F2 = field_make(2)
F5 = field_make(5)


def ideal(field, n, *gens):
    return FormIdeal(field, n, [LinearForm(field, g) for g in gens])


def _derive_edge(ideal_, s, d):
    """The shipped derive pass on a one-slot matching."""
    return sps.matching._derive_edges(ideal_, [s], [d])[0]


def _check_edge(ideal_, s, d, edge) -> bool:
    """Whether the shipped check pass accepts edge on a one-slot matching."""
    return sps.matching._check_edges(ideal_, [s], [d], [edge]) is None


def offsets(pi):
    """Each edge's offset w = image - c * source, recomputed from the lists."""
    return [form_sub(pi.codomain[j], f.scale(e.c)) for f, j, e in zip(pi.domain, pi.sigma, pi.edges)]


def random_ordered_matching(rng, field, n_max=6, size_max=8, ideal_=None, domain=None):
    """Forward construction: pick U and push each form through a random valid
    edge map (scalar, prefix level, offset in that prefix span)."""
    n = ideal_.n if ideal_ is not None else rng.randrange(2, n_max + 1)
    if ideal_ is None:
        ideal_ = random_ideal(rng, field, n, rng.randrange(1, min(3, n - 1) + 1))
    if domain is None:
        size = rng.randrange(0, size_max + 1)
        domain = tuple(random_form(rng, field, n) for _ in range(size))
    images = []
    for f in domain:
        for _ in range(50):
            level = rng.randrange(0, ideal_.r + 1)
            if ideal_.reduce_prefix(level, f).is_zero:
                continue
            c = random_unit(rng, field)
            w = random_span_element(rng, field, ideal_, level)
            img = form_add(f.scale(c), w)
            if not img.is_zero:
                images.append(img)
                break
        else:
            images.append(f)  # fall back to the identity edge
    order = list(range(len(domain)))
    rng.shuffle(order)
    codomain = [None] * len(domain)
    sigma = [0] * len(domain)
    for i, slot in enumerate(order):
        codomain[slot] = images[i]
        sigma[i] = slot
    return OrderedMatching.build(ideal_, domain, tuple(codomain), tuple(sigma))


def test_find_matching_examples():
    i3 = ideal(F5, 3, [0, 0, 1])
    u = (LinearForm(F5, [0, 1, 0]), LinearForm(F5, [1, 1, 0]))
    v = (LinearForm(F5, [0, 1, 1]), LinearForm(F5, [1, 1, 2]))
    pi = find_matching(u, v, i3)
    assert pi is not None and pi.is_ordered
    assert [e.c for e in pi.edges] == [1, 1]

    assert find_matching((LinearForm(F5, [1, 0, 0]),), (LinearForm(F5, [0, 1, 0]),), i3) is None

    u = (LinearForm(F5, [1, 1, 0]),)
    pi = find_matching(u, u, i3)
    assert [e.c for e in pi.edges] == [1]
    assert [e.level for e in pi.edges] == [0]


def test_scaling_factor_examples():
    i3 = ideal(F5, 3, [0, 0, 1])
    pi = find_matching((LinearForm(F5, [1, 0, 0]),), (LinearForm(F5, [2, 0, 1]),), i3)
    assert pi.scaling_factor() == 2

    empty = OrderedMatching.build(i3, (), (), ())
    assert empty.scaling_factor() == 1

    F7 = field_make(7)
    i7 = ideal(F7, 3, [0, 0, 1])
    pi2 = OrderedMatching.build(
        i7,
        (LinearForm(F7, [1, 0, 0]), LinearForm(F7, [0, 1, 0])),
        (LinearForm(F7, [2, 0, 0]), LinearForm(F7, [0, 3, 1])),
        (0, 1),
    )
    assert pi2.scaling_factor() == 6


def inverse(pi):
    """pi's inverse matching, certified afresh: codomain to domain by sigma's
    inverse."""
    return OrderedMatching.build(pi.ideal, pi.codomain, pi.domain,
                                 sorted(range(len(pi)), key=pi.sigma.__getitem__))


def union(pi1, pi2):
    """The concatenation of two matchings, certified afresh by pi1's ideal."""
    return OrderedMatching.build(pi1.ideal, pi1.domain + pi2.domain,
                                 pi1.codomain + pi2.codomain,
                                 pi1.sigma + tuple(j + len(pi1) for j in pi2.sigma))


def composite(pi2, pi1):
    """pi2 after pi1 (pi1's codomain is pi2's domain), certified afresh."""
    return OrderedMatching.build(pi1.ideal, pi1.domain, pi2.codomain,
                                 [pi2.sigma[j] for j in pi1.sigma])


def test_invert_union_compose_examples():
    i3 = ideal(F5, 3, [0, 0, 1])
    pi = find_matching((LinearForm(F5, [1, 0, 0]),), (LinearForm(F5, [2, 0, 1]),), i3)
    back = inverse(pi)
    assert back.scaling_factor() == 3  # 2^-1 mod 5

    empty = OrderedMatching.build(i3, (), (), ())
    assert union(pi, empty).scaling_factor() == pi.scaling_factor()

    round_trip = composite(back, pi)
    assert round_trip.scaling_factor() == 1
    assert all(offset.is_zero for offset in offsets(round_trip))

    # a union is certified by one ideal: an edge that only another ideal
    # certifies (x1 -> x1 + x2 by (x2)) is refused
    other = find_matching((LinearForm(F5, [1, 0, 0]),), (LinearForm(F5, [1, 1, 0]),),
                          ideal(F5, 3, [0, 1, 0]))
    assert other is not None
    with pytest.raises(VerificationError):
        union(pi, other)


def test_matching_algebra_random():
    rng = random.Random(2024)
    for _ in range(60):
        pi1 = random_ordered_matching(rng, F5)
        assert F5.mul(pi1.scaling_factor(), inverse(pi1).scaling_factor()) == 1
        pi2 = random_ordered_matching(rng, F5, ideal_=pi1.ideal)
        assert union(pi1, pi2).scaling_factor() == F5.mul(
            pi1.scaling_factor(), pi2.scaling_factor()
        )
        pi3 = random_ordered_matching(rng, F5, ideal_=pi1.ideal, domain=pi1.codomain)
        assert composite(pi3, pi1).scaling_factor() == F5.mul(
            pi1.scaling_factor(), pi3.scaling_factor()
        )


def test_unscramble_one_flip_example():
    i3 = ideal(F5, 3, [0, 0, 1])
    x1 = LinearForm(F5, [1, 0, 0])
    x1_plus = LinearForm(F5, [1, 0, 1])
    u = (x1, x1)
    v = (x1_plus, x1)
    # matching sending the first copy to x1 + x3, the second to x1
    pi = OrderedMatching.build(i3, u, v, (0, 1))
    out = unscramble(pi, [0], [1])  # u' = first copy, v' = the bare x1
    assert out.codomain[out.sigma[0]] == x1
    assert out.codomain[out.sigma[1]] == x1_plus
    # no-op cases
    assert unscramble(pi, [], []).sigma == pi.sigma
    pre_similar = OrderedMatching.build(i3, u, v, (1, 0))
    out = unscramble(pre_similar, [0], [1])
    assert out.codomain[out.sigma[0]] == x1


def trivialized(pi):
    """pi unscrambled toward its whole domain and codomain (lists that must be
    similar), checked to be per-edge similarities of pi's scaling factor."""
    out = unscramble(pi, range(len(pi)), range(len(pi)))
    assert not any(e.level for e in out.edges)
    assert out.scaling_factor() == pi.scaling_factor()
    return out


def test_trivialize_examples():
    i3 = ideal(F5, 3, [0, 0, 1])
    u = (LinearForm(F5, [1, 0, 0]),)
    v = (LinearForm(F5, [2, 0, 0]),)
    pi = find_matching(u, v, i3)
    out = trivialized(pi)
    assert out.sigma == pi.sigma and out.scaling_factor() == 2

    # non-similar lists: a matching exists by (x3) but cannot be trivialized
    w = (LinearForm(F5, [1, 0, 1]),)
    pi_ns = find_matching(u, w, i3)
    assert pi_ns is not None
    with pytest.raises(ValueError):
        trivialized(pi_ns)


def test_constructor_refuses_a_zero_offset_at_a_higher_level():
    # a valid but non-minimal level is not the edge's certificate
    i1 = ideal(F5, 3, [0, 0, 1])
    u, v = (LinearForm(F5, [1, 0, 0]),), (LinearForm(F5, [2, 0, 0]),)
    built = OrderedMatching.build(i1, u, v, (0,))
    assert built.edges[0].level == 0
    with pytest.raises(VerificationError):
        OrderedMatching(i1, u, v, (0,), (built.edges[0]._replace(level=1),))
    assert trivialized(built).scaling_factor() == 2


def test_trivialize_preserves_scaling_and_products():
    rng = random.Random(31337)
    for _ in range(60):
        n = rng.randrange(2, 5)
        ideal_ = random_ideal(rng, F5, n, rng.randrange(1, min(3, n - 1) + 1))
        size = rng.randrange(1, 6)
        # domain stays outside sp(I) so the found matching is ordered
        u = tuple(random_form(rng, F5, n, avoid_span=ideal_.span) for _ in range(size))
        v = [f.scale(random_unit(rng, F5)) for f in u]
        rng.shuffle(v)
        v = tuple(v)
        pi = find_matching(u, v, ideal_)
        assert pi is not None
        sc = pi.scaling_factor()
        out = trivialized(pi)
        assert out.scaling_factor() == sc
        assert all(offset.is_zero for offset in offsets(out))
        # M(V) = sc * M(U) exactly, via the independent expansion oracle
        mu = brute_product(F5, n, u)
        mv = brute_product(F5, n, v)
        assert mv == {k: F5.mul(sc, val) for k, val in mu.items()}


def test_plain_matching_has_no_scaling_factor():
    # a scalar multiple inside the span still gets an ordered level-0 edge
    i1 = ideal(F5, 3, [1, 0, 0])
    pi0 = find_matching((LinearForm(F5, [1, 0, 0]),), (LinearForm(F5, [2, 0, 0]),), i1)
    assert pi0 is not None and pi0.is_ordered and pi0.edges[0].level == 0

    # dissimilar forms inside the span only admit a plain edge; sc undefined
    i12 = ideal(F5, 3, [1, 0, 0], [0, 1, 0])
    x, y = LinearForm(F5, [1, 0, 0]), LinearForm(F5, [0, 1, 0])
    pi = find_matching((x,), (y,), i12)
    assert pi is not None and not pi.is_ordered
    with pytest.raises(ValueError):
        pi.scaling_factor()
    # built by hand too; split_term, which has no check of its own, refuses
    # it through scaling_factor
    hand = OrderedMatching(i12, (x,), (y,), (0,), (MatchEdge(1, 2, False),))
    assert hand.edges == pi.edges
    with pytest.raises(ValueError, match="ordered"):
        hand.scaling_factor()
    term = Term(F5, 1, [y, LinearForm(F5, [0, 0, 1])])
    with pytest.raises(ValueError, match="ordered"):
        split_term(i12, (x,), term, (0,), (0,), sps.matching._records(i12, (x,), (y,)))


def test_unscramble_rejects_dissimilar_sublists():
    i3 = ideal(F5, 3, [0, 0, 1])
    u = (LinearForm(F5, [1, 0, 0]), LinearForm(F5, [0, 1, 0]))
    pi = find_matching(u, u, i3)
    with pytest.raises(ValueError):
        unscramble(pi, [0], [1])


def test_certificates_rechecked():
    i3 = ideal(F5, 3, [0, 0, 1])
    pi = find_matching((LinearForm(F5, [1, 0, 0]),), (LinearForm(F5, [2, 0, 1]),), i3)
    from sps.matching import MatchEdge

    assert MatchEdge._fields == ("c", "level", "ordered")
    bad = MatchEdge(3, 1, True)
    with pytest.raises(VerificationError):
        OrderedMatching(i3, pi.domain, pi.codomain, pi.sigma, (bad,))


def test_edge_certificates_admit_no_other_scalar_or_lower_level():
    """An ordered edge's (c, level) is the only certificate that verifies:
    any other nonzero c, c + p, the level lowered or raised by 1, the levels
    -1 and r + 1, or the unordered flag, is refused."""
    rng = random.Random(31)
    kinds = set()
    for field in (F5, field_make(7), field_make(2, 3), field_make(3, 2)):
        for _ in range(15):
            pi = random_ordered_matching(rng, field)
            assert pi.is_ordered
            r = pi.ideal.r
            for i, e in enumerate(pi.edges):
                mutants = [e._replace(c=c) for c in range(1, field.order) if c != e.c]
                mutants += [e._replace(level=level) for level in (e.level + 1, -1, r + 1)]
                mutants.append(e._replace(ordered=False))
                if field.e == 1:
                    mutants.append(e._replace(c=e.c + field.p))
                    kinds.add("c + p")
                if e.level:
                    mutants.append(e._replace(level=e.level - 1))
                    kinds.add("level")
                for bad in mutants:
                    edges = pi.edges[:i] + (bad,) + pi.edges[i + 1:]
                    with pytest.raises(VerificationError):
                        OrderedMatching(pi.ideal, pi.domain, pi.codomain, pi.sigma, edges)
                kinds.add("c")
    assert kinds == {"c", "c + p", "level"}


def test_each_form_pair_has_exactly_one_certificate():
    """Over every candidate (c, level, ordered), the constructor accepts the
    edge that build derives and nothing else, and none when build finds
    none: certificates are canonical, unordered edges between forms in the
    span included, and so are edges from one record object to itself, as a
    round's first survivor gives them."""
    rng = random.Random(2011)
    outcomes = set()

    def accepted(ideal_, src, dst, reductions=None):
        out = []
        for edge in (MatchEdge(c, level, ordered) for c in range(1, ideal_.field.order)
                     for level in range(ideal_.r + 1) for ordered in (True, False)):
            try:
                OrderedMatching(ideal_, (src,), (dst,), (0,), (edge,), reductions)
            except VerificationError:
                continue
            out.append(edge)
        return out

    for field in (F2, F5, field_make(2, 2), field_make(3, 2)):
        for _ in range(60):
            n = rng.randrange(1, 5)
            ideal_ = random_ideal(rng, field, n, rng.randrange(0, n + 1))
            r = ideal_.r
            for _ in range(4):
                if rng.random() < 0.4:
                    src = random_form(rng, field, n)
                else:
                    src = random_span_element(rng, field, ideal_, rng.randrange(r + 1))
                dst = random_span_element(rng, field, ideal_, rng.randrange(r + 1))
                if rng.random() < 0.7:
                    dst = form_add(dst, src.scale(field.rand_element(rng)))
                derived = _derive_edge(ideal_, ideal_.reduction(src), ideal_.reduction(dst))
                assert accepted(ideal_, src, dst) == ([] if derived is None else [derived])
                outcomes.add("none" if derived is None else
                             "ordered" if derived.ordered else "plain")
                rec = ideal_.reduction(src)
                shared = _derive_edge(ideal_, rec, rec)
                assert shared == (MatchEdge(1, r, False) if src.is_zero else MatchEdge(1, 0, True))
                assert accepted(ideal_, src, src, ([rec], [rec])) == [shared]
                outcomes.add("shared zero" if src.is_zero else "shared")
    assert outcomes == {"none", "ordered", "plain", "shared", "shared zero"}


def test_edge_ordered_flag_must_be_a_bool():
    # a truthy non-bool flag would read as is_ordered; the constructor
    # accepts only the derived certificate, so it refuses one
    x = LinearForm(F5, [1, 0])
    i1 = ideal(F5, 2, [0, 1])
    rec = i1.reduction(x)
    for flag in ("yes", [1], 1):
        for reductions in (None, ([rec], [rec])):
            with pytest.raises(VerificationError):
                OrderedMatching(i1, (x,), (x,), (0,), (MatchEdge(1, 0, flag),), reductions)
    assert OrderedMatching(i1, (x,), (x,), (0,), (MatchEdge(1, 0, True),)).is_ordered


def test_edge_kernel_matches_reference():
    """_derive_edge and _check_edge equal the former generator-scan kernel
    on every candidate edge, including c and level out of range, for
    sources outside the span, inside it and zero, with one record object
    as both sides in at least a third of the cases."""
    rng = random.Random(19)
    kinds, cases, shared_cases = set(), 0, 0
    for field in (F2, F5, field_make(7), field_make(2, 2), field_make(2, 3), field_make(3, 2)):
        for _ in range(250):
            n = rng.randrange(1, 6)
            ideal_ = random_ideal(rng, field, n, rng.randrange(0, n + 1))
            r = ideal_.r
            kind = rng.choice(("outside", "inside", "zero"))
            if kind == "outside" and r < n:
                src = random_form(rng, field, n, avoid_span=ideal_.span, any_element=True)
            elif kind == "zero":
                src = LinearForm(field, [0] * n)
            else:
                kind, src = "inside", random_span_element(rng, field, ideal_, rng.randrange(r + 1))
            kinds.add(kind)
            s = ideal_.reduction(src)
            if rng.random() < 0.4:
                d = s
                shared_cases += 1
            else:
                dst = random_span_element(rng, field, ideal_, rng.randrange(r + 1))
                if rng.random() < 0.7:
                    dst = form_add(dst, src.scale(field.rand_element(rng)))
                d = ideal_.reduction(dst)
            cases += 1
            assert _derive_edge(ideal_, s, d) == reference_derive_edge(ideal_, s, d)
            for edge in (MatchEdge(c, level, ordered) for c in range(field.order + 1)
                         for level in range(-1, r + 2) for ordered in (True, False)):
                assert _check_edge(ideal_, s, d, edge) == reference_check_edge(ideal_, s, d, edge)
    assert kinds == {"outside", "inside", "zero"} and 3 * shared_cases >= cases


def test_matching_passes_match_the_per_edge_reference():
    """_derive_edges and _check_edges, one pass per matching, give the
    per-edge reference's certificate at every slot and reject exactly the
    slots it rejects: on seeded batches of record pairs over GF(2), GF(5),
    GF(7), GF(2^2), GF(2^3) and GF(3^2), in 1-5 variables under ideals of 0-4
    generators, with sources outside the span, inside it at every level
    0..r (zero among them) and shared as one record on both sides, and each
    slot's edge derived, corrupted or drawn at random. On each slot alone,
    _check_edges accepts exactly the candidate edges the reference accepts,
    c in 0..q, level in -1..r+1, both flags."""
    rng = random.Random(40)
    kinds, rejected, slots = set(), 0, 0
    for field in (F2, F5, field_make(7), field_make(2, 2), field_make(2, 3), field_make(3, 2)):
        for _ in range(60):
            n = rng.randrange(1, 6)
            ideal_ = random_ideal(rng, field, n, rng.randrange(0, min(4, n) + 1))
            r = ideal_.r
            kinds.add(f"r {min(r, 1)}")
            src, dst = [], []
            for _ in range(rng.randrange(1, 7)):
                if rng.random() < 0.5 and r < n:
                    kind, f = "outside", random_form(rng, field, n, avoid_span=ideal_.span)
                else:
                    kind, f = "inside", random_span_element(rng, field, ideal_, rng.randrange(r + 1))
                kinds.add("zero" if f.is_zero else kind)
                s = ideal_.reduction(f)
                if rng.random() < 0.3:
                    d = s
                    kinds.add("shared")
                else:
                    g = random_span_element(rng, field, ideal_, rng.randrange(r + 1))
                    if rng.random() < 0.7:
                        g = form_add(g, f.scale(field.rand_element(rng)))
                    d = ideal_.reduction(g)
                src.append(s)
                dst.append(d)
            reference = [per_edge_derive(ideal_, s, d) for s, d in zip(src, dst)]
            assert sps.matching._derive_edges(ideal_, src, dst) == reference
            edges = []
            for e in reference:
                roll = rng.random()
                if e is not None and roll < 0.5:
                    edges.append(e)
                elif e is not None and roll < 0.75:
                    edges.append(e._replace(level=e.level + rng.choice((-1, 1))))
                else:
                    edges.append(MatchEdge(rng.randrange(field.order + 1),
                                           rng.randrange(-1, r + 2), rng.random() < 0.5))
            bad = [not per_edge_check(ideal_, *case) for case in zip(src, dst, edges)]
            first = bad.index(True) if any(bad) else None
            assert sps.matching._check_edges(ideal_, src, dst, edges) == first
            rejected += sum(bad)
            slots += len(bad)
            for s, d in zip(src, dst):
                for edge in (MatchEdge(c, level, ordered) for c in range(field.order + 1)
                             for level in range(-1, r + 2) for ordered in (True, False)):
                    assert _check_edge(ideal_, s, d, edge) == per_edge_check(ideal_, s, d, edge)
    assert kinds == {"outside", "inside", "zero", "shared", "r 0", "r 1"}
    assert 0.2 * slots < rejected < 0.8 * slots


def _distinct_class_lists(rng, field, ideal_, size):
    """size forms outside the ideal's span with pairwise distinct class keys
    modulo it, and an image list reached by random valid edges: no two slots
    admit each other's images, so every swap of sigma entries is refused."""
    forms, keys = [], set()
    while len(forms) < size:
        f = random_form(rng, field, ideal_.n, avoid_span=ideal_.span)
        key = ideal_.reduction(f).key
        if key not in keys:
            keys.add(key)
            forms.append(f)
    images = [form_add(f.scale(random_unit(rng, field)),
                       random_span_element(rng, field, ideal_, rng.randrange(ideal_.r + 1)))
              for f in forms]
    return tuple(forms), tuple(images)


def test_constructor_refuses_every_single_field_corruption():
    """Matchings from build, from the identity path and from the inverse and
    composite sigmas: the constructor refuses each edge with c + 1, c - 1, level + 1,
    level - 1 or the ordered flag flipped, and c given as a float or as
    True, every swap of two sigma entries and sigma's entries 0 and 1 given
    as bools; with the records reduced afresh, and for identity matchings
    also with one shared record list."""
    rng = random.Random(41)
    sources = set()
    for field in (F2, F5, field_make(7), field_make(2, 3), field_make(3, 2)):
        for _ in range(8):
            n = rng.randrange(4, 6)  # n - r >= 3: at least 7 classes outside the span
            ideal_ = random_ideal(rng, field, n, rng.randrange(1, n - 2))
            u, v = _distinct_class_lists(rng, field, ideal_, rng.randrange(2, 5))
            sigma = list(range(len(u)))
            rng.shuffle(sigma)
            codomain = [None] * len(u)
            for i, j in enumerate(sigma):
                codomain[j] = v[i]
            built = OrderedMatching.build(ideal_, u, codomain, sigma)
            recs = list(ideal_.reductions(u))
            same = OrderedMatching.identity(ideal_, u, u)
            cases = [("build", built, None), ("identity", same, None),
                     ("identity", same, (recs, recs)), ("invert", inverse(built), None),
                     ("compose", composite(inverse(built), built), None)]
            for source, pi, reductions in cases:
                sources.add(source)
                for i, e in enumerate(pi.edges):
                    mutants = [e._replace(c=e.c + 1), e._replace(c=e.c - 1),
                               e._replace(level=e.level + 1), e._replace(level=e.level - 1),
                               e._replace(ordered=not e.ordered),
                               e._replace(c=float(e.c)), e._replace(c=True)]
                    for bad in mutants:
                        edges = pi.edges[:i] + (bad,) + pi.edges[i + 1:]
                        with pytest.raises(VerificationError):
                            OrderedMatching(pi.ideal, pi.domain, pi.codomain, pi.sigma,
                                            edges, reductions)
                for i in range(len(pi)):
                    for j in range(i + 1, len(pi)):
                        swapped = list(pi.sigma)
                        swapped[i], swapped[j] = swapped[j], swapped[i]
                        with pytest.raises(VerificationError):
                            OrderedMatching(pi.ideal, pi.domain, pi.codomain, swapped,
                                            pi.edges, reductions)
                bools = [bool(s) if s < 2 else s for s in pi.sigma]  # 0, 1 as False, True
                with pytest.raises(VerificationError):
                    OrderedMatching(pi.ideal, pi.domain, pi.codomain, bools, pi.edges, reductions)
                OrderedMatching(pi.ideal, pi.domain, pi.codomain, pi.sigma, pi.edges, reductions)
    assert sources == {"build", "identity", "invert", "compose"}


def test_identity_path_equals_build_and_refuses_what_build_refuses():
    """OrderedMatching.identity gives build's matching field for field on
    lists with forms outside and inside the span, and refuses the zero form
    (the one form in prefix(0), which admits no self edge) and unequal
    lists."""
    rng = random.Random(42)
    for field in (F2, F5, field_make(2, 3), field_make(3, 2)):
        for _ in range(20):
            n = rng.randrange(2, 6)
            ideal_ = random_ideal(rng, field, n, rng.randrange(1, n + 1))
            forms = []
            for _ in range(rng.randrange(1, 6)):
                f = random_span_element(rng, field, ideal_, rng.randrange(1, ideal_.r + 1))
                if f.is_zero or rng.random() < 0.5:
                    f = random_form(rng, field, n)
                forms.append(f)
            pi = OrderedMatching.identity(ideal_, forms, list(forms))
            built = OrderedMatching.build(ideal_, forms, forms, range(len(forms)))
            assert (pi.ideal, pi.domain, pi.codomain, pi.sigma, pi.edges) == \
                (built.ideal, built.domain, built.codomain, built.sigma, built.edges)
            assert pi.scaling_factor() == 1
            zero = LinearForm(field, [0] * n)
            with_zero = forms[:]
            with_zero.insert(rng.randrange(len(forms) + 1), zero)
            with pytest.raises(VerificationError, match="edge certificate"):
                OrderedMatching.identity(ideal_, with_zero, with_zero)
            other = forms[:-1] + [random_form(rng, field, n)]
            if other != forms:
                with pytest.raises(VerificationError):
                    OrderedMatching.identity(ideal_, forms, other)


def test_edge_scalar_must_be_a_canonical_element():
    i1 = ideal(F5, 3, [0, 0, 1])
    u, v = (LinearForm(F5, [1, 0, 0]),), (LinearForm(F5, [2, 0, 0]),)
    with pytest.raises(VerificationError):  # 7 = 2 mod 5, not canonical
        OrderedMatching(i1, u, v, (0,), (MatchEdge(7, 0, True),))
    F9 = field_make(3, 2)
    x = LinearForm(F9, [1, 0])
    j1 = FormIdeal(F9, 2, [LinearForm(F9, [0, 1])])
    with pytest.raises(VerificationError):  # out of range, not a ValueError
        OrderedMatching(j1, (x,), (x,), (0,), (MatchEdge(10, 0, True),))
    assert OrderedMatching(j1, (x,), (x,), (0,), (MatchEdge(1, 0, True),)).is_ordered


def test_derived_edges_match_prefix_scan():
    """Edge certificates and prefix reductions agree with fresh echelon bases
    of the generator prefixes, over prime and extension fields, for sources
    inside and outside the span."""
    rng = random.Random(20081)
    outcomes = set()
    for field in (F2, F5, field_make(2, 3), field_make(3, 2)):
        def vector(n):
            return [field.rand_element(rng) for _ in range(n)]

        for _ in range(150):
            n = rng.randrange(1, 6)
            r = rng.randrange(0, n + 1)
            span, gens = SpanBasis(field, n), []
            while len(gens) < r:
                v = vector(n)
                if span.insert(tuple(v)):
                    gens.append(LinearForm(field, v))
            ideal_ = FormIdeal(field, n, gens)

            def prefix_element(level):
                w = LinearForm(field, [0] * n)
                for g in gens[:level]:
                    w = form_add(w, g.scale(field.rand_element(rng)))
                return w

            for _ in range(4):
                if rng.random() < 0.5:
                    src = LinearForm(field, vector(n))
                else:
                    src = prefix_element(rng.randrange(r + 1))
                if rng.random() < 0.6:
                    dst = form_add(src.scale(field.rand_element(rng)),
                                   prefix_element(rng.randrange(r + 1)))
                else:
                    dst = LinearForm(field, vector(n))
                edge = _derive_edge(ideal_, ideal_.reduction(src), ideal_.reduction(dst))
                assert edge == scan_edge(ideal_, src, dst)
                if edge is None:
                    outcomes.add("none")
                elif not edge.ordered:
                    outcomes.add("plain")
                else:
                    outcomes.add("level 0" if edge.level == 0 else "higher level")

            f = LinearForm(field, vector(n))
            for j in range(r + 1):
                prefix = SpanBasis.from_vectors(field, n, [g.coeffs for g in gens[:j]])
                assert ideal_.reduce_prefix(j, f).coeffs == prefix.reduce(f.coeffs)
                assert ideal_.reduce_prefix(j, f).is_zero == prefix.contains(f.coeffs)
                w = prefix_element(j)
                assert ideal_.reduce_prefix(j, w).is_zero and prefix.contains(w.coeffs)
    assert outcomes == {"level 0", "higher level", "plain", "none"}


def test_doubling_check_trivial_cases():
    i1 = ideal(F5, 3, [1, 0, 0])
    u = (LinearForm(F5, [0, 0, 1]),)
    v = (LinearForm(F5, [1, 0, 1]),)
    rep = doubling_check(u, v, [i1])
    assert rep.verdict == "BOUND_OK" and rep.r == 1 and rep.d_prime == 1

    same = (LinearForm(F5, [1, 1, 0]), LinearForm(F5, [0, 1, 0]))
    rep2 = doubling_check(same, same, [i1])
    assert rep2.verdict == "SIMILAR"


def test_doubling_check_tight_lists():
    t = gen_tight_lists(4)
    rep = doubling_check(t.u, t.v, list(t.ideals))
    assert rep.verdict == "BOUND_OK"
    assert rep.r == 4 and rep.d_prime == 4 and rep.bound == 4.0
    greens = [rd.green_U for rd in rep.rounds]
    assert greens == [1, 2, 4, 4]
    assert all(rd.green_U == rd.green_V for rd in rep.rounds)

    t6 = gen_tight_lists(6)
    rep6 = doubling_check(t6.u, t6.v, list(t6.ideals))
    assert rep6.verdict == "BOUND_OK" and rep6.r == 6 and rep6.bound == 6.0


def test_doubling_check_never_contradicts_on_valid_input():
    rng = random.Random(424242)
    hits = 0
    for _ in range(100):
        n = rng.randrange(3, 6)
        d = rng.randrange(1, 7)
        # orthogonal ideals
        ideals = []
        from sps import SpanBasis

        span = SpanBasis(F5, n)
        while len(ideals) < rng.randrange(1, 3) and span.rank < n - 1:
            g = random_form(rng, F5, n, avoid_span=span)
            span.insert(g.coeffs)
            ideals.append(FormIdeal(F5, n, [g]))
        if not ideals:
            continue
        u = tuple(random_form(rng, F5, n) for _ in range(d))
        pi0 = random_ordered_matching(rng, F5, ideal_=ideals[0], domain=u)
        v = pi0.codomain
        kept = [i for i in ideals if find_matching(u, v, i) is not None]
        if not kept:
            continue
        hits += 1
        rep = doubling_check(u, v, kept)
        assert rep.verdict != "CONTRADICTION"
    assert hits >= 50  # the construction really exercised the checker


def test_doubling_check_input_validation():
    # the checks run in this order: a matching by each ideal, the lists' sizes,
    # the ideals' orthogonality
    i1 = ideal(F5, 3, [1, 0, 0])
    i1b = ideal(F5, 3, [2, 0, 0])  # same span: not orthogonal
    i2 = ideal(F5, 3, [0, 1, 0])
    u = (LinearForm(F5, [0, 0, 1]),)
    v = (LinearForm(F5, [1, 0, 1]),)
    with pytest.raises(VerificationError, match="no matching between U and V by ideal 1"):
        doubling_check(u, v, [i1, i2, i1b])
    with pytest.raises(VerificationError, match="no matching between U and V by ideal 0"):
        doubling_check(u, (), [i1])
    with pytest.raises(VerificationError, match="nonempty lists of equal size"):
        doubling_check(u, (), [])
    with pytest.raises(VerificationError, match="nonempty lists of equal size"):
        doubling_check((), (), [i1])
    with pytest.raises(VerificationError, match="mutually orthogonal"):
        doubling_check(u, v, [i1, i1b])


# sha256 over the corpus of json.dumps(asdict(report)) + "\n", recorded
# while doubling_check still re-checked the restriction to the remainders,
# their coprimality and i0 against a basis of the ideals alone
DOUBLING_CORPUS_DIGEST = "7db3652c65a336aaa963e9f37f50902e54e7661c7908270544cbad9610c250e7"


def test_doubling_check_implied_facts_on_corpus():
    """The facts doubling_check reads off its construction instead of
    checking: after unscrambling by the similar sublists every matching sends
    rest_u into rest_v, the remainders share no similar pair, and i0 is the
    first round whose ideals alone span the seed. The reports are those of
    the checker that still tested all three."""
    digest = hashlib.sha256()
    both = early = 0
    for u, v, ideals, pis in doubling_corpus(random.Random(2008), 2000):
        rep = doubling_check(u, v, ideals)
        digest.update(json.dumps(asdict(rep)).encode() + b"\n")
        sim_u, sim_v = reference_common_positions([[similarity_key(f) for f in u],
                                                   [similarity_key(g) for g in v]])
        rest_u = [i for i in range(len(u)) if i not in sim_u]
        rest_v = [j for j in range(len(v)) if j not in sim_v]
        assert all(similar(u[i], v[j]) is None for i in rest_u for j in rest_v)
        for pi in pis:
            sigma = unscramble(pi, sim_u, sim_v).sigma
            assert {sigma[i] for i in rest_u} == set(rest_v)
        i0, gens = len(ideals) + 1, []
        for idx, ideal_ in enumerate(ideals if rest_u else (), start=1):
            gens += [g.coeffs for g in ideal_.generators]
            if SpanBasis.from_vectors(u[0].field, u[0].n, gens).contains(u[rest_u[0]].coeffs):
                i0 = idx
                break
        assert rep.i0 == i0
        both += bool(sim_u and rest_u)
        early += i0 <= len(ideals)
    assert both >= 1000 and early >= 100  # both paths really ran
    assert digest.hexdigest() == DOUBLING_CORPUS_DIGEST


def test_find_matching_reduces_each_form_once_per_ideal(monkeypatch):
    """find_matching reduces each form of u and v once modulo the ideal, and
    its class key, edge derivation and edge check all read that record."""
    t = gen_tight_lists(6)
    calls = []
    counted = counting_eliminate(lambda rows, v: calls.append(v))
    for module in (sps.quotient, sps.matching):  # FormIdeal's and the checker's
        monkeypatch.setattr(module, "eliminate", counted)
    for ideal_ in t.ideals:
        calls.clear()
        assert find_matching(t.u, t.v, ideal_) is not None
        assert len(calls) == len(t.u) + len(t.v) == 32


def test_doubling_check_keeps_running_remainders(monkeypatch):
    """Each pending form meets each basis row at most once: the membership
    tests of doubling_check (eliminations in its module) pass its vectors at
    most 2 * d' * rank(final basis) rows in all, no SpanBasis.contains call
    runs (i0 is read off the insert flag), and the green counts equal a
    from-scratch SpanBasis.contains recount."""
    t = gen_tight_lists(8, p=5)
    rows, contains_calls = [], []

    def counted_contains(self, v):
        contains_calls.append(v)
        return contains(self, v)

    contains = SpanBasis.contains
    monkeypatch.setattr(sps.matching, "eliminate",
                        counting_eliminate(lambda rows_, v: rows.append(len(rows_))))
    monkeypatch.setattr(SpanBasis, "contains", counted_contains)
    rep = doubling_check(t.u, t.v, list(t.ideals))
    monkeypatch.undo()

    field, n = t.field, t.n
    assert rep.verdict == "BOUND_OK" and rep.similar_pairs == 0 and rep.d_prime == len(t.u)
    assert contains_calls == []
    vectors = [t.u[0].coeffs]  # the seed: no pairs are similar, so rest_u is all of u
    recount = []
    for ideal_ in t.ideals:
        vectors += [g.coeffs for g in ideal_.generators]
        basis = SpanBasis.from_vectors(field, n, vectors)
        recount.append(tuple(sum(basis.contains(f.coeffs) for f in side)
                             for side in (t.u, t.v)))
    assert [(rd.green_U, rd.green_V) for rd in rep.rounds] == recount
    assert sum(rows) <= 2 * rep.d_prime * basis.rank


def test_reduction_records_live_on_no_long_lived_object():
    # a reduction record lives for one call: records kept on ideals raised
    # the benchmark's peak memory by 9 to 15 %, so neither class may grow a
    # slot (or a __dict__) to hold them, an ideal's span keeps no running
    # remainder, and the span kernel keeps no state beyond its rows, its
    # sources and the running remainders of the spans that grow
    assert FormIdeal.__slots__ == ("field", "n", "generators", "span")
    assert SpanBasis.__slots__ == ("field", "n", "sparse_rows", "sources", "_rest")
    assert OrderedMatching.__slots__ == ("ideal", "domain", "codomain", "sigma", "edges")
    pi = find_matching((LinearForm(F5, [1, 0]),), (LinearForm(F5, [2, 1]),),
                       ideal(F5, 2, [0, 1]))
    assert not hasattr(pi, "__dict__") and not hasattr(pi.ideal, "__dict__")
    assert pi.ideal.span._rest == {}
