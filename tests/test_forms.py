import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sps import (
    LinearForm,
    Term,
    field_make,
    lists_similar,
    normalize,
    similar,
    similarity_key,
)
from sps.forms import pair_by_key, pair_common
from helpers import CountedKey, brute_product, random_form, random_ideal, reference_pair_common

F2 = field_make(2)
F5 = field_make(5)


def test_normalize_examples():
    can, sc = normalize(LinearForm(F5, [3, 2]))
    assert can.coeffs == (1, 4) and sc == 3  # 3^-1 = 2 mod 5
    can, sc = normalize(LinearForm(F2, [0, 1]))
    assert can.coeffs == (0, 1) and sc == 1
    can, sc = normalize(LinearForm(F5, [0, 0, 2]))
    assert can.coeffs == (0, 0, 1) and sc == 2
    with pytest.raises(ValueError):
        normalize(LinearForm(F5, [0, 0]))


def test_similar_examples():
    assert similar(LinearForm(F5, [2, 2]), LinearForm(F5, [1, 1])) == 2
    assert similar(LinearForm(F5, [1, 0]), LinearForm(F5, [0, 1])) is None
    assert similar(LinearForm(F2, [1, 1]), LinearForm(F2, [1, 1])) == 1
    # zero forms: similar only to zero
    assert similar(LinearForm(F5, [0, 0]), LinearForm(F5, [0, 0])) == 1
    assert similar(LinearForm(F5, [0, 0]), LinearForm(F5, [1, 0])) is None


def test_similar_sublist():
    # the order-preserving sublist of forms similar to ell, by class keys
    def similar_sublist(ell, forms):
        return tuple(f for f in forms if similarity_key(f) == similarity_key(ell))

    s = [LinearForm(F5, [1, 0, 0]), LinearForm(F5, [2, 0, 0]), LinearForm(F5, [0, 1, 0])]
    got = similar_sublist(LinearForm(F5, [1, 0, 0]), s)
    assert got == (s[0], s[1])
    assert similar_sublist(LinearForm(F5, [0, 0, 1]), s[:2]) == ()
    x = LinearForm(F2, [1, 1])
    assert similar_sublist(x, [LinearForm(F2, [1, 1])]) == (x,)
    with pytest.raises(ValueError):  # the zero form has no similarity class
        similarity_key(LinearForm(F5, [0, 0, 0]))


def test_lists_similar_examples():
    u = (LinearForm(F5, [1, 0]), LinearForm(F5, [0, 1]))
    v = (LinearForm(F5, [0, 2]), LinearForm(F5, [3, 0]))
    assert lists_similar(u, v) == (1, 0)
    x1, x2 = LinearForm(F5, [1, 0]), LinearForm(F5, [0, 1])
    assert lists_similar((x1, x1), (x1, x2)) is None
    assert lists_similar((), ()) == ()


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (2, 3), (3, 2)])
def test_field_output_forms_equal_public_construction(p, e):
    field = field_make(p, e)
    rng = random.Random(p * 10 + e)

    def public(g):
        return LinearForm(field, g.coeffs)

    for _ in range(40):
        f = random_form(rng, field, 4, any_element=True)
        g = random_form(rng, field, 4, any_element=True)
        c = field.rand_element(rng)
        ideal_ = random_ideal(rng, field, 4, rng.randrange(1, 4))
        made = [f.scale(c), normalize(f)[0],
                ideal_.reduce_prefix(ideal_.r, f), ideal_.reduce_prefix(1, g)]
        for out in made:
            assert type(out.coeffs) is tuple
            assert out == public(out) and hash(out) == hash(public(out))
        assert f.scale(field.one) == f and f.scale(1) == f


def test_normalize_idempotent_and_class_keys():
    rng = random.Random(11)
    for _ in range(200):
        f = random_form(rng, F5, 4)
        can, sc = normalize(f)
        can2, sc2 = normalize(can)
        assert can2 == can and sc2 == F5.one
        c = rng.randrange(1, 5)
        assert normalize(f.scale(c))[0] == can


forms_f5 = st.lists(
    st.tuples(*[st.integers(0, 4)] * 3).filter(lambda t: any(t)), min_size=0, max_size=5
)


@settings(max_examples=60, deadline=None)
@given(base=forms_f5, data=st.data())
def test_similar_lists_product_scales(base, data):
    # lists_similar(U, V) present => M(V) = c * M(U) for some scalar c
    scalars = data.draw(
        st.lists(st.integers(1, 4), min_size=len(base), max_size=len(base))
    )
    u = tuple(LinearForm(F5, c) for c in base)
    v = tuple(f.scale(c) for f, c in zip(u, scalars))
    v = tuple(data.draw(st.permutations(list(v))))
    sigma = lists_similar(u, v)
    assert sigma is not None
    mu = brute_product(F5, 3, u)
    mv = brute_product(F5, 3, v)
    prod = 1
    for c in scalars:
        prod = F5.mul(prod, c)
    assert mv == {k: F5.mul(prod, val) for k, val in mu.items()}


def test_sublists_in_span_stay_similar():
    # similar lists restricted to the forms inside an ideal's span are similar
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randrange(2, 5)
        size = rng.randrange(0, 6)
        u = [random_form(rng, F5, n) for _ in range(size)]
        v = [f.scale(rng.randrange(1, 5)) for f in u]
        rng.shuffle(v)
        ideal = random_ideal(rng, F5, n, rng.randrange(1, n + 1))
        u_in = [f for f in u if ideal.span.contains(f.coeffs)]
        v_in = [f for f in v if ideal.span.contains(f.coeffs)]
        assert lists_similar(u_in, v_in) is not None


def test_term_invariants():
    with pytest.raises(ValueError):
        Term(F5, 0, [LinearForm(F5, [1, 0])])
    with pytest.raises(ValueError):
        Term(F5, 1, [LinearForm(F5, [0, 0])])
    t = Term(F5, 2, [])
    assert t.degree == 0


def test_messages_print_extension_coefficients_as_digit_tuples():
    # pinned before elements became packed ints: messages on stderr quote these
    from sps import FormIdeal

    F9 = field_make(3, 2)
    f = LinearForm(F9, [(1, 0), (0, 1)])
    g = LinearForm(F9, [(0, 0), (2, 1)])
    assert str(f) == "x1 + (0, 1)*x2"
    assert repr(f) == "LinearForm([(1, 0), (0, 1)])"
    assert repr(Term(F9, (2, 1), [f, g])) == "(2, 1)*(x1 + (0, 1)*x2)*((2, 1)*x2)"
    assert repr(FormIdeal(F9, 2, [f])) == "FormIdeal(['x1 + (0, 1)*x2'])"
    assert str(LinearForm(F5, [0, 3])) == "3*x2"


def _key_lists(rng):
    """1-5 lists of 0-12 class keys from a small alphabet, so keys repeat
    within and across lists; every key is a fresh tuple object, so equal
    keys are never the same object."""
    alphabet = [(1, rng.randrange(3), rng.randrange(3)) for _ in range(rng.randint(1, 6))]
    return [[tuple(list(rng.choice(alphabet))) for _ in range(rng.randint(0, 12))]
            for _ in range(rng.randint(1, 5))]


def _pairing_corpus(rng):
    """1-6 lists over a shared alphabet of 1-6 class keys: each list holds
    each key 0-4 times, in a shuffled order, so keys repeat within a list
    and are missing from some lists, and about one list in eight is empty.
    Every key is a fresh tuple object, so equal keys are never the same
    object."""
    alphabet = [(1, i, rng.randrange(3)) for i in range(rng.randint(1, 6))]
    lists = []
    for _ in range(rng.randint(1, 6)):
        keys = [] if rng.random() < 0.125 else [
            k for k in alphabet for _ in range(rng.randint(0, 4))]
        rng.shuffle(keys)
        lists.append([tuple(list(k)) for k in keys])
    return lists


def test_pair_common_matches_the_pairing_on_the_keys_themselves():
    # the reference pairs by reference_common_positions and pair_by_key on
    # the keys, sharing no code with the count-list pairing
    rng = random.Random(28)
    seen = set()
    for _ in range(3000):
        key_lists = _pairing_corpus(rng)
        assert pair_common(key_lists) == reference_pair_common(key_lists)
        counts = [Counter(keys) for keys in key_lists]
        keys = set().union(*counts)
        seen.add(("lists", len(key_lists)))
        seen.add(("empty", any(not k for k in key_lists)))
        seen.add(("missing", any(k not in c for k in keys for c in counts)))
        seen.add(("repeats", max((max(c.values(), default=0) for c in counts))))
    assert seen >= {*(("lists", m) for m in range(1, 7)), ("empty", True),
                    ("missing", True), *(("repeats", r) for r in range(1, 5))}
    assert pair_common([[]]) == ([[]], [()])
    assert pair_common([[(1,)], []]) == reference_pair_common([[(1,)], []]) == ([[], []], [(), ()])


def test_pair_common_hashes_each_key_at_most_once():
    rng = random.Random(29)
    for _ in range(300):
        key_lists = _pairing_corpus(rng)
        counted = [[CountedKey(k) for k in keys] for keys in key_lists]
        assert pair_common(counted) == reference_pair_common(key_lists)
        assert max((k.hashes for keys in counted for k in keys), default=0) <= 1


def _brute_pairing(keys_u, keys_v):
    """Each key of u, in order, takes the first unused equal key of v; None
    when some key finds none or the lengths differ."""
    if len(keys_u) != len(keys_v):
        return None
    used, sigma = set(), []
    for k in keys_u:
        j = next((j for j, kv in enumerate(keys_v) if j not in used and kv == k), None)
        if j is None:
            return None
        used.add(j)
        sigma.append(j)
    return tuple(sigma)


def test_pair_by_key_hashes_each_key_at_most_once_per_side():
    rng = random.Random(30)
    paired = 0
    for _ in range(300):
        keys_u = _key_lists(rng)[0]
        if rng.random() < 0.5:  # the same keys in another order: a pairing exists
            keys_v = rng.sample(keys_u, len(keys_u))
        else:
            keys_v = _key_lists(rng)[0]
        counted_u, counted_v = [CountedKey(k) for k in keys_u], [CountedKey(k) for k in keys_v]
        sigma = pair_by_key(counted_u, counted_v)
        assert sigma == _brute_pairing(keys_u, keys_v)
        paired += sigma is not None and len(sigma) > 0
        for side in (counted_u, counted_v):
            assert max((k.hashes for k in side), default=0) <= 1
    assert paired >= 100
