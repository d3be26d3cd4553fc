"""Shared test utilities: an independent brute-force expansion oracle,
seeded random generators for forms, ideals, circuits, and identities, and
reference checks that the library itself does not run."""

import importlib.util
import itertools
import sys
from pathlib import Path

import sps.circuit
from sps import (
    Circuit,
    FormIdeal,
    LinearForm,
    SpanBasis,
    Term,
    VerificationError,
    field_make,
    find_matching,
    gcd_data,
    similar,
    spans_orthogonal,
    subcircuit,
    zero_test_exact,
)
from sps.circuit import DEFAULT_EXPANSION_BUDGET, form_basis
from sps.quotient import is_zero_mod


def brute_expand(circuit):
    """Independent expansion oracle: enumerate every choice of one coefficient
    per form and count monomials. Exponential in the degree; for tiny inputs
    only. Returns {exponent tuple: nonzero coefficient}."""
    field = circuit.field
    total = {}
    for t in circuit.terms:
        nz = [
            [(i, c) for i, c in enumerate(f.coeffs) if c != field.zero]
            for f in t.forms
        ]
        for pick in itertools.product(*nz):
            e = [0] * circuit.n
            coef = t.coef
            for i, c in pick:
                e[i] += 1
                coef = field.mul(coef, c)
            key = tuple(e)
            s = field.add(total.get(key, field.zero), coef)
            if s == field.zero:
                total.pop(key, None)
            else:
                total[key] = s
    return total


def sequential_gf2_expand(circuit):
    """The former GF(2) expansion kernel: each term's forms multiplied into
    the running set of monomials one form at a time, over the coordinates of
    the circuit's form basis, with exponents packed as _expand_terms packs
    them (shift-sized fields, coordinate j at bit shift * j)."""
    basis = form_basis(circuit)
    shift_bits = max(1, circuit.degree.bit_length())
    polys = []
    for t in circuit.terms:
        cur = {0}
        for f in t.forms:
            coords = basis.coordinates(f.coeffs)
            nxt = set()
            for j in range(basis.rank):
                if coords[j]:
                    shift = 1 << (shift_bits * j)
                    nxt.symmetric_difference_update(k + shift for k in cur)
            cur = nxt
        polys.append(cur)
    return polys


def brute_product(field, n, forms, coef=None):
    """brute_expand of a single term."""
    c = field.one if coef is None else field.element(coef)
    return brute_expand(Circuit(field, n, [Term(field, c, list(forms))]))


def random_form(rng, field, n, avoid_span=None, any_element=False):
    """Random nonzero form, optionally outside a given span. Coordinates come
    from the prime subfield unless any_element is set."""
    draw = field.rand_element if any_element else (lambda r: r.randrange(field.p))
    while True:
        f = LinearForm(field, [draw(rng) for _ in range(n)])
        if f.is_zero:
            continue
        if avoid_span is not None and avoid_span.contains(f.coeffs):
            continue
        return f


def random_ideal(rng, field, n, r):
    """Random form-ideal with r independent generators."""
    span = SpanBasis(field, n)
    gens = []
    while len(gens) < r:
        g = random_form(rng, field, n, avoid_span=span)
        span, _ = span.insert(g.coeffs)
        gens.append(g)
    return FormIdeal(field, n, gens)


def random_unit(rng, field):
    while True:
        c = field.rand_element(rng)
        if c != field.zero:
            return c


def random_span_element(rng, field, ideal, level):
    """Random element of the level-j prefix span (possibly zero)."""
    f = LinearForm(field, [0] * ideal.n)
    for g in ideal.generators[:level]:
        f = f.add(g.scale(rng.randrange(field.p)))
    return f


def scan_edge(ideal, src, dst):
    """Reference edge certificate (c, level, ordered) for dst = c*src + w with
    w in the level prefix span, or None, found by scanning generator prefixes
    upward.

    Uses only fresh reduced-row-echelon bases of the prefixes and plain
    similarity, never the ideal's own elimination data. The first level
    whose reductions are similar is the minimal one; when src enters the
    span first, only a plain edge (c = 1, level r) between span elements
    remains.
    """
    field, n = src.field, src.n
    gens = [g.coeffs for g in ideal.generators]
    for j in range(ideal.r + 1):
        prefix = SpanBasis.from_vectors(field, n, gens[:j])
        if prefix.contains(src.coeffs):
            break
        c = similar(LinearForm(field, prefix.reduce(dst.coeffs)),
                    LinearForm(field, prefix.reduce(src.coeffs)))
        if c is not None:
            return (c, j, True)
    else:
        return None
    span = SpanBasis.from_vectors(field, n, gens)
    if span.contains(src.coeffs) and span.contains(dst.coeffs):
        return (field.one, ideal.r, False)
    return None


def random_circuit(rng, field, n, k, d, any_element=False):
    """Random circuit with k terms of degree d (forms nonzero, coefs nonzero);
    any_element as in random_form."""
    terms = []
    for _ in range(k):
        terms.append(
            Term(
                field,
                random_unit(rng, field),
                [random_form(rng, field, n, any_element=any_element) for _ in range(d)],
            )
        )
    return Circuit(field, n, terms)


def reference_term_values(circuit, ev, rng):
    """The former random-trial kernel: every form of every term evaluated
    coordinate by coordinate at one point of ev, drawn by the same n
    ev.rand_element(rng) calls; a term stops at its first zero form."""
    point = [ev.rand_element(rng) for _ in range(circuit.n)]
    add, mul = ev.add, ev.mul
    values = []
    for t in circuit.terms:
        val = t.coef
        for f in t.forms:
            s = 0
            for a, x in zip(f.coeffs, point):
                if a:
                    s = add(s, x if a == 1 else mul(a, x))
            val = mul(val, s)
            if not val:
                break
        values.append(val)
    return values


def subset_reference(circuit, oracle):
    """Minimality by the former per-subset loop: every proper subset of >= 2
    terms, in bitmask order, zero-tested as its own subcircuit by
    oracle.is_zero (so each subset picks its own evaluation field, and in auto
    mode its own exact-vs-random path)."""
    k = circuit.k
    masks = (m for m in range(3, (1 << k) - 1) if m.bit_count() >= 2)
    subsets = ([i for i in range(k) if m >> i & 1] for m in masks)
    return not any(oracle.is_zero(subcircuit(circuit, q)) for q in subsets)


def divides_by_substitution(circuit, piv, q_coeffs, oracle):
    """Reference test of C = 0 mod (q) for q with leading 1 at piv: substitute
    x_piv = -(the rest of q) into every form, drop that variable and
    zero-test the shrunken circuit in n - 1 variables."""
    field = circuit.field
    keep = [j for j in range(circuit.n) if j != piv]
    new_terms = []
    for t in circuit.terms:
        forms = []
        for f in t.forms:
            c = f.coeffs[piv]
            reduced = [field.sub(f.coeffs[j], field.mul(c, q_coeffs[j])) for j in keep]
            if not any(reduced):
                break
            forms.append(LinearForm(field, reduced))
        else:
            new_terms.append(Term(field, t.coef, forms))
    if not new_terms:
        return True
    return oracle.is_zero(Circuit(field, circuit.n - 1, new_terms))


def linear_factors_reference(circuit, oracle):
    """linear_factors by enumeration through divides_by_substitution."""
    field, n = circuit.field, circuit.n
    found = []
    for piv in range(n):
        for tail in itertools.product(range(field.p), repeat=n - piv - 1):
            q = (0,) * piv + (1,) + tail
            if divides_by_substitution(circuit, piv, q, oracle):
                found.append(LinearForm(field, q))
    return tuple(found)


def reference_vector_from_json(p, e, n, vec):
    """The loader's per-element vector check: every coordinate checked on its
    own, the first bad one named."""
    if len(vec) != n:
        raise ValueError(f"form has {len(vec)} coordinates, expected {n}")
    return tuple(sps.circuit._element_from_json(p, e, c) for c in vec)


def reference_from_vectors(field, n, vectors):
    """SpanBasis.from_vectors by inserting every vector (each one eliminated)
    until the rank is n, then checking only lengths."""
    basis = SpanBasis(field, n)
    for v in vectors:
        if basis.rank < n:
            basis, _ = basis.insert(v)
        else:
            basis._check(v)
    return basis


def load_bench(name):
    """bench/<name>.py loaded read-only as its own module; its field arithmetic
    and instance builders never call sps."""
    key = f"bench_{name}"
    if key not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(key, path)
        mod = importlib.util.module_from_spec(spec)
        sys.modules[key] = mod  # dataclasses look their module up there
        spec.loader.exec_module(mod)
    return sys.modules[key]


def count_calls(monkeypatch, name):
    """Patch sps.circuit.<name> to record the arguments of every call; returns
    the list it appends to."""
    calls = []
    original = getattr(sps.circuit, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sps.circuit, name, counted)
    return calls


def refuse_oracle_work(monkeypatch):
    """Make any term expansion or random trial evaluation fail the test."""
    def refuse(*args):
        raise AssertionError("the oracle was asked to expand or evaluate")

    monkeypatch.setattr(sps.circuit, "_expand_terms", refuse)
    monkeypatch.setattr(sps.circuit, "_term_values", refuse, raising=False)


def refuse_generator_work(monkeypatch):
    """Make any form construction or field set-up in sps.families fail the
    test, so an over-budget generator call must refuse before building."""
    import sps.families

    def refuse(*args, **kwargs):
        raise AssertionError("a generator started building its output")

    for name in ("field_make", "_parity_forms", "LinearForm"):
        monkeypatch.setattr(sps.families, name, refuse)


def refuse_field_work(monkeypatch):
    """Make any field construction by the file loaders fail the test, so a
    malformed body must be refused before the header's field is built."""
    import sps.cli

    def refuse(*args, **kwargs):
        raise AssertionError("a loader built the header's field")

    for module in (sps.circuit, sps.cli):
        monkeypatch.setattr(module, "field_make", refuse)


def random_pair_identity(rng, field, n, d):
    """Two-term identity T + T' with T' a scalar-scrambled shuffle of T.

    Each form of T reappears scaled by a random unit; the second constant
    compensates so the sum is exactly zero.
    """
    forms = [random_form(rng, field, n) for _ in range(d)]
    alpha = random_unit(rng, field)
    scalars = [random_unit(rng, field) for _ in range(d)]
    scrambled = [f.scale(c) for f, c in zip(forms, scalars)]
    rng.shuffle(scrambled)
    prod = field.one
    for c in scalars:
        prod = field.mul(prod, c)
    beta = field.neg(field.div(alpha, prod))
    return Circuit(
        field, n, [Term(field, alpha, forms), Term(field, beta, scrambled)]
    )


def random_invertible(rng, field, n):
    """Random invertible n x n matrix over the field (rows as tuples)."""
    while True:
        rows = [
            tuple(field.element(rng.randrange(field.p)) for _ in range(n))
            for _ in range(n)
        ]
        if SpanBasis.from_vectors(field, n, rows).rank == n:
            return rows


def substitute(circuit, matrix, n_out=None):
    """Apply the linear substitution x -> M x to every form.

    matrix has n_out rows of length circuit.n is wrong way round: we map each
    form's coefficient vector a to a' with a'[j] = sum_i a[i] * matrix[i][j],
    so matrix is circuit.n rows of length n_out (n_out >= circuit.n embeds
    into more variables; rows must be independent to preserve structure).
    """
    field = circuit.field
    n_out = n_out or circuit.n
    terms = []
    for t in circuit.terms:
        forms = []
        for f in t.forms:
            coeffs = [field.zero] * n_out
            for i, a in enumerate(f.coeffs):
                if a != field.zero:
                    row = matrix[i]
                    for j in range(n_out):
                        if row[j] != field.zero:
                            coeffs[j] = field.add(coeffs[j], field.mul(a, row[j]))
            forms.append(LinearForm(field, coeffs))
        terms.append(Term(field, t.coef, forms))
    return Circuit(field, n_out, terms)


def random_embedding(rng, field, n_in, n_out):
    """n_in independent rows of length n_out (an injective substitution)."""
    span = SpanBasis(field, n_out)
    rows = []
    while len(rows) < n_in:
        row = tuple(field.element(rng.randrange(field.p)) for _ in range(n_out))
        span2, ins = span.insert(row)
        if ins:
            span = span2
            rows.append(row)
    return rows


def is_zero_ideal(ideal):
    return not ideal.generators


def gcd_term(gd):
    """M(u) of gcd data as a term (None when u is empty: the gcd is 1); u is
    every matching's domain."""
    u = gd.matchings[0].domain
    if not u:
        return None
    return Term(gd.ideal.field, 1, u)


def verify_gcd_by_expansion(gd):
    """Reference for gcd data: for each matching pi_q from u (its domain) to
    V_q (its codomain), M(V_q) = sc(pi_q) * M(u) mod the ideal, checked by
    exact expansion instead of the matchings' edge certificates.

    Each q is one exact zero test of the two-term circuit
    M(reduce V_q) - sc(pi_q) * M(reduce u); regularity keeps every
    reduced form nonzero. The budget is fixed so that SPS_BUDGET cannot
    decide whether a decomposition verifies.
    """
    ideal = gd.ideal
    field, n = ideal.field, ideal.n
    for q, pi in gd.matchings.items():
        sc = pi.scaling_factor()
        mu = [ideal.reduce_prefix(ideal.r, f) for f in pi.domain]
        diff = Circuit(field, n, [
            Term(field, 1, [ideal.reduce_prefix(ideal.r, f) for f in pi.codomain]),
            Term(field, field.neg(sc), mu),
        ])
        if not zero_test_exact(diff, budget=DEFAULT_EXPANSION_BUDGET):
            raise VerificationError(
                f"gcd expansion check failed for term {q}: M(U_q) != sc * M(U) mod I"
            )


def trivial_link_simple_part_check(chain, i, oracle=None):
    """Diagnostic for the trivial link chain.links[i]: the simple part of the
    blocking subcircuit (gcd taken mod 0) is an identity mod the link's ideal
    and all its forms lie in sp(S u I), where S u I is spanned by the
    generators of links 0..i."""
    circuit, link = chain.circuit, chain.links[i]
    sub = subcircuit(circuit, link.mdata.q_set)
    sim = gcd_data(sub, FormIdeal(circuit.field, circuit.n)).sim
    if not is_zero_mod(sim, link.ideal, oracle):
        return False
    su = SpanBasis.from_vectors(circuit.field, circuit.n, [
        g.coeffs for earlier in chain.links[:i + 1] for g in earlier.ideal.generators])
    return all(su.contains(f.coeffs) for t in sim.terms for f in t.forms)


def tight_lists_orthogonal(t):
    return spans_orthogonal([i.span for i in t.ideals])


def doubling_corpus(rng, count):
    """Seeded doubling-check inputs (u, v, ideals, matchings) over GF(2),
    GF(3), GF(5) and GF(7): one to four mutually orthogonal ideals of one or
    two generators, u partly drawn from their span, v made from u by nonzero
    scalars plus offsets from the first ideal's span (zero about half the
    time, which leaves similar pairs) and then shuffled; the ideals kept are
    those by which u and v match, the first always among them."""
    fields = [field_make(p) for p in (2, 3, 5, 7)]
    out = []
    while len(out) < count:
        field = rng.choice(fields)
        n = rng.randrange(3, 7)
        span, ideals = SpanBasis(field, n), []
        for _ in range(rng.randrange(1, 5)):
            size = rng.randrange(1, 3)
            if span.rank + size >= n:
                break
            gens = []
            for _ in range(size):
                g = random_form(rng, field, n, avoid_span=span)
                span, _ = span.insert(g.coeffs)
                gens.append(g)
            ideals.append(FormIdeal(field, n, gens))
        in_span = [g for i in ideals for g in i.generators]

        def draw():
            if rng.random() < 0.25:
                f = LinearForm(field, [0] * n)
                for g in in_span:
                    f = f.add(g.scale(rng.randrange(field.p)))
                if not f.is_zero:
                    return f
            return random_form(rng, field, n)

        u = tuple(draw() for _ in range(rng.randrange(1, 9)))
        v = []
        for f in u:
            while True:
                g = f.scale(random_unit(rng, field))
                if rng.random() < 0.5:
                    g = g.add(random_span_element(rng, field, ideals[0], ideals[0].r))
                if not g.is_zero:
                    v.append(g)
                    break
        rng.shuffle(v)
        v = tuple(v)
        kept = [(i, pi) for i in ideals if (pi := find_matching(u, v, i)) is not None]
        out.append((u, v, [i for i, _ in kept], [pi for _, pi in kept]))
    return out
