"""Shared test utilities: an independent brute-force expansion oracle,
seeded random generators for forms, ideals, circuits, and identities, and
reference checks that the library itself does not run."""

import importlib.util
import itertools
import random
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import sps.algebra
import sps.circuit
import sps.matching
import sps.quotient
from sps import (
    Circuit,
    FormIdeal,
    LinearForm,
    SpanBasis,
    Term,
    VerificationError,
    build_chain,
    field_make,
    find_matching,
    gcd_data,
    gen_family,
    gen_ks,
    similar,
    spans_orthogonal,
    subcircuit,
    zero_test_exact,
)
from sps.algebra import (
    _poly_gcd,
    _poly_mulmod,
    _poly_powmod,
    _poly_trim,
    _prime_factors,
    eliminate,
    gf2_mulmod,
)
from sps.circuit import _source_coordinates, form_basis
from sps.forms import pair_by_key
from sps.matching import MatchEdge
from sps.quotient import is_zero_mod, reductions


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


def sequential_gf2_expand(circuit, coordinates=None):
    """An expansion kernel of its own for GF(2): each term's forms multiplied
    into the running set of monomials one form at a time by set xor, with
    exponents packed as _expand_terms packs them (shift-sized fields,
    coordinate j at bit shift * j), each term returned as the dict
    _expand_terms returns, every monomial's coefficient 1. A form's
    coordinates are coordinates(coeffs), by default the source coordinates
    that _expand_terms reads."""
    coordinates = coordinates or _source_coordinates(circuit).__getitem__
    shift_bits = max(1, circuit.degree.bit_length())
    polys = []
    for t in circuit.terms:
        cur = {0}
        for f in t.forms:
            nxt = set()
            for j, c in enumerate(coordinates(f.coeffs)):
                if c:
                    shift = 1 << (shift_bits * j)
                    nxt.symmetric_difference_update(k + shift for k in cur)
            cur = nxt
        polys.append(dict.fromkeys(cur, 1))
    return polys


def sequential_dict_expand(circuit, coordinates=None):
    """The former expansion kernel outside GF(2): each term's forms multiplied
    into the running coefficient dict one form at a time, one Field.mul and
    one Field.add per product, with exponents packed as _expand_terms packs
    them. A form's coordinates are coordinates(coeffs), by default the source
    coordinates that _expand_terms reads."""
    field = circuit.field
    coordinates = coordinates or _source_coordinates(circuit).__getitem__
    shift_bits = max(1, circuit.degree.bit_length())
    polys = []
    for t in circuit.terms:
        cur = {0: t.coef}
        for f in t.forms:
            coords = coordinates(f.coeffs)
            nxt = {}
            for key, c in cur.items():
                for j, cj in enumerate(coords):
                    if cj:
                        kk = key + (1 << (shift_bits * j))
                        v = field.add(nxt.get(kk, 0), field.mul(c, cj))
                        if v:
                            nxt[kk] = v
                        else:
                            nxt.pop(kk, None)
            cur = nxt
        polys.append(cur)
    return polys


def echelon_expand(circuit):
    """The former exact expansion, over the echelon rows of the circuit's form
    basis instead of its sources: the same verdicts for every subset of terms
    (the two bases differ by an invertible change of variables)."""
    expand = sequential_gf2_expand if circuit.field.order == 2 else sequential_dict_expand
    rows = form_basis(circuit).sparse_rows

    def over_rows(v):
        [(mults, _)] = eliminate(circuit.field, rows, (v,))
        return mults

    return expand(circuit, over_rows)


def sequential_sums_to_zero(field, polys, q):
    """The former subset test outside GF(2): whether the coefficient dicts
    indexed by q sum to zero, each monomial summed by Field.add from the
    first dict that holds it (found by scanning the earlier ones)."""
    chosen = [polys[i] for i in q]
    for pos, poly in enumerate(chosen):
        earlier, later = chosen[:pos], chosen[pos + 1:]
        for key, total in poly.items():
            if any(key in other for other in earlier):
                continue
            for other in later:
                if key in other:
                    total = field.add(total, other[key])
            if total:
                return False
    return True


def brute_product(field, n, forms, coef=None):
    """brute_expand of a single term."""
    c = field.one if coef is None else field.element(coef)
    return brute_expand(Circuit(field, n, [Term(field, c, list(forms))]))


def reduce_circuit(circuit, ideal):
    """Rewrite every form by its reduced representative, dropping terms that
    vanish. Returns None when all terms vanish (the reduction is literally 0);
    otherwise the returned circuit is zero in R iff the input is zero mod the
    ideal. The reference that verdicts modulo an ideal are checked against,
    through zero_test_exact."""
    field = circuit.field
    new_terms = []
    for t in circuit.terms:
        recs = reductions(t.forms, ideal)
        if recs is not None:
            forms = [LinearForm._wrap(field, tuple(x.rest)) for x in recs]
            new_terms.append(Term(field, t.coef, forms))
    if not new_terms:
        return None
    return Circuit(field, circuit.n, new_terms)


def form_add(f, g):
    """The form f + g."""
    field = f.field
    return LinearForm(field, [field.add(a, b) for a, b in zip(f.coeffs, g.coeffs)])


def form_sub(f, g):
    """The form f - g."""
    field = f.field
    return LinearForm(field, [field.sub(a, b) for a, b in zip(f.coeffs, g.coeffs)])


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
        span.insert(g.coeffs)
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
        f = form_add(f, g.scale(rng.randrange(field.p)))
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


# The former edge kernel, kept verbatim as a reference for sps.matching:
# top and level found by generator scans, w built entry by entry, and
# no shortcut for one record given as both sides.

def reference_derive_edge(ideal, s, d) -> MatchEdge | None:
    """Minimal-level certificate for dst = c*src + w, or None, from the
    reductions s = (a, rest, key, lead) of src and d = (b, ...) of dst.

    w lies in prefix(j) iff rest_d = c*rest_s and b[i] = c*a[i] for i >= j,
    so the level is 1 + max{i : b[i] != c*a[i]} (0 if none). Outside the
    span c = lead_d/lead_s; inside it, c = b[top]/a[top] at a's last nonzero
    coordinate, and a level above top (src in the prefix) leaves only a
    plain edge (1, r) between span forms.
    """
    field = ideal.field
    a, _, key_s, lead_s = s
    b, _, key_d, lead_d = d
    if key_s != key_d:
        return None
    top = max((i for i, x in enumerate(a) if x), default=-1)
    if key_s is not None:
        c = field.div(lead_d, lead_s)
    elif top >= 0 and b[top]:
        c = field.div(b[top], a[top])
    else:
        return MatchEdge(1, ideal.r, False)
    level = next((i + 1 for i in reversed(range(len(a))) if b[i] != field.mul(c, a[i])), 0)
    if key_s is not None or level <= top:
        return MatchEdge(c, level, True)
    return MatchEdge(1, ideal.r, False)


def reference_check_edge(ideal, s, d, e: MatchEdge) -> bool:
    """Whether e is the certificate per_edge_derive gives for the forms reduced
    to s and d, the only one that passes: c in [1, q), level in [0, r], and
    w = dst - c*src in prefix(level) (read as in per_edge_derive). An ordered
    edge has src outside prefix(level), which pins c, and w outside
    prefix(level - 1). An unordered edge is (1, r) between span forms with
    no ordered edge: src is zero, or b is zero at a's last nonzero
    coordinate, or nonzero above it."""
    field, (c, level, ordered) = ideal.field, e
    if not (type(c) is int and 0 < c < field.order and type(level) is int
            and 0 <= level <= ideal.r) or not (ordered or (c, level) == (1, ideal.r)):
        return False
    a, _, key_s, lead_s = s
    b, _, key_d, lead_d = d
    if key_s != key_d or (key_s is not None and lead_d != field.mul(c, lead_s)):
        return False
    w = [field.sub(y, field.mul(c, x)) for x, y in zip(a, b)]
    if any(w[level:]) or (ordered and level and not w[level - 1]):
        return False
    top = max((i for i, x in enumerate(a) if x), default=-1)
    if ordered:
        return key_s is not None or top >= level
    return key_s is None and (top < 0 or not b[top] or any(b[top + 1:]))


# The per-edge kernel that sps.matching's per-matching passes replaced, kept
# as their reference: one call per edge, each reading the field and r off
# the ideal.

def per_edge_level(field, c, a, b) -> int:
    """1 + max{i : b[i] != c*a[i]}, or 0 if none, scanned from the end."""
    level, mul = len(a), field.mul
    while level and b[level - 1] == (a[level - 1] if c == 1 else mul(c, a[level - 1])):
        level -= 1
    return level


def per_edge_derive(ideal, s, d) -> MatchEdge | None:
    """Minimal-level certificate for dst = c*src + w, or None, from the
    reductions s = (a, rest, key, lead) of src and d = (b, ...) of dst.

    w lies in prefix(j) iff rest_d = c*rest_s and b[i] = c*a[i] for i >= j,
    so the level is 1 + max{i : b[i] != c*a[i]} (0 if none). Outside the
    span c = lead_d/lead_s; inside it, c = b[top]/a[top] at a's last nonzero
    coordinate, and a level above top (src in the prefix) leaves only a
    plain edge (1, r) between span forms. A nonzero record given as both s
    and d (one object) has the edge (1, 0) at once.
    """
    a, _, key_s, lead_s = s
    if s is d and (key_s is not None or any(a)):
        return MatchEdge(1, 0, True)
    b, _, key_d, lead_d = d
    if key_s != key_d:
        return None
    field = ideal.field
    if key_s is not None:
        c = 1 if lead_d == lead_s else field.div(lead_d, lead_s)
        return MatchEdge(c, per_edge_level(field, c, a, b), True)
    top = len(a) - 1
    while top >= 0 and not a[top]:
        top -= 1
    if top >= 0 and b[top]:
        c = 1 if b[top] == a[top] else field.div(b[top], a[top])
        level = per_edge_level(field, c, a, b)
        if level <= top:
            return MatchEdge(c, level, True)
    return MatchEdge(1, ideal.r, False)


def per_edge_check(ideal, s, d, e: MatchEdge) -> bool:
    """Whether e is the certificate per_edge_derive gives for the forms
    reduced to s and d, the only one that passes: c in [1, q), level in
    [0, r], ordered a bool, and w = dst - c*src in prefix(level) (read as in
    per_edge_derive). An ordered edge has src outside prefix(level), which
    pins c, and w outside prefix(level - 1). An unordered edge is (1, r)
    between span forms with no ordered edge: src is zero, or b is zero at
    a's last nonzero coordinate, or nonzero above it. A nonzero record given
    as both s and d passes (1, 0, True) alone."""
    field, r, (c, level, ordered) = ideal.field, ideal.r, e
    if not (type(c) is int and 0 < c < field.order and type(level) is int
            and 0 <= level <= r and type(ordered) is bool
            and (ordered or (c, level) == (1, r))):
        return False
    a, _, key_s, lead_s = s
    if s is d and (key_s is not None or any(a)):
        return c == 1 and level == 0 and ordered
    b, _, key_d, lead_d = d
    if key_s != key_d or (key_s is not None and lead_d != field.mul(c, lead_s)):
        return False
    if ordered:
        return per_edge_level(field, c, a, b) == level and (key_s is not None or any(a[level:]))
    top = len(a) - 1  # level r: w lies in prefix(r) once rest_s = rest_d = 0
    while top >= 0 and not a[top]:
        top -= 1
    return key_s is None and (top < 0 or not b[top] or any(b[top + 1:]))


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


class CountedKey:
    """A class key that counts the calls of its own __hash__."""

    __slots__ = ("value", "hashes")

    def __init__(self, value):
        self.value = value
        self.hashes = 0

    def __eq__(self, other):
        return self.value == other.value

    def __hash__(self):
        self.hashes += 1
        return hash(self.value)


def reference_common_positions(key_lists):
    """Per key list, the ascending positions of the keys common to all lists:
    each key keeps its first m occurrences, m its least count over the lists
    (multiset intersection by Counter)."""
    common = Counter(key_lists[0])
    for keys in key_lists[1:]:
        common &= Counter(keys)
    out = []
    for keys in key_lists:
        left = Counter(common)
        picked = []
        for pos, k in enumerate(keys):
            if left[k] > 0:
                left[k] -= 1
                picked.append(pos)
        out.append(picked)
    return out


def reference_pair_common(key_lists):
    """The gcd pairing of forms.pair_common run on the keys themselves, not
    on their numbers: the reference its output must equal."""
    positions = reference_common_positions(key_lists)
    u_keys = [key_lists[0][p] for p in positions[0]]
    sigmas = [pair_by_key(u_keys, [keys[p] for p in pos])
              for keys, pos in zip(key_lists, positions)]
    return positions, sigmas


def reference_vectors_from_json(p, e, n, vectors, name):
    """The loader's per-element check of a JSON array of vectors: each vector
    and then each coordinate checked on its own, the first bad one named,
    then each vector checked to be nonzero."""
    if type(vectors) is not list or not all(type(vec) is list for vec in vectors):
        raise ValueError(f"{name} must be an array of arrays")
    out = []
    for vec in vectors:
        if len(vec) != n:
            raise ValueError(f"form has {len(vec)} coordinates, expected {n}")
        out.append(tuple(sps.circuit._element_from_json(p, e, c) for c in vec))
    for vec in out:
        if all(c == 0 for c in vec):
            raise ValueError(f"every form of {name} must be nonzero")
    return out


def dense_rows(basis):
    """(rows, pivots) of a SpanBasis as tuples, each row dense, rebuilt from
    its sparse rows: 1 at the pivot, the listed entries after it, 0 elsewhere."""
    rows = []
    for piv, entries in basis.sparse_rows:
        row = [0] * basis.n
        row[piv] = 1
        for j, x in entries:
            row[j] = x
        rows.append(tuple(row))
    return tuple(rows), tuple(piv for piv, _ in basis.sparse_rows)


def reference_from_vectors(field, n, vectors):
    """SpanBasis.from_vectors by inserting every vector (each one eliminated)
    until the rank is n, then checking only lengths."""
    basis = SpanBasis(field, n)
    for v in vectors:
        if basis.rank < n:
            basis.insert(v)
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


def counting_eliminate(record):
    """eliminate, calling record(rows, v) on each vector as the kernel reads
    it: patched in where a module reads the kernel by name, it counts the
    vectors eliminated and the rows each one meets."""
    def counted(field, rows, vectors):
        def read():
            for v in vectors:
                record(rows, v)
                yield v
        return eliminate(field, rows, read())

    return counted


def chain_work(circuit):
    """The row applications of build_chain(circuit), per kernel: for each
    vector eliminate reads in sps.algebra, sps.quotient or sps.matching, the
    rows it meets, and one per record FormIdeal.carry extends. The kernels
    are patched and restored here, with no pytest fixture, so that a
    subprocess can count as well."""
    counts = Counter()
    modules = (sps.algebra, sps.quotient, sps.matching)
    kernels, carry = [m.eliminate for m in modules], FormIdeal.carry

    def record(rows, v):
        counts["eliminate"] += len(rows)

    def counted_carry(ideal, records):
        counts["carry"] += len(records)
        return carry(ideal, records)

    try:
        for m in modules:
            m.eliminate = counting_eliminate(record)
        FormIdeal.carry = counted_carry
        build_chain(circuit)
    finally:
        for m, kernel in zip(modules, kernels):
            m.eliminate = kernel
        FormIdeal.carry = carry
    return {"eliminate": counts["eliminate"], "carry": counts["carry"]}


def pinned_chain_work():
    """chain_work on fresh copies of the two circuits whose counts are pinned."""
    return {"ks9": chain_work(gen_ks(9)), "family-4-3": chain_work(gen_family(4, 3))}


def spy_edge_passes(monkeypatch):
    """Patch sps.matching's per-matching passes to record every slot they
    certify, as (source, image, edge): the two records for each slot of
    _derive_edges (derived) and of _check_edges (checked), and the two forms
    for each slot of OrderedMatching.identity, whose whole-list check both
    derives and checks it. Returns (derived, checked)."""
    derived, checked = [], []
    derive, check = sps.matching._derive_edges, sps.matching._check_edges
    identity = sps.matching.OrderedMatching.identity

    def counted_derive(ideal, src, dst):
        src, dst = list(src), list(dst)
        edges = derive(ideal, src, dst)
        derived.extend(zip(src, dst, edges))
        return edges

    def counted_check(ideal, src, dst, edges):
        src, dst, edges = list(src), list(dst), list(edges)
        checked.extend(zip(src, dst, edges))
        return check(ideal, src, dst, edges)

    def counted_identity(cls, ideal, domain, codomain):
        pi = identity(ideal, domain, codomain)
        slots = list(zip(pi.domain, pi.codomain, pi.edges))
        derived.extend(slots)
        checked.extend(slots)
        return pi

    monkeypatch.setattr(sps.matching, "_derive_edges", counted_derive)
    monkeypatch.setattr(sps.matching, "_check_edges", counted_check)
    monkeypatch.setattr(sps.matching.OrderedMatching, "identity", classmethod(counted_identity))
    return derived, checked


def dense_eliminate(field, rows, pivots, v):
    """The dense elimination the sparse kernel replaced: clear each dense
    row's pivot from v in row order, walking every column from the pivot on.
    Returns (multipliers, remainder), both lists."""
    out = list(v)
    mults = []
    for row, piv in zip(rows, pivots):
        c = out[piv]
        mults.append(c)
        if c:
            for j in range(piv, len(out)):
                rj = row[j]
                if rj:
                    out[j] = field.sub(out[j], field.mul(c, rj))
    return mults, out


def count_trials(monkeypatch):
    """Record every random trial sps.circuit evaluates, by the one RNG it
    seeds per trial with f"{seed}:{t}", however many trials a call batches;
    returns the list of (seed text, initial RNG state) it appends to."""
    trials = []

    class Recorded(random.Random):
        def __init__(self, x):
            super().__init__(x)
            trials.append((x, self.getstate()))

    monkeypatch.setattr(sps.circuit, "random", SimpleNamespace(Random=Recorded))
    return trials


def reference_is_irreducible(mod, p):
    """Rabin's test on coefficient lists, constant first, for every p."""
    e = len(mod) - 1
    if e == 1:
        return True
    if mod[0] == 0:  # divisible by x
        return False
    if _poly_powmod([0, 1], p**e, mod, p) != [0, 1]:
        return False
    for r in _prime_factors(e):
        h = _poly_powmod([0, 1], p ** (e // r), mod, p)
        h = list(h) + [0] * max(0, 2 - len(h))
        h[1] = (h[1] - 1) % p
        if len(_poly_gcd(list(mod), _poly_trim(h), p)) != 1:
            return False
    return True


def reference_field_tables(p, e):
    """(modulus, exp, log, zech) of GF(p^e), e > 1, built the direct way: the
    least monic irreducible found by testing every tail (c_0, ..., c_{e-1})
    in lexicographic order on lists; the least primitive element g by list
    powers; exp[i] = g^i for i < 2(q - 1), one gf2_mulmod (p = 2) or one
    list product (odd p) per step; log and, for odd p, zech[n] = log(1 + g^n)
    or -1 read off exp afterwards."""
    modulus = next(tail + (1,) for tail in itertools.product(range(p), repeat=e)
                   if reference_is_irreducible(list(tail) + [1], p))
    q, mod = p**e, list(modulus)

    def digits(a):
        return [a // p**j % p for j in range(e)]

    def packed(poly):
        return sum(c * p**j for j, c in enumerate(poly))

    g = next(c for c in range(p, q)
             if all(_poly_powmod(digits(c), (q - 1) // r, mod, p) != [1]
                    for r in _prime_factors(q - 1)))
    exp, cur = [], 1
    for _ in range(q - 1):
        exp.append(cur)
        if p == 2:
            cur = gf2_mulmod(cur, g, packed(mod), e)
        else:
            cur = packed(_poly_mulmod(digits(cur), digits(g), mod, p))
    exp += exp
    log = [0] * q
    for i in range(q - 1):
        log[exp[i]] = i
    if p == 2:
        return modulus, exp, log, None
    zech = []
    for n in range(q - 1):
        a = exp[n]
        one_plus = a - a % p + (a + 1) % p  # add 1 to the constant digit
        zech.append(log[one_plus] if one_plus else -1)
    return modulus, exp, log, zech


def reference_gen_ks(r):
    """gen_ks(r) with every form built by LinearForm from its integer b:
    b_1 x_1 + ... + b_{r-1} x_{r-1} (+ x_r), b_1 the low bit of b."""
    field = field_make(2)

    def forms(parity, last):
        return [LinearForm(field, [b >> j & 1 for j in range(r - 1)] + [last])
                for b in range(1 << (r - 1)) if bin(b).count("1") % 2 == parity]

    return Circuit(field, r, [Term(field, 1, forms(1, 0)), Term(field, 1, forms(0, 1)),
                              Term(field, 1, forms(1, 1))])


def reference_gen_family(r, i):
    """gen_family(r, i, verify=False), each joined form rebuilt by LinearForm:
    (T_1 + .. + T_{k-1}) S_1 - T_k S_2 - T_k S_3 with S on fresh variables."""
    member = reference_gen_ks(r)
    for _ in range(i):
        field, block = member.field, reference_gen_ks(r)
        n = member.n + block.n

        def shifted(term, offset):
            return [LinearForm(field, [0] * offset + list(f.coeffs) + [0] * (n - offset - f.n))
                    for f in term.forms]

        def merge(t, s, sign):
            coef = field.mul(t.coef, s.coef)
            return Term(field, field.neg(coef) if sign < 0 else coef,
                        shifted(t, 0) + shifted(s, member.n))

        *rest, last = member.terms
        s1, s2, s3 = block.terms
        member = Circuit(field, n, [merge(t, s1, 1) for t in rest]
                         + [merge(last, s2, -1), merge(last, s3, -1)])
    return member


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
    def refuse(*args, **kwargs):
        raise AssertionError("a loader built the header's field")

    monkeypatch.setattr(sps.circuit, "field_make", refuse)


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


def vanishing_identity(rng, field, n):
    """The vanishing-product identity prod_{a != 0} (x - a*y) - x^(q-1) +
    y^(q-1) = 0 over GF(q), built on two variables and moved into n >= 2 by
    a random injective change of variables (random_embedding)."""
    x, y = LinearForm(field, (1, 0)), LinearForm(field, (0, 1))
    q1 = field.order - 1
    base = Circuit(field, 2, [
        Term(field, field.one, [LinearForm(field, (1, field.neg(a))) for a in range(1, q1 + 1)]),
        Term(field, field.neg(field.one), [x] * q1),
        Term(field, field.one, [y] * q1),
    ])
    return substitute(base, random_embedding(rng, field, 2, n), n)


def planted_triple(rng, field, n, d, repeat=False):
    """The three-term identity c(a + b)P - caP - cbP of degree d >= 1 for
    random forms a, b and a product P of d - 1 random forms; with repeat, P
    is h^(d - 1) for one form h, so for d >= 3 no term is squarefree."""
    a = random_form(rng, field, n, any_element=True)
    b = random_form(rng, field, n, any_element=True)
    while form_add(a, b).is_zero:
        b = random_form(rng, field, n, any_element=True)
    h = random_form(rng, field, n, any_element=True)
    prod = [h] * (d - 1) if repeat else [random_form(rng, field, n, any_element=True)
                                         for _ in range(d - 1)]
    c = random_unit(rng, field)
    return Circuit(field, n, [Term(field, c, [form_add(a, b), *prod]),
                              Term(field, field.neg(c), [a, *prod]),
                              Term(field, field.neg(c), [b, *prod])])


def rescaled(rng, circuit):
    """The same polynomial with every form times a random unit, each
    constant divided by its term's units, and every term's forms and the
    terms themselves shuffled."""
    field = circuit.field
    terms = []
    for t in circuit.terms:
        units = [random_unit(rng, field) for _ in t.forms]
        forms = [f.scale(u) for f, u in zip(t.forms, units)]
        rng.shuffle(forms)
        terms.append(Term(field, field.div(t.coef, field.product(units)), forms))
    rng.shuffle(terms)
    return Circuit(field, circuit.n, terms)


def perturbed(rng, circuit):
    """circuit with one change: a term's constant plus a random unit, or
    where that sum is 0 (always over GF(2)) one form plus a random form."""
    field = circuit.field
    i = rng.randrange(circuit.k)
    t = circuit.terms[i]
    coef, forms = field.add(t.coef, random_unit(rng, field)), list(t.forms)
    if not coef and forms:
        coef, j = t.coef, rng.randrange(len(forms))
        while (f := form_add(forms[j], random_form(rng, field, circuit.n))).is_zero:
            pass
        forms[j] = f
    coef = coef or t.coef  # a degree-0 term over GF(2) keeps its constant
    terms = list(circuit.terms)
    terms[i] = Term(field, coef, forms)
    return Circuit(field, circuit.n, terms)


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
        if span.insert(row):
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
    reduced form nonzero.
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
        if not zero_test_exact(diff):
            raise VerificationError(
                f"gcd expansion check failed for term {q}: M(U_q) != sc * M(U) mod I"
            )


def trivial_link_simple_part_check(chain, i):
    """Diagnostic for the trivial link chain.links[i]: the simple part of the
    blocking subcircuit (gcd taken mod 0) is an identity mod the link's ideal
    and all its forms lie in sp(S u I), where S u I is spanned by the
    generators of links 0..i."""
    circuit, link = chain.circuit, chain.links[i]
    sub = subcircuit(circuit, link.mdata.q_set)
    sim = gcd_data(sub, FormIdeal(circuit.field, circuit.n, ())).sim
    if not is_zero_mod(sim, link.ideal):
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
                span.insert(g.coeffs)
                gens.append(g)
            ideals.append(FormIdeal(field, n, gens))
        in_span = [g for i in ideals for g in i.generators]

        def draw():
            if rng.random() < 0.25:
                f = LinearForm(field, [0] * n)
                for g in in_span:
                    f = form_add(f, g.scale(rng.randrange(field.p)))
                if not f.is_zero:
                    return f
            return random_form(rng, field, n)

        u = tuple(draw() for _ in range(rng.randrange(1, 9)))
        v = []
        for f in u:
            while True:
                g = f.scale(random_unit(rng, field))
                if rng.random() < 0.5:
                    g = form_add(g, random_span_element(rng, field, ideals[0], ideals[0].r))
                if not g.is_zero:
                    v.append(g)
                    break
        rng.shuffle(v)
        v = tuple(v)
        kept = [(i, pi) for i in ideals if (pi := find_matching(u, v, i)) is not None]
        out.append((u, v, [i for i, _ in kept], [pi for _, pi in kept]))
    return out
