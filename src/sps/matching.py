"""Certified ideal matchings between form lists (built, checked, found,
split off a term and unscrambled) and the constructive doubling checker.

A matching between lists U and V by a form-ideal I is a position-level
bijection where each image equals a nonzero multiple of its source plus an
element of the ideal's span. An ordered matching refines this: each edge's
offset lies in the span of a generator *prefix* that does not contain the
source form, which pins a unique per-edge scalar. An edge's certificate is
that scalar c and the minimal valid prefix level, and the constructor accepts
no other, so certificates are canonical. Both are read off the two forms'
reductions modulo the ideal (``FormIdeal.reduction``), never from an offset:
``build`` reduces each form once and derives and checks every edge from those
records, which depend on the ideal and the form alone. Derivation and
checking are one pass per matching each (``_derive_edges``,
``_check_edges``) over its aligned record lists.

Every ``OrderedMatching`` is checked exactly once: by its constructor, which
verifies each edge it is given in one ``_check_edges`` pass, or, for a list
matched onto itself slot for slot (a chain round's first survivor,
gcd_data's first term), by ``identity``, which derives no edge and checks
the self-edge rule, a nonzero form matched to itself admitting (1, 0, True)
alone, on the whole list at once. An instance that exists is a verified
certificate (instances are immutable). ``doubling_check`` finds the matching
by each ideal itself, with ``find_matching``, so no matching it uses needs
its ideal, domain or codomain checked. An inverse, union or composite of
matchings is a sigma given to ``build``, which certifies it afresh.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter, is_
from typing import NamedTuple

from .algebra import SpanBasis, eliminate, spans_orthogonal
from .errors import VerificationError
from .forms import Term, lists_similar, pair_by_key, pair_common, similarity_key


class MatchEdge(NamedTuple):
    c: object          # field element, nonzero
    level: int         # minimal j with image - c * source in the level-j prefix span
    ordered: bool      # False only for edges between forms inside the span


_SELF_EDGE = MatchEdge(1, 0, True)


def _level(mul, c, a, b) -> int:
    """1 + max{i : b[i] != c*a[i]}, or 0 if none, scanned from the end."""
    level = len(a)
    while level and b[level - 1] == (a[level - 1] if c == 1 else mul(c, a[level - 1])):
        level -= 1
    return level


def _top(a) -> int:
    """a's last nonzero coordinate, or -1 if a is zero."""
    return max(compress(range(len(a)), a), default=-1)


def _inverse(sigma) -> list:
    """The inverse of the slot permutation sigma."""
    return sorted(range(len(sigma)), key=sigma.__getitem__)


def _derive_edges(ideal, src, dst) -> list:
    """Minimal-level certificates for dst[i] = c*src[i] + w_i, one per slot
    (None where there is none), from the aligned records s = (a, rest, key,
    lead) of the sources and d = (b, ...) of the images.

    w lies in prefix(j) iff rest_d = c*rest_s and b[i] = c*a[i] for i >= j,
    so the level is 1 + max{i : b[i] != c*a[i]} (0 if none). Outside the
    span c = lead_d/lead_s; inside it, c = b[top]/a[top] at a's last nonzero
    coordinate, and a level above top (src in the prefix) leaves only a
    plain edge (1, r) between span forms.
    """
    field, plain = ideal.field, MatchEdge(1, ideal.r, False)
    mul, div = field.mul, field.div
    edges = []
    for (a, _, key_s, lead_s), (b, _, key_d, lead_d) in zip(src, dst):
        if key_s != key_d:
            edges.append(None)
        elif key_s is not None:
            c = 1 if lead_d == lead_s else div(lead_d, lead_s)
            edges.append(MatchEdge(c, _level(mul, c, a, b), True))
        else:
            top = _top(a)
            edge = plain
            if top >= 0 and b[top]:
                c = 1 if b[top] == a[top] else div(b[top], a[top])
                level = _level(mul, c, a, b)
                if level <= top:
                    edge = MatchEdge(c, level, True)
            edges.append(edge)
    return edges


def _check_edges(ideal, src, dst, edges) -> int | None:
    """The first slot whose edge e is not the certificate _derive_edges gives
    for the aligned records, or None when every edge is: the only one that
    passes has c in [1, q), level in [0, r], ordered a bool, and w = dst -
    c*src in prefix(level) (read as in _derive_edges). An ordered edge has
    src outside prefix(level), which pins c, and w outside prefix(level - 1).
    An unordered edge is (1, r) between span forms with no ordered edge: src
    is zero, or b is zero at a's last nonzero coordinate, or nonzero above
    it."""
    field, r = ideal.field, ideal.r
    order, mul = field.order, field.mul
    for i, (s, d, (c, level, ordered)) in enumerate(zip(src, dst, edges)):
        if not (type(c) is int and 0 < c < order and type(level) is int
                and 0 <= level <= r and type(ordered) is bool
                and (ordered or (c, level) == (1, r))):
            return i
        (a, _, key_s, lead_s), (b, _, key_d, lead_d) = s, d
        if key_s != key_d or (key_s is not None and lead_d != mul(c, lead_s)):
            return i
        if ordered:
            if _level(mul, c, a, b) != level or (key_s is None and not any(a[level:])):
                return i
            continue
        top = _top(a)  # level r: w lies in prefix(r) once rest_s = rest_d = 0
        if key_s is not None or (top >= 0 and b[top] and not any(b[top + 1:])):
            return i
    return None


def _records(ideal, domain, codomain):
    """The (domain, codomain) records, both lists reduced in one call."""
    recs = list(ideal.reductions((*domain, *codomain)))
    return recs[:len(domain)], recs[len(domain):]


class OrderedMatching:
    """A certified bijection between two form lists by an ordered form-ideal.

    sigma maps domain slot i to codomain slot sigma[i]; edges[i] = (c, j, ...)
    certifies that codomain[sigma[i]] - c * domain[i] lies in the level-j
    prefix span. The matching validates as *ordered* when every edge does;
    otherwise it is a plain ideal matching (only possible for forms inside
    the span).
    """

    __slots__ = ("ideal", "domain", "codomain", "sigma", "edges")

    def __init__(self, ideal, domain, codomain, sigma, edges, _reductions=None):
        self.ideal = ideal
        self.domain = tuple(domain)
        self.codomain = tuple(codomain)
        self.sigma = tuple(sigma)
        self.edges = tuple(edges)
        self.verify(_reductions)

    @classmethod
    def build(cls, ideal, domain, codomain, sigma, reductions=None) -> "OrderedMatching":
        """Derive minimal-level certificates for the given position bijection
        from the (domain, codomain) records, reduced here when not given, in
        one _derive_edges pass; the failing slot is looked for only on failure."""
        domain, codomain, sigma = tuple(domain), tuple(codomain), tuple(sigma)
        src, dst = reductions or _records(ideal, domain, codomain)
        edges = _derive_edges(ideal, src, map(dst.__getitem__, sigma))
        if not all(edges):
            i = edges.index(None)
            raise VerificationError(
                f"no matching certificate for slot {i}: {domain[i]} -> {codomain[sigma[i]]}"
            )
        return cls(ideal, domain, codomain, sigma, edges, (src, dst))

    @classmethod
    def identity(cls, ideal, domain, codomain) -> "OrderedMatching":
        """The matching of a list onto an equal list slot for slot: sigma is
        the identity and every edge (1, 0, True), which is what build gives,
        field for field, with no edge derived or reduction read. Checked as a
        whole by the self-edge rule: w = f - 1*f = 0 lies in prefix(0), and
        f lies outside it iff f is nonzero, so the edge is valid iff domain
        equals codomain and no form is zero. The scaling factor is 1."""
        pi = object.__new__(cls)
        pi.ideal, pi.domain, pi.codomain = ideal, tuple(domain), tuple(codomain)
        if pi.codomain != pi.domain:
            raise VerificationError("an identity matching needs equal domain and codomain")
        for i, f in enumerate(pi.domain):
            if f.is_zero:
                raise VerificationError(f"edge certificate {i} failed verification")
        d = len(pi.domain)
        pi.sigma, pi.edges = tuple(range(d)), (_SELF_EDGE,) * d
        return pi

    def verify(self, reductions=None) -> None:
        """Check every edge from the (domain, codomain) records, reduced here
        when not given; they depend on the ideal and forms, not the edges.
        One _check_edges pass, which names the first failing slot."""
        d = len(self.domain)
        if len(self.codomain) != d or len(self.sigma) != d or len(self.edges) != d:
            raise VerificationError("matching arity mismatch")
        if set(map(type, self.sigma)) - {int} or sorted(self.sigma) != list(range(d)):
            raise VerificationError("sigma is not a bijection of int slots")  # bools fail too
        src, dst = reductions or _records(self.ideal, self.domain, self.codomain)
        i = _check_edges(self.ideal, src, map(dst.__getitem__, self.sigma), self.edges)
        if i is not None:
            raise VerificationError(f"edge certificate {i} failed verification")

    @property
    def is_ordered(self) -> bool:
        return all(map(attrgetter("ordered"), self.edges))

    def __len__(self):
        return len(self.domain)

    def scaling_factor(self):
        """Product of the unique per-edge scalars (1 for the empty matching)."""
        if not self.is_ordered:
            raise ValueError("scaling factor requires a matching validated as ordered")
        return self.ideal.field.product(map(attrgetter("c"), self.edges))

    def __repr__(self):
        kind = "ordered" if self.is_ordered else "plain"
        return f"OrderedMatching({kind}, size={len(self)}, ideal={self.ideal!r})"


def find_matching(u, v, ideal) -> OrderedMatching | None:
    """Search for a matching between u and v by the ideal.

    One exists iff the multisets of similarity classes modulo the ideal
    agree; pairing is deterministic, in list order within each class, and
    reads one reduction per form, as do the edges. If no form of u or v lies
    in the ideal's span, the result validates as ordered.
    """
    src, dst = _records(ideal, u, v)
    sigma = pair_by_key([x.key for x in src], [x.key for x in dst])
    if sigma is None:
        return None
    return OrderedMatching.build(ideal, u, v, sigma, (src, dst))


def split_term(ideal, u, term: Term, positions, sigma, reductions):
    """Split a term against the common list u modulo the ideal: the ordered
    matching pi from u to the sublist at positions (its codomain) by sigma,
    and the residual term sc(pi) * coef * (the other forms), so
    term = M(u) * residual mod I; reductions are (u's, the sublist's). When
    the two record lists hold the same objects slot for slot and sigma is
    the identity, the sublist is u itself, and pi is OrderedMatching.identity,
    whose scaling factor is 1.
    Implied, so not checked: pi is ordered, as scaling_factor requires.
    gcd_data takes regular terms only, whose forms lie outside the span, and
    a chain round pairs a form at iteration j only while it lies outside
    prefix(j), so even a form of its V0 gets an edge of level at most j."""
    field, (src, dst) = term.field, reductions
    sublist = [term.forms[p] for p in positions]
    taken = set(positions)
    rest = [f for p, f in enumerate(term.forms) if p not in taken]
    if tuple(sigma) == tuple(range(len(src))) and all(map(is_, src, dst)):
        return OrderedMatching.identity(ideal, u, sublist), Term(field, term.coef, rest)
    pi = OrderedMatching.build(ideal, u, sublist, sigma, reductions)
    return pi, Term(field, field.mul(pi.scaling_factor(), term.coef), rest)


def unscramble(pi: OrderedMatching, u_positions, v_positions) -> OrderedMatching:
    """Rearrange images so the given similar sublists are similar *under* the
    matching, leaving a valid matching on the complements.

    u_positions / v_positions index similar sublists of the domain and
    codomain. Works by image flips: a slot of the sublist whose image is not
    an unconsumed similar target swaps images with the slot currently holding
    one. At most len(u_positions) flips; certificates are re-derived when an
    image moved, and the input is returned unchanged when none did.
    """
    u_positions = list(u_positions)
    v_positions = list(v_positions)
    sub_u = [pi.domain[i] for i in u_positions]
    sub_v = [pi.codomain[j] for j in v_positions]
    if lists_similar(sub_u, sub_v) is None:
        raise ValueError("unscramble requires similar sublists")

    sigma, inv = list(pi.sigma), _inverse(pi.sigma)

    free: dict = {}
    for j in v_positions:
        free.setdefault(similarity_key(pi.codomain[j]), deque()).append(j)
    free_set = set(v_positions)

    for a in u_positions:
        key = similarity_key(pi.domain[a])
        if sigma[a] in free_set and similarity_key(pi.codomain[sigma[a]]) == key:
            free_set.remove(sigma[a])
            continue
        queue = free[key]
        while queue[0] not in free_set:
            queue.popleft()
        b = queue.popleft()
        free_set.remove(b)
        a2 = inv[b]
        sigma[a], sigma[a2] = sigma[a2], sigma[a]
        inv[sigma[a]], inv[sigma[a2]] = a, a2
    if tuple(sigma) == pi.sigma:
        return pi
    return OrderedMatching.build(pi.ideal, pi.domain, pi.codomain, tuple(sigma))


# -- the doubling checker --

@dataclass(frozen=True)
class DoublingRound:
    round: int
    green_U: int
    green_V: int
    must_double: bool
    doubled: bool


@dataclass(frozen=True)
class DoublingReport:
    verdict: str                    # SIMILAR | BOUND_OK | CONTRADICTION
    r: int
    d: int
    d_prime: int
    bound: float
    i0: int
    similar_pairs: int
    rounds: tuple[DoublingRound, ...]
    reason: str | None

    def transcript_lines(self) -> list[str]:
        lines = [
            f"d={self.d} d'={self.d_prime} similar_pairs={self.similar_pairs} "
            f"r={self.r} i0={self.i0}"
        ]
        for rd in self.rounds:
            mark = "double" if rd.must_double else "free"
            lines.append(
                f"round {rd.round}: green_U={rd.green_U} green_V={rd.green_V} [{mark}]"
            )
        lines.append(f"verdict {self.verdict}"
                     + (f" ({self.reason})" if self.reason else ""))
        return lines


def doubling_check(u, v, ideals) -> DoublingReport:
    """Run the constructive argument that many orthogonal matchings force
    similarity, reporting a per-round transcript.

    First find and certify a matching between u and v by each ideal
    (find_matching), then check the lists and the ideals' orthogonality;
    the first of these hypotheses that fails raises VerificationError.
    Steps: split off maximal similar sublists, leaving the remainders rest_u
    and rest_v; seed a basis with the first leftover form and add one ideal
    per round, tracking which forms fall into the span ("green"). Green
    counts must agree on both sides at the end of every round and must
    double in every round other than the first and the round i0 where the
    seed form becomes dependent. Verdicts: SIMILAR (nothing left over),
    BOUND_OK with r <= log2(d') + 2, or CONTRADICTION, which valid inputs
    can never produce.

    What the argument also uses follows from the steps and is not checked
    again:

    - the remainders are coprime, since pair_common's positions keep each
      class shared by u and v at its least count;
    - every matching restricts to the remainders once unscrambled by the
      similar sublists: unscramble gives each slot of sim_u a distinct
      target in sim_v that no later flip takes, so rest_u lands in rest_v,
      and a flip joins forms with equal class keys, so it never fails;
    - i0 is the round of the one generator whose insert fails: the ideals
      are mutually orthogonal, so their generators are independent, and one
      of them depends on the seed and its predecessors exactly when the
      seed enters the span of the ideals so far.
    """
    u, v, ideals = tuple(u), tuple(v), list(ideals)
    for i, ideal in enumerate(ideals):
        if find_matching(u, v, ideal) is None:
            raise VerificationError(f"no matching between U and V by ideal {i}")
    if not u or len(u) != len(v):
        raise VerificationError("doubling check needs nonempty lists of equal size")
    if not spans_orthogonal([i.span for i in ideals]):
        raise VerificationError("ideals must be mutually orthogonal")

    d = len(u)
    r = len(ideals)

    # maximal similar sublists; the remainders are coprime
    sim_u, sim_v = pair_common([[similarity_key(f) for f in u],
                                [similarity_key(g) for g in v]])[0]
    sim_u_set, sim_v_set = set(sim_u), set(sim_v)
    rest_u = [i for i in range(d) if i not in sim_u_set]
    rest_v = [j for j in range(d) if j not in sim_v_set]
    d_prime = len(rest_u)
    bound = math.log2(d_prime) + 2 if d_prime else float(r)
    i0 = r + 1
    rounds = []

    def report(verdict, reason=None):
        return DoublingReport(verdict, r, d, d_prime, bound, i0, len(sim_u),
                              tuple(rounds), reason)

    if d_prime == 0:
        return report("SIMILAR")

    field = u[0].field
    basis = SpanBasis(field, u[0].n)
    basis.insert(u[rest_u[0]].coeffs)
    # remainders of the forms not yet green, modulo the first `done` basis
    # rows; the basis only appends rows, so eliminating by the new rows alone
    # continues the same elimination, and a green form stays green
    pending = [[u[i].coeffs for i in rest_u], [v[j].coeffs for j in rest_v]]
    done = 0

    def greens():
        nonlocal done
        rows, done = basis.sparse_rows[done:], basis.rank
        for side in pending:
            side[:] = [w for _, w in eliminate(field, rows, side) if any(w)]
        return d_prime - len(pending[0]), d_prime - len(pending[1])

    prev_u, _ = greens()
    for idx, ideal in enumerate(ideals, start=1):
        for g in ideal.generators:
            if not basis.insert(g.coeffs):
                i0 = idx
        gu, gv = greens()
        must = idx not in (1, i0)
        doubled = gu >= 2 * prev_u
        rounds.append(DoublingRound(idx, gu, gv, must, doubled))
        if gu != gv:
            return report("CONTRADICTION", f"green counts diverged in round {idx}")
        if must and not doubled:
            return report("CONTRADICTION", f"green count failed to double in round {idx}")
        prev_u = gu

    if r > bound:
        return report("CONTRADICTION",
                      "more orthogonal matchings than the bound allows on dissimilar lists")
    return report("BOUND_OK")
