"""Round-by-round construction of chains of form-ideals with certified
matching data, type classification, the external-matching forest check, and
the rank-bound certificate.

One round starts from a partial basis S and produces a form-ideal I
orthogonal to S together with a blocking subset of surviving terms and, for
each survivor, the sublist of its forms tied to a shared list V by ordered
matchings. A link holds only that ideal and matching data, typed when built;
S before a round is the span of the earlier links' ideals. Rounds repeat
until the accumulated ideals span every form of the circuit (a maximal
chain); the chain length then certifies the rank bound.
Bound violations raise instead of warning: on a verified simple, minimal
identity they would falsify a proven bound, and the CLI turns them into
exit code 3. Chain building is strictly sequential (each round depends on the
previous basis); independent circuits can be processed concurrently.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import InitVar, dataclass, field as dataclass_field

from .algebra import SpanBasis
from .circuit import (
    Circuit,
    ZeroOracle,
    circuit_rank,
    form_keys,
    form_to_json,
    is_simple,
    json_number,
)
from .errors import BoundViolationError, VerificationError
from .forms import pair_common
from .matching import OrderedMatching, split_term
from .quotient import FormIdeal, reductions, sum_is_zero_mod


@dataclass
class MatchingData:
    """Per-round matching data: the blocking subset Q and, for each q in Q,
    a certified ordered matching from the shared list V (its domain) to the
    matched sublist V_q of term q's forms (its codomain), slot t to slot t,
    at the positions v_positions[q] of term q.

    v0 and v1 partition the slots of V into those inside the ideal's span and
    those outside sp(S u I). Every V_q partitions the same way, since each
    edge's offset lies in sp(I) and its scalar is nonzero. mtype (1, 2 or 3,
    see classify_matching_data) is computed once, at construction, from the
    circuit's form_keys, which the data does not keep.
    """

    q_set: tuple[int, ...]
    v_positions: dict[int, tuple[int, ...]]
    matchings: dict[int, OrderedMatching]
    v0: tuple[int, ...]
    v1: tuple[int, ...]
    keys: InitVar[tuple]
    mtype: int = dataclass_field(init=False)

    def __post_init__(self, keys):
        self.mtype = classify_matching_data(self, keys)


@dataclass
class ChainLink:
    ideal: FormIdeal
    mdata: MatchingData


class Chain:
    """A maximal chain of form-ideals for a circuit, with verified bounds;
    n1, n2, n3 count its links of Type 1, 2 and 3."""

    def __init__(self, circuit, links, bound, rank):
        self.circuit = circuit
        self.links = tuple(links)
        self.n1, self.n2, self.n3 = (sum(link.mdata.mtype == t for link in self.links)
                                     for t in (1, 2, 3))
        self.bound = bound
        self.m = len(self.links)
        self.rank = rank

    def summary(self) -> dict:
        return {
            "m": self.m,
            "rank": self.rank,
            "bound": json_number(self.bound),
            "N1": self.n1,
            "N2": self.n2,
            "N3": self.n3,
            "ok": True,
        }

    def trace_rounds(self) -> list[dict]:
        """One row per round. Type 3 links are external (build_forest raises on
        an internal one); green_rank sums the ideal ranks, each orthogonal to S."""
        out = []
        green_rank = 0
        for i, link in enumerate(self.links, start=1):
            md = link.mdata
            green_rank += link.ideal.r
            out.append(
                {
                    "round": i,
                    "ideal": [form_to_json(g) for g in link.ideal.generators],
                    "Q": list(md.q_set),
                    "V_q_sizes": {str(q): len(md.v_positions[q]) for q in md.q_set},
                    "type": md.mtype,
                    "external": md.mtype == 3,
                    "green_rank": green_rank,
                }
            )
        return out


def chain_length_bound(k: int, d: int) -> float:
    """Proven cap on the length of a maximal chain for a simple, minimal
    identity: C(k,2) * (log2(d) + 3) + (k - 1)."""
    return math.comb(k, 2) * (math.log2(d) + 3) + (k - 1)


def single_round(circuit: Circuit, su_span: SpanBasis) -> tuple[FormIdeal, MatchingData]:
    """Run one round of the iterative procedure against the partial basis S.

    su_span is the chain's running span, S on entry, which the round extends
    in place to S u I; every sp(S u I) test reads it. The circuit is
    build_chain's, which checked its preconditions before the first round and
    starts a round only while some form lies outside sp(S) (asserted). Each
    iteration picks the first remaining form outside sp(S u I) (terms in
    index order, forms in list order) and extends I by it
    (FormIdeal.extended eliminates the new generator alone). The pick's
    term dies unreduced. Every form of each other survivor has one record
    mod I, held per term by position: the first iteration reduces each form
    once (quotient.reductions, which stops at a term's first form in sp(I)),
    and each later one extends the records by I's new row alone
    (FormIdeal.carry), paired forms included. A term survives iff none of
    its remaining forms lies in sp(I), and the survivors' class keys of
    those forms give the gcd pairing (forms.pair_common) folded into the
    accumulated V / V_q lists. The round stops when the surviving fanin is
    2 or when every leftover form lies in sp(S u I). The records under the
    final I (the survivors' carried ones, and one reduction after the loop
    for each form of V whose term died after it was paired) place V
    (trimmed from sp(S u I) \\ sp(I), else kept in sp(I) or outside
    sp(S u I), read by one SpanBasis.outside query) and derive and check
    the final matchings' edges. The final I's first j echelon
    rows are the rows of iteration j's ideal, so a slot paired at iteration
    j gets the same (c, level) as it would under that ideal. The residual
    is decided from its forms' records by quotient.sum_is_zero_mod: with
    two terms exactly, by unique factorization and with no oracle call, and
    with more under ZeroOracle(). Returns the useful ideal and the verified
    matching data, whose q_set is the blocking subset.

    Checked here: at least two terms survive each iteration, the fanin-2
    stop leaves no form unmatched, and the residual is an identity mod I.
    Implied, so not checked:
    - each picked form extends sp(S u I): first_unspanned tested it;
    - each iteration kills a term: the picked form is a survivor's form;
    - at most k - 2 iterations: each kills a term and two always survive;
    - 1 < |Q| < k: the same two facts;
    - I is orthogonal to S: each picked form lay outside sp(S u I);
    - every V_q partitions like V: each edge's offset lies in sp(I), c != 0;
    - trimming agrees along every V -> V_q pairing: paired forms differ by
      an element of sp(I) up to a nonzero scalar;
    - leftovers lie in sp(S u I) \\ sp(I): the loop ends with none or with
      none outside sp(S u I), and no survivor's form was in sp(I).
    """
    field = circuit.field
    n = circuit.n
    survivors = list(range(circuit.k))
    remaining = {q: list(range(circuit.terms[q].degree)) for q in survivors}
    v_slots: list[tuple[int, int]] = []  # (term, position) of V's forms
    vq_pos: dict[int, list[int]] = {q: [] for q in survivors}
    ideal = None

    def first_unspanned():
        for q in survivors:
            for pos in remaining[q]:
                f = circuit.terms[q].forms[pos]
                if not su_span.contains(f.coeffs):
                    return q, f
        return None

    ell = first_unspanned()
    assert ell is not None, "build_chain starts a round only for a form outside sp(S)"
    while ell is not None:
        owner, form = ell
        su_span.insert(form.coeffs)
        # term -> its forms' records mod this ideal, by position; form lies in
        # sp(I), so the owner term dies unreduced
        if ideal is None:
            ideal = FormIdeal(field, n, (form,))
            recs = {q: reductions(circuit.terms[q].forms, ideal)
                    for q in survivors if q != owner}
        else:
            ideal = ideal.extended(form)
            recs = {q: ideal.carry(recs[q]) for q in survivors if q != owner}
        keys = {q: [rq[p].key for p in remaining[q]] for q, rq in recs.items() if rq}
        survivors = [q for q, kq in keys.items() if None not in kq]
        if len(survivors) < 2:
            raise VerificationError(
                "fewer than two terms survived; the input cannot be an identity"
            )
        recs = {q: recs[q] for q in survivors}

        positions, sigmas = pair_common([keys[q] for q in survivors])
        first = survivors[0]
        v_slots.extend((first, remaining[first][p]) for p in positions[0])
        for q, pos_list, sigma in zip(survivors, positions, sigmas):
            # store matched positions in V-slot order (through sigma) so the
            # accumulated lists stay edge-aligned
            vq_pos[q].extend(remaining[q][pos_list[j]] for j in sigma)
            taken = set(pos_list)
            remaining[q] = [
                remaining[q][p] for p in range(len(remaining[q])) if p not in taken
            ]

        if len(survivors) == 2:
            if any(remaining[q] for q in survivors):
                raise VerificationError(
                    "fanin-2 stop left unmatched forms; the input is not an identity"
                )
            break
        ell = first_unspanned()

    # the final ideal's records of V's forms whose term died after pairing them
    died = [(q, pos) for q, pos in v_slots if q not in recs]
    forms = [circuit.terms[q].forms[pos] for q, pos in died]
    for (q, pos), rec in zip(died, ideal.reductions(forms)):
        recs.setdefault(q, {})[pos] = rec

    outside = su_span.outside([circuit.terms[q].forms[pos].coeffs for q, pos in v_slots])
    keep, v0, v1 = [], [], []
    for t, (q, pos) in enumerate(v_slots):
        if recs[q][pos].key is None:
            v0.append(len(keep))
        elif outside[t]:
            v1.append(len(keep))
        else:
            continue
        keep.append(t)

    kept = [v_slots[t] for t in keep]
    v_kept = tuple(circuit.terms[q].forms[pos] for q, pos in kept)
    v_recs = [recs[q][pos] for q, pos in kept]
    v_positions = {q: tuple(vq_pos[q][t] for t in keep) for q in survivors}
    matchings, residual = {}, []  # per survivor: its residual's constant, its forms' records
    for q in survivors:
        rq = recs[q]
        matchings[q], term = split_term(
            ideal, v_kept, circuit.terms[q], v_positions[q], range(len(keep)),
            (v_recs, [rq[pos] for pos in v_positions[q]]))
        taken = set(v_positions[q])
        residual.append((term.coef, [rq[p] for p in range(circuit.terms[q].degree)
                                     if p not in taken]))
    if not sum_is_zero_mod(field, n, residual):
        raise VerificationError("residual circuit is not an identity mod the ideal")

    return ideal, MatchingData(tuple(survivors), v_positions, matchings,
                               tuple(v0), tuple(v1), form_keys(circuit))


def classify_matching_data(md: MatchingData, keys) -> int:
    """Type 1: some pair of outside parts V_{q,1} is dissimilar. Type 2: the
    outside parts all match but some full V_q pair is dissimilar. Type 3:
    all V_q mutually similar (trivial matching data). keys[q][p] is the
    similarity key of form p of term q (form_keys); lists are compared as
    multisets of classes, as plain dicts: dict equality reads the hashes
    the dicts hold, where Counter's hashes every key again."""
    vq = [[keys[q][p] for p in md.v_positions[q]] for q in md.q_set]
    outside = [dict(Counter(k[t] for t in md.v1)) for k in vq]
    if any(c != outside[0] for c in outside):
        return 1
    full = [dict(Counter(k)) for k in vq]
    if any(c != full[0] for c in full):
        return 2
    return 3


def build_forest(links, k: int) -> None:
    """Check the trivial (Type 3) links in order over k term leaves.

    A link whose blocking subset spans several trees is external: it becomes
    a new root over those trees. A link falling inside a single tree is
    internal, which cannot happen for a simple, minimal identity, so it
    raises the falsification error.
    """
    tree_of = list(range(k))
    for idx, link in enumerate(links, start=1):
        md = link.mdata
        if md.mtype != 3:
            continue
        trees = {tree_of[q] for q in md.q_set}
        if len(trees) == 1:
            raise BoundViolationError(
                f"internal trivial matching data in round {idx}: "
                f"subcircuit {sorted(md.q_set)} would be a zero subcircuit, "
                "contradicting minimality"
            )
        for q in range(k):
            if tree_of[q] in trees:
                tree_of[q] = k + idx  # the new root's id, unused by any leaf


def build_chain(circuit: Circuit) -> Chain:
    """Build a maximal chain for a verified simple, minimal identity and check
    every bound along the way.

    Verifies first, raising VerificationError on the first that fails (k >= 3,
    d >= 1, equal degrees; simple, then zero and minimal under ZeroOracle():
    auto, 20 trials, seed 0), then repeats
    single_round with S growing by each round's ideal until S has the
    circuit's rank, so spans all its forms. Asserts rank <= (k - 2) * m
    always, and for d >= 2 the chain-length and per-type counts:
    m <= C(k,2)(log2 d + 3) + (k - 1), N1 <= C(k,2)(log2 d + 2),
    N2 <= C(k,2), N3 <= k - 1, no internal trivial links. Violations raise
    BoundViolationError.
    """
    k = circuit.k
    d = circuit.degree
    if k < 3:
        raise VerificationError("chains need top fanin k >= 3")
    if d < 1:
        raise VerificationError("chains need term degree d >= 1")
    if len(set(circuit.degrees)) != 1:
        raise VerificationError("chains need equal term degrees")
    if not is_simple(circuit):
        raise VerificationError("chains require a simple circuit")
    values = ZeroOracle().term_values(circuit)
    if not values.is_zero():
        raise VerificationError("chains require an identity (zero oracle said no)")
    if not values.is_minimal():
        raise VerificationError("chains require a minimal circuit")

    s_span = SpanBasis(circuit.field, circuit.n)
    rank = circuit_rank(circuit)
    links: list[ChainLink] = []
    while s_span.rank < rank:  # S lies in the forms' span: some form is outside it
        links.append(ChainLink(*single_round(circuit, s_span)))  # S grows by >= 1

    build_forest(links, k)
    chain = Chain(circuit, links, chain_length_bound(k, d), rank)

    if chain.rank > (k - 2) * chain.m:
        raise BoundViolationError(
            f"rank {chain.rank} exceeds (k-2)*m = {(k - 2) * chain.m}"
        )
    if d >= 2:  # the logarithmic bounds are asymptotic in d
        if chain.m > chain.bound:
            raise BoundViolationError(f"chain length {chain.m} exceeds bound {chain.bound}")
        if chain.n1 > math.comb(k, 2) * (math.log2(d) + 2):
            raise BoundViolationError(f"N1 = {chain.n1} exceeds its bound")
        if chain.n2 > math.comb(k, 2):
            raise BoundViolationError(f"N2 = {chain.n2} exceeds its bound")
        if chain.n3 > k - 1:
            raise BoundViolationError(f"N3 = {chain.n3} exceeds its bound")
    return chain

