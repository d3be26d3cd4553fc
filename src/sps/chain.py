"""Round-by-round construction of chains of form-ideals with certified
matching data, type classification, the external-matching forest, and the
rank-bound certificate.

One round starts from a partial basis S and produces a form-ideal I
orthogonal to S together with a blocking subset of surviving terms and, for
each survivor, the sublist of its forms tied to a shared list V by ordered
matchings. Rounds repeat until the accumulated ideals span every form of the
circuit (a maximal chain); the chain length then certifies the rank bound.
Bound violations raise instead of warning: on a verified simple, minimal
identity they would falsify a proven bound, and the CLI turns them into
exit code 3. Chain building is strictly sequential (each round depends on the
previous basis); independent circuits can be processed concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import SpanBasis, spans_orthogonal
from .circuit import (
    Circuit,
    ZeroOracle,
    _dumps,
    _form_to_json,
    _json_number,
    circuit_rank,
    is_simple,
    subcircuit,
)
from .errors import BoundViolationError, VerificationError
from .forms import LinearForm, Term, similarity_key
from .matching import OrderedMatching
from .quotient import FormIdeal, gcd_data, is_regular, is_zero_mod, zero_ideal


@dataclass
class MatchingData:
    """Per-round matching data: the blocking subset Q, the shared list V, and
    for each q in Q the matched sublist V_q of term q's forms with a certified
    ordered matching V -> V_q.

    v0/v1 (and vq0/vq1 per term) partition the lists into the part inside the
    ideal's span and the part outside sp(S u I); the trimming step guarantees
    the partition is exhaustive. mtype and external are filled in by
    classification and forest construction.
    """

    q_set: tuple[int, ...]
    v_forms: tuple[LinearForm, ...]
    v_lists: dict[int, tuple[LinearForm, ...]]
    v_positions: dict[int, tuple[int, ...]]
    matchings: dict[int, OrderedMatching]
    v0: tuple[int, ...]
    v1: tuple[int, ...]
    vq0: dict[int, tuple[int, ...]]
    vq1: dict[int, tuple[int, ...]]
    mtype: int | None = None
    external: bool | None = None


@dataclass
class ChainLink:
    s_span: SpanBasis
    ideal: FormIdeal
    mdata: MatchingData
    green_rank: int


@dataclass
class Forest:
    """External and internal trivial links of the forest over the k term leaves."""

    k: int
    external_count: int = 0
    internal_count: int = 0


class Chain:
    """A maximal chain of form-ideals for a circuit, with verified bounds."""

    def __init__(self, circuit, links, forest, counts, bound, maximal):
        self.circuit = circuit
        self.links = tuple(links)
        self.forest = forest
        self.n1, self.n2, self.n3 = counts
        self.bound = bound
        self.maximal = maximal
        self.m = len(self.links)
        self.rank = circuit_rank(circuit)

    def summary(self) -> dict:
        return {
            "m": self.m,
            "rank": self.rank,
            "bound": _json_number(self.bound),
            "N1": self.n1,
            "N2": self.n2,
            "N3": self.n3,
            "ok": True,
        }

    def trace_rounds(self) -> list[dict]:
        out = []
        for i, link in enumerate(self.links, start=1):
            md = link.mdata
            out.append(
                {
                    "round": i,
                    "ideal": [_form_to_json(g) for g in link.ideal.generators],
                    "Q": list(md.q_set),
                    "V_q_sizes": {str(q): len(md.v_lists[q]) for q in md.q_set},
                    "type": md.mtype,
                    "external": bool(md.external) if md.mtype == 3 else False,
                    "green_rank": link.green_rank,
                }
            )
        return out

    def trace_lines(self) -> list[str]:
        return [_dumps(obj) for obj in self.trace_rounds() + [self.summary()]]


def chain_length_bound(k: int, d: int) -> float:
    """Proven cap on the length of a maximal chain for a simple, minimal
    identity: C(k,2) * (log2(d) + 3) + (k - 1)."""
    return math.comb(k, 2) * (math.log2(d) + 3) + (k - 1)


def single_round(
    circuit: Circuit,
    s_span: SpanBasis,
    oracle: ZeroOracle | None = None,
    precheck: bool = True,
) -> tuple[FormIdeal, tuple[int, ...], MatchingData]:
    """Run one round of the iterative procedure against the partial basis S.

    Each iteration picks the first remaining form outside sp(S u I) (terms in
    index order, forms in list order), extends I by it, drops the terms that
    vanish mod I, and folds the gcd data of the survivors into the
    accumulated V / V_q lists. The round stops when the surviving fanin is 2
    or when every leftover form lies in sp(S u I); the accumulated lists are
    then trimmed by sp(S u I) \\ sp(I) and certified. Returns the useful
    ideal (at most k - 2 generators), the blocking subset, and the verified
    matching data.
    """
    oracle = oracle or ZeroOracle()
    field = circuit.field
    n = circuit.n
    k = circuit.k
    if precheck:
        if k < 3:
            raise ValueError("a useful ideal needs top fanin k >= 3")
        if not is_simple(circuit):
            raise ValueError("rounds require a simple circuit")
        if not oracle.is_zero(circuit):
            raise ValueError("rounds require an identity (zero oracle said no)")

    survivors = list(range(k))
    remaining = {q: list(range(circuit.terms[q].degree)) for q in survivors}
    su_span = s_span
    gens: list[LinearForm] = []
    v_forms: list[LinearForm] = []
    vq_pos: dict[int, list[int]] = {q: [] for q in survivors}

    while True:
        ell = None
        for q in survivors:
            for pos in remaining[q]:
                f = circuit.terms[q].forms[pos]
                if not su_span.contains(f.coeffs):
                    ell = f
                    break
            if ell is not None:
                break
        if ell is None:
            raise ValueError("every form already lies in sp(S); nothing to do")

        gens.append(ell)
        su_span, inserted = su_span.insert(ell.coeffs)
        if not inserted:
            raise VerificationError("picked form was already spanned")
        ideal = FormIdeal(field, n, gens)

        new_survivors = [
            q
            for q in survivors
            if not any(
                ideal.span_contains(circuit.terms[q].forms[pos])
                for pos in remaining[q]
            )
        ]
        if len(new_survivors) >= len(survivors):
            raise VerificationError("no term vanished after extending the ideal")
        if len(new_survivors) < 2:
            raise VerificationError(
                "fewer than two terms survived; the input cannot be an identity"
            )
        survivors = new_survivors

        sub = Circuit(
            field,
            n,
            [
                Term(field, circuit.terms[q].coef,
                     [circuit.terms[q].forms[p] for p in remaining[q]])
                for q in survivors
            ],
        )
        gd = gcd_data(sub, ideal, expansion_check=False)
        u_len = len(gd.u)
        v_forms.extend(gd.u)
        for local, q in enumerate(survivors):
            # store matched positions in V-slot order (through the gcd
            # matching's sigma) so the accumulated lists stay edge-aligned
            pos_list = gd.u_positions[local]
            sigma = gd.matchings[local].sigma
            vq_pos[q].extend(remaining[q][pos_list[sigma[i]]] for i in range(u_len))
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
        if all(
            su_span.contains(circuit.terms[q].forms[pos].coeffs)
            for q in survivors
            for pos in remaining[q]
        ):
            break

    if len(gens) > k - 2:
        raise VerificationError("round used more than k - 2 iterations")
    if not spans_orthogonal([s_span, ideal.span]):
        raise VerificationError("round ideal is not orthogonal to S")

    # trim V by sp(S u I) \ sp(I); membership must agree slot-by-slot across q
    def in_trim(f: LinearForm) -> bool:
        return su_span.contains(f.coeffs) and not ideal.span_contains(f)

    trimmed = [in_trim(f) for f in v_forms]
    keep = [t for t, out in enumerate(trimmed) if not out]
    for q in survivors:
        for t, out in enumerate(trimmed):
            if in_trim(circuit.terms[q].forms[vq_pos[q][t]]) != out:
                raise VerificationError("trim membership disagrees along an edge")

    q_set = tuple(survivors)
    v_kept = tuple(v_forms[t] for t in keep)
    v_lists: dict[int, tuple] = {}
    v_positions: dict[int, tuple] = {}
    matchings: dict[int, OrderedMatching] = {}
    for q in q_set:
        pos = tuple(vq_pos[q][t] for t in keep)
        v_positions[q] = pos
        forms_q = tuple(circuit.terms[q].forms[p] for p in pos)
        v_lists[q] = forms_q
        pi = OrderedMatching.build(ideal, v_kept, forms_q, tuple(range(len(keep))))
        if not pi.is_ordered:
            raise VerificationError("round matching failed to validate as ordered")
        matchings[q] = pi

    md = _finish_matching_data(
        circuit, su_span, ideal, q_set, v_kept, v_lists, v_positions, matchings, oracle
    )
    return ideal, q_set, md


def _finish_matching_data(
    circuit, su_span, ideal, q_set, v_forms, v_lists, v_positions, matchings, oracle
) -> MatchingData:
    """Partition the lists, then verify every matching-data invariant."""
    field = circuit.field

    def split(forms):
        inside, outside = [], []
        for t, f in enumerate(forms):
            if ideal.span_contains(f):
                inside.append(t)
            elif not su_span.contains(f.coeffs):
                outside.append(t)
            else:
                raise VerificationError(
                    "form survived trimming inside sp(S u I) \\ sp(I)"
                )
        return tuple(inside), tuple(outside)

    v0, v1 = split(v_forms)
    vq0, vq1 = {}, {}
    for q in q_set:
        vq0[q], vq1[q] = split(v_lists[q])
        if len(vq0[q]) != len(v0) or len(vq1[q]) != len(v1):
            raise VerificationError("span partition is not edge-consistent")

    k = circuit.k
    if not (1 < len(q_set) < k):
        raise VerificationError(f"blocking subset size {len(q_set)} outside (1, {k})")

    residual_terms = []
    for q in q_set:
        kept = set(v_positions[q])
        leftover = [
            circuit.terms[q].forms[p]
            for p in range(circuit.terms[q].degree)
            if p not in kept
        ]
        for f in leftover:
            if not (su_span.contains(f.coeffs) and not ideal.span_contains(f)):
                raise VerificationError(
                    "unmatched form escaped sp(S u I) \\ sp(I)"
                )
        coef = field.mul(matchings[q].scaling_factor(), circuit.terms[q].coef)
        residual_terms.append(Term(field, coef, leftover))
    residual = Circuit(field, circuit.n, residual_terms)
    if not is_regular(residual, ideal):
        raise VerificationError("residual circuit is not regular mod the ideal")
    if not is_zero_mod(residual, ideal, oracle):
        raise VerificationError("residual circuit is not an identity mod the ideal")

    return MatchingData(
        q_set=q_set,
        v_forms=v_forms,
        v_lists=v_lists,
        v_positions=v_positions,
        matchings=matchings,
        v0=v0,
        v1=v1,
        vq0=vq0,
        vq1=vq1,
    )


def classify_matching_data(md: MatchingData) -> int:
    """Type 1: some pair of outside parts V_{q,1} is dissimilar. Type 2: the
    outside parts all match but some full V_q pair is dissimilar. Type 3:
    all V_q mutually similar (trivial matching data)."""

    def sig(forms) -> tuple:
        keys = sorted(similarity_key(f) for f in forms)
        return tuple(keys)

    v1_sigs = {
        sig([md.v_lists[q][t] for t in md.vq1[q]]) for q in md.q_set
    }
    if len(v1_sigs) > 1:
        return 1
    vq_sigs = {sig(md.v_lists[q]) for q in md.q_set}
    if len(vq_sigs) > 1:
        return 2
    return 3


def classify_chain(links) -> None:
    for link in links:
        link.mdata.mtype = classify_matching_data(link.mdata)


def build_forest(links, k: int, strict: bool = True) -> Forest:
    """Process trivial (Type 3) links in order over k term leaves.

    A link whose blocking subset spans several trees is external: it becomes
    a new root over those trees. A link falling inside a single tree is
    internal, which cannot happen for a simple, minimal identity; with
    strict=True an internal link raises the falsification error.
    """
    forest = Forest(k=k)
    tree_of = list(range(k))
    next_id = k
    for idx, link in enumerate(links, start=1):
        md = link.mdata
        if md.mtype != 3:
            continue
        trees = {tree_of[q] for q in md.q_set}
        if len(trees) == 1:
            md.external = False
            forest.internal_count += 1
            if strict:
                raise BoundViolationError(
                    f"internal trivial matching data in round {idx}: "
                    f"subcircuit {sorted(md.q_set)} would be a zero subcircuit, "
                    "contradicting minimality"
                )
        else:
            md.external = True
            forest.external_count += 1
            for q in range(k):
                if tree_of[q] in trees:
                    tree_of[q] = next_id
            next_id += 1
    return forest


def build_chain(circuit: Circuit, oracle: ZeroOracle | None = None) -> Chain:
    """Build a maximal chain for a verified simple, minimal identity and check
    every bound along the way.

    Verifies first (zero, simple, minimal; k >= 3; equal degrees), then
    repeats single_round with S growing by each round's ideal until all forms
    of the circuit are spanned. Asserts rank <= (k - 2) * m always, and for
    d >= 2 the chain-length and per-type counts:
    m <= C(k,2)(log2 d + 3) + (k - 1), N1 <= C(k,2)(log2 d + 2),
    N2 <= C(k,2), N3 <= k - 1, no internal trivial links. Violations raise
    BoundViolationError.
    """
    oracle = oracle or ZeroOracle()
    k = circuit.k
    d = circuit.degree
    if k < 3:
        raise ValueError("chains need top fanin k >= 3")
    if len(set(circuit.degrees)) != 1:
        raise ValueError("chains need equal term degrees")
    if not is_simple(circuit):
        raise ValueError("chains require a simple circuit")
    values = oracle.term_values(circuit)
    if not values.is_zero():
        raise ValueError("chains require an identity (zero oracle said no)")
    if not values.is_minimal():
        raise ValueError("chains require a minimal circuit")

    all_forms = circuit.all_forms()
    s_span = SpanBasis.empty(circuit.field, circuit.n)
    links: list[ChainLink] = []
    while not all(s_span.contains(f.coeffs) for f in all_forms):
        if len(links) > circuit.n:  # each round grows the span rank by >= 1
            raise VerificationError("chain failed to terminate")
        ideal, q_set, md = single_round(circuit, s_span, oracle, precheck=False)
        before_span = s_span
        for g in ideal.generators:
            s_span, _ = s_span.insert(g.coeffs)
        links.append(ChainLink(before_span, ideal, md, green_rank=s_span.rank))

    if not spans_orthogonal([link.ideal.span for link in links]):
        raise VerificationError("round ideals are not mutually orthogonal")

    classify_chain(links)
    forest = build_forest(links, k, strict=True)

    m = len(links)
    rank = circuit_rank(circuit)
    counts = [0, 0, 0]
    for link in links:
        counts[link.mdata.mtype - 1] += 1
    n1, n2, n3 = counts
    bound = chain_length_bound(k, d)

    if rank > (k - 2) * m:
        raise BoundViolationError(
            f"rank {rank} exceeds (k-2)*m = {(k - 2) * m}"
        )
    if d >= 2:  # the logarithmic bounds are asymptotic in d
        if m > bound:
            raise BoundViolationError(f"chain length {m} exceeds bound {bound}")
        if n1 > math.comb(k, 2) * (math.log2(d) + 2):
            raise BoundViolationError(f"N1 = {n1} exceeds its bound")
        if n2 > math.comb(k, 2):
            raise BoundViolationError(f"N2 = {n2} exceeds its bound")
        if n3 > k - 1:
            raise BoundViolationError(f"N3 = {n3} exceeds its bound")

    return Chain(circuit, links, forest, (n1, n2, n3), bound, True)


def trivial_link_simple_part_check(circuit: Circuit, link: ChainLink,
                                   oracle: ZeroOracle | None = None) -> bool:
    """Diagnostic for trivial links: the simple part of the blocking
    subcircuit (gcd taken mod 0) is an identity mod the link's ideal and all
    its forms lie in sp(S u I)."""
    md = link.mdata
    sub = subcircuit(circuit, md.q_set)
    sim = gcd_data(sub, zero_ideal(circuit.field, circuit.n),
                   expansion_check=False).sim
    if not is_zero_mod(sim, link.ideal, oracle):
        return False
    su = link.s_span
    for g in link.ideal.generators:
        su, _ = su.insert(g.coeffs)
    return all(su.contains(f.coeffs) for t in sim.terms for f in t.forms)
