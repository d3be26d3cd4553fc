"""Seeded instance generator for the sps benchmark, with construction-known answers.

Every instance is a CLI invocation (argv plus stdin text) together with the
answer its construction guarantees, so the benchmark can gate each verdict
without asking the program. The families:

- the vanishing-product identity  prod_{a in F*} (x - a*y) - x^(q-1) + y^(q-1)
  over GF(q): zero, simple, minimal, rank 2;
- its joins with fresh copies of itself through ``sps.gen_joined(verify=False)``
  (fanin k + 1 and rank + 2 per join);
- a seeded invertible change of variables x -> A x with every entry of A
  nonzero, which preserves zero, simplicity, minimality and rank and makes
  every form dense;
- coefficient-perturbed copies: scaling term i of a minimal identity by
  c != 0, 1 leaves (c - 1) * T_i != 0. The copy stays minimal when k <= 4 and
  no two terms are similar (a vanishing proper subset would split the terms
  into two identities, one of them with two terms), so perturbation is only
  applied there and the generator checks the dissimilarity;
- the non-simple / non-minimal counterexamples over a prime p > 2d;
- the fixed GF(2) families gen_ks and gen_family, and gen tight lists.

Field arithmetic here is the benchmark's own (``GF``), so the self-tests can
check the answers by an expansion that never calls ``sps.circuit``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field as dc_field
from functools import partial


def canon(obj) -> str:
    """The CLI's canonical JSON layout (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest16(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- finite fields, independent of sps.algebra --

def _poly_rem(a, m, p):
    a = list(a)
    while len(a) >= len(m):
        c = a[-1]
        if c:
            shift = len(a) - len(m)
            for j, mj in enumerate(m):
                a[shift + j] = (a[shift + j] - c * mj) % p
        a.pop()
    return a


def _irreducible(mod, p):
    """Monic mod of degree e is irreducible iff no monic factor of degree <= e/2."""
    e = len(mod) - 1
    for deg in range(1, e // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            if not any(_poly_rem(mod, list(tail) + [1], p)):
                return False
    return True


class GF:
    """GF(p^e) with the same element encoding and modulus choice as sps: ints
    for e = 1, constant-first coefficient tuples under the lexicographically
    least monic irreducible modulus otherwise."""

    def __init__(self, p: int, e: int = 1):
        self.p, self.e = p, e
        if e == 1:
            self.zero, self.one, self.mod = 0, 1, None
        else:
            self.zero, self.one = (0,) * e, (1,) + (0,) * (e - 1)
            self.mod = next(
                list(t) + [1]
                for t in itertools.product(range(p), repeat=e)
                if _irreducible(list(t) + [1], p)
            )

    def elements(self):
        if self.e == 1:
            return list(range(self.p))
        return list(itertools.product(range(self.p), repeat=self.e))

    def nonzero(self):
        if self.e == 1:
            return range(1, self.p)
        return [a for a in self.elements() if a != self.zero]

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.e == 1:
            return -a % self.p
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        p = self.p
        if self.e == 1:
            return a * b % p
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        rem = _poly_rem(prod, self.mod, p)
        return tuple(rem + [0] * (self.e - len(rem)))

    def inv(self, a):
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return next(b for b in self.nonzero() if self.mul(a, b) == self.one)

    def from_json(self, x):
        return x if self.e == 1 else tuple(x)

    def to_json(self, a):
        return a if self.e == 1 else list(a)


def field_of(obj) -> GF:
    return GF(obj["p"], obj["e"])


# -- circuit dicts (the CLI's JSON file format) and transformations --

def vanishing_identity(p: int, e: int = 1) -> dict:
    """prod_{a in F*} (x - a*y) - x^(q-1) + y^(q-1) over GF(p^e), n = 2."""
    F = GF(p, e)
    q1 = p**e - 1
    j = F.to_json
    return {
        "p": p,
        "e": e,
        "n": 2,
        "terms": [
            {"coef": j(F.one), "forms": [[j(F.one), j(F.neg(a))] for a in F.nonzero()]},
            {"coef": j(F.neg(F.one)), "forms": [[j(F.one), j(F.zero)]] * q1},
            {"coef": j(F.one), "forms": [[j(F.zero), j(F.one)]] * q1},
        ],
    }


def joined_identity(sps, p: int, e: int, joins: int) -> dict:
    """The vanishing-product identity joined `joins` times with fresh copies."""
    base = vanishing_identity(p, e)
    member = sps.loads_circuit(canon(base))
    for _ in range(joins):
        member = sps.gen_joined(member, sps.loads_circuit(canon(base)), verify=False)
    return json.loads(sps.dumps_circuit(member))


def _rank(F: GF, vectors) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != F.zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = F.inv(rows[rank][col])
        rows[rank] = [F.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            c = rows[i][col]
            if i != rank and c != F.zero:
                rows[i] = [F.add(x, F.neg(F.mul(c, y))) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def change_variables(obj: dict, rng: random.Random) -> dict:
    """Substitute x -> A x for a seeded invertible A with no zero entry."""
    F = field_of(obj)
    n = obj["n"]
    nz = F.nonzero()
    while True:
        a = [[rng.choice(nz) for _ in range(n)] for _ in range(n)]
        if _rank(F, a) == n:
            break
    terms = []
    for t in obj["terms"]:
        forms = []
        for f in t["forms"]:
            f = [F.from_json(c) for c in f]
            out = []
            for col in range(n):
                s = F.zero
                for i in range(n):
                    if f[i] != F.zero:
                        s = F.add(s, F.mul(f[i], a[i][col]))
                out.append(F.to_json(s))
            forms.append(out)
        terms.append({"coef": t["coef"], "forms": forms})
    return {**obj, "terms": terms}


def _class_key(F: GF, f):
    lead = next(c for c in f if c != F.zero)
    inv = F.inv(lead)
    return tuple(F.mul(inv, c) for c in f)


def term_keys(obj: dict) -> list:
    """Per term, the sorted multiset of similarity classes of its forms."""
    F = field_of(obj)
    return [
        sorted(_class_key(F, [F.from_json(c) for c in f]) for f in t["forms"])
        for t in obj["terms"]
    ]


def perturb(obj: dict, rng: random.Random) -> dict:
    """Scale one term of a minimal identity with k <= 4 by c not in {0, 1}."""
    F = field_of(obj)
    keys = term_keys(obj)
    if len(keys) > 4 or any(a == b for a, b in itertools.combinations(keys, 2)):
        raise ValueError("perturbed copies need k <= 4 pairwise dissimilar terms")
    i = rng.randrange(len(obj["terms"]))
    c = rng.choice([x for x in F.nonzero() if x != F.one])
    terms = [dict(t) for t in obj["terms"]]
    terms[i]["coef"] = F.to_json(F.mul(c, F.from_json(terms[i]["coef"])))
    return {**obj, "terms": terms}


def shape(obj: dict) -> dict:
    return {"k": len(obj["terms"]), "d": max(len(t["forms"]) for t in obj["terms"]),
            "n": obj["n"]}


# -- instances and workloads --

@dataclass
class Instance:
    """One CLI invocation and what its construction says the output must be.

    ``expect_stdout`` is the exact stdout for check instances (derived from
    the known answers); ``golden`` names the stdout digest recorded in
    golden.json for chain and doubling instances. ``known`` holds the
    construction-known facts the gate checks field by field. ``refusal`` marks
    the documented exit-2 refusal.
    """

    argv: list
    stdin: str = ""
    files: dict = dc_field(default_factory=dict)
    known: dict = dc_field(default_factory=dict)
    expect_stdout: str | None = None
    golden: str | None = None
    refusal: bool = False


def check_instance(obj, known, mode, refusal=False) -> Instance:
    """`sps check --exact` or `sps check --random --trials 40` (CLI seed 0)."""
    text = canon(obj)
    argv = ["check", "--exact"] if mode == "exact" else ["check", "--random", "--trials", "40"]
    report = {
        "command": "check", "digest": digest16(text), "p": obj["p"], "e": obj["e"],
        **shape(obj), "zero": known["zero"], "simple": known["simple"],
        "minimal": known["minimal"], "rank": known["rank"], "mode": mode, "seed": 0,
    }
    return Instance(argv, text, known=known, expect_stdout=canon(report) + "\n",
                    refusal=refusal)


IDENTITY = {"zero": True, "simple": True, "minimal": True}


def _vp(sps, rng, run, p, e, joins, mode, perturbed=False, refusal=False):
    obj = change_variables(joined_identity(sps, p, e, joins), rng)
    known = {**IDENTITY, "rank": 2 * (joins + 1)}
    if perturbed:
        obj = perturb(obj, rng)
        known["zero"] = False
    return check_instance(obj, known, mode, refusal)


def _ks_check(sps, rng, run, r, mode):
    obj = json.loads(sps.dumps_circuit(sps.gen_ks(r)))
    return check_instance(obj, {**IDENTITY, "rank": r}, mode)


def _family_check(sps, rng, run, r, i, mode):
    obj = json.loads(sps.dumps_circuit(sps.gen_family(r, i, verify=False)))
    return check_instance(obj, {**IDENTITY, "rank": (i + 1) * r}, mode)


def _counter(sps, rng, run, which):
    d = rng.randrange(3, 7)
    p = rng.choice([1009, 10007, 65521])  # primes > 2d: evaluation stays in GF(p)
    nonsimple, nonminimal = sps.gen_intro_counterexamples(d, p)
    if which == "nonsimple":
        circuit, known = nonsimple, {"zero": True, "simple": False, "minimal": True,
                                     "rank": d}
    else:
        circuit, known = nonminimal, {"zero": True, "simple": True, "minimal": False,
                                      "rank": 2 * d + 2}
    obj = change_variables(json.loads(sps.dumps_circuit(circuit)), rng)
    return check_instance(obj, known, "random")


def _chain(sps, rng, run, r, i=None):
    if i is None:
        kind, circuit, rank = f"ks{r}", sps.gen_ks(r), r
    else:
        kind, circuit, rank = f"family-{r}-{i}", sps.gen_family(r, i, verify=False), (i + 1) * r
    return Instance(["chain", "--trace"], sps.dumps_circuit(circuit),
                    known={"ok": True, "rank": rank, "k": circuit.k},
                    golden=f"chain-ks/{kind}")


def _tight(sps, rng, run, s, p):
    code, text, _, _ = run(["gen", "tight", "--s", str(s), "--p", str(p)])
    if code != 0:
        raise RuntimeError(f"sps gen tight --s {s} --p {p} exited {code}")
    kind = f"tight-{s}-{p}"
    name = f"{kind}.json"
    return Instance(["doubling", "--lists", name, "--trace"], files={name: text},
                    known={"verdict": "BOUND_OK", "r_equals_bound": s % 2 == 0},
                    golden=f"doubling-tight/{kind}")


def kinds(workload: str) -> dict:
    """kind name -> (seeded, factory(sps, rng, run) -> Instance), where run is
    Program.run: (argv, stdin) -> (exit code, stdout, stderr, seconds).

    Seeded kinds draw a fresh change of variables per call; fixed kinds are
    the same instance every time.
    """
    fixed, seeded = {}, {}
    if workload == "check-exact":
        for r in (5, 6):
            fixed[f"ks{r}"] = partial(_ks_check, r=r, mode="exact")
        for p, e, j in [(5, 1, 1), (5, 1, 2), (7, 1, 1), (2, 3, 1), (3, 2, 1)]:
            seeded[f"vp-{p}^{e}-j{j}"] = partial(_vp, p=p, e=e, joins=j, mode="exact")
        for p, e in [(5, 1), (7, 1), (2, 3), (3, 2)]:
            seeded[f"perturbed-vp-{p}^{e}-j1"] = partial(
                _vp, p=p, e=e, joins=1, mode="exact", perturbed=True)
    elif workload == "chain-ks":
        for r in (9, 10, 11):
            fixed[f"ks{r}"] = partial(_chain, r=r)
        for r in (4, 5):
            for i in (3, 4, 5):
                fixed[f"family-{r}-{i}"] = partial(_chain, r=r, i=i)
    elif workload == "doubling-tight":
        # s = 7 makes the kind count odd, so the median lands inside a group
        for s, p in [(7, 5)] + [(s, p) for s in (8, 9, 10) for p in (5, 7)]:
            fixed[f"tight-{s}-{p}"] = partial(_tight, s=s, p=p)
    elif workload == "check-random":
        for r in (12, 13):
            fixed[f"ks{r}"] = partial(_ks_check, r=r, mode="random")
        for i in (3, 4, 5):
            fixed[f"family-4-{i}"] = partial(_family_check, r=4, i=i, mode="random")
        for p in (5, 7):
            seeded[f"vp-{p}^1-j3"] = partial(_vp, p=p, e=1, joins=3, mode="random")
        seeded["counter-nonsimple"] = partial(_counter, which="nonsimple")
        seeded["counter-nonminimal"] = partial(_counter, which="nonminimal")
        # zero_test_random refuses to lift extension-field circuits and the CLI
        # cannot pass a lift field, so this one exits 2: a documented refusal.
        seeded["refused-vp-3^2-j3"] = partial(_vp, p=3, e=2, joins=3, mode="random",
                                              refusal=True)
    else:
        raise KeyError(workload)
    return {**{k: (False, f) for k, f in fixed.items()},
            **{k: (True, f) for k, f in seeded.items()}}


WORKLOADS = ("check-exact", "chain-ks", "doubling-tight", "check-random")

# Fields each workload touches, including the lift fields GF(p^m), p^m > 4d,
# that the randomized oracle builds; setup constructs them so field_make's
# cache (and its irreducible search) is warm before timing.
FIELDS = {
    "check-exact": [(2, 1), (5, 1), (7, 1), (2, 3), (3, 2)],
    "chain-ks": [(2, 1)] + [(2, m) for m in range(7, 13)],
    "doubling-tight": [(5, 1), (7, 1)],
    "check-random": [(2, 1), (2, 7), (2, 13), (2, 14), (5, 1), (5, 3), (7, 1), (7, 3),
                     (3, 2), (1009, 1), (10007, 1), (65521, 1)],
}

# Rounds in a run of --seconds 25 (scaled for other values). One round takes
# 4.6, 6.5, 2.4 and 2.3 s on the reference machine (2-core Intel Xeon VM,
# Python 3.11), so a run measures 18-33 s. The round count is fixed, not
# timed, so every run has the same sample count and the tail percentile (the
# 11th largest sample) always falls on the same kind: the 2nd slowest kind on
# check-exact, doubling-tight and check-random, the 3rd slowest on chain-ks.
# Every workload has an odd number of answered kinds, so the median is the
# middle kind's latency. check-exact's 7 rounds use each of the 7 draws of a
# seeded kind once.
ROUNDS = {"check-exact": 7, "chain-ks": 5, "doubling-tight": 8, "check-random": 8}

VARIANTS = 7  # draws per seeded kind; successive rounds cycle through them


def make_pool(workload: str, seed: int, sps, run) -> dict:
    """kind -> list of Instances: one for a fixed kind, VARIANTS for a seeded one."""
    rng = random.Random(f"{workload}:{seed}")
    return {
        kind: [make(sps, rng, run) for _ in range(VARIANTS if seeded else 1)]
        for kind, (seeded, make) in kinds(workload).items()
    }
