"""Self-tests of the benchmark's instance generator.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py

The known answers are re-derived here by a plain expansion over the
generator's own field arithmetic; nothing below calls sps.circuit.
"""

import itertools
import json
import math
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import calibrate  # noqa: E402
import instances  # noqa: E402
from instances import GF, field_of  # noqa: E402
from run import Program  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return Program()


# -- independent answers --

def expand(obj, term_indices=None):
    """{exponent tuple: nonzero coefficient} of the sum of the chosen terms."""
    F = field_of(obj)
    n = obj["n"]
    total = {}
    terms = obj["terms"]
    for t in (terms[i] for i in term_indices) if term_indices is not None else terms:
        poly = {(0,) * n: F.from_json(t["coef"])}
        for f in t["forms"]:
            f = [F.from_json(c) for c in f]
            nxt = {}
            for mono, c in poly.items():
                for j, a in enumerate(f):
                    if a != F.zero:
                        m = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                        nxt[m] = F.add(nxt.get(m, F.zero), F.mul(c, a))
            poly = {m: c for m, c in nxt.items() if c != F.zero}
        for m, c in poly.items():
            total[m] = F.add(total.get(m, F.zero), c)
    return {m: c for m, c in total.items() if c != F.zero}


def answers(obj):
    F = field_of(obj)
    k = len(obj["terms"])
    keys = instances.term_keys(obj)
    common = set(keys[0]).intersection(*map(set, keys[1:]))
    minimal = all(
        expand(obj, q)
        for size in range(2, k)
        for q in itertools.combinations(range(k), size)
    )
    vectors = [[F.from_json(c) for c in f] for t in obj["terms"] for f in t["forms"]]
    return {"zero": not expand(obj), "simple": not common, "minimal": minimal,
            "rank": instances._rank(F, vectors)}


def known_of(inst):
    return {key: inst.known[key] for key in ("zero", "simple", "minimal", "rank")}


# -- tests --

@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_same_seed_same_instance_bytes(prog, workload):
    def snapshot(seed):
        pool = instances.make_pool(workload, seed, prog.sps, prog.run)
        return {kind: [(i.argv, i.stdin, i.files, i.expect_stdout) for i in group]
                for kind, group in pool.items()}

    first = snapshot(7)
    assert first == snapshot(7)
    other = snapshot(8)
    seeded = [kind for kind, (is_seeded, _) in instances.kinds(workload).items() if is_seeded]
    for kind in seeded:
        assert first[kind] != other[kind], kind


@pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (2, 3), (3, 2)])
def test_vanishing_identity(p, e):
    obj = instances.vanishing_identity(p, e)
    assert answers(obj) == {"zero": True, "simple": True, "minimal": True, "rank": 2}


@pytest.mark.parametrize("make", [
    lambda sps, rng, run: instances._vp(sps, rng, run, 5, 1, 1, "exact"),
    lambda sps, rng, run: instances._vp(sps, rng, run, 5, 1, 1, "exact", perturbed=True),
    lambda sps, rng, run: instances._ks_check(sps, rng, run, 5, "exact"),
    lambda sps, rng, run: instances._family_check(sps, rng, run, 3, 1, "random"),
], ids=["joined", "perturbed", "ks", "family"])
def test_smallest_instances(prog, make):
    inst = make(prog.sps, random.Random(0), prog.run)
    assert answers(json.loads(inst.stdin)) == known_of(inst)


@pytest.mark.parametrize("which", ["nonsimple", "nonminimal"])
def test_counterexamples(prog, which):
    # the smallest degree the generator draws is d = 3 (rank 3, or 2d + 2 = 8)
    inst = next(i for i in (instances._counter(prog.sps, random.Random(seed), prog.run,
                                                which) for seed in range(100))
                if i.known["rank"] in (3, 8))
    assert answers(json.loads(inst.stdin)) == known_of(inst)


def test_chain_ranks(prog):
    for r, i in [(9, None), (4, 3)]:
        inst = instances._chain(prog.sps, random.Random(0), prog.run, r, i)
        obj = json.loads(inst.stdin)
        F = field_of(obj)
        vectors = [[F.from_json(c) for c in f] for t in obj["terms"] for f in t["forms"]]
        assert instances._rank(F, vectors) == inst.known["rank"]


def test_smallest_tight_lists(prog):
    """r = number of candidate ideals modulo which U and V are similar;
    the bound is log2 |U| + 2, and r equals it at even s."""
    s = 8
    inst = instances._tight(prog.sps, random.Random(0), prog.run, s, 5)
    obj = json.loads(next(iter(inst.files.values())))
    F = GF(obj["p"])
    candidates = [[1 if j == i else 0 for j in range(s)] for i in range(s - 1)]
    candidates.append([1] * (s - 1) + [2])

    def classes(forms, g):
        piv = next(j for j, c in enumerate(g) if c)
        out = []
        for f in forms:
            c = F.mul(f[piv], F.inv(g[piv]))
            red = [F.add(a, F.neg(F.mul(c, b))) for a, b in zip(f, g)]
            if any(red):
                out.append(instances._class_key(F, red))
        return sorted(out)

    r = sum(classes(obj["U"], g) == classes(obj["V"], g) for g in candidates)
    assert r == len(obj["ideals"])
    assert r == math.log2(len(obj["U"])) + 2 == s
    assert inst.known == {"verdict": "BOUND_OK", "r_equals_bound": True}


def test_calibration_is_fixed_work_without_sps():
    assert calibrate.work() == calibrate.CHECKSUM
    assert calibrate.trimmed_mean([1.0, 2.0, 3.0, 100.0]) == 2.5
    assert calibrate.scale_factor([calibrate.NOMINAL_S] * 5) == 1.0
    modules = {getattr(v, "__module__", None) or getattr(v, "__name__", "")
               for v in vars(calibrate).values()}
    assert not any(name.split(".")[0] == "sps" for name in modules if isinstance(name, str))
