"""The benchmark under bench/ patches and calls sps by name. Every name it
relies on must resolve, so that renaming or deleting one fails here and not
only when `bench/run.py --trace 1` runs. The cheap chain and doubling kinds
must still print the stdout whose digests bench/golden.json records, so that
an output change fails here and not only in a benchmark run. bench/ is read,
never modified."""

import hashlib
import importlib
import inspect
import io
import json
import random
import re
import sys
from pathlib import Path

import pytest

import sps
import sps.cli
from helpers import load_bench

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = load_bench("spans")
INSTANCES = load_bench("instances")
GOLDEN_KINDS = [("chain-ks", kind) for kind in
                ("ks9", "ks10", "family-4-3", "family-4-4", "family-4-5", "family-5-3")]
GOLDEN_KINDS += [("doubling-tight", f"tight-{s}-{p}") for s in (7, 8, 9, 10) for p in (5, 7)
                 if (s, p) != (7, 7)]


@pytest.mark.parametrize(
    "metric, module, attr",
    SPANS.SPANNED + SPANS.COUNTED,
    ids=[name for name, _, _ in SPANS.SPANNED + SPANS.COUNTED],
)
def test_traced_function_resolves(metric, module, attr):
    importlib.import_module(module)
    # the tracer's own lookup: methods must live in the class's __dict__
    _, _, _, func = SPANS._lookup(module, attr)
    assert callable(func) and hasattr(func, "__code__"), f"{module}.{attr}"


def test_package_names_called_by_bench_resolve():
    source = "".join((BENCH / name).read_text() for name in ("run.py", "instances.py"))
    names = set(re.findall(r"\bsps\.([A-Za-z_]\w*)", source))
    assert {"gen_joined", "gen_ks", "field_make", "loads_circuit"} <= names
    missing = sorted(name for name in names if not hasattr(sps, name))
    assert not missing


def test_indirect_names_used_by_bench_resolve():
    # reached through sys.modules, the CLI module, tracer hooks, or keywords
    assert callable(sps.circuit.exact_cost_bound)
    assert callable(sps.cli.main)
    oracle = sps.ZeroOracle("auto")
    assert oracle.mode == "auto" and isinstance(oracle.auto_budget, int)
    assert "domain" in sps.OrderedMatching.__slots__
    for func in (sps.gen_joined, sps.gen_family):
        assert "verify" in inspect.signature(func).parameters
    assert "p" in inspect.signature(sps.gen_intro_counterexamples).parameters


def _run(argv, stdin_text=""):
    """(exit code, stdout, stderr, seconds) of sps.cli.main, the runner the
    bench's instance builders take."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        code = sps.cli.main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue(), 0.0
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


@pytest.mark.parametrize("workload, kind", GOLDEN_KINDS,
                         ids=[f"{w}/{k}" for w, k in GOLDEN_KINDS])
def test_cheap_golden_digests_replay(workload, kind, tmp_path):
    golden = json.loads((BENCH / "golden.json").read_text())
    _, factory = INSTANCES.kinds(workload)[kind]
    inst = factory(sps, random.Random(0), _run)
    for name, text in inst.files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in inst.files else a for a in inst.argv]
    code, out, _, _ = _run(argv, inst.stdin)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == golden[inst.golden]
