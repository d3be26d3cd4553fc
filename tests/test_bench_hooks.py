"""The benchmark under bench/ patches and calls sps by name. Every name it
relies on must resolve, so that renaming or deleting one fails here and not
only when `bench/run.py --trace 1` runs. bench/ is read, never modified."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import sps
import sps.cli
from helpers import load_bench

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = load_bench("spans")


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
