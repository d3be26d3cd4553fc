"""Outside-in tracing of sps: wrappers installed around the layers' public
functions, spans kept in memory, per-layer metrics computed from them.

Spanned functions record (name, start, end, parent span, instance id) in
flat arrays; primitives are only counted, so their time stays in the caller's
self time. A function imported by name into several sps modules is patched in
every namespace that holds it, and methods are patched on their class.
``coverage`` re-runs one instance under ``sys.setprofile`` to list calls that
reached a traced function without passing through its wrapper.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (metric prefix, module, attribute) of every function that gets a span
SPANNED = [
    ("cli.main", "sps.cli", "main"),
    ("algebra.span.insert", "sps.algebra", "SpanBasis.insert"),
    ("algebra.span.contains", "sps.algebra", "SpanBasis.contains"),
    ("algebra.span.reduce", "sps.algebra", "SpanBasis.reduce"),
    ("algebra.span.coordinates", "sps.algebra", "SpanBasis.coordinates"),
    ("forms.linearform.new", "sps.forms", "LinearForm.__init__"),
    ("forms.similar", "sps.forms", "similar"),
    ("circuit.loads_circuit", "sps.circuit", "loads_circuit"),
    ("circuit.dumps_circuit", "sps.circuit", "dumps_circuit"),
    ("circuit.oracle.is_zero", "sps.circuit", "ZeroOracle.is_zero"),
    ("circuit.zero_test_exact", "sps.circuit", "zero_test_exact"),
    ("circuit.zero_test_random", "sps.circuit", "zero_test_random"),
    ("circuit.is_minimal", "sps.circuit", "is_minimal"),
    ("quotient.formideal.new", "sps.quotient", "FormIdeal.__init__"),
    ("quotient.gcd_data", "sps.quotient", "gcd_data"),
    ("matching.build", "sps.matching", "OrderedMatching.build"),
    ("matching.verify", "sps.matching", "OrderedMatching.verify"),
    ("matching.find_matching", "sps.matching", "find_matching"),
    ("matching.unscramble", "sps.matching", "unscramble"),
    ("matching.doubling_check", "sps.matching", "doubling_check"),
    ("chain.single_round", "sps.chain", "single_round"),
    ("chain.build_chain", "sps.chain", "build_chain"),
]

# primitives: counted only
COUNTED = [
    ("algebra.field.mul", "sps.algebra", "Field.mul"),
    ("algebra.field.add", "sps.algebra", "Field.add"),
    ("algebra.field.inv", "sps.algebra", "Field.inv"),
    ("algebra.field.element", "sps.algebra", "Field.element"),
    ("algebra.gf2_mulmod", "sps.algebra", "gf2_mulmod"),
    ("forms.normalize", "sps.forms", "normalize"),
    ("forms.similarity_key", "sps.forms", "similarity_key"),
    ("quotient.reduce_prefix", "sps.quotient", "FormIdeal.reduce_prefix"),
    ("quotient.reduced_class_key", "sps.quotient", "reduced_class_key"),
    ("circuit.zero_test_random.trials", "sps.circuit", "_trial_is_zero"),
]

NAMES = [name for name, _, _ in SPANNED]
ID = {name: i for i, name in enumerate(NAMES)}


def _lookup(modname, attr):
    """(owner, attribute, raw object, plain function) for a dotted attribute."""
    mod = sys.modules[modname]
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(mod, cls_name)
        raw = owner.__dict__[meth]
        return owner, meth, raw, getattr(raw, "__func__", raw)
    raw = getattr(mod, attr)
    return mod, attr, raw, raw


class Tracer:
    """Span and counter store plus the patching that feeds it."""

    def __init__(self):
        self.name = array("B")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {name: 0 for name, _, _ in COUNTED}
        self.build_edges = 0
        self.verify_edges = 0
        self.exact_circuits = []   # circuit of every zero_test_exact call
        self.auto_calls = []       # (is_zero span, auto_budget, circuit) in auto mode
        self.current_instance = -1
        self._stack = [-1]
        self._restore = []
        self.originals = {}        # metric name -> plain function (for coverage)

    # -- wrappers --

    def _span(self, func, name_id, hook=None):
        names, parents, insts = self.name, self.parent, self.instance
        starts, ends, stack = self.start, self.end, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            insts.append(tracer.current_instance)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(idx, args, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _counter(self, func, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    def _hooks(self):
        def build(idx, args, result):
            self.build_edges += len(result.domain)

        def verify(idx, args, result):
            self.verify_edges += len(args[0].domain)

        def exact(idx, args, result):
            self.exact_circuits.append(args[0])

        def is_zero(idx, args, result):
            oracle, circuit = args[0], args[1]
            if oracle.mode == "auto":
                self.auto_calls.append((idx, oracle.auto_budget, circuit))

        return {"matching.build": build, "matching.verify": verify,
                "circuit.zero_test_exact": exact, "circuit.oracle.is_zero": is_zero}

    def install(self):
        """Patch every traced function in every sps namespace that binds it."""
        hooks = self._hooks()
        spaces = [m for n, m in sys.modules.items() if n == "sps" or n.startswith("sps.")]
        plan = [(n, mod, attr, False) for n, mod, attr in SPANNED]
        plan += [(n, mod, attr, True) for n, mod, attr in COUNTED]
        for name, modname, attr, counted in plan:
            owner, key, raw, func = _lookup(modname, attr)
            self.originals[name] = func
            if counted:
                wrapped = self._counter(func, name)
            else:
                wrapped = self._span(func, ID[name], hooks.get(name))
            if owner is not sys.modules[modname]:       # a method: patch the class
                new = classmethod(wrapped) if isinstance(raw, classmethod) else wrapped
                self._restore.append((owner, key, raw))
                setattr(owner, key, new)
                continue
            for space in spaces:
                for k, v in list(vars(space).items()):
                    if v is func:
                        self._restore.append((space, k, v))
                        setattr(space, k, wrapped)

    def uninstall(self):
        for owner, key, raw in reversed(self._restore):
            setattr(owner, key, raw)
        self._restore.clear()

    # -- analysis --

    def __len__(self):
        return len(self.name)

    def truncate(self, n):
        for arr in (self.name, self.parent, self.instance, self.start, self.end):
            del arr[n:]

    def span_stats(self):
        """Per spanned name [calls, total seconds, self seconds]; the is_zero
        spans the exact oracle answered; the is_zero calls made by is_minimal."""
        n = len(self.name)
        child = [0.0] * n
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        stats = [[0, 0.0, 0.0] for _ in NAMES]
        for i in range(n):
            dur = ends[i] - starts[i]
            s = stats[names[i]]
            s[0] += 1
            s[1] += dur
            s[2] += dur - child[i]
        is_zero, is_min = ID["circuit.oracle.is_zero"], ID["circuit.is_minimal"]
        exact_id = ID["circuit.zero_test_exact"]
        answered_exact = {parents[i] for i in range(n)
                          if names[i] == exact_id and parents[i] >= 0
                          and names[parents[i]] == is_zero}
        subsets = sum(1 for i in range(n)
                      if names[i] == is_zero and parents[i] >= 0
                      and names[parents[i]] == is_min)
        return stats, answered_exact, subsets

    def write(self, path_prefix, instance_kinds):
        """Spans as raw arrays (.bin) with a JSON index naming their layout."""
        arrays = [("name", self.name), ("parent", self.parent),
                  ("instance", self.instance), ("start", self.start), ("end", self.end)]
        with open(path_prefix + ".bin", "wb") as fh:
            for _, arr in arrays:
                arr.tofile(fh)
        index = {"count": len(self.name), "names": NAMES,
                 "arrays": [[k, arr.typecode, arr.itemsize] for k, arr in arrays],
                 "instances": instance_kinds}
        with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(index, fh)


def coverage(tracer: Tracer, run_once):
    """Names of traced functions whose calls bypassed their wrapper while
    run_once() ran, with the bypassed call counts (wrappers must be installed)."""
    codes = {func.__code__: name for name, func in tracer.originals.items()}
    seen = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                seen[name] += 1

    spans_before = len(tracer)
    counts_before = dict(tracer.counts)
    sys.setprofile(profile)
    try:
        run_once()
    finally:
        sys.setprofile(None)
    wrapped = dict.fromkeys(codes.values(), 0)
    for i in range(spans_before, len(tracer)):
        wrapped[NAMES[tracer.name[i]]] += 1
    for name, before in counts_before.items():
        wrapped[name] = tracer.counts[name] - before
    tracer.truncate(spans_before)
    tracer.counts.update(counts_before)
    return {name: seen[name] - wrapped[name] for name in seen if seen[name] != wrapped[name]}
