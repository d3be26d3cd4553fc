"""The sps benchmark: seeded CLI workloads driven in-process in a closed loop.

Usage, from the repository root:

    python3 bench/run.py --workload check-exact --seed 1 --seconds 25 --trace 0

One caller, one process, no threads: each instance is one ``sps.cli.main(argv)``
call with stdin/stdout redirected, issued only after the previous one
returned. A round runs every instance kind of the workload once, in a seeded
order; a run does a fixed number of rounds per --seconds (instances.ROUNDS),
so every run measures the same mix and the same sample count. Set-up (import,
instance generation, field_make warm-up) is repeated and its median reported.
A calibration (calibrate.py) runs before every set-up and every instance, and
all end-to-end times are scaled by it to the reference machine's speed.
Each verdict is gated against its construction-known answer and its stdout
against the exact expected bytes (check) or the golden digest recorded in
golden.json (chain, doubling).

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics (see spans.py) from rounds run
twice, untraced then traced, which gives the tracing overhead; the spans are
written to .bench_out/. Metric names and order follow BENCHMARK.json. The line
before the result is a human summary. Exit status is 0 when a result was
printed, whether or not every instance passed its gate.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = (3, 9, 2.0)  # at least 3, at most 9, more only while under 2 s
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
CAP = 1.5  # a run stops starting rounds after CAP * --seconds on a slow machine

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import instances  # noqa: E402
import spans  # noqa: E402


class Program:
    """The freshly imported sps package plus an in-process CLI runner."""

    def __init__(self):
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        for name in [n for n in sys.modules if n == "sps" or n.startswith("sps.")]:
            del sys.modules[name]
        self.sps = importlib.import_module("sps")
        self.cli = importlib.import_module("sps.cli")
        if not os.path.abspath(self.sps.__file__).startswith(SRC + os.sep):
            raise ImportError(f"sps imported from {self.sps.__file__}, not {SRC}")

    def run(self, argv, stdin_text=""):
        """(exit code, stdout, stderr, seconds inside main)."""
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
        try:
            main = self.cli.main  # looked up per call so trace wrappers apply
            t0 = perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse errors
                code = exc.code
            dt = perf_counter() - t0
            out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, out, err, dt


def setup(workload, seed, workdir):
    """Import sps, generate the instance pool, warm field_make's cache."""
    t0 = perf_counter()
    prog = Program()
    pool = instances.make_pool(workload, seed, prog.sps, prog.run)
    for p, e in instances.FIELDS[workload]:
        prog.sps.field_make(p, e)
    for group in pool.values():
        for inst in group:
            for name, text in inst.files.items():
                path = os.path.join(workdir, name)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                inst.argv = [path if a == name else a for a in inst.argv]
    return perf_counter() - t0, prog, pool


# -- correctness gate --

def gate(inst, code, out, golden):
    """'ok', 'refused' or a failure reason for one finished instance."""
    if inst.refusal and code == 2 and out == "":
        return "refused"
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        return "no JSON report on stdout"
    try:
        return _gate_report(inst, out, report, golden)
    except (KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"


def _gate_report(inst, out, report, golden):
    known = inst.known
    cmd = inst.argv[0]
    if cmd == "check":
        for key in ("zero", "simple", "minimal", "rank"):
            if report.get(key) != known[key]:
                return f"{key}={report.get(key)} but the construction says {known[key]}"
        if out != inst.expect_stdout:
            return "stdout differs from the expected bytes"
        return "ok"
    if cmd == "chain":
        if report.get("ok") is not True or report.get("rank") != known["rank"]:
            return f"chain report {report} disagrees with rank {known['rank']}"
        if report["rank"] > (known["k"] - 2) * report["m"]:
            return "rank exceeds (k-2)*m"
    elif cmd == "doubling":
        if report.get("verdict") != known["verdict"] or report["r"] > report["bound"]:
            return f"doubling verdict {report.get('verdict')} r={report.get('r')}"
        if known["r_equals_bound"] and report["r"] != report["bound"]:
            return "r != bound at even s"
    if hashlib.sha256(out.encode("utf-8")).hexdigest() != golden.get(inst.golden):
        return "stdout differs from the golden digest"
    return "ok"


def declared_metrics(section):
    """Metric names BENCHMARK.json declares in `section`, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[section]]


def load_golden():
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- the closed loop --

class Loop:
    """Runs whole rounds of the pool and gates every instance; with
    `calibrated`, every instance is preceded by a calibration (calibrate.py)."""

    def __init__(self, prog, pool, seed, golden, calibrated=False):
        self.prog, self.pool, self.golden = prog, pool, golden
        self.calibrated = calibrated
        self.order_rng = random.Random(f"order:{seed}")
        self.kinds = sorted(pool)
        self.rounds = 0
        self.attempted = self.failed = self.refused = 0
        self.failures = []
        self.instance_kinds = []  # per attempt, in order
        self.seconds = []         # per attempt, seconds inside main
        self.answered = []        # per attempt, whether it passed its gate
        self.calibrations = []    # per attempt, seconds of the calibration before it
        self.kind_seconds = {}    # kind -> main seconds of each attempt

    def round(self, before_call=None):
        """One instance of every kind in seeded order; returns main seconds."""
        total = 0.0
        order = self.order_rng.sample(self.kinds, len(self.kinds))
        for kind in order:
            group = self.pool[kind]
            inst = group[self.rounds % len(group)]
            if self.calibrated:
                self.calibrations.append(calibrate.measure())
            if before_call is not None:
                before_call(len(self.instance_kinds))
            self.instance_kinds.append(kind)
            code, out, err, dt = self.prog.run(inst.argv, inst.stdin)
            total += dt
            self.seconds.append(dt)
            self.kind_seconds.setdefault(kind, []).append(dt)
            verdict = gate(inst, code, out, self.golden)
            self.attempted += 1
            self.answered.append(verdict == "ok")
            if verdict == "refused":
                self.refused += 1
            elif verdict != "ok":
                self.failed += 1
                self.failures.append(f"{kind}: {verdict}; stderr: {err.strip()[-200:]}")
        self.rounds += 1
        return total

    def run_rounds(self, rounds, cap_seconds):
        """`rounds` whole rounds, fewer if they pass cap_seconds; wall seconds."""
        t0 = perf_counter()
        while self.rounds < rounds and (self.rounds == 0 or perf_counter() - t0 < cap_seconds):
            self.round()
        return perf_counter() - t0


def tail(samples):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, prog, pool, setup_times, setup_calibrations, golden):
    """The end-to-end metrics, in seconds at the calibration's nominal speed.

    Every measured time is multiplied by the run's calibration factor
    (calibrate.py); a kind's latency is the trimmed mean of its scaled
    attempts, so a burst of host load that hits one attempt does not decide a
    percentile. The percentiles are taken over the answered attempts, each
    standing at its kind's latency; instances_per_s is the reciprocal of the
    mean latency of one instance of every kind (refusals included)."""
    loop = Loop(prog, pool, args.seed, golden, calibrated=True)
    rounds = max(1, round(instances.ROUNDS[args.workload] * args.seconds / 25))
    wall = loop.run_rounds(rounds, CAP * args.seconds)
    factor = calibrate.scale_factor(setup_calibrations + loop.calibrations)
    scaled = {}
    for kind, dt in zip(loop.instance_kinds, loop.seconds):
        scaled.setdefault(kind, []).append(dt * factor)
    latency = {kind: calibrate.trimmed_mean(v) for kind, v in scaled.items()}
    lat = [latency[kind] for kind, ok in zip(loop.instance_kinds, loop.answered) if ok]
    tail_value, pct, beyond = tail(lat) if lat else (0.0, 0.0, 0)
    answered = loop.attempted - loop.failed - loop.refused
    metrics = {
        "setup_s": metric(statistics.median(setup_times) * factor, "s"),
        "instances_per_s": metric(len(latency) / sum(latency.values()), "1/s"),
        "verdict_p50_s": metric(statistics.median(lat) if lat else 0.0, "s"),
        "verdict_tail_s": metric(tail_value, "s"),
        "answered_ratio": metric(answered / loop.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    summary = (f"{args.workload} seed={args.seed}: {loop.rounds} rounds in {wall:.1f} s, "
               f"{loop.attempted} attempted, {loop.failed} failed, {loop.refused} refused "
               f"(failed_ratio incl. refusals = {(loop.failed + loop.refused) / loop.attempted:.4f}); "
               f"verdict_tail_s is p{pct:.1f} of {len(lat)} samples ({beyond} beyond); "
               f"times scaled by {factor:.4f} (calibration {calibrate.NOMINAL_S / factor:.5f} s, "
               f"nominal {calibrate.NOMINAL_S} s); unscaled: "
               f"{loop.attempted / sum(loop.seconds):.4f} instances/s in main, "
               f"setup runs {[round(t, 3) for t in setup_times]}")
    return loop, metrics, summary


def per_layer(args, prog, pool, golden):
    """Pairs of rounds on the same instances, untraced then traced, until the
    next pair would end past --seconds on average; the traced rounds give the
    spans."""
    reference = Loop(prog, pool, args.seed, golden)
    loop = Loop(prog, pool, args.seed, golden)   # same seed: same instances
    tracer = spans.Tracer()

    def mark(instance_id):
        tracer.current_instance = instance_id

    untraced = traced = 0.0
    t0 = perf_counter()
    while True:
        untraced += reference.round()
        tracer.install()
        try:
            traced += loop.round(mark)
        finally:
            tracer.uninstall()
        elapsed = perf_counter() - t0
        if elapsed + 0.5 * elapsed / loop.rounds >= args.seconds:
            break
    metrics, shares = layer_metrics(tracer, loop.attempted)
    n = loop.attempted
    metrics["trace.untraced_s"] = metric(untraced / n, "s/inst")
    metrics["trace.overhead_s"] = metric((traced - untraced) / n, "s/inst")
    smallest = min(pool, key=lambda k: reference.kind_seconds[k][0])
    inst = pool[smallest][0]
    tracer.install()
    try:
        unseen = spans.coverage(tracer, lambda: prog.run(inst.argv, inst.stdin))
    finally:
        tracer.uninstall()
    metrics["trace.unseen_functions"] = metric(len(unseen), "count")
    loop.attempted += reference.attempted   # both passes are gated
    loop.failed += reference.failed
    loop.failures += reference.failures
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{args.workload}"), loop.instance_kinds)
    summary = (f"{args.workload} seed={args.seed} traced: {loop.rounds} rounds, "
               f"{loop.attempted} attempted, {loop.failed} failed, {loop.refused} refused; "
               f"{len(tracer)} spans; span self times sum to {shares['self_sum']:.4f} s/inst, "
               f"untraced {untraced / n:.4f} + overhead {(traced - untraced) / n:.4f}; "
               f"unattributed share in cli.main {shares['main_self_share']:.3f}; "
               f"oracle answers: {shares['oracle']}; "
               f"wrappers missed (probe on {smallest}): {unseen or 'none'}")
    return loop, metrics, summary


def layer_metrics(tracer, n_inst):
    """Per-instance means of the per-layer metrics named in BENCHMARK.json."""
    stats, answered_exact, subsets = tracer.span_stats()
    bound = sys.modules["sps.circuit"].exact_cost_bound   # called untraced
    bound_monomials = sum(bound(c) for c in tracer.exact_circuits)
    disagree = sum(1 for idx, budget, c in tracer.auto_calls
                   if (bound(c) <= budget) != (idx in answered_exact))
    per = 1.0 / n_inst
    out = {}

    def put(name, value, unit):
        out[name] = metric(value, unit)

    for name, (calls, total, self_s) in zip(spans.NAMES, stats):
        put(f"{name}.calls", calls * per, "count/inst")
        put(f"{name}.self_s", self_s * per, "s/inst")
        put(f"{name}.total_s", total * per, "s/inst")
    for name, count in tracer.counts.items():
        put(name if name.endswith(".trials") else f"{name}.calls", count * per, "count/inst")
    calls = {name: s[0] for name, s in zip(spans.NAMES, stats)}
    is_zero_calls = calls["circuit.oracle.is_zero"]
    exact_answers = len(answered_exact)
    put("circuit.oracle.exact_share", exact_answers / is_zero_calls if is_zero_calls else 0.0,
        "ratio")
    put("circuit.oracle.auto_disagree", disagree * per, "count/inst")
    put("circuit.zero_test_exact.bound_monomials", bound_monomials * per, "count/inst")
    put("circuit.is_minimal.subsets", subsets * per, "count/inst")
    put("matching.build.edges", tracer.build_edges * per, "count/inst")
    put("matching.verify.edges", tracer.verify_edges * per, "count/inst")
    put("matching.verify_per_built_edge",
        tracer.verify_edges / tracer.build_edges if tracer.build_edges else 0.0, "ratio")
    chains = calls["chain.build_chain"]
    put("chain.rounds", calls["chain.single_round"] / chains if chains else 0.0, "count")
    self_sum = sum(s[2] for s in stats) * per
    main_self = stats[spans.ID["cli.main"]][2] * per
    put("trace.self_sum_s", self_sum, "s/inst")
    put("trace.spans", len(tracer) * per, "count/inst")
    shares = {
        "self_sum": self_sum,
        "main_self_share": main_self / self_sum if self_sum else 0.0,
        "oracle": f"{exact_answers} exact / {is_zero_calls - exact_answers} random "
                  f"of {is_zero_calls} is_zero calls, {disagree} disagree with auto_budget",
    }
    return out, shares


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=instances.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sps", "__init__.py")):
        print(f"error: no sps sources under {SRC}", file=sys.stderr)
        return 2

    golden = load_golden()
    workdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        setup_times, calibrations = [], []
        least, most, budget = (1, 1, 0) if args.trace else SETUP_REPEATS
        while len(setup_times) < least or (len(setup_times) < most
                                           and sum(setup_times) < budget):
            if not args.trace:
                calibrations.append(calibrate.measure())
            seconds, prog, pool = setup(args.workload, args.seed, workdir)
            setup_times.append(seconds)
        if args.trace:
            loop, metrics, summary = per_layer(args, prog, pool, golden)
        else:
            loop, metrics, summary = end_to_end(args, prog, pool, setup_times, calibrations,
                                                golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in loop.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(summary)
    print(summary, file=sys.stderr)
    per_kind = {k: round(statistics.median(v), 4) for k, v in sorted(loop.kind_seconds.items())}
    print(f"median seconds per kind: {per_kind}", file=sys.stderr)
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed,
                      "metrics": {name: metrics[name] for name in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
