"""Command-line front end.

Machine-readable JSON goes to stdout (one object per line; chain traces are
JSON lines followed by a summary object); the human summary goes to stderr.
Reports are byte-stable across runs for fixed inputs and seeds, so timing is
reported only on stderr. A command returns 0 or raises what failed, and main
alone turns that into an exit code (sps.errors): 1 a checked property is
false (VerificationError), 2 usage, I/O, malformed input or a budget refusal,
3 a proven bound was violated (BoundViolationError, the falsification signal).
sps.circuit defines both file formats and both digests; this module reads
argv and files and assembles reports.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import sys
import time
from dataclasses import asdict

from .chain import build_chain, chain_length_bound
from .circuit import (
    MAX_TRIALS,
    Circuit,
    ZeroOracle,
    circuit_digest,
    circuit_rank,
    circuit_to_dict,
    dumps_circuit,
    dumps_json,
    is_simple,
    json_number,
    lists_to_dict,
    loads_circuit,
    loads_lists,
)
from .errors import BoundViolationError, BudgetExceededError, VerificationError
from .families import (
    gen_family,
    gen_intro_counterexamples,
    gen_ks,
    gen_tight_lists,
)
from .forms import LinearForm
from .matching import doubling_check, find_matching
from .quotient import FormIdeal


def _emit(obj) -> None:
    sys.stdout.write(dumps_json(obj) + "\n")


def _note(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_circuit(path: str) -> tuple[Circuit, str]:
    """The circuit in a file ("-": stdin) and its digest (circuit_digest)."""
    text = _read_text(path)
    circuit = loads_circuit(text)
    return circuit, circuit_digest(text, circuit)


def _int_in(name: str, low: int, high: int | None = None):
    """An argparse type: an int in [low, high] (high None: no upper end), refused
    at parse time, so acceptance never depends on which oracle would answer."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low or high is not None and value > high:
            span = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"{name} must be {span}, got {value}")
        return value

    return integer


def _parse_ideal(text: str, circuit: Circuit) -> FormIdeal:
    """Semicolon-separated generators, comma-separated integer coefficients."""
    if circuit.field.e != 1:
        raise ValueError("--ideal accepts prime-field circuits only")
    gens = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        coeffs = [int(c) for c in part.split(",")]
        if len(coeffs) != circuit.n:
            raise ValueError(
                f"ideal generator needs {circuit.n} coefficients, got {len(coeffs)}"
            )
        gens.append(LinearForm(circuit.field, coeffs))
    if not gens:
        raise ValueError("--ideal needs at least one generator")
    return FormIdeal(circuit.field, circuit.n, gens)


# -- subcommands --

def cmd_gen(args) -> int:
    if args.family == "ks":
        text = dumps_circuit(gen_ks(args.r)) + "\n"
    elif args.family == "family":
        text = dumps_circuit(gen_family(args.r, args.i)) + "\n"
    elif args.family == "tight":
        t = gen_tight_lists(args.s, args.p)
        text = dumps_json(lists_to_dict(t)) + "\n"
        _note(f"tight lists s={args.s}: {len(t.ideals)} of {t.claimed} "
              "claimed matchings verified")
    else:  # counter
        nonsimple, nonminimal = gen_intro_counterexamples(args.d)
        if args.which == "nonsimple":
            text = dumps_circuit(nonsimple) + "\n"
        elif args.which == "nonminimal":
            text = dumps_circuit(nonminimal) + "\n"
        else:
            text = dumps_json([circuit_to_dict(nonsimple), circuit_to_dict(nonminimal)]) + "\n"
    _write_text(args.output, text)
    return 0


def cmd_check(args) -> int:
    started = time.monotonic()
    circuit, digest = _load_circuit(args.file)
    mode = "random" if args.random else "exact" if args.exact else "auto"
    oracle = ZeroOracle(mode, trials=args.trials, seed=args.seed)
    values = oracle.term_values(circuit)
    zero = values.is_zero()
    simple = is_simple(circuit)
    minimal = values.is_minimal()
    rank = circuit_rank(circuit)
    report = {
        "command": "check",
        "digest": digest,
        "p": circuit.field.p,
        "e": circuit.field.e,
        "k": circuit.k,
        "d": circuit.degree,
        "n": circuit.n,
        "zero": zero,
        "simple": simple,
        "minimal": minimal,
        "rank": rank,
        "mode": oracle.mode,
        "seed": args.seed,
    }
    _emit(report)
    elapsed = time.monotonic() - started
    _note(
        f"check: zero={zero} simple={simple} minimal={minimal} rank={rank} "
        f"({elapsed:.2f}s)"
    )
    if args.assert_zero and not zero:
        raise VerificationError("circuit is not zero")
    return 0


def cmd_chain(args) -> int:
    started = time.monotonic()
    circuit, digest = _load_circuit(args.file)
    try:
        chain = build_chain(circuit)
    except BoundViolationError as exc:
        _emit({"command": "chain", "digest": digest, "ok": False,
               "violation": str(exc)})
        raise
    if args.trace:
        for row in chain.trace_rounds():
            _emit(row)
    summary = chain.summary()
    report = {
        "command": "chain",
        "digest": digest,
        "k": circuit.k,
        "d": circuit.degree,
        "n": circuit.n,
        **summary,
    }
    _emit(report)
    elapsed = time.monotonic() - started
    _note(
        f"chain: m={chain.m} rank={chain.rank} bound={summary['bound']} "
        f"N1={chain.n1} N2={chain.n2} N3={chain.n3} ({elapsed:.2f}s)"
    )
    return 0


def cmd_match(args) -> int:
    circuit, digest = _load_circuit(args.file)
    ideal = _parse_ideal(args.ideal, circuit)
    found = 0
    pairs = 0
    for i in range(circuit.k):
        for j in range(i + 1, circuit.k):
            pairs += 1
            pi = find_matching(circuit.terms[i].forms, circuit.terms[j].forms, ideal)
            entry = {"pair": [i, j], "found": pi is not None}
            if pi is not None:
                found += 1
                entry["ordered"] = pi.is_ordered
                if pi.is_ordered:  # _parse_ideal admits prime fields only
                    entry["sc"] = pi.scaling_factor()
            _emit(entry)
    _emit({"command": "match", "digest": digest, "pairs": pairs, "found": found})
    _note(f"match: {found} of {pairs} term pairs matched mod the ideal")
    return 0


def cmd_doubling(args) -> int:
    field, n, u, v, gens, digest = loads_lists(_read_text(args.lists))
    ideals = [FormIdeal(field, n, g) for g in gens]  # a bad generator: exit 2
    report = doubling_check(u, v, ideals)
    if args.trace:
        for line in report.transcript_lines():
            _note(line)
    out = {"command": "doubling", "digest": digest}
    out.update(asdict(report))
    out["bound"] = json_number(out["bound"])
    _emit(out)
    _note(f"doubling: verdict={report.verdict} r={report.r} d'={report.d_prime}")
    if report.verdict == "CONTRADICTION":
        raise BoundViolationError(report.reason)
    return 0


def cmd_bound(args) -> int:
    fits = math.comb(args.k, 2) <= sys.float_info.max  # then k - 2 converts too
    m_bound = chain_length_bound(args.k, args.d) if fits else math.inf
    rank_bound = (args.k - 2) * m_bound
    if not math.isfinite(rank_bound):  # k >= 3, so m_bound <= rank_bound
        raise ValueError("--k is too large: the bound overflows a float")
    _emit(
        {
            "command": "bound",
            "k": args.k,
            "d": args.d,
            "m_bound": json_number(m_bound),
            "rank_bound": json_number(rank_bound),
        }
    )
    _note(f"m <= {json_number(m_bound)}, rank <= {json_number(rank_bound)}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, so every main() call after the first reuses it."""
    parser = argparse.ArgumentParser(
        prog="sps",
        description="Exact analysis of depth-3 circuits over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate identity families and test inputs")
    gsub = gen.add_subparsers(dest="family", required=True)
    g_ks = gsub.add_parser("ks", help="3-term parity identity over GF(2)")
    g_ks.add_argument("--r", type=int, required=True)
    g_fam = gsub.add_parser("family", help="iterated-join identity family")
    g_fam.add_argument("--r", type=int, required=True)
    g_fam.add_argument("--i", type=int, required=True)
    g_tight = gsub.add_parser("tight", help="tight lists for the doubling bound")
    g_tight.add_argument("--s", type=int, required=True)
    g_tight.add_argument("--p", type=int, default=5)
    g_counter = gsub.add_parser("counter", help="non-simple / non-minimal examples")
    g_counter.add_argument("--d", type=int, required=True)
    g_counter.add_argument("--which", choices=["nonsimple", "nonminimal", "both"],
                           default="both")
    for g in (g_ks, g_fam, g_tight, g_counter):
        g.add_argument("-o", "--output", default=None)
        g.set_defaults(func=cmd_gen)

    check = sub.add_parser("check", help="zero / simple / minimal / rank report")
    check.add_argument("file", nargs="?", default="-")
    mode = check.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--random", action="store_true")
    check.add_argument("--trials", type=_int_in("trials", 1, MAX_TRIALS), default=20)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--assert-zero", action="store_true")
    check.set_defaults(func=cmd_check)

    chain = sub.add_parser("chain", help="build a maximal chain and verify bounds")
    chain.add_argument("file", nargs="?", default="-")
    chain.add_argument("--trace", action="store_true")
    chain.set_defaults(func=cmd_chain)

    match = sub.add_parser("match", help="match term pairs modulo an ideal")
    match.add_argument("file", nargs="?", default="-")
    match.add_argument("--ideal", required=True,
                       help='generators "a1,..,an;b1,..,bn" (integers mod p)')
    match.set_defaults(func=cmd_match)

    doubling = sub.add_parser("doubling", help="run the doubling checker on lists")
    doubling.add_argument("--lists", required=True)
    doubling.add_argument("--trace", action="store_true")
    doubling.set_defaults(func=cmd_doubling)

    bound = sub.add_parser("bound", help="print the chain-length and rank bounds")
    bound.add_argument("--k", type=_int_in("k", 3), required=True)  # chain's setting
    bound.add_argument("--d", type=_int_in("d", 1), required=True)
    bound.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # a command builds no reference cycles: the cyclic collector only costs time
    try:
        return args.func(args)
    except BoundViolationError as exc:
        _note(f"BOUND VIOLATION: {exc}")
        return 3
    except VerificationError as exc:
        _note(f"verification failed: {exc}")
        return 1
    except (OSError, ValueError, KeyError, TypeError, BudgetExceededError) as exc:
        _note(f"error: {exc}")  # JSON errors are ValueErrors
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
