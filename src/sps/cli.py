"""Command-line front end.

Machine-readable JSON goes to stdout (one object per line; chain traces are
JSON lines followed by a summary object); the human summary goes to stderr.
Reports are byte-stable across runs for fixed inputs and seeds, so timing is
reported only on stderr. Exit codes: 0 all checks pass, 1 a checked property
is false, 2 usage, I/O or malformed-input error, 3 a proven bound was
violated (the falsification signal).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time

from .algebra import field_make
from .chain import build_chain, chain_length_bound
from .circuit import (
    MAX_TRIALS,
    Circuit,
    ZeroOracle,
    _dumps,
    _form_from_vector,
    _form_to_json,
    _header_from_json,
    _json_loads,
    _json_number,
    _vector_from_json,
    circuit_rank,
    circuit_to_dict,
    dumps_circuit,
    is_simple,
    loads_circuit,
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
    sys.stdout.write(_dumps(obj) + "\n")


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


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _trials(text: str) -> int:
    """--trials, refused at parse time outside [1, MAX_TRIALS], so whether a
    command line is accepted does not depend on which oracle answers."""
    trials = int(text)
    if not 1 <= trials <= MAX_TRIALS:
        raise argparse.ArgumentTypeError(f"trials must be in [1, {MAX_TRIALS}]")
    return trials


def _oracle_from_args(args) -> ZeroOracle:
    if getattr(args, "random", False):
        return ZeroOracle("random", trials=args.trials, seed=args.seed)
    if getattr(args, "exact", False):
        return ZeroOracle("exact")
    return ZeroOracle("auto", trials=args.trials, seed=args.seed)


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
        obj = {
            "p": t.field.p,
            "e": t.field.e,
            "n": t.n,
            "U": [_form_to_json(f) for f in t.u],
            "V": [_form_to_json(f) for f in t.v],
            "ideals": [
                [_form_to_json(g) for g in ideal.generators] for ideal in t.ideals
            ],
            "claimed": t.claimed,
            "verified": len(t.ideals),
        }
        text = _dumps(obj) + "\n"
        _note(f"tight lists s={args.s}: {len(t.ideals)} of {t.claimed} "
              "claimed matchings verified")
    else:  # counter
        nonsimple, nonminimal = gen_intro_counterexamples(args.d)
        if args.which == "nonsimple":
            text = dumps_circuit(nonsimple) + "\n"
        elif args.which == "nonminimal":
            text = dumps_circuit(nonminimal) + "\n"
        else:
            text = _dumps([circuit_to_dict(nonsimple), circuit_to_dict(nonminimal)]) + "\n"
    _write_text(args.output, text)
    return 0


def cmd_check(args) -> int:
    started = time.monotonic()
    text = _read_text(args.file)
    circuit = loads_circuit(text)
    oracle = _oracle_from_args(args)
    values = oracle.term_values(circuit)
    zero = values.is_zero()
    simple = is_simple(circuit)
    minimal = values.is_minimal()
    rank = circuit_rank(circuit)
    report = {
        "command": "check",
        "digest": _digest(dumps_circuit(circuit)),
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
        _note("assertion failed: circuit is not zero")
        return 1
    return 0


def cmd_chain(args) -> int:
    started = time.monotonic()
    text = _read_text(args.file)
    circuit = loads_circuit(text)
    digest = _digest(dumps_circuit(circuit))
    try:
        chain = build_chain(circuit)
    except BoundViolationError as exc:
        _emit({"command": "chain", "digest": digest, "ok": False,
               "violation": str(exc)})
        _note(f"BOUND VIOLATION: {exc}")
        return 3
    except ValueError as exc:  # not an identity, not simple, not minimal, ...
        _note(f"error: {exc}")
        return 1
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
    text = _read_text(args.file)
    circuit = loads_circuit(text)
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
    _emit({"command": "match", "digest": _digest(dumps_circuit(circuit)),
           "pairs": pairs, "found": found})
    _note(f"match: {found} of {pairs} term pairs matched mod the ideal")
    return 0


def cmd_doubling(args) -> int:
    obj = _json_loads(_read_text(args.lists))
    p, e, n = _header_from_json({"e": 1, **obj})
    lists = [[_vector_from_json(p, e, n, vec) for vec in vectors]
             for vectors in (obj["U"], obj["V"], *obj["ideals"])]
    field = field_make(p, e)
    u, v, *gens = [tuple(_form_from_vector(field, vec) for vec in vectors) for vectors in lists]
    ideals = [FormIdeal(field, n, g) for g in gens]
    matchings = []
    for idx, ideal in enumerate(ideals):
        pi = find_matching(u, v, ideal)
        if pi is None:
            _note(f"error: no matching between U and V by ideal {idx}")
            return 1
        matchings.append(pi)
    try:
        report = doubling_check(u, v, ideals, matchings)
    except ValueError as exc:
        _note(f"error: {exc}")
        return 1
    if args.trace:
        for line in report.transcript_lines():
            _note(line)
    out = {"command": "doubling", "digest": _digest(_dumps(obj))}
    out.update(report.to_dict())
    out["bound"] = _json_number(out["bound"])
    _emit(out)
    _note(f"doubling: verdict={report.verdict} r={report.r} d'={report.d_prime}")
    return 3 if report.verdict == "CONTRADICTION" else 0


def cmd_bound(args) -> int:
    m_bound = chain_length_bound(args.k, args.d)
    rank_bound = (args.k - 2) * m_bound
    _emit(
        {
            "command": "bound",
            "k": args.k,
            "d": args.d,
            "m_bound": _json_number(m_bound),
            "rank_bound": _json_number(rank_bound),
        }
    )
    _note(f"m <= {_json_number(m_bound)}, rank <= {_json_number(rank_bound)}")
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
    check.add_argument("--trials", type=_trials, default=20)
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
    bound.add_argument("--k", type=int, required=True)
    bound.add_argument("--d", type=int, required=True)
    bound.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundViolationError as exc:
        _note(f"BOUND VIOLATION: {exc}")
        return 3
    except VerificationError as exc:
        _note(f"verification failed: {exc}")
        return 1
    except BudgetExceededError as exc:
        _note(f"budget exceeded: {exc}")
        return 2
    except (OSError, ValueError, KeyError, TypeError) as exc:  # JSON errors are ValueErrors
        _note(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
