"""Shared exception types, each with one base. An exception says what failed;
sps.cli.main alone turns it into an exit code and one stderr line."""


class BudgetExceededError(RuntimeError):
    """An exact computation would exceed its configured size budget. The CLI
    exits 2 with an "error: " line, as on usage, I/O or malformed input."""


class OracleRefusalError(BudgetExceededError):
    """No rung of the oracle ladder answers the circuit, and the message names
    each rung tried and why; or term_values' k <= 16 cap. Exit 2, "error: "."""


class VerificationError(RuntimeError):
    """A checked property is false: a hypothesis a routine checks on its input
    (build_chain's preconditions, doubling_check's lists and ideals, check
    --assert-zero), or an internally constructed certificate (matching edge,
    gcd decomposition, round data), which on checked input signals an
    implementation bug. The CLI exits 1 with a "verification failed: " line.
    """


class BoundViolationError(RuntimeError):
    """A verified instance violated a proven bound: the falsification signal.
    A concrete circuit or pair of lists that passed all input checks broke
    an inequality that is supposed to hold unconditionally. The CLI exits 3
    with a "BOUND VIOLATION: " line."""
