"""Exact analysis of depth-3 (sum-product-sum) arithmetic circuits over
finite fields: certified ideal matchings, gcd/simple-part decomposition,
chains of form-ideals with rank-bound certificates, identity family
generators, and exact plus randomized zero testing."""

from .algebra import Field, SpanBasis, field_make, spans_orthogonal
from .chain import (
    Chain,
    ChainLink,
    MatchingData,
    build_chain,
    build_forest,
    chain_length_bound,
    classify_matching_data,
    single_round,
)
from .circuit import (
    Circuit,
    ZeroOracle,
    circuit_rank,
    dumps_circuit,
    is_minimal,
    is_simple,
    loads_circuit,
    make_circuit,
    subcircuit,
    zero_test_exact,
    zero_test_random,
)
from .errors import BoundViolationError, BudgetExceededError, VerificationError
from .families import (
    TightLists,
    gen_family,
    gen_intro_counterexamples,
    gen_joined,
    gen_ks,
    gen_tight_lists,
)
from .forms import (
    LinearForm,
    Term,
    lists_similar,
    normalize,
    similar,
    similarity_key,
)
from .matching import (
    DoublingReport,
    OrderedMatching,
    doubling_check,
    find_matching,
    unscramble,
)
from .quotient import (
    FormIdeal,
    GcdData,
    gcd_data,
    linear_factors,
    simple_part,
)

__all__ = [name for name in dir() if not name.startswith("_")]
