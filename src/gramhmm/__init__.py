"""Grammar-constrained inference, sampling and approximation for HMMs."""

from .grammar import (
    CnfGrammar,
    GrammarError,
    GrammarSyntaxError,
    dyck_grammar,
    format_grammar,
    parse_grammar,
    union,
    universal_grammar,
)
from .hmm import (
    Hmm,
    HmmError,
    format_hmm,
    parse_hmm,
    random_hmm,
    split_likelihood,
    string_likelihood,
    uniform_hmm,
)
from .inference import (
    AttestationError,
    AttestationViolatedError,
    ForwardTable,
    InferenceError,
    LikelihoodResult,
    NumericalError,
    forward_table,
    likelihood_upto,
    ucfg_likelihood,
    weighted_mass,
)
from .sampling import (
    Sampler,
    SamplingError,
    SamplingNumericalError,
    sample_many,
)
from .approx import (
    ApproxError,
    FprasReport,
    exact_bernoulli,
    fpras_likelihood,
    sample_size,
)
from .oracle import (
    ExactDistribution,
    OracleError,
    brute_force_likelihood,
    brute_force_weighted_mass,
    derivation_count,
    enumerate_language,
    exact_distribution,
    exact_weighted_mass,
    max_ambiguity,
    tv_distance,
)
from .reductions import (
    Cnf3Formula,
    InconsistentModelCountError,
    ReductionError,
    brute_force_model_count,
    clause_complement_grammar,
    formula_to_cfg,
    model_count_via_likelihood,
    parse_dimacs,
)

__version__ = "0.20.0"
