"""Rejection-based FPRAS for constrained likelihoods of ambiguous grammars.

Proposals come from the exact ancestral sampler in batches of its CHUNK
draws, whose string marginal is f_G(w) * f_A(w) / Z; accepting each proposal
with probability exactly 1 / f_G(w) makes the acceptance rate Z-normalized
constrained likelihood, so Z * (accepted / N) estimates
f_A(L_G intersect Sigma^L).  Z is ``table.contract(L)`` of the table the
proposals are drawn from, and N is set by an integer ambiguity bound so
that the estimate is within relative error epsilon with probability at
least 3/4, the paper's fixed confidence.  The exact derivation counts of a
batch come from one call of ``grammar.derivation_counts``, which counts
each distinct string once; a count above the bound voids that guarantee
and raises ``ApproxError`` before the batch's Bernoulli draws, which then
run per proposal in draw order.  The Bernoulli draw is carried out over
big integers, never via a floating-point reciprocal, since derivation
counts can exceed 2^53.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .grammar import CnfGrammar, derivation_counts
# unused here; kept bound because the traced benchmark run wraps this name
from .grammar import derivation_count  # noqa: F401
from .hmm import Hmm
from .inference import forward_table
from .sampling import RngSeed, Sampler

__all__ = [
    "ApproxError",
    "FprasReport",
    "sample_size",
    "exact_bernoulli",
    "fpras_likelihood",
]

class ApproxError(ValueError):
    pass


@dataclass(frozen=True)
class FprasReport:
    estimate: float
    z_weighted: float
    samples: int
    accepted: int
    epsilon: float
    bound_value: int
    seed: RngSeed


def sample_size(bound: int, epsilon: float) -> int:
    """Smallest Hoeffding sample count for |p_hat - p| <= epsilon / bound
    with probability at least 3/4: N = ceil(ln(8) * bound^2 / (2 epsilon^2)).
    """
    if bound < 1:
        raise ApproxError("ambiguity bound must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ApproxError("epsilon must be in (0, 1)")
    return math.ceil(math.log(8.0) * bound * bound / (2.0 * epsilon * epsilon))


def exact_bernoulli(count: int, rng: np.random.Generator) -> bool:
    """True with probability exactly 1/count, via big-integer rejection.

    Draws uniform bit blocks of width count.bit_length() until one lands in
    [0, count), then tests it against 0; no floating point is involved.
    """
    if count < 1:
        raise ApproxError("count must be >= 1")
    if count == 1:
        return True
    bits = count.bit_length()
    nbytes = (bits + 7) // 8
    shift = 8 * nbytes - bits
    while True:
        x = int.from_bytes(rng.bytes(nbytes), "big") >> shift
        if x < count:
            return x == 0


def fpras_likelihood(
    g: CnfGrammar,
    model: Hmm,
    L: int,
    epsilon: float,
    bound: int,
    seed: RngSeed | int,
) -> FprasReport:
    """Randomized estimate of the constrained likelihood for a polynomially
    ambiguous grammar.

    ``bound`` is an integer upper-bounding the derivation count of any
    length-L string; with probability at least 3/4 the estimate is within
    relative error epsilon of the true value.  A proposal whose count
    exceeds ``bound`` raises ``ApproxError``.  A zero weighted mass
    short-circuits to estimate 0.
    """
    if isinstance(seed, int):
        seed = RngSeed(seed)
    try:
        bound_value = operator.index(bound)
    except TypeError:
        raise ApproxError("ambiguity bound must be an integer") from None
    n_samples = sample_size(bound_value, epsilon)

    table = forward_table(g, model, L)
    z = table.contract(L)
    if z == 0.0:
        return FprasReport(
            estimate=0.0, z_weighted=0.0, samples=0, accepted=0,
            epsilon=epsilon, bound_value=bound_value, seed=seed,
        )
    rng = seed.generator()
    accepted = 0
    for batch in Sampler(table).draw_batches(L, n_samples, rng):
        counts = derivation_counts(g, [trace.string for trace in batch])
        if max(counts) > bound_value:
            raise ApproxError(f"ambiguity bound {bound_value} exceeded: a length-{L} "
                              f"proposal has {max(counts)} derivations")
        for count in counts:
            if exact_bernoulli(count, rng):
                accepted += 1
    return FprasReport(
        estimate=z * accepted / n_samples,
        z_weighted=z,
        samples=n_samples,
        accepted=accepted,
        epsilon=epsilon,
        bound_value=bound_value,
        seed=seed,
    )
