"""FPRAS for constrained likelihoods of polynomially ambiguous grammars.

Proposals come from the exact ancestral sampler in batches of its CHUNK
draws, whose string marginal is f_G(w) * f_A(w) / Z.  The paper accepts each
proposal with probability exactly 1 / f_G(w); here each proposal adds that
probability itself (the Rao-Blackwellized, Karp-Luby-Madras estimator), so
``accepted`` is the sum of 1 / f_G(w) over the N proposals, and
Z * accepted / N estimates f_A(L_G intersect Sigma^L).  Its mean is the
coin's, its variance no larger, and each term still lies in [1/bound, 1], so
Hoeffding's N for an integer ambiguity bound still gives relative error
epsilon with probability at least 3/4, the paper's fixed confidence.  Z is
``table.contract(L)`` of the table the proposals are drawn from.  A batch's
exact derivation counts come from one call of ``grammar.derivation_counts``,
which counts each distinct string once; a count above the bound voids the
guarantee and raises ``ApproxError``.  Counts can exceed 2^53, so the sum is
``math.fsum`` over distinct counts c of k / c, k being the proposals with
count c, each term correctly rounded.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .grammar import CnfGrammar, derivation_counts
# unused here; kept bound because the traced benchmark run wraps this name
from .oracle import derivation_count  # noqa: F401
from .hmm import Hmm
from .inference import NumericalError, forward_table
from .sampling import Sampler, seeded_generator

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
    # the proposals' expected acceptances, sum of 1 / f_G(w)
    accepted: float
    epsilon: float
    bound_value: int
    seed: int


def sample_size(bound: int, epsilon: float) -> int:
    """Smallest Hoeffding sample count for |p_hat - p| <= epsilon / bound
    with probability at least 3/4: N = ceil(ln(8) * bound^2 / (2 epsilon^2)),
    or ApproxError where that float64 quotient is not a finite integer."""
    if bound < 1:
        raise ApproxError("ambiguity bound must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ApproxError("epsilon must be in (0, 1)")
    try:
        return math.ceil(math.log(8.0) * bound * bound / (2.0 * epsilon * epsilon))
    except (ZeroDivisionError, OverflowError):
        raise ApproxError(f"sample size is not finite at epsilon {epsilon}, bound {bound}") from None


def exact_bernoulli(count: int, rng: np.random.Generator) -> bool:
    """True with probability exactly 1/count, via big-integer rejection.

    Each attempt reads ceil(b/8) bytes of ``rng.bytes`` as a big-endian
    integer, b = count.bit_length(), and keeps its top b bits; it retries
    while the value is >= count and accepts on 0.  A count of 1 draws
    nothing, and no floating point is involved.
    """
    if count < 1:
        raise ApproxError("count must be >= 1")
    if count == 1:
        return True
    bits = count.bit_length()
    nbytes = (bits + 7) // 8
    while True:
        x = int.from_bytes(rng.bytes(nbytes), "big") >> (8 * nbytes - bits)
        if x < count:
            return x == 0


def fpras_likelihood(
    g: CnfGrammar,
    model: Hmm,
    L: int,
    epsilon: float,
    bound: int,
    seed: int,
) -> FprasReport:
    """Randomized estimate of the constrained likelihood for a polynomially
    ambiguous grammar.

    ``bound`` is an integer upper-bounding the derivation count of any
    length-L string; with probability at least 3/4 the estimate is within
    relative error epsilon of the true value.  A proposal whose count
    exceeds ``bound`` raises ``ApproxError``.  A language with no length-L
    string short-circuits to estimate 0; a nonempty one whose weighted mass
    is not a normal, finite float64 raises ``NumericalError``.
    """
    rng = seeded_generator(seed)
    try:
        bound_value = operator.index(bound)
    except TypeError:
        raise ApproxError("ambiguity bound must be an integer") from None
    n_samples = sample_size(bound_value, epsilon)

    table = forward_table(g, model, L)
    if not table.live[L - 1, g.start]:
        return FprasReport(
            estimate=0.0, z_weighted=0.0, samples=0, accepted=0.0,
            epsilon=epsilon, bound_value=bound_value, seed=seed,
        )
    z = table.contract(L)
    if not np.finfo(float).tiny <= z < math.inf:
        raise NumericalError(f"weighted mass {z!r} at length {L} is not a normal float64")
    tally = Counter()  # proposals per derivation count
    for strings, _ in Sampler(table).draw_batches(L, n_samples, rng):
        counts = derivation_counts(g, strings)
        if max(counts) > bound_value:
            raise ApproxError(f"ambiguity bound {bound_value} exceeded: a length-{L} "
                              f"proposal has {max(counts)} derivations")
        tally.update(counts)
    if 0 in tally:
        raise ApproxError(f"a length-{L} proposal has no derivation")
    accepted = math.fsum(k / c for c, k in tally.items())
    return FprasReport(
        estimate=z * accepted / n_samples,
        z_weighted=z,
        samples=n_samples,
        accepted=accepted,
        epsilon=epsilon,
        bound_value=bound_value,
        seed=seed,
    )
