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
and raises ``ApproxError`` before the batch's Bernoulli draws.  Those draws
are one walk per batch over pooled uint32 words, which reads the same random
stream, and gives the same outcomes, as one ``exact_bernoulli`` call per
proposal in draw order.  The Bernoulli draw is carried out over big
integers, never via a floating-point reciprocal, since derivation counts
can exceed 2^53.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .grammar import CnfGrammar, derivation_counts
# unused here; kept bound because the traced benchmark run wraps this name
from .oracle import derivation_count  # noqa: F401
from .hmm import Hmm
from .inference import forward_table
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
    accepted: int
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

    Draws uniform bit blocks of width count.bit_length() until one lands in
    [0, count), then tests it against 0; no floating point is involved.
    This is the one-count case of ``_bernoulli_walk``.
    """
    return _bernoulli_walk([count], rng)[0]


def _bernoulli_walk(counts: list[int], rng: np.random.Generator) -> list[bool]:
    """One exact Bernoulli(1/count) outcome per count, in order.

    For a count c of b bits, an attempt reads nbytes = ceil(b/8) random
    bytes as a big-endian integer, shifts it right by 8*nbytes - b, retries
    while the value is >= c and accepts on 0; a count of 1 draws nothing.
    ``rng.bytes(nbytes)`` is the little-endian bytes of ceil(nbytes/4) =
    ceil(b/32) uint32 words of ``rng.integers``, cut to nbytes, so attempts
    read those words from a pool drawn in one call.  A pool holds at most one
    attempt's words for each count still waiting, which every one of them
    needs anyway, so the walk draws the same words and leaves ``rng`` in
    the same state as one ``rng.bytes`` call per attempt.
    """
    if min(counts, default=1) < 1:
        raise ApproxError("count must be >= 1")
    words = [0 if c == 1 else (c.bit_length() + 31) // 32 for c in counts]
    outcomes = []
    pool, pos = b"", 0
    for i, count in enumerate(counts):
        if count == 1:
            outcomes.append(True)
            continue
        bits = count.bit_length()
        nbytes = (bits + 7) // 8
        step, shift = 4 * words[i], 8 * nbytes - bits
        while True:
            if pos + step > len(pool):
                fresh = rng.integers(0, 2**32, size=sum(words[i:]) - (len(pool) - pos) // 4,
                                     dtype=np.uint32)
                pool, pos = pool[pos:] + fresh.astype("<u4").tobytes(), 0
            x = int.from_bytes(pool[pos:pos + nbytes], "big") >> shift
            pos += step
            if x < count:
                outcomes.append(x == 0)
                break
    return outcomes


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
    exceeds ``bound`` raises ``ApproxError``.  A zero weighted mass
    short-circuits to estimate 0.
    """
    rng = seeded_generator(seed)
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
    accepted = 0
    for strings, _ in Sampler(table).draw_batches(L, n_samples, rng):
        counts = derivation_counts(g, strings)
        if max(counts) > bound_value:
            raise ApproxError(f"ambiguity bound {bound_value} exceeded: a length-{L} "
                              f"proposal has {max(counts)} derivations")
        accepted += sum(_bernoulli_walk(counts, rng))
    return FprasReport(
        estimate=z * accepted / n_samples,
        z_weighted=z,
        samples=n_samples,
        accepted=accepted,
        epsilon=epsilon,
        bound_value=bound_value,
        seed=seed,
    )
