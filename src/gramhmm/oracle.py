"""Brute-force reference computations over exhaustive string enumeration.

Every walk here visits Sigma^L in lexicographic order (guarded by the
enumeration limit) and serves as ground truth for the dynamic programs, so
summation uses math.fsum in that fixed order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .grammar import CnfGrammar, GrammarError, derivation_count
from .hmm import Hmm, string_likelihood

__all__ = [
    "OracleError",
    "ExactDistribution",
    "enumerate_language",
    "max_ambiguity",
    "brute_force_weighted_mass",
    "brute_force_likelihood",
    "exact_distribution",
    "tv_distance",
]

# Max number of strings brute-force enumeration may visit.
DEFAULT_ENUMERATION_GUARD = 10**7


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class ExactDistribution:
    """Normalized proposal distribution f_G(w) f_A(w) / Z plus its summary masses."""

    probabilities: dict[str, float]
    z: float
    member_likelihood: float  # membership-weighted mass f_A(L_G intersect Sigma^L)


def _members(g: CnfGrammar, L: int):
    """(w, derivation count) of each length-L member, in lexicographic order.
    Counts come from this module's ``derivation_count``, which the traced
    benchmark run wraps."""
    if L < 1:
        raise GrammarError("length must be >= 1")
    if len(g.alphabet) ** L > DEFAULT_ENUMERATION_GUARD:
        raise GrammarError(f"enumeration guard exceeded: |alphabet|^L = {len(g.alphabet) ** L}")
    for letters in itertools.product(g.alphabet, repeat=L):
        w = "".join(letters)
        count = derivation_count(g, w)
        if count:
            yield w, count


def enumerate_language(g: CnfGrammar, L: int) -> set[str]:
    """All length-L strings of the language, by exhaustive membership testing."""
    return {w for w, _ in _members(g, L)}


def max_ambiguity(g: CnfGrammar, L: int) -> int:
    """Max derivation count over all length-L strings (brute force)."""
    return max((count for _, count in _members(g, L)), default=0)


def brute_force_weighted_mass(g: CnfGrammar, model: Hmm, L: int) -> float:
    """Sum over all length-L strings of derivation count times HMM probability."""
    return math.fsum(count * string_likelihood(model, w) for w, count in _members(g, L))


def brute_force_likelihood(g: CnfGrammar, model: Hmm, L: int) -> float:
    """Membership-weighted mass: sum of HMM probabilities of language members."""
    return math.fsum(string_likelihood(model, w) for w, _ in _members(g, L))


def exact_distribution(g: CnfGrammar, model: Hmm, L: int) -> ExactDistribution:
    """Full table of the constrained proposal distribution at length L."""
    members = [(w, count, string_likelihood(model, w)) for w, count in _members(g, L)]
    z = math.fsum(count * p for _, count, p in members)
    if z <= 0.0:
        raise OracleError("empty constrained support")
    return ExactDistribution(
        probabilities={w: count * p / z for w, count, p in members},
        z=z,
        member_likelihood=math.fsum(p for *_, p in members),
    )


def tv_distance(empirical: dict[str, float], exact: ExactDistribution) -> float:
    """Half the L1 distance between an empirical frequency map and the exact law."""
    support = set(empirical) | set(exact.probabilities)
    return 0.5 * math.fsum(
        abs(empirical.get(w, 0.0) - exact.probabilities.get(w, 0.0)) for w in sorted(support)
    )
