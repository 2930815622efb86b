"""Reference computations: the per-string CYK derivation count, brute force
over exhaustive string enumeration, and the forward-table recurrence in exact
integer arithmetic.

``derivation_count`` is a dict chart over Python ints, apart from the
vectorized ``grammar.derivation_counts`` it checks.  Every walk here visits
Sigma^L in lexicographic order (guarded by the enumeration limit) and serves
as ground truth for the dynamic programs, so summation uses math.fsum in that
fixed order.  ``exact_weighted_mass`` reaches lengths past the walk's limit
with no rounding at all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grammar import CnfGrammar, GrammarError
from .hmm import Hmm, string_likelihood

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "OracleError",
    "ExactDistribution",
    "derivation_count",
    "enumerate_language",
    "max_ambiguity",
    "brute_force_weighted_mass",
    "exact_weighted_mass",
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


def derivation_count(g: CnfGrammar, w: str) -> int:
    """Number of derivation trees of w from the start symbol; 0 iff w is not in the language.

    Exact, over Python integers, by the standard CYK chart over substrings:
    a span's count for nonterminal a is the sum, over splits and binary
    rules a -> b c, of the products of the two child span counts.  The
    oracles' reference count.
    """
    if len(w) < 1:
        raise GrammarError("string must be nonempty")
    L = len(w)
    # lookups from the rule tuples, not the index: symbol -> emitters, pair -> parents
    emitters = {s: [a for a, t in g.lexical_rules if t == s] for s in g.alphabet}
    by_children: dict[tuple[int, int], list[int]] = {}
    for a, b, c in g.binary_rules:
        by_children.setdefault((b, c), []).append(a)
    for ch in w:
        if ch not in emitters:
            raise GrammarError(f"symbol {ch!r} not in grammar alphabet")
    # chart[(i, j)] maps nonterminal -> count for substring w[i:j]
    chart: dict[tuple[int, int], dict[int, int]] = {}
    for i, ch in enumerate(w):
        chart[(i, i + 1)] = dict.fromkeys(emitters[ch], 1)
    for span in range(2, L + 1):
        for i in range(L - span + 1):
            j = i + span
            cell = {}
            for m in range(i + 1, j):
                left = chart[(i, m)]
                right = chart[(m, j)]
                if not left or not right:
                    continue
                for b, cb in left.items():
                    for c, cc in right.items():
                        parents = by_children.get((b, c))
                        if parents:
                            prod = cb * cc
                            for a in parents:
                                cell[a] = cell.get(a, 0) + prod
            chart[(i, j)] = cell
    return chart[(0, L)].get(g.start, 0)


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


def exact_weighted_mass(g: CnfGrammar, model: Hmm, L: int) -> Fraction:
    """The weighted mass Z = sum_w f_G(w) * f_A(w) over length-L strings,
    exactly, by the forward table's recurrence over Python ints.

    Every float64 is an integer times a power of two, so scaling all symbol
    matrices by one shared 2^E makes them integer matrices A'; each term of
    F_l is a product of l of them, so F_l = F'_l / 2^(l E) exactly, where F'_l
    is the table of A'.  The top layer is contracted with the initial
    distribution as Fractions.  Time grows with the digits of F'_l, so keep L
    short.
    """
    # imported here, not at the top: fractions loads decimal, a few ms on
    # every CLI start, and the CLI never calls this
    from fractions import Fraction

    if L < 1:
        raise GrammarError("length must be >= 1")
    # each entry is an integer over a power of two, and 2^E is the largest of
    # those powers, so 2^E times any entry is an integer
    E = max(x.as_integer_ratio()[1].bit_length() - 1
            for m in model.matrices.values() for x in m.ravel().tolist())
    scaled = {s: np.array([[int(Fraction(x) * 2**E) for x in row] for row in m.tolist()],
                          dtype=object)
              for s, m in model.matrices.items()}
    n = model.state_count
    # layers[l-1, a] is F'_l[a], in Python ints
    layers = np.zeros((L, g.nonterminal_count, n, n), dtype=object)
    for a, s in g.lexical_rules:
        layers[0, a] += scaled[s]
    for l in range(2, L + 1):
        for m in range(1, l):
            for a, b, c in g.binary_rules:
                layers[l - 1, a] += layers[m - 1, b] @ layers[l - m - 1, c]
    top = layers[L - 1, g.start].tolist()
    total = sum(Fraction(p) * sum(row) for p, row in zip(model.initial.tolist(), top))
    return total / (1 << (L * E))


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
