"""Forward-table dynamic program for grammar-constrained HMM likelihoods.

Layer l of the table holds, for each grammar nonterminal a, the matrix
F_l[a][s,t] = sum over length-l strings w of (#derivation trees of w rooted
at a) * (A_{w1} ... A_{wl})[s,t].  Contracting the top layer with the start
symbol and the initial distribution gives the weighted mass
Z = sum_w f_G(w) * f_A(w), which is the exact constrained likelihood when
the grammar is unambiguous.

Layer l is built from the shorter layers by a loop over split points
m = 1..l-1, then over the distinct children pairs (b, c) of
``CnfGrammar.pairs``: each product F_m[b] @ F_{l-m}[c] is formed once and
added into F_l[a] for every rule a -> b c, so each F_l[a] gets its addends
in the order of a loop over splits, then rules.  Only live products are
formed: those where b derives some string of length m and c some string of
length l - m, as recorded in ``ForwardTable.live``
(``grammar.live_products``).  Every other product is an exact zero matrix,
and adding +0.0 to a nonnegative entry changes nothing, so the layers are
bit-identical to the full loop's while their entries are finite.  The one
difference is after overflow: a dead product against an overflowed layer is
0 * inf = NaN in the full loop, and is never formed here, so such entries
stay inf.  All layers live in one read-only, C-contiguous float64 array of
shape (L, N, n, n), indexed [l-1, a, s, t], which the likelihood, the
sampler and the FPRAS read in place.  A table carries the grammar and HMM it was built from, so it is
passed alone: ``table.contract(l)`` and ``sampling.Sampler(table)`` read it,
and there is no check that a table matches some other grammar or HMM.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .grammar import CnfGrammar, live_products
from .hmm import Hmm

__all__ = [
    "InferenceError",
    "AttestationError",
    "ForwardTable",
    "LikelihoodResult",
    "forward_table",
    "weighted_mass",
    "ucfg_likelihood",
    "likelihood_upto",
    "NumericalError",
    "AttestationViolatedError",
]

AMBIGUITY_SLACK = 1e-9


class NumericalError(ValueError):
    """A result cannot be represented or trusted in floating point."""


class InferenceError(ValueError):
    pass


class AttestationError(InferenceError):
    """The unambiguity attestation is missing or contradicted by the result."""


class AttestationViolatedError(AttestationError, NumericalError):
    """The weighted mass exceeds 1, so the attested grammar is ambiguous."""


@dataclass(frozen=True)
class ForwardTable:
    """Layers 1..length as one C-contiguous, read-only float64 array of
    shape (length, N, n, n), where layers[l-1, a, s, t] = F_l[a][s,t], and
    the read-only bool array ``live`` of shape (length, N): live[l-1, a] is
    true iff a derives some string of length l, which depends on the
    grammar alone; where it is false, F_l[a] is zero."""
    layers: np.ndarray
    live: np.ndarray
    grammar: CnfGrammar
    model: Hmm

    @property
    def length(self) -> int:
        return len(self.layers)

    def layer(self, l: int) -> np.ndarray:
        if not 1 <= l <= self.length:
            raise InferenceError(f"layer index {l} out of range [1, {self.length}]")
        return self.layers[l - 1]

    def contract(self, l: int) -> float:
        """Weighted mass at length l: sum_{s,t} pi'[s] F_l[S][s,t]."""
        f = self.layer(l)[self.grammar.start]
        return float(self.model.initial @ f.sum(axis=1))


@dataclass(frozen=True)
class LikelihoodResult:
    value: float
    length: int
    mode: str  # weighted-mass | ucfg-exact | upto-L


def _check_alphabets(g: CnfGrammar, model: Hmm) -> None:
    if set(g.alphabet) != set(model.alphabet):
        raise InferenceError(
            f"alphabet mismatch: grammar {list(g.symbols)} vs HMM {sorted(model.alphabet)}"
        )


def forward_table(g: CnfGrammar, model: Hmm, L: int) -> ForwardTable:
    """Build all layers 1..L bottom-up.

    Base case: F_1[a] = sum of A_sigma over lexical rules a -> sigma.
    Combine:   for each split m, then each distinct children pair (b, c)
    whose product is live (b derives length m and c length l - m), form
    F_m[b] @ F_{l-m}[c] once and add it into F_l[a] for each rule a -> b c.
    Each F_l[a] accumulates in fixed order (ascending m, then rule index),
    so results are bit-reproducible.  Skipping the dead products, which are
    exact zeros, leaves every finite entry bit-identical to the full loop;
    an entry the full loop would make NaN by 0 * inf after overflow stays
    inf.  Row l of ``live`` is set for the parents of layer l's live
    products as they are formed.  Cost is O(live pair products of the
    layer * n'^3) per layer, at most O(l * |pairs| * n'^3).
    """
    _check_alphabets(g, model)
    if L < 1:
        raise InferenceError("length must be >= 1")
    n, np_ = g.nonterminal_count, model.state_count
    # pages of a private anonymous map take no memory until written (rows that
    # stay zero never are) and go back to the OS when the table is freed
    size = L * n * np_ * np_ * 8
    try:
        buf = mmap.mmap(-1, size, access=mmap.ACCESS_COPY)
    except (OSError, OverflowError) as e:
        raise InferenceError(
            f"forward table for length {L} needs {size} bytes and cannot be allocated: {e}"
        ) from None
    layers = np.frombuffer(buf).reshape(L, n, np_, np_)
    # live[l-1, a]: a derives some string of length l, so F_l[a] may be nonzero
    live = np.zeros((L, n), dtype=bool)
    for a, s in g.lexical_rules:
        layers[0, a] += model.matrices[s]
        live[0, a] = True
    B, C = g.pairs.T
    # fan[p] is (b, c, parents of pair p), as Python ints for the loop
    fan = [(b, c, np.flatnonzero(parents).tolist())
           for (b, c), parents in zip(g.pairs.tolist(), g.parents)]
    # views[l-1][a] is F_l[a]; the loop looks up several per product, and a
    # list lookup costs less than indexing an ndarray
    views = [list(layer) for layer in layers]
    for l in range(2, L + 1):
        # row marks the parents of live products; a list item is cheaper to
        # set than an ndarray item
        cur, row = views[l - 1], [False] * n
        # i = m - 1 for split m; the live pairs come in ascending split order
        split, pair = live_products(live, l, B, C)
        last = -1
        for i, (b, c, parents) in zip(split.tolist(), map(fan.__getitem__, pair.tolist())):
            if i != last:
                lo, hi, last = views[i], views[l - i - 2], i
            product = lo[b] @ hi[c]
            for a in parents:
                cur[a] += product
                row[a] = True
        live[l - 1] = row
    layers.setflags(write=False)
    live.setflags(write=False)
    return ForwardTable(layers=layers, live=live, grammar=g, model=model)


def weighted_mass(g: CnfGrammar, model: Hmm, L: int) -> LikelihoodResult:
    """Z = sum over length-L strings of f_G(w) * f_A(w); valid for any CFG.

    A caller that holds a forward table reads the same value, at any length
    the table covers, as ``table.contract(L)``.
    """
    return LikelihoodResult(value=forward_table(g, model, L).contract(L), length=L,
                            mode="weighted-mass")


def _attested(value: float, L: int) -> float:
    """The weighted mass ``value`` at length L of a grammar attested
    unambiguous; a value above 1 proves the attestation broken and raises."""
    if value > 1.0 + AMBIGUITY_SLACK:
        raise AttestationViolatedError(
            f"ambiguity attestation violated: weighted mass {value} exceeds 1 at length {L}"
        )
    return value


def ucfg_likelihood(
    g: CnfGrammar, model: Hmm, L: int, unambiguity_attested: bool = False
) -> LikelihoodResult:
    """Exact constrained likelihood, valid when the caller attests the grammar unambiguous.

    Unambiguity is undecidable in general, so it is the caller's promise;
    a result above 1 proves the promise broken and raises.
    """
    if not unambiguity_attested:
        raise AttestationError(
            "ucfg likelihood requires the caller to attest the grammar is unambiguous"
        )
    value = _attested(weighted_mass(g, model, L).value, L)
    return LikelihoodResult(value=value, length=L, mode="ucfg-exact")


def likelihood_upto(
    g: CnfGrammar, model: Hmm, L: int, unambiguity_attested: bool = False
) -> LikelihoodResult:
    """Sum of per-length exact likelihoods for l = 1..L off one shared table.

    The >1 sanity check applies per length; the sum itself may legitimately
    exceed 1 (each length carries its own distribution).
    """
    if not unambiguity_attested:
        raise AttestationError(
            "upto-L likelihood requires the caller to attest the grammar is unambiguous"
        )
    table = forward_table(g, model, L)
    total = 0.0
    for l in range(1, L + 1):
        total += _attested(table.contract(l), l)
    return LikelihoodResult(value=total, length=L, mode="upto-L")
