"""Forward-table dynamic program for grammar-constrained HMM likelihoods.

Layer l of the table holds, for each grammar nonterminal a, the matrix
F_l[a][s,t] = sum over length-l strings w of (#derivation trees of w rooted
at a) * (A_{w1} ... A_{wl})[s,t].  Contracting the top layer with the start
symbol and the initial distribution gives the weighted mass
Z = sum_w f_G(w) * f_A(w), which is the exact constrained likelihood when
the grammar is unambiguous.

Layer l is built from the shorter layers.  Only live products
F_m[b] @ F_{l-m}[c] are formed: those of a distinct children pair (b, c) of
``CnfGrammar.pairs`` where b derives some string of length m and c some
string of length l - m, as recorded in ``ForwardTable.live``.  Every
other product is an exact zero matrix.
There are two paths, chosen by the HMM's state count n:

- Below FOLD_STATES states, all live products of a layer are formed
  together, one per (split m, rule a -> b c), found as the nonzero entries
  of two rule-level liveness rows (does b derive length m, does c derive
  l - m).  The table is read as flat blocks, block (l-1)*N + a being
  F_l[a], and three int rows of (split, rule) entries, built once per
  table, hold each entry's left block, its right block less a per-layer
  offset, and its parent: each chunk's factors are two ``take``s through
  them, multiplied by one batched ``np.matmul`` and added by one
  ``np.add.at`` on the flattened layer, at the flat entries of each
  product's parent, in chunks of at most max(1, FOLD_ENTRIES // n**2)
  products.  The products are ordered by split, then rule, and
  ``np.add.at`` adds repeated indices one after another in index order, so
  each F_l[a] gets its addends in the order of a loop over splits, then
  rules.  Adding +0.0 to a nonnegative entry changes nothing,
  so these layers are bit-identical to the full loop's while their entries
  are finite.  The one difference is after overflow: a dead product against
  an overflowed layer is 0 * inf = NaN in the full loop, and is never
  formed here, so such entries stay inf.
- From FOLD_STATES states on, the layer goes pair by pair, in pair order.
  A pair whose live splits are two or more and evenly spaced (every split,
  or every other one) has its split sum formed as one stacked product,
  ``np.matmul`` over two strided views of the table, summed over the splits
  and added once into each parent; a pair with one live split, or unevenly
  spaced ones, adds its products one by one in ascending split order.  The
  sums run in a fixed order, so a table is bit-reproducible, but they are
  not the loop's order: the layers match the full loop's to a relative
  error of about 1e-15, not bit for bit.  The stacked products of one pair
  are formed in chunks of at most max(1, FOLD_ENTRIES // n**2) splits, so
  their temporary holds at most FOLD_ENTRIES float64 entries (512 KB) up to
  n = 256, and one n x n product beyond.

All layers live in one read-only, C-contiguous float64 array of shape
(L, N, n, n), indexed [l-1, a, s, t], which the likelihood, the sampler and
the FPRAS read in place.  A table carries the grammar and HMM it was built
from, so it is passed alone: ``table.contract(l)`` and
``sampling.Sampler(table)`` read it, and there is no check that a table
matches some other grammar or HMM.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .grammar import CnfGrammar
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
# HMMs with at least this many states get the folded layer, whose strided
# views read the table in place.  Below it each layer's live products are
# batched per rule, from gathered copies of both factors, and scattered entry
# by entry: at n >= 8 those copies cost more memory than the fold's views and
# the scatter's cost per entry outgrows the fold's one add per pair, while at
# small n the fold's fixed cost per pair and layer outweighs its small products
FOLD_STATES = 8
# largest entry count of one chunk's products, folded or batched: 512 KB of
# float64
FOLD_ENTRIES = 2**16


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
            f"alphabet mismatch: grammar {list(g.alphabet)} vs HMM {sorted(model.alphabet)}"
        )


def forward_table(g: CnfGrammar, model: Hmm, L: int) -> ForwardTable:
    """Build all layers 1..L bottom-up.

    Base case: F_1[a] = sum of A_sigma over lexical rules a -> sigma.
    Combine:   each live product F_m[b] @ F_{l-m}[c] of a children pair
    (b, c), where b derives length m and c length l - m, is added into
    F_l[a] for each rule a -> b c.  Below FOLD_STATES states each layer's
    live products are formed per rule by one batched product over factors
    taken from the table's flat blocks through index rows built once per
    table, and added by one flat, ordered scatter per chunk
    (``_batch_layers``), in order of ascending m, then rule index, and every
    finite entry is bit-identical to the full loop's;
    an entry the full loop would make NaN by 0 * inf after overflow stays
    inf.  From FOLD_STATES states on, each pair's evenly spaced live splits
    are summed by one stacked product (``_fold_layers``), so the layers
    agree with the loop's to rounding only; a rebuild is still
    bit-identical.  Row l of ``live`` is set for the parents of layer l's
    live products.  Cost is O(live products of the layer * n^3) per layer,
    at most O(l * |rules| * n^3).
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
    if np_ >= FOLD_STATES:
        _fold_layers(g, layers, live)
    else:
        _batch_layers(g, layers, live)
    layers.setflags(write=False)
    live.setflags(write=False)
    return ForwardTable(layers=layers, live=live, grammar=g, model=model)


def _batch_layers(g: CnfGrammar, layers: np.ndarray, live: np.ndarray) -> None:
    """Fill layers 2..L and their ``live`` rows, each layer's live products
    formed by batched ``np.matmul`` and added by one flat ``np.add.at`` per
    chunk.

    The table is read as flat blocks: block (l-1)*N + a is F_l[a].  Rule r
    is a -> b c, in (pair, parent) order, and R is the rule count.  Three
    int rows, built once, have one entry i*R + r per split m = i + 1 and
    rule r: ``lo`` = i*N + b, the block of F_m[b]; ``hi`` = c - i*N, the
    block of F_{l-m}[c] less (l-2)*N; and ``parent`` = a.  ``left[l-1, r]``
    and ``right[l-1, r]`` tell whether b and c derive length l, so layer
    l's live products are the nonzero entries of
    (left[:l-1] & right[l-2::-1]).ravel(), ordered by split, then rule,
    which reaches each F_l[a] in the loop's (split, pair) order; every read
    of the table is a ``take`` through the rows.  Each chunk adds its
    products into the flattened layer at ``entries[a]``, the n*n flat
    entries of F_l[a]; the add is in place, so a parent whose products run
    across a chunk boundary gets them in order.
    """
    L, N, n = layers.shape[:3]
    rule_pair, rule_parent = np.nonzero(g.parents)
    children = g.pairs[rule_pair].T
    rule_b, rule_c = children
    # entry i*R + r of each row is split m = i + 1 and rule r
    shift = np.arange(0, (L - 1) * N, N)[:, None]
    lo, hi = (shift + rule_b).ravel(), (rule_c - shift).ravel()
    parent = np.tile(rule_parent, L - 1)
    entries = np.arange(N * n * n).reshape(N, n * n)
    blocks, flat = layers.reshape(-1, n, n), layers.reshape(L, -1)
    # sides[l-1] stacks the rows left[l-1] and right[l-1]
    sides = np.zeros((L, 2, len(rule_parent)), dtype=bool)
    left, right = sides[:, 0], sides[:, 1]
    live[0].take(children, out=sides[0])
    chunk = max(1, FOLD_ENTRIES // (n * n))
    # a short table pays these calls on every layer, so they are the cheaper
    # method forms: ``.nonzero()`` over ``np.nonzero``, ``take`` over fancy
    # indexing
    for l in range(2, L + 1):
        q = (left[:l - 1] & right[l - 2::-1]).ravel().nonzero()[0]
        if not len(q):
            # the layer, its live row and its rule rows stay zero
            continue
        parts = [q] if len(q) <= chunk else (q[at:at + chunk] for at in range(0, len(q), chunk))
        for part in parts:
            product = np.matmul(blocks.take(lo.take(part), axis=0),
                                blocks.take(hi.take(part) + (l - 2) * N, axis=0))
            np.add.at(flat[l - 1], entries.take(parent.take(part), axis=0).ravel(),
                      product.ravel())
        row = live[l - 1]
        row[parent.take(q)] = True
        row.take(children, out=sides[l - 1])


def _fold_layers(g: CnfGrammar, layers: np.ndarray, live: np.ndarray) -> None:
    """Fill layers 2..L and their ``live`` rows, one children pair at a time.

    Per layer, a pair whose live splits i (= m - 1) are two or more and
    evenly spaced by d has its split sum formed as stacked products over two
    strided views of ``layers``, F_m[b] for ascending m against F_{l-m}[c],
    in chunks of at most max(1, FOLD_ENTRIES // n**2) splits, and the sum is
    added once into each parent.  Any other pair adds its products one by
    one, in ascending split order.  ``left[l-1, p]`` and ``right[l-1, p]``
    tell whether pair p's b and c derive length l, and layer l's live
    products are the nonzero entries of left[:l-1] & right[l-2::-1].
    """
    L, n, np_ = layers.shape[:3]
    # fan[p] is (b, c, parents of pair p), as Python ints
    fan = [(b, c, np.flatnonzero(parents).tolist())
           for (b, c), parents in zip(g.pairs.tolist(), g.parents)]
    # sides[l-1] stacks the rows left[l-1] and right[l-1]
    children, sides = g.pairs.T, np.zeros((L, 2, len(fan)), dtype=bool)
    left, right = sides[:, 0], sides[:, 1]
    live[0].take(children, out=sides[0])
    # views[l-1][a] is F_l[a]; a list lookup costs less than indexing an ndarray
    views = [list(layer) for layer in layers]
    # the stacked products of one chunk of splits land here
    stack = np.empty((min(max(1, FOLD_ENTRIES // (np_ * np_)), L), np_, np_))
    chunk = len(stack)
    for l in range(2, L + 1):
        # row marks the parents of live products; a list item is cheaper to
        # set than an ndarray item
        cur, row = views[l - 1], [False] * n
        # i = m - 1 for split m; pair p's live splits are split[ends[p-1]:ends[p]]
        pair, split = (left[:l - 1] & right[l - 2::-1]).T.nonzero()
        ends = np.bincount(pair, minlength=len(fan)).cumsum().tolist()
        split = split.tolist()
        for (b, c, parents), start, end in zip(fan, [0] + ends, ends):
            if start == end:
                continue
            splits = split[start:end]
            i, j, k = splits[0], splits[-1], end - start
            d = splits[1] - i if k > 1 else 0
            if k > 1 and splits == list(range(i, j + 1, d)):
                lo, hi = layers[i:j + 1:d, b], layers[l - 2 - i::-d, c][:k]
                parts = (np.add.reduce(np.matmul(lo[at:at + chunk], hi[at:at + chunk],
                                                 out=stack[:min(chunk, k - at)]), axis=0)
                         for at in range(0, k, chunk))
                total = next(parts)
                for part in parts:
                    total += part
                products = [total]
            else:
                products = [views[i][b] @ views[l - i - 2][c] for i in splits]
            for product in products:
                for a in parents:
                    cur[a] += product
                    row[a] = True
        live[l - 1] = row
        live[l - 1].take(children, out=sides[l - 1])


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
