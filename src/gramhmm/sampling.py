"""Exact ancestral sampling of grammar-constrained HMM strings.

Draws strings w of length L with probability f_G(w) * f_A(w) / Z by sampling
a derivation top-down from the forward table: the root state pair, then at
each node a (rule, split, middle state) choice proportional to the product
of the two child table entries, then a terminal at each leaf.  For an
unambiguous grammar the string marginal is the constrained distribution;
for an ambiguous one it is exactly the proposal the rejection estimator
needs.

Draws are made in batches of ``CHUNK``.  A batch keeps a frontier of pending
nodes (nonterminal, span length, state pair, position, draw) and expands it
from length L down to 1, one group of nodes sharing a (nonterminal, length)
at a time.  For each node only its own choice weights
F_m[b][s,:] * F_{l-m}[c][:,t] are formed, in the table's fixed order
(ascending split, then rule index, then middle state), and the whole group
is drawn with one vectorized inverse-CDF step, so memory stays flat in the
number of draws and nothing is cached per (nonterminal, length).  Derivation
trees are assembled from the recorded choices only when the caller asks for
them; the strings-only path keeps no per-node records.  A seeded stream is
deterministic in the seed and the arguments, whether or not trees are
requested; it differs from the per-draw recursion of gramhmm 0.1.0.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .grammar import CnfGrammar
from .hmm import Hmm
from .inference import ForwardTable, NumericalError, forward_table

__all__ = [
    "SamplingError",
    "SamplingNumericalError",
    "RngSeed",
    "DerivationNode",
    "SampleTrace",
    "Sampler",
    "sample_many",
]

UNDERFLOW_FLOOR = 1e-300
# Draws per batch.  A constant, so a seeded stream depends only on the seed
# and the arguments.
CHUNK = 1024
# Most choice weights formed at once; larger groups are split into row blocks.
BLOCK_ELEMENTS = 1 << 16


class SamplingError(ValueError):
    pass


class SamplingNumericalError(SamplingError, NumericalError):
    """A node's choice weights underflowed below UNDERFLOW_FLOOR or overflowed."""


@dataclass(frozen=True)
class RngSeed:
    """A seed; equal seeds give identical sequences."""

    seed: int

    def generator(self) -> np.random.Generator:
        # the trailing 0 keeps every stream identical to gramhmm 0.2.0
        return np.random.default_rng([self.seed, 0])


@dataclass(frozen=True)
class DerivationNode:
    nonterminal: str
    start: int               # span [start, end) into the sampled string
    end: int
    states: tuple[int, int]  # HMM state pair carried across the span
    terminal: str | None = None
    children: tuple["DerivationNode", ...] = ()


@dataclass(frozen=True)
class SampleTrace:
    string: str
    tree: DerivationNode | None  # None unless the draw was made with trees
    weight: float  # pi'[root s] times the product of leaf operator entries


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise inverse-CDF draw over unnormalized cumulative weights (k, C)."""
    if cum.shape[1] == 0:
        raise SamplingNumericalError("numerical underflow at node")
    total = cum[:, -1]
    # a NaN total comes from inf * 0 once a table layer has overflowed
    if not np.isfinite(total).all():
        raise SamplingNumericalError("numerical overflow at node")
    if not (total >= UNDERFLOW_FLOOR).all():
        raise SamplingNumericalError("numerical underflow at node")
    # r < total keeps the pick on a choice of positive weight
    r = np.minimum(u * total, np.nextafter(total, 0.0))
    return np.count_nonzero(cum <= r[:, None], axis=1)


class _Nodes:
    """Node records of one batch, kept only when trees are requested."""

    def __init__(self, count: int):
        self.next_id = count  # ids 0..count-1 are the roots
        self.records: list[tuple] = []

    def new_ids(self, k: int) -> np.ndarray:
        ids = np.arange(self.next_id, self.next_id + k)
        self.next_id += k
        return ids

    def add(self, ids, a, l, s, t, pos, left_or_symbol, right) -> None:
        """Record nodes ids; a leaf has right = -1 and carries its symbol index."""
        self.records.append((ids, a, pos, pos + l, s, t, left_or_symbol, right))

    def build(self, names: tuple[str, ...], symbols: list[str]) -> list[DerivationNode]:
        # rows: nonterminal, start, end, s, t, left child or symbol, right child
        fields = np.empty((7, self.next_id), dtype=np.int64)
        for ids, *values in self.records:
            for row, value in zip(fields, values):
                row[ids] = value
        nodes: list[DerivationNode | None] = [None] * self.next_id
        # children always carry larger ids than their parent
        for i, (a, start, end, s, t, x, right) in reversed(list(enumerate(fields.T.tolist()))):
            if right < 0:
                nodes[i] = DerivationNode(names[a], start, end, (s, t), terminal=symbols[x])
            else:
                nodes[i] = DerivationNode(names[a], start, end, (s, t),
                                          children=(nodes[x], nodes[right]))
        return nodes


class Sampler:
    """Reusable batched sampler over one forward table."""

    def __init__(self, table: ForwardTable):
        self.table = table
        self.grammar = table.grammar
        self.model = table.model
        g, n = self.grammar, self.model.state_count
        self._layers_t = table.layers.transpose(0, 1, 3, 2)  # [l-1, a, t, s]
        self._rules = {}
        for a in range(g.nonterminal_count):
            pairs = g.binary_rules_of(a)
            self._rules[a] = (np.array([b for b, _ in pairs], dtype=np.intp),
                              np.array([c for _, c in pairs], dtype=np.intp))
        self._symbols = sorted(g.alphabet)
        self._codes = np.array([ord(s) for s in self._symbols], dtype=np.uint32)
        self._leaf = {}
        for a in range(g.nonterminal_count):
            syms = g.lexical_rules_of(a)
            ids = np.array([self._symbols.index(s) for s in syms], dtype=np.intp)
            if syms:
                w = np.stack([self.model.matrices[s] for s in syms], axis=2)
            else:
                w = np.zeros((n, n, 0))
            self._leaf[a] = (ids, w)

    def _factors(self, a: int, l: int, s: np.ndarray, t: np.ndarray):
        """Left and right factors of the choices of nodes (a, l, s[i], t[i]).

        Both have shape (k, (l - 1) * rules, n): column j = (m - 1) * rules + r
        stands for split m and rule r = a -> b c, and the weight of middle
        state u is lo[i, j, u] * hi[i, j, u] = F_m[b][s,u] * F_{l-m}[c][u,t].
        A node's weights sum to F_l[a][s,t].
        """
        B, C = self._rules[a]
        m = np.arange(l - 1)[None, :, None]
        lo = self.table.layers[m, B[None, None, :], s[:, None, None], :]
        hi = self._layers_t[l - 2 - m, C[None, None, :], t[:, None, None], :]
        n = self.model.state_count
        return lo.reshape(len(s), -1, n), hi.reshape(len(s), -1, n)

    def _choose(self, a: int, l: int, s, t, u) -> tuple[np.ndarray, np.ndarray]:
        """Draw each node's (split, rule) column of ``_factors``, then its
        middle state given that column, with the uniforms u[0] and u[1]."""
        rules = len(self._rules[a][0])
        if rules == 0:
            raise SamplingNumericalError("numerical underflow at node")
        step = max(1, BLOCK_ELEMENTS // ((l - 1) * rules * self.model.state_count))
        column = np.empty(len(s), dtype=np.intp)
        middle = np.empty(len(s), dtype=np.intp)
        for i in range(0, len(s), step):
            block = slice(i, i + step)
            lo, hi = self._factors(a, l, s[block], t[block])
            j = _pick(np.cumsum(np.einsum("kju,kju->kj", lo, hi), axis=1), u[0, block])
            rows = np.arange(len(j))
            middle[block] = _pick(np.cumsum(lo[rows, j] * hi[rows, j], axis=1), u[1, block])
            column[block] = j
        return column, middle

    def _draw_batch(self, L: int, k: int, rng: np.random.Generator, trees: bool):
        g, n = self.grammar, self.model.state_count
        cum = np.cumsum(self.model.initial[:, None] * self.table.layer(L)[g.start])
        if cum[-1] <= 0.0:
            raise SamplingError("empty constrained support")
        s0, t0 = np.divmod(_pick(np.broadcast_to(cum, (k, cum.size)), rng.random(k)), n)
        weight = self.model.initial[s0].copy()
        codes = np.zeros((k, L), dtype=np.uint32)
        nodes = _Nodes(k) if trees else None
        draw = np.arange(k)
        # pending[l] lists row blocks (a, s, t, pos, draw, node id); without
        # trees the node id column just repeats the draw
        pending: dict[int, list[tuple[np.ndarray, ...]]] = {
            L: [(np.full(k, g.start), s0, t0, np.zeros(k, dtype=np.intp), draw, draw)]
        }
        for l in range(L, 0, -1):
            blocks = pending.pop(l, None)
            if not blocks:
                continue
            rows = [np.concatenate(col) for col in zip(*blocks)]
            children = []
            for a in np.flatnonzero(np.bincount(rows[0])).tolist():
                sel = np.flatnonzero(rows[0] == a)
                _, s, t, pos, d, ids = (col[sel] for col in rows)
                if l == 1:
                    syms, w = self._leaf[a]
                    leaf_w = w[s, t]
                    j = _pick(np.cumsum(leaf_w, axis=1), rng.random(len(sel)))
                    codes[d, pos] = self._codes[syms[j]]
                    np.multiply.at(weight, d, leaf_w[np.arange(len(sel)), j])
                    if trees:
                        nodes.add(ids, a, 1, s, t, pos, syms[j], -1)
                    continue
                B, C = self._rules[a]
                column, mid = self._choose(a, l, s, t, rng.random((2, len(sel))))
                split, rule = np.divmod(column, len(B))
                m = split + 1
                if trees:
                    left, right = nodes.new_ids(len(sel)), nodes.new_ids(len(sel))
                    nodes.add(ids, a, l, s, t, pos, left, right)
                else:
                    left = right = d
                children += [(m, B[rule], s, mid, pos, d, left),
                             (l - m, C[rule], mid, t, pos + m, d, right)]
            if not children:
                continue
            # file this step's children under their span lengths
            lengths, *child = (np.concatenate(col) for col in zip(*children))
            order = np.argsort(lengths, kind="stable")
            lengths = lengths[order]
            child = [col[order] for col in child]
            cuts = np.flatnonzero(np.diff(lengths)) + 1
            for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(lengths)]):
                pending.setdefault(int(lengths[lo]), []).append(tuple(col[lo:hi] for col in child))
        strings = codes.view(f"<U{L}")[:, 0].tolist()
        roots = nodes.build(g.nonterminal_names, self._symbols)[:k] if trees else [None] * k
        return [SampleTrace(string=w, tree=tree, weight=float(x))
                for w, tree, x in zip(strings, roots, weight)]

    def draw_batches(self, L: int, count: int, rng: np.random.Generator,
                     trees: bool = False) -> Iterator[list[SampleTrace]]:
        """``count`` independent draws of length L, as lists of at most CHUNK.

        A batch is drawn only when the previous one has been consumed, so at
        most CHUNK draws are held at a time.  Trees are built only when
        ``trees`` is true; the strings and weights do not depend on it.
        """
        if L < 1 or L > self.table.length:
            raise SamplingError(f"length {L} outside table range [1, {self.table.length}]")
        return (self._draw_batch(L, min(CHUNK, count - first), rng, trees)
                for first in range(0, count, CHUNK))

    def draw_many(self, L: int, count: int, rng: np.random.Generator,
                  trees: bool = False) -> Iterator[SampleTrace]:
        """The draws of ``draw_batches``, one at a time."""
        return chain.from_iterable(self.draw_batches(L, count, rng, trees))

    def draw(self, L: int, rng: np.random.Generator) -> SampleTrace:
        """One draw with its derivation tree: a batch of one."""
        return next(self.draw_many(L, 1, rng, trees=True))


def _check_table(g: CnfGrammar, model: Hmm, L: int, table: ForwardTable) -> None:
    if not table.built_for(g, model):
        raise SamplingError("forward table was built for a different grammar or HMM")
    if table.length < L:
        raise SamplingError("forward table too short for requested length")


def sample_many(
    g: CnfGrammar,
    model: Hmm,
    L: int,
    count: int,
    seed: RngSeed | int,
    table: ForwardTable | None = None,
    trees: bool = False,
) -> list[SampleTrace]:
    """Independent draws sharing one forward table; deterministic under the seed.

    Each trace carries its derivation tree only when ``trees`` is true; the
    strings are the same either way.
    """
    if count < 0:
        raise SamplingError("count must be nonnegative")
    if isinstance(seed, int):
        seed = RngSeed(seed)
    if table is None:
        table = forward_table(g, model, L)
    else:
        _check_table(g, model, L, table)
    if count == 0:
        return []
    return list(Sampler(table).draw_many(L, count, rng=seed.generator(), trees=trees))
