"""Exact ancestral sampling of grammar-constrained HMM strings.

Draws strings w of length L with probability f_G(w) * f_A(w) / Z by sampling
a derivation top-down from the forward table: the root state pair, then at
each node a (rule, split, middle state) choice proportional to the product
of the two child table entries, then a terminal at each leaf.  For an
unambiguous grammar the string marginal is the constrained distribution;
for an ambiguous one it is exactly the proposal the rejection estimator
needs.  ``sample_many`` builds its own table; ``Sampler(table)`` draws
from a table the caller already holds, at any length it covers.

Draws are made in batches of ``CHUNK``.  A batch keeps a frontier of pending
nodes (nonterminal, span length, state pair, position, draw) and expands it
from length L down to 1, one group of nodes sharing a (nonterminal, length)
at a time.  For each node only its own choice weights
F_m[b][s,:] * F_{l-m}[c][:,t] are formed, over the live (split, rule)
columns of its (nonterminal, length) only, in the table's fixed order
(ascending split, then rule index, then middle state), and the whole group
is drawn with one vectorized inverse-CDF step, so memory stays flat in the
number of draws.  A column is live when b derives length m and c length
l - m (``ForwardTable.live``); a dead column's weights are exact zeros,
which never win a draw and leave the cumulative sums of the others
unchanged, so dropping them changes no draw.  A nonterminal a's rules come
from the grammar's rule index: its children pairs ``pairs[parents[:, a]]``
and its symbols ``emits[:, a]``.  The live columns are the only thing cached
per (nonterminal, length), on first use.

Derivation trees are recorded only when the caller asks for them; the
strings-only path keeps no per-node records.  A batch drawn with trees keeps
its nodes as int arrays (draw, nonterminal, start, end, state pair, symbol);
a node is fixed by its draw and span, so no node ids or child links are
kept.  Every draw's tree is written from them as JSON text in one preorder
pass, with no recursion and so no depth limit; that text is
``SampleTrace.tree``.  A seeded stream is deterministic in the seed
and the arguments, whether or not trees are requested; it differs from the
per-draw recursion of gramhmm 0.1.0.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .grammar import CnfGrammar, live_products
from .hmm import Hmm
from .inference import ForwardTable, NumericalError, forward_table

__all__ = [
    "SamplingError",
    "SamplingNumericalError",
    "RngSeed",
    "SampleTrace",
    "Sampler",
    "sample_many",
    "trees_json",
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

    def __post_init__(self):
        if self.seed < 0:
            raise SamplingError(f"seed must be nonnegative, got {self.seed}")

    def generator(self) -> np.random.Generator:
        # the trailing 0 keeps every stream identical to gramhmm 0.2.0
        return np.random.default_rng([self.seed, 0])


@dataclass(frozen=True)
class SampleTrace:
    """One draw: its string and, if drawn with trees, its derivation tree as
    JSON text (None for a draw made without trees).

    The tree text is one JSON object per node with the keys nonterminal,
    span [start, end), states [s, t], then terminal (a leaf) or children
    (two nodes whose spans split their parent's).
    """
    string: str
    tree: str | None = None


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


def _tree_texts(records: list[tuple], names: tuple[str, ...], symbols: Sequence[str]) -> list[str]:
    """Each draw's tree as JSON text, in draw order, from a batch's node
    records (draw, nonterminal, start, end, s, t, symbol), one array or
    scalar per field, with symbol -1 at an internal node.

    The text equals ``json.dumps`` of the nested document with keys
    nonterminal, span, states, then terminal (a leaf) or children.  It is
    joined from short pieces, seven per node in preorder, with no recursion:
    in a CNF tree the children split their parent's span, so a node is fixed
    by its draw and span, sorting by (draw, start, -span length) gives the
    preorder, and a leaf closes every internal node of its draw that ends
    where it ends.
    """
    stop = sum(len(record[0]) for record in records)
    fields = np.empty((7, stop), dtype=np.int64)
    while records:  # drained, so each record is freed once copied
        values = records.pop()
        first = stop - len(values[0])
        for row, value in zip(fields, values):
            row[first:stop] = value
        stop = first
    d, _, start, end, *_ = fields
    length = int(end.max())
    # (draw, start, -span length) as one int; no two nodes share it
    order = np.argsort((d * (length + 1) + start) * (length + 1) + start - end)
    d, a, start, end, s, t, symbol = fields[:, order]
    leaf = symbol >= 0
    states = int(max(s.max(), t.max())) + 1
    key = d * (length + 1) + end
    closes = np.bincount(key[~leaf], minlength=key.max() + 1)[key]
    # a leaf's closing brackets, then ", " unless it ends its draw; an
    # internal node's code 1 stands for the empty string
    ending = np.where(leaf, 2 * closes + (end == length), 1)
    endings, ending = np.unique(ending, return_inverse=True)
    pieces = [
        [f'{{"nonterminal": {json.dumps(name)}, "span": [' for name in names],
        [f"{i}, " for i in range(max(length, states))],
        [f'{j}], "states": [' for j in range(length + 1)],
        [f"{q}]" for q in range(states)],
        [', "children": ['],
        [f', "terminal": {json.dumps(sym)}}}' for sym in symbols],
        ["]}" * (e // 2) + ("" if e % 2 else ", ") for e in endings.tolist()],
    ]
    offset = np.cumsum([0] + [len(p) for p in pieces])
    tokens = np.stack([
        a, offset[1] + start, offset[2] + end, offset[1] + s, offset[3] + t,
        np.where(leaf, offset[5] + symbol, offset[4]), offset[6] + ending,
    ], axis=1)
    vocabulary = np.array([p for part in pieces for p in part], dtype=object)
    words = vocabulary[tokens].ravel().tolist()
    cuts = (tokens.shape[1] * np.cumsum(np.bincount(d))).tolist()
    return ["".join(words[lo:hi]) for lo, hi in zip([0, *cuts], cuts)]


class Sampler:
    """Reusable batched sampler over one forward table."""

    def __init__(self, table: ForwardTable):
        self.table = table
        self.grammar = table.grammar
        self.model = table.model
        self._columns_of: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}
        self._codes = np.array([ord(s) for s in self.grammar.symbols], dtype=np.uint32)
        # _leaf[a] is (symbol indices a emits, their matrices stacked on axis 2)
        stacked = np.stack([self.model.matrices[s] for s in self.grammar.symbols], axis=2)
        self._leaf = {a: (syms, stacked[:, :, syms])
                      for a, syms in enumerate(map(np.flatnonzero, self.grammar.emits.T))}

    def _columns(self, a: int, l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live (split, rule) columns of nodes (a, l) as arrays (m, b, c),
        one entry per column, ordered by ascending split m, then rule
        a -> b c in index order, which is the order of a's children pairs."""
        columns = self._columns_of.get((a, l))
        if columns is None:
            B, C = self.grammar.pairs[self.grammar.parents[:, a]].T
            split, rule = live_products(self.table.live, l, B, C)
            columns = self._columns_of[a, l] = (split + 1, B[rule], C[rule])
        return columns

    def _factors(self, a: int, l: int, s: np.ndarray, t: np.ndarray):
        """Left and right factors of the choices of nodes (a, l, s[i], t[i]).

        Both have shape (k, columns, n), with the columns of ``_columns``:
        column j stands for split m and rule a -> b c, and the weight of
        middle state u is lo[i, j, u] * hi[i, j, u] = F_m[b][s,u] *
        F_{l-m}[c][u,t].  A node's weights sum to F_l[a][s,t].
        """
        m, b, c = self._columns(a, l)
        lo = self.table.layers[m - 1, b, s[:, None], :]
        hi = self.table.layers[l - m - 1, c, :, t[:, None]]
        return lo, hi

    def _choose(self, a: int, l: int, s, t, u) -> tuple[np.ndarray, np.ndarray]:
        """Draw each node's column of ``_factors``, then its middle state
        given that column, with the uniforms u[0] and u[1]."""
        columns = len(self._columns(a, l)[0])
        if columns == 0:
            raise SamplingNumericalError("numerical underflow at node")
        step = max(1, BLOCK_ELEMENTS // (columns * self.model.state_count))
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
        """k draws of length L: their strings and, with trees, their node
        records for ``_tree_texts`` (None without trees)."""
        g, n = self.grammar, self.model.state_count
        cum = np.cumsum(self.model.initial[:, None] * self.table.layer(L)[g.start])
        if cum[-1] <= 0.0:
            raise SamplingError("empty constrained support")
        s0, t0 = np.divmod(_pick(np.broadcast_to(cum, (k, cum.size)), rng.random(k)), n)
        codes = np.zeros((k, L), dtype=np.uint32)
        records = [] if trees else None
        # pending[l] lists row blocks (a, s, t, pos, draw)
        pending: dict[int, list[tuple[np.ndarray, ...]]] = {
            L: [(np.full(k, g.start), s0, t0, np.zeros(k, dtype=np.intp), np.arange(k))]
        }
        for l in range(L, 0, -1):
            blocks = pending.pop(l, None)
            if not blocks:
                continue
            rows = [np.concatenate(col) for col in zip(*blocks)]
            children = []
            for a in np.flatnonzero(np.bincount(rows[0])).tolist():
                sel = np.flatnonzero(rows[0] == a)
                _, s, t, pos, d = (col[sel] for col in rows)
                if l == 1:
                    syms, w = self._leaf[a]
                    j = _pick(np.cumsum(w[s, t], axis=1), rng.random(len(sel)))
                    codes[d, pos] = self._codes[syms[j]]
                    if trees:
                        records.append((d, a, pos, pos + 1, s, t, syms[j]))
                    continue
                column, mid = self._choose(a, l, s, t, rng.random((2, len(sel))))
                m, b, c = (x[column] for x in self._columns(a, l))
                if trees:
                    records.append((d, a, pos, pos + l, s, t, -1))
                children += [(m, b, s, mid, pos, d), (l - m, c, mid, t, pos + m, d)]
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
        return codes.view(f"<U{L}")[:, 0].tolist(), records

    def _traces(self, L: int, k: int, rng: np.random.Generator, trees: bool) -> list[SampleTrace]:
        """One batch of ``_draw_batch`` as traces.  The tree texts are written
        after the draw's working arrays are freed, so the two do not add up
        in peak memory."""
        strings, records = self._draw_batch(L, k, rng, trees)
        texts = (_tree_texts(records, self.grammar.nonterminal_names, self.grammar.symbols)
                 if trees else [None] * k)
        return [SampleTrace(w, tree) for w, tree in zip(strings, texts)]

    def draw_batches(self, L: int, count: int, rng: np.random.Generator,
                     trees: bool = False) -> Iterator[list[SampleTrace]]:
        """``count`` independent draws of length L, as lists of at most CHUNK.

        A batch is drawn only when the previous one has been consumed, so at
        most CHUNK draws are held at a time.  Trees are written only when
        ``trees`` is true; the strings do not depend on it.
        """
        if count < 0:
            raise SamplingError("count must be nonnegative")
        if L < 1 or L > self.table.length:
            raise SamplingError(f"length {L} outside table range [1, {self.table.length}]")
        return (self._traces(L, min(CHUNK, count - first), rng, trees)
                for first in range(0, count, CHUNK))

    def draw_many(self, L: int, count: int, rng: np.random.Generator,
                  trees: bool = False) -> Iterator[SampleTrace]:
        """The draws of ``draw_batches``, one at a time."""
        return chain.from_iterable(self.draw_batches(L, count, rng, trees))

    def draw(self, L: int, rng: np.random.Generator) -> SampleTrace:
        """One draw with its derivation tree: a batch of one."""
        return next(self.draw_many(L, 1, rng, trees=True))


def sample_many(
    g: CnfGrammar,
    model: Hmm,
    L: int,
    count: int,
    seed: RngSeed | int,
    trees: bool = False,
) -> list[SampleTrace]:
    """Independent draws sharing one forward table; deterministic under the seed.

    Each trace carries its derivation tree only when ``trees`` is true; the
    strings are the same either way.  A caller that holds a forward table
    draws from it with ``Sampler(table).draw_many``.
    """
    if isinstance(seed, int):
        seed = RngSeed(seed)
    table = forward_table(g, model, L)
    return list(Sampler(table).draw_many(L, count, rng=seed.generator(), trees=trees))


def trees_json(traces: Sequence[SampleTrace]) -> str:
    """The derivation trees of traces drawn with trees, as the text of one
    JSON array of their ``tree`` texts."""
    if any(trace.tree is None for trace in traces):
        raise SamplingError("trace was drawn without its tree")
    return "[" + ", ".join(trace.tree for trace in traces) + "]"
