"""Exact ancestral sampling of grammar-constrained HMM strings.

Draws strings w of length L with probability f_G(w) * f_A(w) / Z by sampling
a derivation top-down from the forward table: the root state pair, then at
each node a (rule, split, middle state) choice proportional to the product
of the two child table entries, then a terminal at each leaf.  For an
unambiguous grammar the string marginal is the constrained distribution;
for an ambiguous one it is exactly the proposal distribution the FPRAS
needs.  ``sample_many`` builds its own table; ``Sampler(table)`` draws
from a table the caller already holds, at any length it covers.  A batch of
draws is its strings and, when asked for, its trees' JSON texts; no object
is made per draw.

Draws are made in batches of ``CHUNK``.  A batch keeps a frontier of pending
nodes (state pair, position, lefts) filed under their (span length,
nonterminal) and expands it from length L down to 2, one group of nodes
sharing a (length, nonterminal) at a time, in ascending nonterminal order;
a group filed as one row block is used as it is.  For each node only its
own choice weights F_m[b][s,:] * F_{l-m}[c][:,t] are formed, over the live
(split, rule) columns of its (nonterminal, length) only, in the table's
fixed order (ascending split, then rule index, then middle state), and the
whole group is drawn with one vectorized inverse-CDF step, so memory stays
flat in the number of draws.  Both factors are read as whole contiguous
rows: F_m[b][s,:] from the table's layers, F_{l-m}[c][:,t] from a
transposed copy of them.  A column is live when b derives length m and c
length l - m (``ForwardTable.live``); a dead column's weights are exact
zeros, which never win a draw and leave the cumulative sums of the others
unchanged, so dropping them changes no draw.  A nonterminal a's rules come
from the grammar's rule index: the children pairs ``pairs[p]`` of its rows
(p, a) of ``rules``, in their order, and its symbols ``emits[:, a]``.

All the leaves of a batch, length 1, are drawn in one step, their groups in
ascending nonterminal order, over cumulative weights that span the whole
alphabet: a symbol that a does not emit adds +0.0, so it is never picked
and the sums of the others keep their bits.  One uniform per leaf is drawn
by a single call, which gives the same doubles as one call per group in
that order.  A pick is the index of the first cumulative weight above
u * total, found by ``argmin`` over the row's "at most" tests.

A node's slot is its preorder place in the batch: a CNF tree of a length-L
string has 2L - 1 nodes, so draw d's nodes take the slots from d * (2L - 1)
on, a left child the slot after its parent's and a right child 2m slots
after it, m being the left child's span length.  The frontier keeps a
node's lefts, its slot less twice its start, which is d * (2L - 1) plus the
left children on its path from the root: a left child adds 1, a right child
keeps its parent's, and a leaf's draw is lefts // (2L - 1).  With trees,
each node is written into its slot's column of one int table (nonterminal,
start, end, state pair, symbol), and every draw's tree is written as JSON
text by reading that table in order, with no node ids, child links, sort
or recursion, and so no depth limit.  A seeded stream is
deterministic in the seed and the arguments, whether or not trees are
requested; it differs from the per-draw recursion of gramhmm 0.1.0.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence

import numpy as np

from .grammar import CnfGrammar
from .hmm import Hmm
from .inference import FOLD_ENTRIES, ForwardTable, NumericalError, _zeros, forward_table

__all__ = [
    "SamplingError",
    "SamplingNumericalError",
    "seeded_generator",
    "Sampler",
    "sample_many",
    "trees_json",
]

UNDERFLOW_FLOOR = 1e-300
# Draws per batch.  A constant, so a seeded stream depends only on the seed
# and the arguments.
CHUNK = 1024


class SamplingError(ValueError):
    pass


class SamplingNumericalError(SamplingError, NumericalError):
    """A node's choice weights underflowed below UNDERFLOW_FLOOR or overflowed."""


def seeded_generator(seed: int) -> np.random.Generator:
    """The generator of a nonnegative seed; equal seeds give identical sequences."""
    if seed < 0:
        raise SamplingError(f"seed must be nonnegative, got {seed}")
    # the trailing 0 keeps every stream identical to gramhmm 0.2.0
    return np.random.default_rng([seed, 0])


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise inverse-CDF draw over unnormalized cumulative weights (k, C)."""
    total = cum[:, -1]
    # a NaN total fails both tests; it comes from inf * 0 once a table layer
    # has overflowed, so overflow is named first
    if not (total.min() >= UNDERFLOW_FLOOR and total.max() < np.inf):
        if not np.isfinite(total).all():
            raise SamplingNumericalError("numerical overflow at node")
        raise SamplingNumericalError("numerical underflow at node")
    # r < total keeps the pick on a choice of positive weight
    r = np.minimum(u * total, np.nextafter(total, 0.0))
    # a row of cum never decreases and ends above r, so its trues form a
    # prefix and the first false's index is their count
    return (cum <= r[:, None]).argmin(axis=1)


def _joined(blocks: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """The columns of a group's row blocks; a single block is used as is."""
    return blocks[0] if len(blocks) == 1 else tuple(np.concatenate(col) for col in zip(*blocks))


def _tree_texts(nodes: np.ndarray, L: int, n: int, names: tuple[str, ...],
                symbols: Sequence[str]) -> list[str]:
    """Each draw's tree as JSON text, in draw order, from a batch's node
    table: rows (nonterminal, start, end, s, t, symbol), symbol -1 at an
    internal node, with draw d's 2L - 1 nodes in preorder in the columns
    from d * (2L - 1) on, over n states.

    The text equals ``json.dumps`` of the nested document with keys
    nonterminal, span, states, then terminal (a leaf) or children.  It is
    joined from short pieces, seven per node in column order, with no
    recursion: in a CNF tree the children split their parent's span, so a
    leaf closes every internal node of its draw that ends where it ends.
    """
    a, start, end, s, t, symbol = nodes
    leaf = symbol >= 0
    size = 2 * L - 1
    key = np.arange(len(a)) // size * (L + 1) + end
    closes = np.bincount(key[~leaf], minlength=key.max() + 1)[key]
    # a leaf's closing brackets, then ", " unless it ends its draw; an
    # internal node's code 1 stands for the empty string
    ending = np.where(leaf, 2 * closes + (end == L), 1)
    endings, ending = np.unique(ending, return_inverse=True)
    pieces = [
        [f'{{"nonterminal": {json.dumps(name)}, "span": [' for name in names],
        [f"{i}, " for i in range(max(L, n))],
        [f'{j}], "states": [' for j in range(L + 1)],
        [f"{q}]" for q in range(n)],
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
    step = tokens.shape[1] * size
    return ["".join(words[i:i + step]) for i in range(0, len(words), step)]


class Sampler:
    """Reusable batched sampler over one forward table.

    Keeps the table's layers as rows F_l[a][s, :] and a transposed copy as
    rows F_l[a][:, t], so each factor of a choice weight is read as one
    contiguous row.  The copy is allocated like the table (``inference._zeros``:
    on the heap up to FOLD_ENTRIES entries, else on a lazily paged map) and
    written only at the table's live blocks, so it costs about the table's
    own resident memory.  The leaves' cumulative weights over the alphabet
    add |alphabet| / L of the table's entries.
    """

    def __init__(self, table: ForwardTable):
        self.table = table
        self.grammar = g = table.grammar
        self.model = table.model
        n = self.model.state_count
        # row ((l-1)*N + a)*n + s of _rows is F_l[a][s, :]; of _cols, F_l[a][:, s]
        self._rows = table.layers.reshape(-1, n)
        # a dead block of the table is zero, so only the live ones are
        # written; on a map, the others stay untouched zero pages
        cols = _zeros(table.layers.shape, "the sampler's transposed table")
        np.copyto(cols, table.layers.swapaxes(2, 3), where=table.live[:, :, None, None])
        self._cols = cols.reshape(-1, n)
        self._codes = np.array([ord(s) for s in g.alphabet], dtype=np.uint32)
        # _children[a] is (B, C), the children pairs of a's rules in pair order
        children = g.pairs[g.rules[np.argsort(g.rules[:, 1], kind="stable"), 0]]
        ends = np.bincount(g.rules[:, 1], minlength=g.nonterminal_count).cumsum().tolist()
        self._children = [children[s:e].T for s, e in zip([0] + ends, ends)]
        # _leaf[a, s, t] is the cumulative weights of a's leaves at (s, t)
        # over the whole alphabet, a symbol that a does not emit adding +0.0
        leaves = g.emits.T[:, None, None, :] * self.model.operators.transpose(1, 2, 0)
        self._leaf = np.cumsum(leaves, axis=3)

    def _columns(self, a: int, l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live (split, rule) columns of nodes (a, l) as arrays (m, b, c),
        one entry per column, ordered by ascending split m, then rule
        a -> b c in index order, which is the order of a's children pairs."""
        B, C = self._children[a]
        split, rule = np.nonzero(self.table.live[:l - 1, B] & self.table.live[l - 2::-1, C])
        return split + 1, B[rule], C[rule]

    def _choose(self, a: int, l: int, s, t, u) -> tuple[np.ndarray, ...]:
        """Draw each node (a, l, s[i], t[i])'s column of ``_columns``, then
        its middle state given that column, with the uniforms u[0] and u[1].

        Column j stands for split m and rule a -> b c; the weight of middle
        state v is lo[i, j, v] * hi[i, j, v] = F_m[b][s,v] * F_{l-m}[c][v,t],
        and a node's weights sum to F_l[a][s,t].  Returns, one entry per
        node, the children's keys m*N + b and (l-m)*N + c, the split m and
        the middle state.
        """
        m, b, c = self._columns(a, l)
        n, N = self.model.state_count, self.grammar.nonterminal_count
        left, right = m * N + b, (l - m) * N + c
        # the first rows of F_m[b] in _rows and of F_{l-m}[c] in _cols
        lo0, hi0 = (left - N) * n, (right - N) * n
        # a row block's choice weights fit in FOLD_ENTRIES entries
        step = max(1, FOLD_ENTRIES // (len(m) * n))
        column, middle = np.empty((2, len(s)), dtype=np.intp)
        for i in range(0, len(s), step):
            block = slice(i, i + step)
            sb, tb = s[block], t[block]
            lo = self._rows.take(lo0 + sb[:, None], axis=0)
            hi = self._cols.take(hi0 + tb[:, None], axis=0)
            j = _pick(np.cumsum(np.einsum("kjv,kjv->kj", lo, hi), axis=1), u[0, block])
            weights = self._rows.take(lo0[j] + sb, axis=0) * self._cols.take(hi0[j] + tb, axis=0)
            middle[block] = _pick(np.cumsum(weights, axis=1), u[1, block])
            column[block] = j
        return left[column], right[column], m[column], middle

    def _draw_leaves(self, groups: dict[int, list[tuple[np.ndarray, ...]]],
                     rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        """Draw every leaf's symbol in one step: the leaves of ``groups``
        (nonterminal a: row blocks (s, t, pos, lefts)) as columns
        (a, s, t, pos, lefts), the groups in ascending nonterminal order, and
        each leaf's symbol as an alphabet index, drawn with one uniform per
        leaf in that order."""
        leaves = sorted(groups.items())
        a = np.repeat([a for a, _ in leaves], [sum(len(b[0]) for b in bs) for _, bs in leaves])
        s, t, pos, d = _joined([b for _, bs in leaves for b in bs])
        return a, s, t, pos, d, _pick(self._leaf[a, s, t], rng.random(len(s)))

    def _draw_batch(self, L: int, k: int, rng: np.random.Generator, trees: bool):
        """k draws of length L: their strings and, with trees, their node
        table for ``_tree_texts`` (None without trees), a node's column being
        its slot, lefts + 2 * pos, with the root of draw d at d * (2L - 1)."""
        g, n, N = self.grammar, self.model.state_count, self.grammar.nonterminal_count
        size = 2 * L - 1
        # a live start derives a length-L string, so _pick names its zero or
        # subnormal mass an underflow
        if not self.table.live[L - 1, g.start]:
            raise SamplingError("empty constrained support")
        cum = np.cumsum(self.model.initial[:, None] * self.table.layer(L)[g.start])
        s0, t0 = np.divmod(_pick(np.broadcast_to(cum, (k, cum.size)), rng.random(k)), n)
        codes = np.zeros((k, L), dtype=np.uint32)
        # nodes[:, slot] is (nonterminal, start, end, s, t, symbol)
        nodes = np.empty((6, k * size), dtype=np.int64) if trees else None
        # pending[l][a] lists row blocks (s, t, pos, lefts)
        pending: dict[int, dict[int, list[tuple[np.ndarray, ...]]]] = {
            L: {g.start: [(s0, t0, np.zeros(k, dtype=np.intp), np.arange(0, k * size, size))]}
        }
        for l in range(L, 1, -1):
            groups = pending.pop(l, {})
            children = []
            for a in sorted(groups):
                s, t, pos, lefts = _joined(groups[a])
                left, right, m, mid = self._choose(a, l, s, t, rng.random((2, len(s))))
                if trees:
                    slot = lefts + 2 * pos
                    for row, value in zip(nodes, (a, pos, pos + l, s, t, -1)):
                        row[slot] = value
                # a child is filed under the key (span length) * N + nonterminal
                children += [(left, s, mid, pos, lefts + 1), (right, mid, t, pos + m, lefts)]
            if not children:
                continue
            # file this step's children under their keys with one stable sort
            key, *child = (np.concatenate(col) for col in zip(*children))
            order = np.argsort(key, kind="stable")
            key, child = key[order], [col[order] for col in child]
            cuts = (np.flatnonzero(np.diff(key)) + 1).tolist()
            for lo, hi in zip([0, *cuts], [*cuts, len(key)]):
                l_child, a_child = divmod(int(key[lo]), N)
                blocks = pending.setdefault(l_child, {}).setdefault(a_child, [])
                blocks.append(tuple(col[lo:hi] for col in child))
        a, s, t, pos, lefts, j = self._draw_leaves(pending.pop(1), rng)
        codes[lefts // size, pos] = self._codes[j]
        if trees:
            nodes[:, lefts + 2 * pos] = a, pos, pos + 1, s, t, j
        # the "<U{L}" view drops trailing NULs, which a '\x00' symbol draws
        return [w.ljust(L, "\x00") for w in codes.view(f"<U{L}")[:, 0].tolist()], nodes

    def draw_batches(self, L: int, count: int, rng: np.random.Generator, trees: bool = False
                     ) -> Iterator[tuple[list[str], list[str] | None]]:
        """``count`` independent draws of length L as (strings, tree texts)
        batches of at most CHUNK, the texts None without ``trees``.

        The arguments are checked at the call.  A batch is drawn only when
        the previous one has been consumed, and its tree texts are written
        after the draw's working arrays are freed.  The strings do not
        depend on ``trees``.
        """
        if count < 0:
            raise SamplingError("count must be nonnegative")
        if L < 1 or L > self.table.length:
            raise SamplingError(f"length {L} outside table range [1, {self.table.length}]")

        def batches():
            for first in range(0, count, CHUNK):
                strings, nodes = self._draw_batch(L, min(CHUNK, count - first), rng, trees)
                yield strings, (_tree_texts(nodes, L, self.model.state_count,
                                            self.grammar.nonterminal_names,
                                            self.grammar.alphabet) if trees else None)

        return batches()

    def draw(self, L: int, rng: np.random.Generator) -> tuple[str, str]:
        """One draw and its tree's JSON text: a batch of one."""
        (string,), (tree,) = next(self.draw_batches(L, 1, rng, trees=True))
        return string, tree


def sample_many(g: CnfGrammar, model: Hmm, L: int, count: int, seed: int,
                trees: bool = False) -> tuple[list[str], list[str] | None]:
    """Independent draws sharing one forward table; deterministic under the seed.

    Returns the strings and, only when ``trees`` is true, their derivation
    trees as JSON texts in the same order (else None); the strings are the
    same either way.  A caller that holds a forward table draws from it with
    ``Sampler(table).draw_batches``.
    """
    rng = seeded_generator(seed)
    batches = list(Sampler(forward_table(g, model, L)).draw_batches(L, count, rng, trees))
    strings = [w for batch, _ in batches for w in batch]
    return strings, [text for _, texts in batches for text in texts] if trees else None


def trees_json(texts: Sequence[str] | None) -> str:
    """The tree texts of draws made with trees, as the text of one JSON
    array; None, the texts of draws made without trees, raises."""
    if texts is None:
        raise SamplingError("sample was drawn without its tree")
    return "[" + ", ".join(texts) + "]"
