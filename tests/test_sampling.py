import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gramhmm import inference, sampling

from gramhmm.grammar import (
    CnfGrammar, parse_grammar, union, universal_grammar,
)
from gramhmm.hmm import Hmm, random_hmm, uniform_hmm
from gramhmm.inference import FOLD_ENTRIES, InferenceError, NumericalError, forward_table
from gramhmm.oracle import derivation_count, exact_distribution, tv_distance
from gramhmm.sampling import (
    CHUNK,
    UNDERFLOW_FLOOR,
    Sampler,
    SamplingError,
    SamplingNumericalError,
    _pick,
    sample_many,
    seeded_generator,
    trees_json,
)

from conftest import live_products, on_map, random_grammar, random_instance, refuse_allocation


def reference_pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """gramhmm 0.15.0's ``_pick``, kept to check the sampler against."""
    total = cum[:, -1]
    if not np.isfinite(total).all():
        raise SamplingNumericalError("numerical overflow at node")
    if not (total >= UNDERFLOW_FLOOR).all():
        raise SamplingNumericalError("numerical underflow at node")
    r = np.minimum(u * total, np.nextafter(total, 0.0))
    return np.count_nonzero(cum <= r[:, None], axis=1)


def reference_choose(table, a: int, l: int, s, t, u) -> tuple[np.ndarray, ...]:
    """gramhmm 0.15.0's ``Sampler._choose``: the chosen columns' (m, b, c)
    and middle states, from 4-D fancy indexing of the layers."""
    g = table.grammar
    # a's children pairs in sorted order, from the rule tuples
    B, C = np.array(sorted((b, c) for head, b, c in g.binary_rules if head == a),
                    dtype=np.intp).reshape(-1, 2).T
    split, rule = live_products(table.live, l, B, C)
    m, b, c = split + 1, B[rule], C[rule]
    step = max(1, FOLD_ENTRIES // (len(m) * table.model.state_count))
    column = np.empty(len(s), dtype=np.intp)
    middle = np.empty(len(s), dtype=np.intp)
    for i in range(0, len(s), step):
        block = slice(i, i + step)
        lo = table.layers[m - 1, b, s[block, None], :]
        hi = table.layers[l - m - 1, c, :, t[block, None]]
        j = reference_pick(np.cumsum(np.einsum("kjv,kjv->kj", lo, hi), axis=1), u[0, block])
        rows = np.arange(len(j))
        middle[block] = reference_pick(np.cumsum(lo[rows, j] * hi[rows, j], axis=1), u[1, block])
        column[block] = j
    return m[column], b[column], c[column], middle


def reference_leaves(table, groups: dict, rng) -> list[np.ndarray]:
    """gramhmm 0.18.0's leaf step: one pick per leaf group, in ascending
    nonterminal order, over the symbols its nonterminal emits, each with its
    own ``rng.random`` call.  Returns the columns (a, s, t, pos, draw) and
    the picked symbols' alphabet indices."""
    g = table.grammar
    stacked = np.stack([table.model.matrices[sym] for sym in g.alphabet], axis=2)
    picked = []
    for a in sorted(groups):
        s, t, pos, d = (np.concatenate(col) for col in zip(*groups[a]))
        syms = np.flatnonzero(g.emits[:, a])
        j = reference_pick(np.cumsum(stacked[:, :, syms][s, t], axis=1), rng.random(len(s)))
        picked.append((np.full(len(s), a), s, t, pos, d, syms[j]))
    return [np.concatenate(col) for col in zip(*picked)]


def reference_tree_texts(fields: np.ndarray, names, symbols) -> list[str]:
    """gramhmm 0.23.0's ``_tree_texts``: the tree texts of node columns
    (draw, nonterminal, start, end, s, t, symbol) in any order, put in
    preorder by a sort on (draw, start, -span length)."""
    d, _, start, end, *_ = fields
    length = int(end.max())
    order = np.argsort((d * (length + 1) + start) * (length + 1) + start - end)
    d, a, start, end, s, t, symbol = fields[:, order]
    leaf = symbol >= 0
    states = int(max(s.max(), t.max())) + 1
    key = d * (length + 1) + end
    closes = np.bincount(key[~leaf], minlength=key.max() + 1)[key]
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


def assert_same_text(actual: str, expected: str) -> None:
    """Fail with the first differing offset; pytest's own diff of two long
    one-line strings can take minutes."""
    if actual != expected:
        i = next((i for i, (x, y) in enumerate(zip(actual, expected)) if x != y),
                 min(len(actual), len(expected)))
        pytest.fail(f"texts differ at offset {i}: {actual[i - 40:i + 40]!r} "
                    f"!= {expected[i - 40:i + 40]!r}")


def nodes(text: str):
    """The nodes of a tree's JSON text in preorder, so its leaves come in
    string order."""
    stack = [json.loads(text)]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.get("children", [])))


def spell(text: str) -> str:
    return "".join(node["terminal"] for node in nodes(text) if "terminal" in node)


def check_tree(g: CnfGrammar, model: Hmm, w: str, text: str) -> None:
    """Assert that the tree JSON ``text`` is a derivation of ``w`` under g
    whose root state and leaf operator entries all have positive weight."""
    assert json.dumps(json.loads(text)) == text
    names = g.nonterminal_names
    root = json.loads(text)
    assert root["nonterminal"] == names[g.start]
    assert root["span"] == [0, len(w)]
    assert model.initial[root["states"][0]] > 0
    for node in nodes(text):
        a = names.index(node["nonterminal"])
        (start, end), (s, t) = node["span"], node["states"]
        if "terminal" in node:
            assert set(node) == {"nonterminal", "span", "states", "terminal"}
            assert end == start + 1
            assert (a, node["terminal"]) in g.lexical_rules
            assert node["terminal"] == w[start]
            assert model.matrices[node["terminal"]][s, t] > 0
            continue
        assert set(node) == {"nonterminal", "span", "states", "children"}
        left, right = node["children"]
        rule = (a, names.index(left["nonterminal"]), names.index(right["nonterminal"]))
        assert rule in g.binary_rules
        (l0, m), (m2, r1) = left["span"], right["span"]
        assert l0 == start < m == m2 < r1 == end
        (ls, u), (u2, rt) = left["states"], right["states"]
        assert (ls, u, rt) == (s, u2, t)


class TestSample:
    def test_singleton_support(self, dyck, paren_uniform):
        strings, texts = sample_many(dyck, paren_uniform, 2, 20, 0)
        assert strings == ["()"] * 20 and texts is None

    def test_empty_support(self, dyck, paren_uniform):
        with pytest.raises(SamplingError, match="empty constrained support"):
            sample_many(dyck, paren_uniform, 3, 1, 0)

    def test_ambiguous_tree_varies(self, ss_grammar):
        m = uniform_hmm("a")
        strings, texts = sample_many(ss_grammar, m, 3, 4000, 5, trees=True)
        assert strings == ["aaa"] * 4000
        # two derivations of aaa, each drawn with probability 1/2
        shapes = Counter(len(json.loads(text)["children"][0].get("children", []))
                         for text in texts)
        assert set(shapes) == {0, 2}
        for count in shapes.values():
            assert count == pytest.approx(2000, abs=200)

    def test_trace_consistency(self, dyck, paren_uniform):
        for w, text in zip(*sample_many(dyck, paren_uniform, 6, 50, 3, trees=True)):
            assert len(w) == 6
            assert derivation_count(dyck, w) >= 1
            check_tree(dyck, paren_uniform, w, text)

    def test_local_probabilities_sum_to_one(self, dyck, paren_uniform):
        table = forward_table(dyck, paren_uniform, 6)
        sampler = Sampler(table)
        _, tree = sampler.draw(6, seeded_generator(9))

        for node in nodes(tree):
            (start, end), (s, t) = node["span"], node["states"]
            l = end - start
            a = dyck.nonterminal_names.index(node["nonterminal"])
            if l == 1:
                # the leaf weights over the alphabet, from their cumulative sums
                weights = np.diff(sampler._leaf[a, s, t], prepend=0.0)
            else:
                m, b, c = sampler._columns(a, l)
                # one column per live (split, rule) pair, and no other
                assert table.live[m - 1, b].all() and table.live[l - m - 1, c].all()
                lo = table.layers[m - 1, b, s, :]
                hi = table.layers[l - m - 1, c, :, t]
                assert lo.shape == hi.shape == (len(m), paren_uniform.state_count)
                weights = lo * hi
            assert weights.sum() == pytest.approx(table.layer(l)[a][s, t], rel=1e-9)

    def test_underflow_is_numerical_error(self):
        # every node of b^102 carries weight 0.001^102 < UNDERFLOW_FLOOR
        g = parse_grammar("start S\nS -> B S\nS -> 'b'\nB -> 'b'\nA -> 'a'")
        m = Hmm(initial=np.array([1.0]),
                matrices={"a": np.array([[0.999]]), "b": np.array([[0.001]])})
        with pytest.raises(SamplingNumericalError, match="numerical underflow at node") as e:
            sample_many(g, m, 102, 3, 0)
        assert isinstance(e.value, NumericalError)

    @pytest.mark.parametrize("L", [108, 110])
    def test_underflowed_root_is_numerical_error(self, L):
        # the start is live, but 0.001^L flushes the root's mass to 0.0
        g = parse_grammar("start S\nS -> B S\nS -> 'b'\nB -> 'b'\nA -> 'a'")
        m = Hmm(initial=np.array([1.0]),
                matrices={"a": np.array([[0.999]]), "b": np.array([[0.001]])})
        with pytest.raises(SamplingNumericalError, match="^numerical underflow at node$"):
            sample_many(g, m, L, 3, 0)

    def test_overflow_is_numerical_error(self):
        # the weighted mass of S -> S S | 'a' | 'b' passes float64 range by L = 540
        g = parse_grammar("start S\nS -> S S\nS -> 'a'\nS -> 'b'")
        with (np.errstate(over="ignore", invalid="ignore"),
              pytest.raises(SamplingNumericalError, match="numerical overflow at node")):
            sample_many(g, uniform_hmm("ab"), 540, 2, 0)

    def test_nan_total_is_overflow(self):
        # inf * 0 in a node's weights gives a NaN total, whose cause is overflow
        cum = np.array([[0.5, 1.0], [np.inf, np.nan]])
        with pytest.raises(SamplingNumericalError, match="numerical overflow at node"):
            _pick(cum, np.array([0.3, 0.3]))

    @pytest.mark.parametrize("cum, message", [
        ([[0.5, 1.0], [1.0, np.inf]], "^numerical overflow at node$"),
        # overflow is named first when both occur
        ([[0.0, 1e-301], [1.0, np.inf]], "^numerical overflow at node$"),
        ([[0.5, 1.0], [0.0, 1e-301]], "^numerical underflow at node$"),
        ([[0.0, 0.0], [0.5, 1.0]], "^numerical underflow at node$"),
    ])
    def test_bad_totals_raise_their_error(self, cum, message):
        with pytest.raises(SamplingNumericalError, match=message):
            _pick(np.array(cum), np.array([0.3, 0.3]))
        with pytest.raises(SamplingNumericalError, match=message):
            reference_pick(np.array(cum), np.array([0.3, 0.3]))

    def test_draw_is_batch_of_one(self, dyck, paren_uniform):
        table = forward_table(dyck, paren_uniform, 8)
        string, tree = Sampler(table).draw(8, seeded_generator(4))
        strings, texts = next(Sampler(table).draw_batches(8, 1, seeded_generator(4), trees=True))
        assert [string] == strings and [tree] == texts
        assert spell(tree) == string

    def test_deep_draws_are_equal(self):
        # universal_grammar is right-linear, so this tree is 1100 nodes deep
        g, m = universal_grammar("ab"), uniform_hmm("ab")
        a = sample_many(g, m, 1100, 1, 0, trees=True)
        b = sample_many(g, m, 1100, 1, 0, trees=True)
        assert a == b
        ((string,), (tree,)) = a
        assert len(string) == tree.count('"terminal"') == 1100

    def test_trailing_nul_symbols_are_kept(self):
        # "aa\x00" is drawn as often as "aaa"; it must keep its last symbol
        g = parse_grammar("start S\nS -> A S\nS -> '\x00'\nS -> 'a'\nA -> 'a'")
        strings, _ = sample_many(g, uniform_hmm("a\x00"), 3, 8, 0)
        assert set(strings) == {"aa\x00", "aaa"}
        for w in strings:
            assert len(w) == 3
            assert derivation_count(g, w) > 0

    def test_negative_seed(self, dyck, paren_uniform):
        with pytest.raises(SamplingError, match="^seed must be nonnegative, got -1$"):
            seeded_generator(-1)
        with pytest.raises(SamplingError, match="^seed must be nonnegative, got -1$"):
            sample_many(dyck, paren_uniform, 4, 1, -1)


# cumulative rows with zero-weight columns (repeated sums, leading and
# trailing ones included) and ties (equal weights put u * total on a sum)
pick_weights = st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 1.0, 3.0]),
                         st.floats(1e-6, 1e6))
# u at and next to 0, next to 1, on quarters, and anywhere in [0, 1)
pick_uniforms = st.one_of(st.sampled_from([0.0, 5e-324, 2.0**-53, 0.25, 0.5, 0.75,
                                           1.0 - 2.0**-53, np.nextafter(1.0 - 2.0**-53, 0.0)]),
                          st.floats(0.0, 1.0, exclude_max=True))


class TestPick:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda columns: st.lists(
        st.tuples(st.lists(pick_weights, min_size=columns, max_size=columns), pick_uniforms),
        min_size=1, max_size=6)))
    def test_matches_reference(self, rows):
        weights = np.array([w for w, _ in rows])
        # every row keeps a positive weight, so its total passes the guard
        weights[weights.sum(axis=1) == 0.0, -1] = 1.0
        cum, u = np.cumsum(weights, axis=1), np.array([u for _, u in rows])
        j = _pick(cum, u)
        assert np.array_equal(j, reference_pick(cum, u))
        # the pick never lands on a zero-weight column
        assert (weights[np.arange(len(j)), j] > 0).all()

    @pytest.mark.parametrize("n", [3, 9])
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_leaf_step_matches_per_nonterminal_picks(self, n, seed, sparse):
        """One leaf step over padded cumulative weights draws what one step
        per nonterminal drew, from the same uniforms, whatever order the
        groups were filed in."""
        rng = np.random.default_rng(seed)
        g = random_grammar(rng, sparse=sparse)
        table = forward_table(g, random_hmm(n, g.alphabet, int(rng.integers(0, 2**31))), 1)
        groups = {}
        for a in rng.permutation(g.nonterminal_count).tolist():
            s, t = np.nonzero(table.layers[0, a])
            if not len(s):
                continue
            groups[a] = []
            for k in rng.integers(1, 30, size=int(rng.integers(1, 4))).tolist():
                rows = rng.integers(len(s), size=k)
                groups[a].append((s[rows], t[rows], rng.integers(0, 64, size=k),
                                  rng.integers(0, 9, size=k)))
        mine, theirs = seeded_generator(seed), seeded_generator(seed)
        leaves = Sampler(table)._draw_leaves(groups, mine)
        expected = reference_leaves(table, groups, theirs)
        for actual, want in zip(leaves, expected, strict=True):
            assert np.array_equal(actual, want)
        assert mine.bit_generator.state == theirs.bit_generator.state


class TestSlots:
    @pytest.mark.parametrize("n", [3, 9])
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 12), st.integers(1, 9))
    def test_nodes_fill_their_preorder_slots(self, n, seed, sparse, L, k):
        """Each draw's 2L - 1 columns hold its tree in preorder, every slot
        written once, and the tree texts read from them in column order are
        what the sort-based writer makes of the same nodes in any order."""
        rng = np.random.default_rng(seed)
        g = random_grammar(rng, sparse=sparse)
        model = random_hmm(n, g.alphabet, int(rng.integers(0, 2**31)))
        table = forward_table(g, model, L)
        assume((model.initial @ table.layer(L)[g.start]).any())
        strings, found = Sampler(table)._draw_batch(L, k, seeded_generator(seed), True)
        size = 2 * L - 1
        assert found.shape == (6, k * size)
        for d, w in enumerate(strings):
            a, start, end, s, t, symbol = found[:, d * size:(d + 1) * size]
            # preorder of a CNF tree: (start, -span length) strictly increases
            key = start * (L + 1) + L - (end - start)
            assert (start[0], end[0]) == (0, L)
            assert (np.diff(key) > 0).all()
            leaf = symbol >= 0
            assert np.array_equal(np.sort(start[leaf]), np.arange(L))
            assert "".join(g.alphabet[j] for j in symbol[leaf]) == w
        draw = np.arange(k * size) // size
        shuffled = np.vstack([draw, found])[:, rng.permutation(k * size)]
        names = g.nonterminal_names
        texts = sampling._tree_texts(found, L, n, names, g.alphabet)
        assert texts == reference_tree_texts(shuffled, names, g.alphabet)


class TestTransposedCopy:
    @pytest.mark.parametrize("n", [3, 9])
    def test_live_blocks_transposed_dead_blocks_zero(self, n):
        rng = np.random.default_rng(n)
        g = random_grammar(rng, sparse=True)
        table = forward_table(g, random_hmm(n, g.alphabet, 11), 9)
        assert not table.live.all()
        cols = Sampler(table)._cols.reshape(table.layers.shape)
        assert np.array_equal(cols, table.layers.swapaxes(2, 3))
        assert not cols[~table.live].any()

    def test_allocation_failure_is_inference_error(self, dyck, monkeypatch):
        # 4 layers of 5 nonterminals, one 64x64 block each: above the cut, so
        # the copy is mapped
        table = forward_table(dyck, random_hmm(64, "()", seed=1), 4)
        assert table.layers.size > FOLD_ENTRIES
        refuse_allocation(monkeypatch, table.layers.shape)
        with pytest.raises(InferenceError, match="^the sampler's transposed table needs 655360 "
                                                 "bytes and cannot be allocated: no room$"):
            Sampler(table)

    def test_heap_allocation_failure_is_inference_error(self, dyck, paren_uniform, monkeypatch):
        # 4 layers of 5 nonterminals, one 1x1 block each: the copy is on the heap
        table = forward_table(dyck, paren_uniform, 4)
        refuse_allocation(monkeypatch, table.layers.shape)
        with pytest.raises(InferenceError, match="^the sampler's transposed table needs 160 "
                                                 "bytes and cannot be allocated: no room$"):
            Sampler(table)


class TestHeapOrMap:
    """The same table and sampler with their arrays on the heap, where the
    allocator puts them, and forced onto the map: the branch changes no bit."""

    @pytest.fixture(params=["c08-n4", "sparse-n9"])
    def instance(self, request, c08):
        # c08 at 4 states takes the batched kernel, the sparse grammar at 9
        # states the fold; both tables are far under the cut
        if request.param == "c08-n4":
            return c08, random_hmm(4, "ab", seed=21), 40
        g = random_grammar(np.random.default_rng(8), sparse=True)
        return g, random_hmm(9, g.alphabet, seed=8), 12

    def test_same_bits(self, instance, monkeypatch):
        def build():
            table = forward_table(*instance)
            return table, Sampler(table), sample_many(*instance, 300, 5, trees=True)

        zeros = inference._zeros

        def mapped(shape, what):
            # the allocator's map branch for one entry past the cut, cut down
            # to the shape
            return zeros((FOLD_ENTRIES + 1,), what)[:math.prod(shape)].reshape(shape)

        heap = build()
        monkeypatch.setattr(inference, "_zeros", mapped)
        monkeypatch.setattr(sampling, "_zeros", mapped)
        mmapped = build()
        for (table, sampler, _), on in [(heap, False), (mmapped, True)]:
            assert on_map(table.layers) == on_map(sampler._cols) == on
            assert not table.layers.flags.writeable and table.layers.flags.c_contiguous
        assert heap[0].layers.tobytes() == mmapped[0].layers.tobytes()
        assert np.array_equal(heap[0].live, mmapped[0].live)
        assert heap[1]._cols.tobytes() == mmapped[1]._cols.tobytes()
        assert heap[2] == mmapped[2]


class TestSampleMany:
    def test_trees_do_not_change_strings(self, dyck):
        m = random_hmm(3, "()", seed=2)
        plain, none = sample_many(dyck, m, 10, 300, 6)
        strings, texts = sample_many(dyck, m, 10, 300, 6, trees=True)
        assert plain == strings
        assert none is None
        for w, text in zip(strings, texts):
            check_tree(dyck, m, w, text)
        with pytest.raises(SamplingError, match="without its tree"):
            trees_json(none)

    def test_trees_json_across_batches_in_any_order(self, dyck):
        m = random_hmm(2, "()", seed=4)
        # the first CHUNK draws are one batch, the last 5 another
        draws = list(zip(*sample_many(dyck, m, 6, CHUNK + 5, 2, trees=True)))
        picked = draws[::-3] + draws[:4]
        texts = [text for _, text in picked]
        assert_same_text(trees_json(texts), json.dumps([json.loads(text) for text in texts]))
        for w, text in picked:
            check_tree(dyck, m, w, text)

    def test_several_batches(self, dyck, paren_uniform):
        count = 2 * CHUNK + 7
        a, _ = sample_many(dyck, paren_uniform, 6, count, 12)
        b, _ = sample_many(dyck, paren_uniform, 6, count, 12)
        assert len(a) == count and a == b
        # a later batch is not a replay of the first
        assert a[:CHUNK] != a[CHUNK:2 * CHUNK]

    def test_deterministic(self, dyck, paren_uniform):
        a = sample_many(dyck, paren_uniform, 4, 10, 42)
        b = sample_many(dyck, paren_uniform, 4, 10, 42)
        assert a == b

    def test_empty(self, dyck, paren_uniform):
        assert sample_many(dyck, paren_uniform, 4, 0, 0) == ([], None)
        assert sample_many(dyck, paren_uniform, 4, 0, 0, trees=True) == ([], [])

    def test_negative_count(self, dyck, paren_uniform):
        with pytest.raises(SamplingError, match="^count must be nonnegative$"):
            sample_many(dyck, paren_uniform, 4, -1, 0)
        sampler = Sampler(forward_table(dyck, paren_uniform, 4))
        # raised at the call, before the first batch is asked for
        with pytest.raises(SamplingError, match="^count must be nonnegative$"):
            sampler.draw_batches(4, -1, seeded_generator(0))

    @pytest.mark.parametrize("L", [0, 5])
    def test_length_outside_table(self, dyck, paren_uniform, L):
        sampler = Sampler(forward_table(dyck, paren_uniform, 4))
        with pytest.raises(SamplingError, match=rf"^length {L} outside table range \[1, 4\]$"):
            sampler.draw_batches(L, 1, seeded_generator(0))

    def test_batches_are_drawn_lazily(self, dyck, paren_uniform):
        # the FPRAS draws its Bernoulli words from the same generator
        # between batches, so a batch is drawn only when it is asked for
        sampler = Sampler(forward_table(dyck, paren_uniform, 4))
        rng, one = seeded_generator(0), seeded_generator(0)
        batches = sampler.draw_batches(4, CHUNK + 1, rng)
        assert rng.bit_generator.state == one.bit_generator.state
        strings, _ = next(batches)
        next(sampler.draw_batches(4, CHUNK, one))
        assert len(strings) == CHUNK
        assert rng.bit_generator.state == one.bit_generator.state


class TestStreamPin:
    """Seeded strings recorded from the sampler that formed every (split,
    rule) column, dead or live; dropping dead columns must not move them."""

    def test_dyck(self, dyck):
        strings, _ = sample_many(dyck, random_hmm(2, "()", seed=3), 16, 20, 0)
        assert strings == [
            "(()()()())(()())", "(())(()()(())())", "()()(()()((())))", "(()()(())()())()",
            "((()))(()()()())", "()()()(()()()())", "(())()()(())()()", "(((())()()())())",
            "((())())()()()()", "()()(()())()(())", "(((()())()()))()", "(()(()(()()))())",
            "()(()()((()())))", "((()()())()()())", "(()()()()())()()", "(()()()())()()()",
            "((())((()())))()", "(((()()()))()())", "((((()))()()()))", "(()(()())())()()",
        ]

    def test_union(self, dyck):
        g = union(dyck, universal_grammar("()"))
        strings, _ = sample_many(g, random_hmm(2, "()", seed=3), 10, 20, 0)
        assert strings == [
            "(()())()((", "((((((((((", "((()(((())", "(()()(((((", ")((()))()(",
            ")())()()((", ")()(()((()", ")))()((()(", ")((()(()()", ")()()((()(",
            ")()((()()(", "()(()(((()", "()(((((()(", "()((()()()", ")()()()(((",
            "(()()()()(", ")())(()()(", "))(()((()(", ")))))))(()", ")((())))()",
        ]

    @pytest.mark.parametrize("case, digest", [
        ("dyck", "511b6656d059c625ec7c0426a1f0c95f3c9f8aa9b10105887e02d4752363651c"),
        # 1025 draws: two batches
        ("ss-ab", "be12e5137ce53bbff903c2f0375b011ed1a33d8fc2d0d44e5fed67e8de62de41"),
        # 8 states, so the table is built pair by pair; 1100 draws: two
        # batches, with several nonterminals at most lengths of every step
        ("c08", "befa4ca8c5c873994678ee93ba07e15901391179436887e28c5a4f8b00b1487b"),
    ])
    def test_tree_bytes(self, dyck, c08, case, digest):
        """sha256 of the tree text, recorded at gramhmm 0.6.0 (c08 at 0.14.0);
        the state pairs in it are pinned nowhere else."""
        if case == "dyck":
            _, texts = sample_many(dyck, random_hmm(2, "()", seed=3), 16, 20, 0, trees=True)
        elif case == "c08":
            _, texts = sample_many(c08, random_hmm(8, "ab", seed=4), 12, 1100, 2, trees=True)
        else:
            g = parse_grammar("start S\nS -> S S\nS -> 'a'\nS -> 'b'")
            _, texts = sample_many(g, random_hmm(3, "ab", seed=5), 12, 1025, 1, trees=True)
        assert hashlib.sha256(trees_json(texts).encode()).hexdigest() == digest


class TestDistribution:
    def test_dyck_even_split(self, dyck, paren_uniform):
        strings, _ = sample_many(dyck, paren_uniform, 4, 20000, 1)
        freq = Counter(strings)
        assert set(freq) == {"(())", "()()"}
        assert freq["(())"] / 20000 == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exact_distribution(self, seed):
        rng = np.random.default_rng(7000 + seed)
        while True:
            g, m = random_instance(rng)
            L = int(rng.integers(2, 5))
            try:
                dist = exact_distribution(g, m, L)
                break
            except Exception:
                continue
        n = 30000
        freq = Counter(sample_many(g, m, L, n, seed)[0])
        empirical = {w: c / n for w, c in freq.items()}
        assert tv_distance(empirical, dist) <= 0.03

    def test_tree_marginals(self, ss_grammar):
        # per-tree mass is f_A(w) / Z; with four a's there are 5 tree shapes
        m = uniform_hmm("a")
        _, texts = sample_many(ss_grammar, m, 4, 25000, 8, trees=True)

        def shape(node):
            if "terminal" in node:
                return "*"
            l, r = node["children"]
            return f"({shape(l)}{shape(r)})"

        freq = Counter(shape(json.loads(text)) for text in texts)
        assert len(freq) == 5
        for count in freq.values():
            assert count / 25000 == pytest.approx(0.2, abs=0.02)


@st.composite
def grammar_and_hmm(draw):
    """Random CNF grammar whose start symbol emits a terminal, plus an HMM."""
    n = draw(st.integers(1, 3))
    alphabet = draw(st.sampled_from(["a", "ab", "abc"]))
    nonterminal = st.integers(0, n - 1)
    binary = draw(st.sets(st.tuples(nonterminal, nonterminal, nonterminal), max_size=5))
    lexical = draw(st.sets(st.tuples(nonterminal, st.sampled_from(alphabet)), max_size=4))
    lexical.add((0, alphabet[0]))
    g = CnfGrammar(
        start=0,
        binary_rules=tuple(binary),
        lexical_rules=tuple(lexical),
        alphabet=tuple(alphabet),
        nonterminal_names=tuple(f"N{i}" for i in range(n)),
    )
    model = random_hmm(draw(st.integers(1, 3)), alphabet, draw(st.integers(0, 2**31)))
    table = forward_table(g, model, 7)
    L = draw(st.sampled_from([l for l in range(1, 8) if table.contract(l) > 0]))
    return g, model, L, table


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(grammar_and_hmm(), st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_draws_are_members_and_deterministic(self, instance, seed, count):
        g, model, L, table = instance
        first = list(Sampler(table).draw_batches(L, count, seeded_generator(seed)))
        again = list(Sampler(table).draw_batches(L, count, seeded_generator(seed)))
        assert first == again
        ((strings, texts),) = first
        assert texts is None
        for w in strings:
            assert len(w) == L
            assert derivation_count(g, w) >= 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 8, 9]), st.booleans(),
           st.booleans())
    def test_choose_matches_reference(self, seed, n, sparse, many):
        """Both table paths (below and from 8 states); with ``many``, a group
        of more nodes than one block holds."""
        rng = np.random.default_rng(seed)
        while True:
            g = random_grammar(rng, sparse=sparse)
            table = forward_table(g, random_hmm(n, g.alphabet, int(rng.integers(0, 2**31))), 8)
            sampler = Sampler(table)
            groups = [(a, l) for l in range(2, 9) for a in range(g.nonterminal_count)
                      if len(sampler._columns(a, l)[0]) and table.layers[l - 1, a].any()]
            if groups:
                break
        a, l = groups[int(rng.integers(len(groups)))]
        columns = len(sampler._columns(a, l)[0])
        k = int(rng.integers(1, 40)) + (FOLD_ENTRIES // (columns * n) if many else 0)
        s, t = np.nonzero(table.layers[l - 1, a])
        nodes = rng.integers(len(s), size=k)
        s, t, u = s[nodes], t[nodes], rng.random((2, k))
        left, right, m, middle = sampler._choose(a, l, s, t, u)
        m0, b0, c0, middle0 = reference_choose(table, a, l, s, t, u)
        N = g.nonterminal_count
        assert np.array_equal(m, m0) and np.array_equal(middle, middle0)
        assert np.array_equal(left, m0 * N + b0) and np.array_equal(right, (l - m0) * N + c0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 7), st.integers(1, 40), st.booleans())
    def test_trees_are_derivations_of_their_strings(self, seed, pick, count, sparse):
        rng = np.random.default_rng(seed)
        while True:
            g = random_grammar(rng, sparse=sparse)
            model = random_hmm(int(rng.integers(1, 4)), g.alphabet, int(rng.integers(0, 2**31)))
            table = forward_table(g, model, 8)
            lengths = [l for l in range(1, 9) if table.contract(l) > 0]
            if lengths:
                break
        L = lengths[pick % len(lengths)]
        ((strings, texts),) = Sampler(table).draw_batches(L, count, seeded_generator(seed),
                                                           trees=True)
        assert_same_text(trees_json(texts), json.dumps([json.loads(text) for text in texts]))
        for w, text in zip(strings, texts):
            check_tree(g, model, w, text)
