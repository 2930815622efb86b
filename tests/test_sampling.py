import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramhmm.grammar import CnfGrammar, derivation_count, parse_grammar, union, universal_grammar
from gramhmm.hmm import Hmm, random_hmm, uniform_hmm
from gramhmm.inference import NumericalError, forward_table
from gramhmm.oracle import exact_distribution, tv_distance
from gramhmm.sampling import (
    CHUNK,
    RngSeed,
    Sampler,
    SamplingError,
    SamplingNumericalError,
    _pick,
    sample_many,
    trees_json,
)

from conftest import random_grammar, random_instance


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


def check_tree(g: CnfGrammar, model: Hmm, trace) -> None:
    """Assert that ``trace.tree`` is a derivation of ``trace.string`` under g
    whose root state and leaf operator entries all have positive weight."""
    text, w = trace.tree, trace.string
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
        traces = sample_many(dyck, paren_uniform, 2, 20, RngSeed(0))
        assert [t.string for t in traces] == ["()"] * 20

    def test_empty_support(self, dyck, paren_uniform):
        with pytest.raises(SamplingError, match="empty constrained support"):
            sample_many(dyck, paren_uniform, 3, 1, RngSeed(0))

    def test_ambiguous_tree_varies(self, ss_grammar):
        m = uniform_hmm("a")
        traces = sample_many(ss_grammar, m, 3, 4000, RngSeed(5), trees=True)
        assert all(t.string == "aaa" for t in traces)
        # two derivations of aaa, each drawn with probability 1/2
        shapes = Counter(len(json.loads(t.tree)["children"][0].get("children", []))
                         for t in traces)
        assert set(shapes) == {0, 2}
        for count in shapes.values():
            assert count == pytest.approx(2000, abs=200)

    def test_trace_consistency(self, dyck, paren_uniform):
        for trace in sample_many(dyck, paren_uniform, 6, 50, RngSeed(3), trees=True):
            assert len(trace.string) == 6
            assert derivation_count(dyck, trace.string) >= 1
            check_tree(dyck, paren_uniform, trace)

    def test_local_probabilities_sum_to_one(self, dyck, paren_uniform):
        table = forward_table(dyck, paren_uniform, 6)
        sampler = Sampler(table)
        trace = sampler.draw(6, RngSeed(9).generator())

        for node in nodes(trace.tree):
            (start, end), (s, t) = node["span"], node["states"]
            l = end - start
            a = dyck.nonterminal_names.index(node["nonterminal"])
            if l == 1:
                weights = sampler._leaf[a][1][s, t]
            else:
                m, b, c = sampler._columns(a, l)
                # one column per live (split, rule) pair, and no other
                assert table.live[m - 1, b].all() and table.live[l - m - 1, c].all()
                lo, hi = sampler._factors(a, l, np.array([s]), np.array([t]))
                assert lo.shape == hi.shape == (1, len(m), paren_uniform.state_count)
                weights = lo * hi
            assert weights.sum() == pytest.approx(table.layer(l)[a][s, t], rel=1e-9)

    def test_underflow_is_numerical_error(self):
        # every node of b^102 carries weight 0.001^102 < UNDERFLOW_FLOOR
        g = parse_grammar("start S\nS -> B S\nS -> 'b'\nB -> 'b'\nA -> 'a'")
        m = Hmm(initial=np.array([1.0]),
                matrices={"a": np.array([[0.999]]), "b": np.array([[0.001]])})
        with pytest.raises(SamplingNumericalError, match="numerical underflow at node") as e:
            sample_many(g, m, 102, 3, RngSeed(0))
        assert isinstance(e.value, NumericalError)

    def test_overflow_is_numerical_error(self):
        # the weighted mass of S -> S S | 'a' | 'b' passes float64 range by L = 540
        g = parse_grammar("start S\nS -> S S\nS -> 'a'\nS -> 'b'")
        with (np.errstate(over="ignore", invalid="ignore"),
              pytest.raises(SamplingNumericalError, match="numerical overflow at node")):
            sample_many(g, uniform_hmm("ab"), 540, 2, RngSeed(0))

    def test_nan_total_is_overflow(self):
        # inf * 0 in a node's weights gives a NaN total, whose cause is overflow
        cum = np.array([[0.5, 1.0], [np.inf, np.nan]])
        with pytest.raises(SamplingNumericalError, match="numerical overflow at node"):
            _pick(cum, np.array([0.3, 0.3]))

    def test_draw_is_batch_of_one(self, dyck, paren_uniform):
        table = forward_table(dyck, paren_uniform, 8)
        one = Sampler(table).draw(8, RngSeed(4).generator())
        (batch,) = Sampler(table).draw_many(8, 1, RngSeed(4).generator(), trees=True)
        assert one == batch
        assert spell(one.tree) == one.string

    def test_deep_traces_compare_hash_and_print(self):
        # universal_grammar is right-linear, so this tree is 1100 nodes deep
        g, m = universal_grammar("ab"), uniform_hmm("ab")
        (a,) = sample_many(g, m, 1100, 1, 0, trees=True)
        (b,) = sample_many(g, m, 1100, 1, 0, trees=True)
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) and repr(a.tree)

    def test_negative_seed(self, dyck, paren_uniform):
        with pytest.raises(SamplingError, match="^seed must be nonnegative, got -1$"):
            RngSeed(-1)
        with pytest.raises(SamplingError, match="^seed must be nonnegative, got -1$"):
            sample_many(dyck, paren_uniform, 4, 1, -1)


class TestSampleMany:
    def test_trees_do_not_change_strings(self, dyck):
        m = random_hmm(3, "()", seed=2)
        plain = sample_many(dyck, m, 10, 300, RngSeed(6))
        with_trees = sample_many(dyck, m, 10, 300, RngSeed(6), trees=True)
        assert [t.string for t in plain] == [t.string for t in with_trees]
        assert all(t.tree is None for t in plain)
        for t in with_trees:
            check_tree(dyck, m, t)
        with pytest.raises(SamplingError, match="without its tree"):
            trees_json(plain)

    def test_trees_json_across_batches_in_any_order(self, dyck):
        m = random_hmm(2, "()", seed=4)
        # the first CHUNK draws are one batch, the last 5 another
        traces = sample_many(dyck, m, 6, CHUNK + 5, RngSeed(2), trees=True)
        picked = traces[::-3] + traces[:4]
        assert_same_text(trees_json(picked), json.dumps([json.loads(t.tree) for t in picked]))
        for t in picked:
            check_tree(dyck, m, t)

    def test_several_batches(self, dyck, paren_uniform):
        count = 2 * CHUNK + 7
        a = [t.string for t in sample_many(dyck, paren_uniform, 6, count, RngSeed(12))]
        b = [t.string for t in sample_many(dyck, paren_uniform, 6, count, RngSeed(12))]
        assert len(a) == count and a == b
        # a later batch is not a replay of the first
        assert a[:CHUNK] != a[CHUNK:2 * CHUNK]

    def test_deterministic(self, dyck, paren_uniform):
        a = [t.string for t in sample_many(dyck, paren_uniform, 4, 10, RngSeed(42))]
        b = [t.string for t in sample_many(dyck, paren_uniform, 4, 10, RngSeed(42))]
        assert a == b

    def test_empty(self, dyck, paren_uniform):
        assert sample_many(dyck, paren_uniform, 4, 0, RngSeed(0)) == []

    def test_negative_count(self, dyck, paren_uniform):
        with pytest.raises(SamplingError, match="^count must be nonnegative$"):
            sample_many(dyck, paren_uniform, 4, -1, RngSeed(0))
        sampler = Sampler(forward_table(dyck, paren_uniform, 4))
        with pytest.raises(SamplingError, match="^count must be nonnegative$"):
            sampler.draw_many(4, -3, RngSeed(0).generator())
        with pytest.raises(SamplingError, match="^count must be nonnegative$"):
            sampler.draw_batches(4, -1, RngSeed(0).generator())


class TestStreamPin:
    """Seeded strings recorded from the sampler that formed every (split,
    rule) column, dead or live; dropping dead columns must not move them."""

    def test_dyck(self, dyck):
        strings = [t.string for t in sample_many(dyck, random_hmm(2, "()", seed=3), 16, 20,
                                                 RngSeed(0))]
        assert strings == [
            "(()()()())(()())", "(())(()()(())())", "()()(()()((())))", "(()()(())()())()",
            "((()))(()()()())", "()()()(()()()())", "(())()()(())()()", "(((())()()())())",
            "((())())()()()()", "()()(()())()(())", "(((()())()()))()", "(()(()(()()))())",
            "()(()()((()())))", "((()()())()()())", "(()()()()())()()", "(()()()())()()()",
            "((())((()())))()", "(((()()()))()())", "((((()))()()()))", "(()(()())())()()",
        ]

    def test_union(self, dyck):
        g = union(dyck, universal_grammar("()"))
        strings = [t.string for t in sample_many(g, random_hmm(2, "()", seed=3), 10, 20,
                                                 RngSeed(0))]
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
    ])
    def test_tree_bytes(self, dyck, case, digest):
        """sha256 of the tree text, recorded at gramhmm 0.6.0; the state pairs
        in it are pinned nowhere else."""
        if case == "dyck":
            traces = sample_many(dyck, random_hmm(2, "()", seed=3), 16, 20, RngSeed(0), trees=True)
        else:
            g = parse_grammar("start S\nS -> S S\nS -> 'a'\nS -> 'b'")
            traces = sample_many(g, random_hmm(3, "ab", seed=5), 12, 1025, RngSeed(1), trees=True)
        assert hashlib.sha256(trees_json(traces).encode()).hexdigest() == digest


class TestDistribution:
    def test_dyck_even_split(self, dyck, paren_uniform):
        traces = sample_many(dyck, paren_uniform, 4, 20000, RngSeed(1))
        freq = Counter(t.string for t in traces)
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
        freq = Counter(t.string for t in sample_many(g, m, L, n, RngSeed(seed)))
        empirical = {w: c / n for w, c in freq.items()}
        assert tv_distance(empirical, dist) <= 0.03

    def test_tree_marginals(self, ss_grammar):
        # per-tree mass is f_A(w) / Z; with four a's there are 5 tree shapes
        m = uniform_hmm("a")
        traces = sample_many(ss_grammar, m, 4, 25000, RngSeed(8), trees=True)

        def shape(node):
            if "terminal" in node:
                return "*"
            l, r = node["children"]
            return f"({shape(l)}{shape(r)})"

        freq = Counter(shape(json.loads(t.tree)) for t in traces)
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
        first = list(Sampler(table).draw_many(L, count, RngSeed(seed).generator()))
        again = list(Sampler(table).draw_many(L, count, RngSeed(seed).generator()))
        assert [t.string for t in first] == [t.string for t in again]
        for trace in first:
            assert len(trace.string) == L
            assert derivation_count(g, trace.string) >= 1

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
        traces = list(Sampler(table).draw_many(L, count, RngSeed(seed).generator(), trees=True))
        assert_same_text(trees_json(traces), json.dumps([json.loads(t.tree) for t in traces]))
        for trace in traces:
            check_tree(g, model, trace)
