import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramhmm import grammar
from gramhmm.grammar import (
    EXACT_FLOAT_LIMIT,
    GrammarError,
    GrammarSyntaxError,
    CnfGrammar,
    derivation_count,
    derivation_counts,
    dyck_grammar,
    format_grammar,
    parse_grammar,
    union,
    universal_grammar,
)

from gramhmm.hmm import random_hmm, uniform_hmm
from gramhmm.inference import forward_table
from gramhmm.oracle import enumerate_language, max_ambiguity

from conftest import count_trees_by_enumeration, enumerate_yields, random_grammar, same_rules


@st.composite
def cnf_grammars(draw, names=st.text(max_size=4) | st.sampled_from(["start", "#A", "'A", "S T"]),
                 symbols=st.characters() | st.sampled_from(" \t'#")):
    """Constructor arguments of a random CNF grammar whose start symbol and
    every terminal occur in a rule.  The names and symbols are arbitrary
    text by default, so the arguments need not make a valid grammar."""
    n = draw(st.integers(1, 4))
    nonterminal_names = draw(st.lists(names, min_size=n, max_size=n, unique=True))
    nonterminal = st.integers(0, n - 1)
    binary = draw(st.sets(st.tuples(nonterminal, nonterminal, nonterminal), max_size=8))
    lexical = draw(st.sets(st.tuples(nonterminal, symbols), min_size=1, max_size=5))
    used = sorted({r[0] for r in binary} | {r[0] for r in lexical})
    alphabet = draw(st.permutations(sorted({s for _, s in lexical})))
    return dict(
        start=draw(st.sampled_from(used)),
        binary_rules=tuple(binary),
        lexical_rules=tuple(lexical),
        alphabet=tuple(alphabet),
        nonterminal_names=tuple(nonterminal_names),
    )


@st.composite
def grammar_and_strings(draw):
    """A random grammar and equal-length strings over its alphabet, with repeats."""
    g = CnfGrammar(**draw(cnf_grammars(st.from_regex(r"[A-Z][A-Za-z0-9_]{0,4}", fullmatch=True),
                                       st.sampled_from("abc"))))
    L = draw(st.integers(1, 8))
    words = draw(st.lists(st.text(alphabet=g.alphabet, min_size=L, max_size=L),
                          min_size=1, max_size=20))
    return g, words + words[::2]


class TestParse:
    def test_minimal(self):
        g = parse_grammar("start S\nS -> 'a'")
        assert g.nonterminal_count == 1
        assert g.binary_rules == ()
        assert g.lexical_rules == ((0, "a"),)

    def test_three_nonterminals(self):
        g = parse_grammar("start S\nS -> A B\nA -> 'a'\nB -> 'b'")
        assert g.nonterminal_count == 3
        assert len(g.binary_rules) == 1
        assert len(g.lexical_rules) == 2
        # interning follows first appearance: S, A, B
        assert g.nonterminal_names == ("S", "A", "B")
        assert g.start == 0

    def test_not_chomsky_form(self):
        with pytest.raises(GrammarSyntaxError, match="Chomsky"):
            parse_grammar("start S\nS -> A B C\nA -> 'a'\nB -> 'b'\nC -> 'c'")

    def test_undeclared_start(self):
        with pytest.raises(GrammarSyntaxError, match="undeclared start"):
            parse_grammar("start Z\nS -> 'a'")

    def test_duplicate_rule(self):
        with pytest.raises(GrammarSyntaxError, match="duplicate"):
            parse_grammar("start S\nS -> 'a'\nS -> 'a'")

    def test_missing_header(self):
        with pytest.raises(GrammarSyntaxError):
            parse_grammar("S -> 'a'")

    def test_comments_and_blanks(self):
        g = parse_grammar("# a grammar\n\nstart S\n# rule\nS -> 'a'\n")
        assert g.lexical_rules == ((0, "a"),)

    def test_error_carries_line(self):
        try:
            parse_grammar("start S\nS -> A B C")
        except GrammarSyntaxError as e:
            assert e.line == 2
        else:
            pytest.fail("expected syntax error")

    def test_round_trip(self, dyck):
        assert same_rules(parse_grammar(format_grammar(dyck)), dyck)

    @settings(max_examples=200, deadline=None)
    @given(cnf_grammars())
    def test_round_trip_property(self, fields):
        # a grammar the constructor accepts is written back as itself
        try:
            g = CnfGrammar(**fields)
        except GrammarError:
            return
        assert same_rules(parse_grammar(format_grammar(g)), g)


class TestInsideVector:
    """The big-integer inside (CYK) chart, read through ``derivation_count``."""

    def test_catalan(self, ss_grammar):
        assert derivation_count(ss_grammar, "aaaa") == 5

    def test_single_rule(self):
        g = parse_grammar("start S\nS -> 'a'")
        assert derivation_count(g, "a") == 1

    def test_unknown_symbol(self):
        g = parse_grammar("start S\nS -> 'a'")
        with pytest.raises(GrammarError, match="alphabet"):
            derivation_count(g, "b")

    def test_empty_string(self):
        g = parse_grammar("start S\nS -> 'a'")
        with pytest.raises(GrammarError):
            derivation_count(g, "")


class TestDerivationCount:
    def test_two_trees(self, ss_grammar):
        assert derivation_count(ss_grammar, "aaa") == 2

    def test_no_binary_rule(self):
        g = parse_grammar("start S\nS -> 'a'")
        assert derivation_count(g, "aa") == 0

    def test_dyck_unambiguous(self, dyck):
        assert derivation_count(dyck, "()()") == 1

    def test_big_counts_are_exact(self, ss_grammar):
        # Catalan(19) > 2^32; must not lose precision
        import math

        c19 = math.comb(38, 19) // 20
        assert derivation_count(ss_grammar, "a" * 20) == c19

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_tree_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        g = random_grammar(rng)
        import itertools

        for L in (1, 2, 3, 4):
            for tup in itertools.product(g.alphabet, repeat=L):
                w = "".join(tup)
                assert derivation_count(g, w) == count_trees_by_enumeration(g, w)


class TestDerivationCounts:
    @settings(max_examples=200, deadline=None)
    @given(grammar_and_strings())
    def test_matches_per_string_count(self, instance):
        g, strings = instance
        assert derivation_counts(g, strings) == [derivation_count(g, w) for w in strings]

    def test_counts_beyond_float_fall_back(self, ss_grammar, monkeypatch):
        counted = []

        def spy(g, w):
            counted.append(w)
            return derivation_count(g, w)

        monkeypatch.setattr(grammar, "derivation_count", spy)
        # Catalan(30) < 2^53 stays on the float chart; Catalan(33) does not
        assert derivation_counts(ss_grammar, ["a" * 31]) == [math.comb(60, 30) // 31]
        assert counted == []
        catalan33 = math.comb(66, 33) // 34
        assert catalan33 > EXACT_FLOAT_LIMIT
        assert derivation_counts(ss_grammar, ["a" * 34] * 3) == [catalan33] * 3
        assert counted == ["a" * 34]

    def test_empty_batch(self, ss_grammar):
        assert derivation_counts(ss_grammar, []) == []

    def test_errors(self, universal_ab):
        with pytest.raises(GrammarError, match="nonempty"):
            derivation_counts(universal_ab, ["", ""])
        with pytest.raises(GrammarError, match="equal lengths"):
            derivation_counts(universal_ab, ["ab", "a"])
        with pytest.raises(GrammarError, match="symbol 'c' not in grammar alphabet"):
            derivation_counts(universal_ab, ["ab", "ac", "ad"])
        with pytest.raises(GrammarError, match="symbol 'd' not in grammar alphabet"):
            derivation_counts(universal_ab, ["da", "ac"])


class TestDerivableLengths:
    """``ForwardTable.live`` against tree enumeration and against the
    table's own nonzero layers (the HMMs here have only positive entries)."""

    def test_dyck(self, dyck):
        table = forward_table(dyck, uniform_hmm("()"), 8)
        live = table.live
        assert live.shape == (8, dyck.nonterminal_count) and not live.flags.writeable
        assert np.array_equal(live, (table.layers > 0).any(axis=(2, 3)))
        names = dyck.nonterminal_names
        assert live[:, names.index("S")].tolist() == [l % 2 == 0 for l in range(1, 9)]
        assert live[:, names.index("X")].tolist() == [l % 2 == 1 for l in range(1, 9)]
        assert live[:, names.index("A")].tolist() == [True] + [False] * 7

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_tree_enumeration(self, seed):
        g = random_grammar(np.random.default_rng(300 + seed), sparse=True)
        table = forward_table(g, random_hmm(2, g.alphabet, seed), 6)
        live = table.live
        assert np.array_equal(live, (table.layers > 0).any(axis=(2, 3)))
        for l in range(1, 7):
            for a in range(g.nonterminal_count):
                assert live[l - 1, a] == any(True for _ in enumerate_yields(g, a, l))


class TestUnion:
    def test_doubles_counts(self, ss_grammar):
        g2 = union(ss_grammar, ss_grammar)
        for L in (2, 3, 4, 5):
            w = "a" * L
            assert derivation_count(g2, w) == 2 * derivation_count(ss_grammar, w)
        # the two start copies of S -> 'a' merge into one rule
        assert derivation_count(g2, "a") == 1

    def test_disjoint_singletons(self):
        g = union(parse_grammar("start S\nS -> 'a'"), parse_grammar("start S\nS -> 'b'"))
        assert derivation_count(g, "a") == 1
        assert derivation_count(g, "b") == 1
        assert enumerate_language(g, 1) == {"a", "b"}

    def test_dyck_plus_universal(self, dyck):
        g = union(dyck, universal_grammar("()"))
        assert derivation_count(g, "()()") == 2
        assert derivation_count(g, "))((") == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_counts_add(self, seed):
        rng = np.random.default_rng(100 + seed)
        g1 = random_grammar(rng, alphabet="ab")
        g2 = random_grammar(rng, alphabet="ab")
        gu = union(g1, g2)
        import itertools

        def count(g, w):
            # a symbol outside the operand's alphabet means zero derivations
            return derivation_count(g, w) if set(w) <= set(g.alphabet) else 0

        # length-1 additivity holds only for disjoint start emissions; the
        # set-based rule representation cannot duplicate a root lexical rule
        for L in (2, 3, 4):
            for tup in itertools.product(gu.alphabet, repeat=L):
                w = "".join(tup)
                assert count(gu, w) == count(g1, w) + count(g2, w)

    def test_language_is_union(self, dyck, universal_ab):
        g = union(dyck, universal_grammar("()"))
        for L in (2, 3, 4):
            assert enumerate_language(g, L) == (
                enumerate_language(dyck, L) | enumerate_language(universal_grammar("()"), L)
            )


class TestMonotonicity:
    def test_adding_rule_never_decreases_counts(self, ss_grammar):
        bigger = CnfGrammar(
            start=0,
            binary_rules=((0, 0, 0), (0, 0, 1)),
            lexical_rules=((0, "a"), (1, "a")),
            alphabet=("a",),
            nonterminal_names=("S", "T"),
        )
        for L in range(1, 6):
            w = "a" * L
            before = derivation_count(ss_grammar, w)
            after = derivation_count(bigger, w)
            assert after >= before


class TestEnumeration:
    def test_dyck_length_4(self, dyck):
        assert enumerate_language(dyck, 4) == {"()()", "(())"}

    def test_dyck_odd_length(self, dyck):
        assert enumerate_language(dyck, 3) == set()

    def test_universal(self, universal_ab):
        assert enumerate_language(universal_ab, 2) == {"aa", "ab", "ba", "bb"}

    def test_membership_matches_count(self, dyck):
        for L in (2, 3, 4):
            members = enumerate_language(dyck, L)
            import itertools

            for tup in itertools.product("()", repeat=L):
                w = "".join(tup)
                assert (derivation_count(dyck, w) >= 1) == (w in members)

    def test_guard(self):
        g = parse_grammar("start S\nS -> S S\nS -> 'a'\nS -> 'b'\nS -> 'c'")
        with pytest.raises(GrammarError, match="guard"):
            enumerate_language(g, 20)


class TestMaxAmbiguity:
    def test_catalan(self, ss_grammar):
        assert max_ambiguity(ss_grammar, 4) == 5

    def test_dyck(self, dyck):
        assert max_ambiguity(dyck, 6) == 1

    def test_single(self):
        assert max_ambiguity(parse_grammar("start S\nS -> 'a'"), 1) == 1


class TestValidation:
    def test_no_rules(self):
        with pytest.raises(GrammarError):
            CnfGrammar(0, (), (), ("a",), ("S",))

    def test_rule_out_of_range(self):
        with pytest.raises(GrammarError):
            CnfGrammar(0, ((0, 0, 1),), ((0, "a"),), ("a",), ("S",))

    def test_undeclared_terminal(self):
        with pytest.raises(GrammarError):
            CnfGrammar(0, (), ((0, "z"),), ("a",), ("S",))

    def test_duplicate_symbol(self):
        with pytest.raises(GrammarError, match="^duplicate symbol in alphabet$"):
            CnfGrammar(0, (), ((0, "a"),), ("a", "a"), ("S",))

    def test_duplicate_nonterminal_name(self):
        # would be written as "S -> S S" / "S -> 'a'", which reads back as a
        # different, one-nonterminal grammar
        with pytest.raises(GrammarError, match="^duplicate nonterminal name$"):
            CnfGrammar(0, ((0, 1, 1),), ((1, "a"),), ("a",), ("S", "S"))

    @pytest.mark.parametrize("symbol", ["ab", "", 1])
    def test_symbol_not_one_character(self, symbol):
        with pytest.raises(GrammarError, match="^alphabet symbols must be single characters$"):
            CnfGrammar(0, (), ((0, symbol),), (symbol,), ("S",))

    @pytest.mark.parametrize("name", ["", "S T", "S\tT", "start", "#A", "'A"])
    def test_name_cannot_be_written(self, name):
        # as the child of S -> S X each would write a file that parses to a
        # different grammar or not at all; #A -> 'a' would be a comment
        with pytest.raises(GrammarError, match="cannot be written to a grammar file$"):
            CnfGrammar(0, ((0, 0, 1),), ((0, "a"), (1, "a")), ("a",), ("S", name))

    @pytest.mark.parametrize("symbol", [" ", "\t", "\n"])
    def test_whitespace_symbol(self, symbol):
        with pytest.raises(GrammarError, match="^alphabet symbols may not be whitespace$"):
            CnfGrammar(0, (), ((0, symbol),), (symbol,), ("S",))


class TestRuleIndex:
    @pytest.mark.parametrize("name", ["universal", "union-uu", "union-dyck-u", "lexical-only"])
    def test_index_rebuilds_the_rules(self, name):
        u = universal_grammar("ab")
        g = {
            "universal": u,
            "union-uu": union(u, u),
            "union-dyck-u": union(dyck_grammar(), universal_grammar("()")),
            "lexical-only": parse_grammar("start S\nS -> 'b'\nT -> 'a'"),
        }[name]
        for index in (g.pairs, g.parents, g.emits):
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index[...] = 0
        assert g.parents.shape == (len(g.pairs), g.nonterminal_count)
        assert g.emits.shape == (len(g.alphabet), g.nonterminal_count)
        pairs = [tuple(p) for p in g.pairs.tolist()]
        assert pairs == sorted({(b, c) for _, b, c in g.binary_rules})
        binary = sorted((a, b, c) for (b, c), row in zip(pairs, g.parents)
                        for a in np.flatnonzero(row).tolist())
        assert tuple(binary) == g.binary_rules
        symbols = sorted(g.alphabet)
        lexical = sorted((a, symbols[i]) for i, a in zip(*np.nonzero(g.emits)))
        assert tuple(lexical) == g.lexical_rules

    def test_union_start_copies_share_pairs(self):
        u = universal_grammar("ab")
        g = union(u, u)
        assert (len(g.binary_rules), len(g.pairs)) == (8, 4)
        # each pair of a side has that side's start and the union's start as parents
        assert g.parents.sum(axis=1).tolist() == [2, 2, 2, 2]
