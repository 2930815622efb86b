import itertools

import numpy as np
import pytest

from gramhmm.grammar import CnfGrammar, dyck_grammar, format_grammar, parse_grammar, universal_grammar
from gramhmm.hmm import random_hmm, uniform_hmm


@pytest.fixture
def dyck():
    return dyck_grammar()


@pytest.fixture
def paren_uniform():
    return uniform_hmm("()")


@pytest.fixture
def universal_ab():
    return universal_grammar("ab")


@pytest.fixture
def ss_grammar():
    # maximally ambiguous on a^k: one count per binary tree shape
    return parse_grammar("start S\nS -> S S\nS -> 'a'")


def random_grammar(rng: np.random.Generator, max_nonterminals=4, alphabet="abc",
                   sparse=False) -> CnfGrammar:
    """Small random CNF grammar guaranteed to have at least one rule.

    With ``sparse``, four nonterminals that derive sparse sets of lengths
    follow the random ones N0..N{n-1}: U derives only length 1, O only odd
    and E only even lengths (O -> E O or a terminal, E -> O O), and X none
    (X -> X X).  The random rules may use them as children but never as
    parents, so their length sets stay as stated; one that no rule uses is
    unreachable.
    """
    n = int(rng.integers(1, max_nonterminals + 1))
    sigma = "".join(alphabet[: int(rng.integers(1, len(alphabet) + 1))])
    children = range(n + 4 if sparse else n)
    all_binary = list(itertools.product(range(n), children, children))
    all_lexical = list(itertools.product(range(n), sigma))
    n_bin = int(rng.integers(0, min(6, len(all_binary)) + 1))
    n_lex = int(rng.integers(1, min(4, len(all_lexical)) + 1))
    binary = [all_binary[i] for i in rng.choice(len(all_binary), size=n_bin, replace=False)]
    lexical = [all_lexical[i] for i in rng.choice(len(all_lexical), size=n_lex, replace=False)]
    names = [f"N{i}" for i in range(n)]
    if sparse:
        u, o, e, x = range(n, n + 4)
        binary += [(o, e, o), (e, o, o), (x, x, x)]
        lexical += [(u, sigma[0]), (o, sigma[-1])]
        names += ["U", "O", "E", "X"]
    return CnfGrammar(
        start=0,
        binary_rules=tuple(binary),
        lexical_rules=tuple(lexical),
        alphabet=tuple(sigma),
        nonterminal_names=tuple(names),
    )


def same_rules(g: CnfGrammar, h: CnfGrammar) -> bool:
    """Same start and rules, by name: the grammar files' lines agree up to
    order."""
    return sorted(format_grammar(g).splitlines()) == sorted(format_grammar(h).splitlines())


def random_instance(rng: np.random.Generator, max_states=3):
    """Random (grammar, HMM) pair over a shared alphabet."""
    g = random_grammar(rng)
    model = random_hmm(int(rng.integers(1, max_states + 1)), g.alphabet,
                       int(rng.integers(0, 2**31)))
    return g, model


def enumerate_yields(g: CnfGrammar, root: int, length: int):
    """Yield of every derivation tree rooted at ``root`` with ``length`` leaves.

    Independent of the CYK chart: trees are generated top-down, one yield
    per tree (with multiplicity), by recursing over rules and leaf splits.
    """
    if length == 1:
        for a, sym in g.lexical_rules:
            if a == root:
                yield sym
        return
    for a, b, c in g.binary_rules:
        if a != root:
            continue
        for m in range(1, length):
            for left in enumerate_yields(g, b, m):
                for right in enumerate_yields(g, c, length - m):
                    yield left + right


def count_trees_by_enumeration(g: CnfGrammar, w: str) -> int:
    """Derivation count of w from the start symbol via exhaustive tree generation."""
    return sum(1 for y in enumerate_yields(g, g.start, len(w)) if y == w)


def hidden_path_likelihood(model, w: str) -> float:
    """String probability by summing over all hidden state paths."""
    n = model.state_count
    total = 0.0
    for path in itertools.product(range(n), repeat=len(w) + 1):
        p = model.initial[path[0]]
        for i, ch in enumerate(w):
            p *= model.matrices[ch][path[i], path[i + 1]]
        total += p
    return total
