"""Self-checks of the benchmark: seeded inputs, workload mix, exact references.

Run with ``python3 -m pytest bench/test_bench.py``.
"""

import math
from fractions import Fraction

import pytest

import checks
import decks
import run

# Not used while the benchmark was written; it must pass every output check.
HELD_OUT_SEED = 20261017
# First length whose c08 weighted mass is above float64 range (found by the DP).
C08_OVERFLOW_LENGTH = 244


@pytest.mark.parametrize("workload", decks.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    first, second = decks.build_deck(workload, 7), decks.build_deck(workload, 7)
    decks.write_inputs(first, tmp_path / "a")
    decks.write_inputs(second, tmp_path / "b")
    for name in first.files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert sorted(first.files) == sorted(second.files)
    assert [c.argv for c in first.commands] == [c.argv for c in second.commands]
    other = decks.build_deck(workload, 8)
    assert [c.argv for c in other.commands] != [c.argv for c in first.commands]


def _states(cmd):
    return cmd.hmm.states


def test_likelihood_narrow_mix():
    commands = decks.build_deck("likelihood-narrow", HELD_OUT_SEED).commands
    assert len(commands) >= decks.MIN_COMMANDS
    assert all(c.kind == "likelihood" for c in commands)
    assert {c.grammar.name for c in commands} == {"dyck", "c08", "universal-ab"}
    assert all(1 <= _states(c) <= 4 and 48 <= c.length <= 300 for c in commands)
    assert all(c.length % 2 == 0 for c in commands if c.grammar.name == "dyck")
    modes = [c.mode for c in commands]
    assert 0 < modes.count("upto") <= len(commands) // 8
    assert all(c.mode == "weighted" for c in commands if c.grammar.name == "c08")
    # the length range reaches past the c08 overflow point
    assert max(c.length for c in commands if c.grammar.name == "c08") >= C08_OVERFLOW_LENGTH
    assert max(c.length for c in commands) >= 240


def test_likelihood_wide_mix():
    commands = decks.build_deck("likelihood-wide", HELD_OUT_SEED).commands
    assert len(commands) >= decks.MIN_COMMANDS
    assert all(c.kind == "likelihood" and c.mode == "weighted" for c in commands)
    assert all(32 <= _states(c) <= 64 and 24 <= c.length <= 64 for c in commands)
    names = [c.grammar.name for c in commands]
    assert set(names) == {"c08", "union-uu"}
    assert names.count("c08") > len(names) / 2


def test_sample_mix():
    commands = decks.build_deck("sample", HELD_OUT_SEED).commands
    assert len(commands) >= decks.MIN_COMMANDS
    assert all(c.kind == "sample" for c in commands)
    assert sum(c.trees for c in commands) * 8 == len(commands)
    assert {c.grammar.name for c in commands} == {"dyck", "ss"}
    assert all(2 <= _states(c) <= 16 and 6 <= c.length <= 64 for c in commands)
    assert all(200 <= c.count <= 2000 for c in commands)
    assert {c.count for c in commands} >= {200, 2000}
    assert any(_states(c) == 16 and c.length == 64 for c in commands)


def test_count_mix():
    commands = decks.build_deck("count", HELD_OUT_SEED).commands
    assert len(commands) >= decks.MIN_COMMANDS
    kinds = [c.kind for c in commands]
    assert kinds.count("reduce3sat") * 4 == len(commands)
    approx = [c for c in commands if c.kind == "approx"]
    assert {c.grammar.name for c in approx} == {"union-uu", "union-dyck-u"}
    assert all(c.bound == 2 and 8 <= c.length <= 16 for c in approx)
    epsilons = [c.epsilon for c in approx]
    assert set(epsilons) == {0.2, 0.1} and epsilons.count(0.2) > 2 * epsilons.count(0.1)
    for c in commands:
        if c.kind == "reduce3sat":
            assert c.formula.variables in (8, 9) and 4 <= len(c.formula.clauses) <= 8


def test_exact_references():
    refs = checks.References()
    half = {"(": 1, ")": 1}
    dyck = refs.tree_weights(decks.DYCK, half, 40)
    for length in range(2, 41, 2):
        catalan = math.comb(length, length // 2) // (length // 2 + 1)
        assert Fraction(dyck[length], 2**length) == Fraction(catalan, 2**length)
    ab = {"a": 23, "b": 41}
    # From L = 2 on; at L = 1 the two copies of U -> 'a' are one rule.
    for length in (2, 5, 30):
        assert Fraction(refs.tree_weights(decks.UNIVERSAL_AB, ab, length)[length],
                        64**length) == 1
        assert Fraction(refs.tree_weights(decks.UNION_UU, ab, length)[length], 64**length) == 2
    c08 = refs.tree_weights(decks.C08, ab, C08_OVERFLOW_LENGTH)
    assert c08[C08_OVERFLOW_LENGTH - 1] < 64 ** (C08_OVERFLOW_LENGTH - 1) * 2**1024
    assert c08[C08_OVERFLOW_LENGTH] > 64**C08_OVERFLOW_LENGTH * 2**1024
    assert checks.sample_size(2, 0.2) == 104 and checks.sample_size(2, 0.1) == 416


def test_held_out_seed_passes_every_check(tmp_path):
    """One command of each shape: failures must all be c08 overflows."""
    cli = run._import_cli()
    for workload in decks.WORKLOADS:
        deck = decks.build_deck(workload, HELD_OUT_SEED)
        decks.write_inputs(deck, tmp_path / workload)
        shapes = {}
        for c in deck.commands:
            shapes.setdefault(c.shape, c)
        refs = checks.References()
        records = [run.execute(cli, c, tmp_path / workload, refs) for c in shapes.values()]
        assert not any(r.verdict.wrong for r in records), [r.verdict.reason for r in records]
        failed = [r for r in records if r.verdict.failed]
        for r in failed:
            assert r.cmd.grammar.name == "c08" and r.cmd.length >= C08_OVERFLOW_LENGTH
            assert "Infinity" in r.verdict.reason
        assert len(failed) == (workload == "likelihood-narrow")
