import gc
import linecache
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramhmm import inference
from gramhmm.grammar import parse_grammar, union
from gramhmm.hmm import Hmm, random_hmm, uniform_hmm
from gramhmm.inference import (
    FOLD_ENTRIES,
    FOLD_STATES,
    AttestationError,
    InferenceError,
    NumericalError,
    forward_table,
    likelihood_upto,
    ucfg_likelihood,
    weighted_mass,
)
from gramhmm.oracle import brute_force_weighted_mass, max_ambiguity

from conftest import live_products, on_map, random_grammar, random_instance, refuse_allocation

# A derives lengths 1, 2 and 4 only, so pair (A, C) has live splits 1, 2, 4
# from l = 5 on; pair (A, A) is added into S before it
UNEVEN = parse_grammar("start S\nS -> A A\nS -> A C\nA -> P P\nA -> Q Q\nQ -> P P\n"
                       "C -> C C\nA -> 'a'\nP -> 'a'\nC -> 'a'\nC -> 'b'")
TWO_CPUS = pytest.mark.skipif(inference._cpu_count() < 2,
                              reason="the fold's helper thread runs only on two CPUs or more")


def rare_b(pr_b):
    """S derives b^l once at every length l, so its mass is pr_b^l; at
    Pr(b) = 0.001 that is subnormal from l = 103 and 0.0 from l = 108, while
    the start stays live."""
    g = parse_grammar("start S\nS -> B S\nS -> 'b'\nB -> 'b'\nA -> 'a'")
    return g, Hmm(np.array([1.0]), {"a": np.array([[1 - pr_b]]), "b": np.array([[pr_b]])})


def full_loop_layers(g, model, L):
    """Reference: the split-then-rule loop that forms every product, live or not."""
    n = model.state_count
    layers = np.zeros((L, g.nonterminal_count, n, n))
    for a, s in g.lexical_rules:
        layers[0, a] += model.matrices[s]
    for l in range(2, L + 1):
        cur = layers[l - 1]
        for m in range(1, l):
            lo, hi = layers[m - 1], layers[l - m - 1]
            for a, b, c in g.binary_rules:
                cur[a] += lo[b] @ hi[c]
    return layers


def assert_close_to_full_loop(table, rel=1e-12):
    """Layers within ``rel`` of the full loop's (zeros exactly zero), and
    ``live`` marking the nonzero blocks (random_hmm's entries are positive)."""
    ref = full_loop_layers(table.grammar, table.model, table.length)
    assert np.all(np.abs(table.layers - ref) <= rel * ref)
    assert np.array_equal(table.live, (table.layers > 0).any(axis=(2, 3)))


def fold_0_16_layers(g, model, L):
    """Reference: the layers and ``live`` of gramhmm 0.16.0's folded table,
    which grouped each layer's live products by pair in a Python pass."""
    N, n = g.nonterminal_count, model.state_count
    layers = np.zeros((L, N, n, n))
    live = np.zeros((L, N), dtype=bool)
    for a, s in g.lexical_rules:
        layers[0, a] += model.matrices[s]
        live[0, a] = True
    # the children pairs in sorted order and their parents, from the rule tuples
    parents_of = {}
    for a, b, c in g.binary_rules:
        parents_of.setdefault((b, c), []).append(a)
    fan = [(b, c, parents_of[b, c]) for b, c in sorted(parents_of)]
    B, C = np.array([(b, c) for b, c, _ in fan], dtype=np.intp).reshape(-1, 2).T
    views = [list(layer) for layer in layers]
    stack = np.empty((min(max(1, FOLD_ENTRIES // (n * n)), L), n, n))
    chunk = len(stack)
    for l in range(2, L + 1):
        cur, row, splits_of = views[l - 1], [False] * N, [[] for _ in fan]
        split, pair = live_products(live, l, B, C)
        for i, p in zip(split.tolist(), pair.tolist()):
            splits_of[p].append(i)
        for (b, c, parents), splits in zip(fan, splits_of):
            if not splits:
                continue
            i, j, k = splits[0], splits[-1], len(splits)
            d = splits[1] - i if k > 1 else 0
            if k > 1 and splits == list(range(i, j + 1, d)):
                left, right = layers[i:j + 1:d, b], layers[l - 2 - i::-d, c][:k]
                parts = (np.add.reduce(np.matmul(left[at:at + chunk], right[at:at + chunk],
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
    return layers, live


def split_steps(table):
    """Spacing of each children pair's live splits over layers 2..L: 0 for
    one split, d for evenly spaced ones, None otherwise."""
    B, C = table.grammar.pairs.T
    steps = set()
    for l in range(2, table.length + 1):
        split, pair = live_products(table.live, l, B, C)
        for p in np.unique(pair):
            gaps = set(np.diff(split[pair == p]).tolist())
            steps.add(gaps.pop() if len(gaps) == 1 else None if gaps else 0)
    return steps


class TestForwardTable:
    def test_base_layer_single_rule(self):
        g = parse_grammar("start S\nS -> 'a'")
        m = uniform_hmm("ab")
        with pytest.raises(InferenceError, match="alphabet"):
            forward_table(g, m, 1)
        g2 = parse_grammar("start S\nS -> 'a'\nT -> 'b'")
        table = forward_table(g2, m, 1)
        assert table.layer(1)[g2.start] == pytest.approx(np.array([[0.5]]))

    def test_base_layer_sums_lexical_rules(self):
        g = parse_grammar("start S\nS -> 'a'\nS -> 'b'")
        m = random_hmm(2, "ab", seed=3)
        table = forward_table(g, m, 1)
        expected = m.matrices["a"] + m.matrices["b"]
        assert np.array_equal(table.layer(1)[0], expected)

    def test_dyck_length_2(self, dyck, paren_uniform):
        table = forward_table(dyck, paren_uniform, 2)
        assert table.contract(2) == pytest.approx(0.25, abs=1e-15)

    def test_catalan_mass(self, ss_grammar):
        m = uniform_hmm("a")
        assert weighted_mass(ss_grammar, m, 4).value == pytest.approx(5.0, abs=1e-12)

    def test_entries_nonnegative(self):
        rng = np.random.default_rng(2)
        g, m = random_instance(rng)
        table = forward_table(g, m, 5)
        for l in range(1, 6):
            assert np.all(table.layer(l) >= 0)

    def test_invalid_length(self, dyck, paren_uniform):
        with pytest.raises(InferenceError):
            forward_table(dyck, paren_uniform, 0)

    def test_alphabets_compare_as_sorted_tuples(self, universal_ab):
        # the HMM's order of declaration does not matter; its symbols do
        assert forward_table(universal_ab, random_hmm(2, "ba", seed=1), 2).length == 2
        with pytest.raises(InferenceError, match=re.escape(
                "alphabet mismatch: grammar ['a', 'b'] vs HMM ['a', 'b', 'c']") + "$"):
            forward_table(universal_ab, uniform_hmm("cba"), 2)

    def test_layers_are_one_read_only_array(self):
        g = parse_grammar("start S\nS -> S S\nS -> 'a'\nS -> 'b'\nT -> 'a'")
        m = random_hmm(3, "ab", seed=4)
        table = forward_table(g, m, 5)
        assert table.layers.shape == (5, 2, 3, 3) and table.length == 5
        assert table.layers.dtype == np.float64
        assert table.layers.flags.c_contiguous and not table.layers.flags.writeable
        for l in range(1, 6):
            assert np.shares_memory(table.layer(l), table.layers)
        assert table.live.shape == (5, 2) and table.live.dtype == bool
        assert not table.live.flags.writeable
        # random_hmm's entries are strictly positive
        assert np.array_equal(table.live, (table.layers > 0).any(axis=(2, 3)))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.booleans())
    def test_live_products_match_full_loop(self, seed, L, sparse):
        # random_hmm's entries are strictly positive, so F_l[a] has a
        # positive entry exactly when a derives some string of length l; a
        # dense grammar's nonterminals derive most lengths, so one parent
        # gets many products per layer, which must add in the loop's order
        rng = np.random.default_rng(seed)
        g = random_grammar(rng, sparse=sparse)
        model = random_hmm(int(rng.integers(1, FOLD_STATES)), g.alphabet,
                           int(rng.integers(0, 2**31)))
        table = forward_table(g, model, L)
        assert np.array_equal(table.layers, full_loop_layers(g, model, L))
        assert np.array_equal(table.live, (table.layers > 0).any(axis=(2, 3)))

    @pytest.mark.parametrize("states", range(1, FOLD_STATES))
    def test_chunk_boundaries_match_full_loop(self, c08, states, monkeypatch):
        # chunks of 100 // n**2 = 100, 25, 11, 6, 4, 2 and 2 products at
        # n = 1..7, against c08's 14 * (l - 1): from layer 9 on every layer
        # spans several chunks, so each parent's products are cut between
        # chunks and must still add in the loop's order
        monkeypatch.setattr(inference, "FOLD_ENTRIES", 100)
        model = random_hmm(states, "ab", seed=20 + states)
        table = forward_table(c08, model, 30)
        rule_b, rule_c = np.array([(b, c) for _, b, c in c08.binary_rules]).T
        assert len(live_products(table.live, 9, rule_b, rule_c)[0]) > 100 // states**2
        assert np.array_equal(table.layers, full_loop_layers(c08, model, 30))
        assert np.array_equal(table.live, (table.layers > 0).any(axis=(2, 3)))

    def test_products_across_chunks_match_full_loop(self, c08):
        # at n=7 a chunk holds FOLD_ENTRIES // 49 = 1337 products, and c08's
        # layers l = 97..110 have 14 * (l - 1) live ones, so they span a
        # chunk boundary and still add in the loop's order
        model = random_hmm(7, "ab", seed=11)
        table = forward_table(c08, model, 110)
        rule_b, rule_c = np.array([(b, c) for _, b, c in c08.binary_rules]).T
        assert len(live_products(table.live, 110, rule_b, rule_c)[0]) > FOLD_ENTRIES // 49
        assert np.isfinite(table.layers).all()
        assert np.array_equal(table.layers, full_loop_layers(c08, model, 110))
        assert np.array_equal(table.live, (table.layers > 0).any(axis=(2, 3)))

    @pytest.mark.parametrize("states", [1, 3, 8, 9])
    @pytest.mark.parametrize("text, L", [
        # lexical rules only: no rules, so the index rows are empty
        ("start S\nS -> 'a'\nS -> 'b'\nT -> 'a'", 6),
        # X derives nothing, so no binary rule is ever live
        ("start S\nS -> S X\nS -> X S\nX -> X X\nS -> 'a'\nS -> 'b'", 6),
        # one layer: no splits, so the index rows are empty
        ("start S\nS -> S S\nS -> 'a'\nS -> 'b'", 1),
    ])
    def test_no_live_products(self, text, L, states):
        g = parse_grammar(text)
        model = random_hmm(states, "ab", seed=states)
        table = forward_table(g, model, L)
        assert not table.layers[1:].any() and not table.live[1:].any()
        assert np.array_equal(table.layers, full_loop_layers(g, model, L))
        assert np.array_equal(table.live, (table.layers > 0).any(axis=(2, 3)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.booleans())
    def test_three_product_chunks_match_full_loop(self, seed, L, sparse):
        # chunks of 3 products cut a parent's products of one layer between
        # chunks, which must still add in the loop's order
        rng = np.random.default_rng(seed)
        g = random_grammar(rng, sparse=sparse)
        states = int(rng.integers(1, FOLD_STATES))
        model = random_hmm(states, g.alphabet, int(rng.integers(0, 2**31)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inference, "FOLD_ENTRIES", 3 * states * states)
            table = forward_table(g, model, L)
        assert np.array_equal(table.layers, full_loop_layers(g, model, L))
        assert np.array_equal(table.live, (table.layers > 0).any(axis=(2, 3)))

    def test_long_one_state_dyck(self, dyck, paren_uniform):
        # C_1000 / 2^2000, the share of balanced strings among all of length
        # 2000; the pinned float is the per-product loop's
        value = ucfg_likelihood(dyck, paren_uniform, 2000, unambiguity_attested=True).value
        assert value == 1.782118995589849e-05
        assert value == pytest.approx(
            float(Fraction(math.comb(2000, 1000), 1001 * 2**2000)), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_shared_pairs_match_full_loop(self, seed1, seed2, L):
        # the start copies of a union share children pairs with their side,
        # so one pair product feeds several parents
        g = union(random_grammar(np.random.default_rng(seed1)),
                  random_grammar(np.random.default_rng(seed2)))
        model = random_hmm(int(np.random.default_rng(seed1 ^ seed2).integers(1, 4)),
                           g.alphabet, seed1)
        table = forward_table(g, model, L)
        assert np.array_equal(table.layers, full_loop_layers(g, model, L))
        assert np.array_equal(table.live, (table.layers > 0).any(axis=(2, 3)))
        exact = brute_force_weighted_mass(g, model, L)
        assert weighted_mass(g, model, L).value == pytest.approx(exact, rel=1e-9)

    def test_overflow_gives_inf_not_nan(self):
        # F_l[Z] is zero for l >= 2.  The full loop multiplies F_2[Z] by the
        # overflowed S layers and gets 0 * inf = NaN; the live products alone
        # leave those entries inf, on the batched and the folded path alike.
        # The S rows overflow at about the same length at every n: first at
        # l = 466, 451, 453, 450 and 451 for n = 1, 3, 7, 8 and 9
        g = parse_grammar("start S\nS -> S S\nS -> Z S\nS -> 'a'\nS -> 'b'\nZ -> 'a'")
        for states in (1, 3, 7, 8, 9):
            with np.errstate(over="ignore", invalid="ignore"):
                table = forward_table(g, random_hmm(states, "ab", seed=5), 480)
            assert not np.isnan(table.layers).any()
            # inf only in rows of F_l[S] that overflowed and stay so
            inf = np.isinf(table.layers)
            rows = inf[:, g.start].any(axis=2)
            assert not inf[:, g.nonterminal_names.index("Z")].any()
            assert np.array_equal(rows, np.logical_or.accumulate(rows, axis=0))
            assert not rows[:440].any() and inf[470:, g.start].all()


class TestFoldedTable:
    """From FOLD_STATES states on, each children pair's live splits are
    summed by stacked products, one per run of evenly spaced splits, so the
    layers differ from the loop's in the last bits."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["dense", "sparse", "union"]),
           st.integers(FOLD_STATES, 12), st.integers(1, 10))
    def test_matches_full_loop(self, seed, kind, states, L):
        rng = np.random.default_rng(seed)
        if kind == "union":
            g = union(random_grammar(rng), random_grammar(rng, sparse=True))
        else:
            g = random_grammar(rng, sparse=kind == "sparse")
        model = random_hmm(states, g.alphabet, int(rng.integers(0, 2**31)))
        assert_close_to_full_loop(forward_table(g, model, L))
        # brute force walks |alphabet|^L strings, at most 3^6 here
        short = min(L, 6)
        exact = brute_force_weighted_mass(g, model, short)
        assert weighted_mass(g, model, short).value == pytest.approx(exact, rel=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([8, 9]),
           st.integers(1, 24))
    def test_matches_0_16_fold(self, seed, sparse, states, L):
        # grouping each layer's products by pair changes no sum and no order
        rng = np.random.default_rng(seed)
        g = random_grammar(rng, sparse=sparse)
        model = random_hmm(states, g.alphabet, int(rng.integers(0, 2**31)))
        table = forward_table(g, model, L)
        layers, live = fold_0_16_layers(g, model, L)
        assert np.array_equal(table.layers, layers)
        assert np.array_equal(table.live, live)

    def test_contiguous_splits_in_chunks(self, c08):
        # every split of every pair is live; at n=64 a chunk holds 16 splits
        table = forward_table(c08, random_hmm(64, "ab", seed=5), 40)
        assert split_steps(table) == {0, 1}
        assert_close_to_full_loop(table)

    def test_every_other_split(self, dyck):
        table = forward_table(dyck, random_hmm(8, "()", seed=6), 30)
        assert 2 in split_steps(table)
        assert_close_to_full_loop(table)

    def test_one_live_split_per_pair(self, universal_ab):
        g = union(universal_ab, universal_ab)
        table = forward_table(g, random_hmm(8, "ab", seed=7), 30)
        assert split_steps(table) == {0}
        assert_close_to_full_loop(table)

    def test_unevenly_spaced_splits(self):
        g = UNEVEN
        model = random_hmm(8, "ab", seed=10)
        table = forward_table(g, model, 12)
        assert None in split_steps(table)
        assert_close_to_full_loop(table)
        # one run per uneven split adds the products in 0.16.0's order
        layers, live = fold_0_16_layers(g, model, 12)
        assert np.array_equal(table.layers, layers)
        assert np.array_equal(table.live, live)

    def test_rebuild_is_bitwise_equal(self, c08):
        model = random_hmm(16, "ab", seed=8)
        assert np.array_equal(forward_table(c08, model, 30).layers,
                              forward_table(c08, model, 30).layers)

    @pytest.fixture
    def threads(self, monkeypatch):
        """The threads that summed the fold's runs, one entry per run; with
        THREAD_WORK at 0, every layer of two runs or more uses the helper."""
        summed = []
        run_sum = inference._run_sum

        def recorded(*args):
            summed.append(threading.current_thread())
            run_sum(*args)

        monkeypatch.setattr(inference, "_run_sum", recorded)
        monkeypatch.setattr(inference, "THREAD_WORK", 0)
        return summed

    @TWO_CPUS
    @pytest.mark.parametrize("states", [48, 64])
    @pytest.mark.parametrize("shape", ["c08", "dyck", "union", "uneven"])
    def test_worker_changes_no_bit(self, shape, states, threads, monkeypatch, request):
        # c08's runs cross chunks (28 splits at n=48, 16 at n=64), Dyck's
        # splits are every other one, union(u, u) has one per pair, and
        # UNEVEN one run per split
        if shape == "union":
            u = request.getfixturevalue("universal_ab")
            g = union(u, u)
        else:
            g = UNEVEN if shape == "uneven" else request.getfixturevalue(shape)
        assert inference.THREAD_STATES[0] <= states < inference.THREAD_STATES[1]
        model = random_hmm(states, g.alphabet, seed=11)
        table = forward_table(g, model, 32)
        assert threading.main_thread() in threads and len(set(threads)) == 2
        monkeypatch.setattr(inference, "THREAD_STATES", (0, 0))
        del threads[:]
        serial = forward_table(g, model, 32)
        assert set(threads) == {threading.main_thread()}
        assert np.array_equal(table.layers, serial.layers)
        assert np.array_equal(table.live, serial.live)
        layers, live = fold_0_16_layers(g, model, 32)
        assert np.array_equal(table.layers, layers)
        assert np.array_equal(table.live, live)

    @staticmethod
    def serial_layers(g, model, L, monkeypatch):
        with monkeypatch.context() as serial_only:
            serial_only.setattr(inference, "THREAD_STATES", (0, 0))
            return forward_table(g, model, L).layers

    @TWO_CPUS
    def test_worker_rebuilds_are_bitwise_equal(self, c08, threads, monkeypatch):
        # each rebuild's runs after the cut are on a gramhmm-fold helper of
        # that table alone
        model = random_hmm(64, "ab", seed=12)
        serial = self.serial_layers(c08, model, 30, monkeypatch)
        helpers = []
        for _ in range(20):
            del threads[:]
            assert np.array_equal(forward_table(c08, model, 30).layers, serial)
            side = {t for t in threads if t is not threading.main_thread()}
            assert [t.name for t in side] == ["gramhmm-fold"]
            helpers += side
        assert len(set(helpers)) == 20

    @TWO_CPUS
    def test_concurrent_tables_have_their_own_helpers(self, c08, threads, monkeypatch):
        # four threads build in-band tables at once: each table hands its
        # runs after the cut to a helper of its own, which sums the same runs
        # as for a table built alone; every table has the serial bits, and
        # no helper outlives its table
        model = random_hmm(48, "ab", seed=13)
        serial = self.serial_layers(c08, model, 20, monkeypatch)
        assert np.array_equal(forward_table(c08, model, 20).layers, serial)
        per_table = sum(t.name == "gramhmm-fold" for t in threads)
        assert per_table > 0
        del threads[:]
        built = []

        def build():
            for _ in range(3):
                built.append(np.array_equal(forward_table(c08, model, 20).layers, serial))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            builders = [threading.Thread(target=build) for _ in range(4)]
            for t in builders:
                t.start()
            for t in builders:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in builders)
        assert built == [True] * 12
        assert sum(t.name == "gramhmm-fold" for t in threads) == 12 * per_table
        helpers = {t for t in threads if t.name == "gramhmm-fold"}
        assert len(helpers) == 12
        for t in helpers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in helpers)

    @TWO_CPUS
    def test_worker_error_reaches_the_caller(self, c08, monkeypatch):
        class Failure(Exception):
            pass

        run_sum = inference._run_sum

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise Failure("raised in the worker")
            run_sum(*args)

        model = random_hmm(64, "ab", seed=14)
        serial = forward_table(c08, model, 24).layers
        monkeypatch.setattr(inference, "_run_sum", failing)
        with pytest.raises(Failure, match="raised in the worker"):
            forward_table(c08, model, 24)
        # the worker is free again, and the next table keeps the bits
        monkeypatch.setattr(inference, "_run_sum", run_sum)
        assert np.array_equal(forward_table(c08, model, 24).layers, serial)

    @TWO_CPUS
    def test_interrupt_in_own_runs_does_not_wait_for_the_helper(self, c08, monkeypatch):
        # a KeyboardInterrupt in the caller's own runs propagates while the
        # helper is held inside its job; released, the helper finishes that
        # job and ends, with the cyclic garbage collector off, as the
        # interrupted table is freed
        model = random_hmm(64, "ab", seed=16)
        run_sum, main = inference._run_sum, threading.main_thread()
        monkeypatch.setattr(inference, "THREAD_WORK", 0)
        helped = []

        def recorded(layers, l, run, *args):
            if threading.current_thread() is not main:
                helped.append((l, run))
            run_sum(layers, l, run, *args)

        # the runs of the first layer handed to the helper, in an uninterrupted build
        monkeypatch.setattr(inference, "_run_sum", recorded)
        forward_table(c08, model, 24)
        first_job = [run for l, run in helped if l == helped[0][0]]
        before = set(threading.enumerate())
        entered, release, helpers, finished = threading.Event(), threading.Event(), [], []

        def held(layers, l, run, *args):
            if threading.current_thread() is not main:
                helpers.append(threading.current_thread())
                entered.set()
                release.wait(timeout=10)
                run_sum(layers, l, run, *args)
                finished.append(run)
                return
            if any(t.name == "gramhmm-fold" for t in set(threading.enumerate()) - before):
                assert entered.wait(timeout=10)
                raise KeyboardInterrupt
            run_sum(layers, l, run, *args)

        monkeypatch.setattr(inference, "_run_sum", held)
        gc.disable()
        try:
            with pytest.raises(KeyboardInterrupt):
                forward_table(c08, model, 24)
            # add left while the helper was held inside its job
            assert helpers[0].is_alive() and not finished
        finally:
            release.set()
            for t in set(helpers):
                t.join(timeout=10)
            gc.enable()
        assert len(set(helpers)) == 1 and not helpers[0].is_alive()
        assert finished == first_job

    @TWO_CPUS
    def test_interrupted_wait_frees_the_helper(self, c08, threads, monkeypatch):
        # a KeyboardInterrupt while the caller waits for the helper's answer
        # propagates, the helper ends, with the cyclic garbage collector off,
        # as the interrupted table is freed, and the next table in the band
        # has the serial bits, summed on a helper of its own
        model = random_hmm(64, "ab", seed=16)
        serial = self.serial_layers(c08, model, 24, monkeypatch)
        run_sum, main, landed = inference._run_sum, threading.main_thread(), []

        def waiting():
            # the main thread's frame is blocked on the answer queue
            frame = sys._current_frames()[main.ident]
            line = linecache.getline(frame.f_code.co_filename, frame.f_lineno)
            return frame.f_code.co_name == "add" and "done.get()" in line

        def signalling(*args):
            # the helper's first run signals the caller once it waits
            if threading.current_thread() is not main and not landed:
                deadline = time.monotonic() + 10
                while not waiting() and time.monotonic() < deadline:
                    time.sleep(0.001)
                signal.pthread_kill(main.ident, signal.SIGALRM)
            run_sum(*args)

        def interrupt(signum, frame):
            landed.append(linecache.getline(frame.f_code.co_filename, frame.f_lineno))
            raise KeyboardInterrupt

        monkeypatch.setattr(inference, "_run_sum", signalling)
        previous = signal.signal(signal.SIGALRM, interrupt)
        gc.disable()
        try:
            with pytest.raises(KeyboardInterrupt):
                forward_table(c08, model, 24)
            helpers = {t for t in threads if t is not main}
            for t in helpers:
                t.join(timeout=10)
        finally:
            gc.enable()
            signal.signal(signal.SIGALRM, previous)
        assert len(landed) == 1 and "done.get()" in landed[0]
        assert [t.name for t in helpers] == ["gramhmm-fold"]
        assert not any(t.is_alive() for t in helpers)
        del threads[:]
        assert np.array_equal(forward_table(c08, model, 24).layers, serial)
        side = {t for t in threads if t is not main}
        assert [t.name for t in side] == ["gramhmm-fold"] and not side & helpers

    @TWO_CPUS
    def test_worker_without_an_affinity_mask(self, c08, threads, monkeypatch):
        # where os has no sched_getaffinity (macOS), the gate counts all CPUs
        model = random_hmm(64, "ab", seed=17)
        with monkeypatch.context() as serial_only:
            serial_only.setattr(inference, "THREAD_STATES", (0, 0))
            serial = forward_table(c08, model, 24).layers
        monkeypatch.delattr(os, "sched_getaffinity")
        del threads[:]
        assert np.array_equal(forward_table(c08, model, 24).layers, serial)
        assert len(set(threads)) == 2

    # a child program's prelude: ``helpers`` collects the names of the
    # threads that summed the fold's runs, and every layer of two runs or
    # more is cut
    RECORD_RUNS = [
        "import threading",
        "from gramhmm import inference",
        "run_sum, helpers = inference._run_sum, set()",
        "def recorded(*args):",
        "    if threading.current_thread() is not threading.main_thread():",
        "        helpers.add(threading.current_thread().name)",
        "    run_sum(*args)",
        "inference._run_sum, inference.THREAD_WORK = recorded, 0",
    ]

    def test_import_and_fold_without_register_at_fork(self, universal_ab, monkeypatch):
        # where os has no register_at_fork (Windows), gramhmm imports, and on
        # two CPUs or more a table in the band hands runs to its helper and
        # gets the serial bits
        program = "\n".join([
            "import os",
            "del os.register_at_fork",
            *self.RECORD_RUNS,
            "from gramhmm.hmm import random_hmm",
            "from gramhmm.grammar import universal_grammar",
            "g = universal_grammar('ab')",
            "model = random_hmm(inference.THREAD_STATES[0], 'ab', seed=0)",
            "print(inference.forward_table(g, model, 12).contract(12).hex(), sorted(helpers))",
        ])
        done = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        model = random_hmm(inference.THREAD_STATES[0], "ab", seed=0)
        with monkeypatch.context() as serial_only:
            serial_only.setattr(inference, "THREAD_STATES", (0, 0))
            serial = forward_table(universal_ab, model, 12).contract(12)
        helpers = ["gramhmm-fold"] if inference._cpu_count() >= 2 else []
        assert done.stdout == f"{serial.hex()} {helpers}\n"

    @TWO_CPUS
    def test_forked_child_starts_its_own_worker(self, c08, threads):
        # the child of a fork has no worker thread; without a new one its
        # first table in the band would wait for the parent's forever
        model = random_hmm(48, "ab", seed=15)
        first = forward_table(c08, model, 20).layers
        assert len(set(threads)) == 2
        pid = os.fork()
        if pid == 0:  # the child exits by os._exit alone, whatever happens
            try:
                signal.alarm(60)
                os._exit(0 if np.array_equal(forward_table(c08, model, 20).layers, first) else 1)
            finally:
                os._exit(2)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_worker_starts_with_the_first_table_in_band(self):
        # a fresh process: importing the CLI starts no thread, nor does a
        # table on the batched path or the fold outside the band; a table in
        # the band starts its helper, on two CPUs or more, and none is left
        # once its table is built
        program = "\n".join([
            "import gramhmm.cli",
            *self.RECORD_RUNS,
            "from gramhmm.grammar import universal_grammar",
            "from gramhmm.hmm import random_hmm",
            "from gramhmm.inference import THREAD_STATES, forward_table",
            "g = universal_grammar('ab')",
            "counts = [threading.active_count()]",
            "for n in (4, 16, THREAD_STATES[1], THREAD_STATES[0], THREAD_STATES[0]):",
            "    helpers.clear()",
            "    forward_table(g, random_hmm(n, 'ab', seed=0), 12)",
            "    for t in threading.enumerate():",
            "        if t.name == 'gramhmm-fold':",
            "            t.join(timeout=60)",
            "    counts.append((threading.active_count(), sorted(helpers)))",
            "print(counts)",
        ])
        done = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        helper = ["gramhmm-fold"] if inference._cpu_count() >= 2 else []
        assert done.stdout == str([1, (1, []), (1, []), (1, []), (1, helper), (1, helper)]) + "\n"

    @TWO_CPUS
    @pytest.mark.parametrize("failure", [None, "helper", "caller", "both"])
    def test_no_helper_outlives_its_table(self, c08, monkeypatch, failure):
        # a normal build, an error raised in the helper, a KeyboardInterrupt
        # in the caller's own runs, and both: once the table's kernel is freed
        # its helper ends, with the cyclic garbage collector off, so no
        # reference cycle holds the kernel
        class Failure(Exception):
            pass

        model = random_hmm(64, "ab", seed=18)
        serial = self.serial_layers(c08, model, 24, monkeypatch)
        run_sum, main, helpers = inference._run_sum, threading.main_thread(), set()
        before = set(threading.enumerate())

        def failing(*args):
            if threading.current_thread() is not main:
                helpers.add(threading.current_thread())
                if failure in ("helper", "both"):
                    raise Failure("raised in the helper")
            elif failure in ("caller", "both"):
                helpers.update(t for t in threading.enumerate()
                               if t.name == "gramhmm-fold" and t not in before)
                if helpers:
                    raise KeyboardInterrupt
            run_sum(*args)

        monkeypatch.setattr(inference, "_run_sum", failing)
        monkeypatch.setattr(inference, "THREAD_WORK", 0)
        expected = {None: None, "helper": Failure}.get(failure, KeyboardInterrupt)
        gc.disable()
        try:
            if expected is None:
                assert np.array_equal(forward_table(c08, model, 24).layers, serial)
            else:
                with pytest.raises(expected):
                    forward_table(c08, model, 24)
            for t in helpers:
                t.join(timeout=10)
        finally:
            gc.enable()
        assert helpers and not any(t.is_alive() for t in helpers)

    def test_loop_below_fold_states(self, c08):
        assert FOLD_STATES == 8
        model = random_hmm(7, "ab", seed=9)
        assert np.array_equal(forward_table(c08, model, 20).layers,
                              full_loop_layers(c08, model, 20))


class TestAllocation:
    """A table of at most FOLD_ENTRIES entries is on the heap, a larger one
    on a lazily paged map (``inference._zeros``)."""

    @pytest.mark.parametrize("entries, mapped", [(1, False), (FOLD_ENTRIES, False),
                                                 (FOLD_ENTRIES + 1, True)])
    def test_cut(self, entries, mapped):
        a = inference._zeros((entries,), "an array")
        assert on_map(a) == mapped
        assert a.dtype == np.float64 and a.flags.writeable and a.flags.c_contiguous
        assert not a.any()

    @pytest.mark.parametrize("states, size", [(1, 160), (64, 655360)], ids=["heap", "map"])
    def test_refused_table_is_inference_error(self, dyck, states, size, monkeypatch):
        # 4 layers of 5 nonterminals: 20 blocks of states x states entries
        model = random_hmm(states, "()", seed=1)
        refuse_allocation(monkeypatch, (4, 5, states, states))
        with pytest.raises(InferenceError, match=f"^forward table for length 4 needs {size} "
                                                 "bytes and cannot be allocated: no room$"):
            forward_table(dyck, model, 4)


class TestWeightedMass:
    def test_universal_is_one(self, universal_ab):
        m = random_hmm(3, "ab", seed=9)
        assert weighted_mass(universal_ab, m, 5).value == pytest.approx(1.0, abs=1e-9)

    def test_doubled_universal(self, universal_ab):
        g = union(universal_ab, universal_ab)
        assert weighted_mass(g, uniform_hmm("ab"), 3).value == pytest.approx(2.0, abs=1e-12)

    def test_dyck(self, dyck, paren_uniform):
        assert weighted_mass(dyck, paren_uniform, 4).value == pytest.approx(0.125, abs=1e-15)

    def test_contract_out_of_range(self, dyck, paren_uniform):
        table = forward_table(dyck, paren_uniform, 6)
        assert table.contract(6) == weighted_mass(dyck, paren_uniform, 6).value == 0.078125
        with pytest.raises(InferenceError, match="out of range"):
            table.contract(8)

    @pytest.mark.parametrize("states", [1, 3, 8, 17, 48])
    def test_contract_from_a_nonterminal_or_an_index_array(self, c08, states):
        # from the start by default, with the bits of pi' @ (F_l[S] summed
        # over t); an index array gives one mass per entry, with the bits of
        # the gemv of the summed blocks against pi'
        table = forward_table(c08, random_hmm(states, "ab", seed=19), 9)
        pi = table.model.initial
        for l in range(1, 10):
            f = table.layer(l)
            mass = table.contract(l)
            assert type(mass) is float
            assert mass == float(pi @ f[c08.start].sum(axis=1))
            masses = [table.contract(l, a) for a in range(c08.nonterminal_count)]
            assert masses[c08.start] == mass
            both = table.contract(l, np.array([2, 0, 2]))
            assert np.array_equal(both, f[[2, 0, 2]].sum(axis=2) @ pi)
            assert both.tolist() == pytest.approx([masses[2], masses[0], masses[2]], rel=1e-14)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(1000 + seed)
        g, m = random_instance(rng)
        L = int(rng.integers(1, 7))
        exact = brute_force_weighted_mass(g, m, L)
        got = weighted_mass(g, m, L).value
        assert got == pytest.approx(exact, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_bounded_by_max_ambiguity(self, seed):
        rng = np.random.default_rng(50 + seed)
        g, m = random_instance(rng)
        L = int(rng.integers(1, 6))
        assert weighted_mass(g, m, L).value <= max_ambiguity(g, L) + 1e-9

    @pytest.mark.parametrize("L", range(103, 111))
    def test_underflowed_mass_is_numerical_error(self, L):
        g, m = rare_b(0.001)
        value = forward_table(g, m, L).contract(L)
        assert value < np.finfo(float).tiny
        message = re.escape(f"weighted mass {value!r} at length {L} is not a normal float64")
        with pytest.raises(NumericalError, match=f"^{message}$"):
            weighted_mass(g, m, L)
        with pytest.raises(NumericalError, match=f"^{message}$"):
            ucfg_likelihood(g, m, L, unambiguity_attested=True)

    def test_last_normal_mass_is_returned(self):
        g, m = rare_b(0.001)
        assert weighted_mass(g, m, 102).value == pytest.approx(1e-306, rel=1e-12)

    def test_exact_zero_of_a_live_start_is_numerical_error(self):
        # liveness depends on the grammar alone, so Pr(b) = 0 reads as an underflow
        g, m = rare_b(0.0)
        with pytest.raises(NumericalError, match="^weighted mass 0.0 at length 1 is not a "
                                                 "normal float64$"):
            weighted_mass(g, m, 1)

    def test_dead_start_is_zero(self, dyck, paren_uniform):
        assert weighted_mass(dyck, paren_uniform, 5).value == 0.0


class TestUcfgLikelihood:
    def test_dyck_exact(self, dyck, paren_uniform):
        r = ucfg_likelihood(dyck, paren_uniform, 4, unambiguity_attested=True)
        assert r.value == pytest.approx(0.125, abs=1e-15)
        assert r.mode == "ucfg-exact"

    def test_odd_length_zero(self, dyck, paren_uniform):
        assert ucfg_likelihood(dyck, paren_uniform, 3, unambiguity_attested=True).value == 0.0

    def test_requires_attestation(self, dyck, paren_uniform):
        with pytest.raises(AttestationError, match="attest"):
            ucfg_likelihood(dyck, paren_uniform, 4)

    def test_broken_attestation_detected(self, universal_ab):
        g = union(universal_ab, universal_ab)
        with pytest.raises(AttestationError, match="violated"):
            ucfg_likelihood(g, uniform_hmm("ab"), 2, unambiguity_attested=True)


class TestLikelihoodUpto:
    def test_dyck(self, dyck, paren_uniform):
        r = likelihood_upto(dyck, paren_uniform, 4, unambiguity_attested=True)
        assert r.value == pytest.approx(0.375, abs=1e-15)
        assert r.mode == "upto-L"

    def test_no_short_derivations(self):
        g = parse_grammar("start S\nS -> A B\nA -> 'a'\nB -> 'b'")
        assert likelihood_upto(g, uniform_hmm("ab"), 1, unambiguity_attested=True).value == 0.0

    def test_underflowed_terms_leave_a_normal_sum(self):
        g, m = rare_b(0.001)
        r = likelihood_upto(g, m, 110, unambiguity_attested=True)
        assert r.value == pytest.approx(1 / 999, rel=1e-12)

    def test_zero_sum_over_live_lengths_is_numerical_error(self):
        g, m = rare_b(0.0)
        with pytest.raises(NumericalError, match="^likelihood 0.0 up to length 3 is not a "
                                                 "normal float64$"):
            likelihood_upto(g, m, 3, unambiguity_attested=True)

    def test_universal_sums_lengths(self, universal_ab):
        # each length contributes a full distribution; the sum may exceed 1
        r = likelihood_upto(universal_ab, uniform_hmm("ab"), 3, unambiguity_attested=True)
        assert r.value == pytest.approx(3.0, abs=1e-9)

    def test_increments_match_single_lengths(self, dyck, paren_uniform):
        vals = [
            likelihood_upto(dyck, paren_uniform, L, unambiguity_attested=True).value
            for L in range(1, 7)
        ]
        for L in range(2, 7):
            single = ucfg_likelihood(dyck, paren_uniform, L, unambiguity_attested=True).value
            assert abs((vals[L - 1] - vals[L - 2]) - single) <= 1e-12

