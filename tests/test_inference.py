import math
import os
import signal
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramhmm import inference
from gramhmm.grammar import parse_grammar, union
from gramhmm.hmm import random_hmm, uniform_hmm
from gramhmm.inference import (
    FOLD_ENTRIES,
    FOLD_STATES,
    AttestationError,
    InferenceError,
    forward_table,
    likelihood_upto,
    ucfg_likelihood,
    weighted_mass,
)
from gramhmm.oracle import brute_force_weighted_mass, max_ambiguity

from conftest import live_products, random_grammar, random_instance

# A derives lengths 1, 2 and 4 only, so pair (A, C) has live splits 1, 2, 4
# from l = 5 on; pair (A, A) is added into S before it
UNEVEN = parse_grammar("start S\nS -> A A\nS -> A C\nA -> P P\nA -> Q Q\nQ -> P P\n"
                       "C -> C C\nA -> 'a'\nP -> 'a'\nC -> 'a'\nC -> 'b'")
TWO_CPUS = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                              reason="the fold's worker thread runs only on two CPUs or more")


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
    B, C = g.pairs.T
    fan = [(b, c, np.flatnonzero(parents).tolist())
           for (b, c), parents in zip(g.pairs.tolist(), g.parents)]
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
        rule_b, rule_c = c08.pairs[np.nonzero(c08.parents)[0]].T
        assert len(live_products(table.live, 9, rule_b, rule_c)[0]) > 100 // states**2
        assert np.array_equal(table.layers, full_loop_layers(c08, model, 30))
        assert np.array_equal(table.live, (table.layers > 0).any(axis=(2, 3)))

    def test_products_across_chunks_match_full_loop(self, c08):
        # at n=7 a chunk holds FOLD_ENTRIES // 49 = 1337 products, and c08's
        # layers l = 97..110 have 14 * (l - 1) live ones, so they span a
        # chunk boundary and still add in the loop's order
        model = random_hmm(7, "ab", seed=11)
        table = forward_table(c08, model, 110)
        rule_b, rule_c = c08.pairs[np.nonzero(c08.parents)[0]].T
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
        THREAD_WORK at 0, every layer of two runs or more uses the worker."""
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

    @TWO_CPUS
    def test_worker_rebuilds_are_bitwise_equal(self, c08, threads):
        model = random_hmm(64, "ab", seed=12)
        first = forward_table(c08, model, 30).layers
        for _ in range(20):
            assert np.array_equal(forward_table(c08, model, 30).layers, first)
        assert len(set(threads)) == 2

    @TWO_CPUS
    def test_concurrent_tables_share_one_worker(self, c08, threads):
        # four threads build in-band tables at once: one of them holds the
        # worker at a time, the others fold alone, and every table has the
        # same bits
        model = random_hmm(48, "ab", seed=13)
        first = forward_table(c08, model, 20).layers
        built = []

        def build():
            for _ in range(3):
                built.append(np.array_equal(forward_table(c08, model, 20).layers, first))

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
        assert sum(t.name == "gramhmm-fold" for t in threading.enumerate()) == 1

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
        # table on the batched path or the fold outside the band; the first
        # table in the band starts the one worker, on two CPUs or more
        program = "\n".join([
            "import threading",
            "import gramhmm.cli",
            "from gramhmm.grammar import universal_grammar",
            "from gramhmm.hmm import random_hmm",
            "from gramhmm.inference import THREAD_STATES, forward_table",
            "g = universal_grammar('ab')",
            "counts = [threading.active_count()]",
            "for n in (4, 16, THREAD_STATES[1], THREAD_STATES[0], THREAD_STATES[0]):",
            "    forward_table(g, random_hmm(n, 'ab', seed=0), 12)",
            "    counts.append(threading.active_count())",
            "print(counts)",
        ])
        done = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        worker = 1 if len(os.sched_getaffinity(0)) >= 2 else 0
        assert done.stdout.split("\n")[0] == str([1, 1, 1, 1, 1 + worker, 1 + worker])

    def test_loop_below_fold_states(self, c08):
        assert FOLD_STATES == 8
        model = random_hmm(7, "ab", seed=9)
        assert np.array_equal(forward_table(c08, model, 20).layers,
                              full_loop_layers(c08, model, 20))


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

