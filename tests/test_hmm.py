import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramhmm.hmm import (
    STOCHASTICITY_TOL,
    Hmm,
    HmmError,
    format_hmm,
    parse_hmm,
    random_hmm,
    split_likelihood,
    string_likelihood,
    uniform_hmm,
)

from conftest import hidden_path_likelihood

UNIFORM_AB = json.dumps(
    {
        "states": 1,
        "alphabet": ["a", "b"],
        "initial": [1.0],
        "matrices": {"a": [[0.5]], "b": [[0.5]]},
    }
)

ALTERNATOR = json.dumps(
    {
        "states": 2,
        "alphabet": ["a", "b"],
        "initial": [1.0, 0.0],
        "matrices": {"a": [[0.0, 1.0], [0.0, 0.0]], "b": [[0.0, 0.0], [1.0, 0.0]]},
    }
)


def reference_matrix_error(n, matrices):
    """The first matrix error of the 0.25.0 constructor, which checked each
    symbol in the mapping's order and added it to a running total, or None;
    its sums are printed as plain floats, as they are now."""
    total = np.zeros((n, n))
    for sym, m in matrices.items():
        m = np.asarray(m, dtype=float)
        if m.shape != (n, n):
            return f"matrix for {sym!r} must be {n}x{n}"
        if not np.all(np.isfinite(m)):
            return f"matrix for {sym!r} has a non-finite entry"
        if np.any(m < 0):
            return f"matrix for {sym!r} has a negative entry"
        total += m
    rows = total.sum(axis=1)
    bad = np.abs(rows - 1.0) > STOCHASTICITY_TOL
    if np.any(bad):
        i = int(np.argmax(bad))
        return f"sum of symbol matrices is not row-stochastic: row {i} sums to {float(rows[i])!r}"
    return None


@st.composite
def spoiled_models(draw):
    """(n, mapping): a row-stochastic model in eighths with one to three
    entries spoiled, its symbols inserted in a random order.  Eighths add
    exactly in any order, so a row sum does not depend on the order of the
    symbols."""
    n = draw(st.integers(1, 3))
    symbols = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=5, unique=True))
    eighths = np.zeros((n, len(symbols) * n))
    for row in eighths:
        np.add.at(row, draw(st.lists(st.integers(0, row.size - 1), min_size=8, max_size=8)), 1)
    mats = {s: eighths[:, i * n:(i + 1) * n] / 8 for i, s in enumerate(symbols)}
    for _ in range(draw(st.integers(1, 3))):
        s = draw(st.sampled_from(symbols))
        kind = draw(st.sampled_from(["shape", "nan", "inf", "negative", "more", "zero"]))
        if kind == "shape":
            mats[s] = np.zeros(draw(st.sampled_from([(n + 1, n), (n, n + 1), (n,)])))
        elif mats[s].shape == (n, n):
            m = mats[s].copy()
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            m[i, j] = {"nan": math.nan, "inf": math.inf, "negative": -0.125,
                       "more": m[i, j] + 0.125, "zero": 0.0}[kind]
            mats[s] = m
    return n, {s: mats[s] for s in draw(st.permutations(symbols))}


class TestParse:
    def test_uniform(self):
        m = parse_hmm(UNIFORM_AB)
        assert m.state_count == 1
        assert string_likelihood(m, "ab") == pytest.approx(0.25, abs=0)

    def test_alternator(self):
        m = parse_hmm(ALTERNATOR)
        assert string_likelihood(m, "ab") == 1.0
        assert string_likelihood(m, "aa") == 0.0

    def test_substochastic_rejected(self):
        doc = json.loads(UNIFORM_AB)
        doc["matrices"]["b"] = [[0.4]]
        with pytest.raises(HmmError, match="stochastic"):
            parse_hmm(json.dumps(doc))

    def test_negative_entry_rejected(self):
        doc = json.loads(ALTERNATOR)
        doc["matrices"]["a"] = [[0.0, 1.5], [0.0, -0.5]]
        with pytest.raises(HmmError, match="negative"):
            parse_hmm(json.dumps(doc))

    def test_dimension_mismatch(self):
        doc = json.loads(ALTERNATOR)
        doc["initial"] = [1.0]
        with pytest.raises(HmmError, match="initial"):
            parse_hmm(json.dumps(doc))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_initial_rejected(self, value):
        with pytest.raises(HmmError, match="initial vector has a non-finite entry"):
            Hmm(initial=np.array([value]), matrices={"a": np.array([[1.0]])})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_matrix_rejected(self, value):
        doc = json.loads(UNIFORM_AB)
        doc["matrices"]["a"] = [[value]]
        with pytest.raises(HmmError, match="matrix for 'a' has a non-finite entry"):
            parse_hmm(json.dumps(doc))

    def test_non_object_document(self):
        with pytest.raises(HmmError, match="JSON object"):
            parse_hmm("7")

    def test_malformed_document(self):
        with pytest.raises(HmmError, match="malformed"):
            parse_hmm("{not json")

    @pytest.mark.parametrize("field, value, message", [
        ("states", [1], "states must be an integer"),
        ("states", None, "states must be an integer"),
        ("states", 1.7, "states must be an integer"),
        ("states", True, "states must be an integer"),
        ("initial", {}, "initial vector must be an array of numbers"),
        ("initial", ["1"], "initial vector must be an array of numbers"),
        ("matrices", [], "matrices must be an object"),
        ("initial", [True], "initial vector must be an array of numbers"),
        ("initial", [None], "initial vector must be an array of numbers"),
    ])
    def test_malformed_field_type(self, field, value, message):
        doc = json.loads(UNIFORM_AB)
        doc[field] = value
        with pytest.raises(HmmError, match=message):
            parse_hmm(json.dumps(doc))

    @pytest.mark.parametrize("matrix", [
        [0.5], [[0.5], 0.5], [[True]], [[0.5], [0.5, 0.5]], [["x"]], [[None]], [[[0.5]]],
    ])
    def test_malformed_matrix(self, matrix):
        doc = json.loads(UNIFORM_AB)
        doc["matrices"]["a"] = matrix
        with pytest.raises(HmmError, match="matrix for 'a' must be a rectangular array"):
            parse_hmm(json.dumps(doc))

    def test_matrix_outside_alphabet(self):
        doc = {"states": 1, "alphabet": ["a"], "initial": [1],
               "matrices": {"a": [[1]], "b": [["junk"]]}}
        with pytest.raises(HmmError, match="outside the alphabet: 'b'"):
            parse_hmm(json.dumps(doc))

    def test_duplicate_symbol(self):
        doc = {"states": 1, "alphabet": ["a", "a"], "initial": [1], "matrices": {"a": [[0.5]]}}
        # the one matrix would be summed twice and pass as row-stochastic
        with pytest.raises(HmmError, match="^duplicate symbol in alphabet$"):
            parse_hmm(json.dumps(doc))

    @pytest.mark.parametrize("symbol", ["ab", "", 1])
    def test_symbol_not_one_character(self, symbol):
        doc = {"states": 1, "alphabet": [symbol], "initial": [1], "matrices": {symbol: [[1]]}}
        with pytest.raises(HmmError, match="^alphabet must be a list of single-character strings$"):
            parse_hmm(json.dumps(doc))
        with pytest.raises(HmmError, match="^alphabet symbols must be single characters$"):
            Hmm(np.array([1.0]), {symbol: np.array([[1.0]])})

    @pytest.mark.parametrize("states, initial, message", [
        (0, [1.0], "^state count must be positive$"),
        (-1, [], "^state count must be positive$"),
        (2, [1.0], "^initial vector must have length 2$"),
    ])
    def test_state_count(self, states, initial, message):
        doc = {"states": states, "alphabet": ["a"], "initial": initial, "matrices": {"a": [[1]]}}
        with pytest.raises(HmmError, match=message):
            parse_hmm(json.dumps(doc))

    def test_sizes_and_alphabet_come_from_the_data(self):
        m = Hmm(np.array([0.5, 0.5]), {"b": np.full((2, 2), 0.25), "a": np.full((2, 2), 0.25)})
        assert m.state_count == 2
        assert m.alphabet == ("a", "b")
        with pytest.raises(HmmError, match="^state count must be positive$"):
            Hmm(np.array([]), {"a": np.ones((0, 0))})
        with pytest.raises(HmmError, match="^initial vector must be one-dimensional$"):
            Hmm(np.array([[1.0]]), {"a": np.array([[1.0]])})

    def test_sum_messages_print_plain_floats(self):
        with pytest.raises(HmmError, match=r"^initial vector sums to 0\.5, not 1$"):
            Hmm(np.array([0.5]), {"a": np.array([[1.0]])})
        with pytest.raises(HmmError, match=r"^sum of symbol matrices is not row-stochastic: "
                                           r"row 1 sums to 0\.8$"):
            Hmm(np.array([1.0, 0.0]), {"b": np.array([[0.0, 0.5], [0.0, 0.3]]),
                                       "a": np.array([[0.5, 0.0], [0.5, 0.0]])})
        with pytest.raises(HmmError, match=r"^sum of symbol matrices is not row-stochastic: "
                                           r"row 0 sums to 0\.0$"):
            Hmm(np.array([1.0]), {})

    @settings(max_examples=300, deadline=None)
    @given(spoiled_models())
    def test_first_error_matches_the_per_symbol_loop(self, case):
        n, mats = case
        expected = reference_matrix_error(n, mats)
        if expected is None:
            assert Hmm(np.eye(n)[0], mats).alphabet == tuple(sorted(mats))
        else:
            with pytest.raises(HmmError) as e:
                Hmm(np.eye(n)[0], mats)
            assert str(e.value) == expected

    def test_missing_field(self):
        with pytest.raises(HmmError, match="matrices"):
            parse_hmm('{"states": 1, "alphabet": ["a"], "initial": [1.0]}')

    def test_round_trip(self):
        m = random_hmm(3, "ab", seed=5)
        m2 = parse_hmm(format_hmm(m))
        assert np.array_equal(m.initial, m2.initial)
        for s in "ab":
            assert np.array_equal(m.matrices[s], m2.matrices[s])

    @pytest.mark.parametrize("alphabet", ["ba", "cab"])
    def test_round_trip_writes_symbols_sorted(self, alphabet):
        m = random_hmm(2, alphabet, seed=3)
        text = format_hmm(m)
        doc = json.loads(text)
        assert doc["alphabet"] == list(doc["matrices"]) == sorted(alphabet)
        m2 = parse_hmm(text)
        assert m2.alphabet == m.alphabet == tuple(sorted(alphabet))
        assert np.array_equal(m2.initial, m.initial)
        assert np.array_equal(m2.operators, m.operators)
        assert format_hmm(m2) == text


class TestOperators:
    def test_one_sorted_read_only_stack(self):
        m = random_hmm(3, "cab", seed=2)
        ops = m.operators
        assert m.alphabet == tuple(m.matrices) == ("a", "b", "c")
        assert ops.shape == (3, 3, 3) and ops.dtype == np.float64
        assert ops.flags.c_contiguous and not ops.flags.writeable
        for i, s in enumerate(m.alphabet):
            assert np.shares_memory(m.matrices[s], ops[i])
            assert np.array_equal(m.matrices[s], ops[i])
            assert not m.matrices[s].flags.writeable
        with pytest.raises(ValueError):
            ops[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            m.matrices["c"][0, 0] = 0.0

    def test_callers_arrays_are_copied(self):
        a = np.array([[0.5]])
        m = Hmm(np.array([1.0]), {"b": a, "a": np.array([[0.5]])})
        a[0, 0] = 0.25
        assert m.matrices["b"][0, 0] == 0.5 and m.operators[1, 0, 0] == 0.5

    def test_random_hmm_gives_each_symbol_its_block(self):
        # symbol i of the order given takes columns i*n .. (i+1)*n - 1 of the
        # seeded block, whatever the sorted order
        n, symbols = 2, "cab"
        rng = np.random.default_rng(5)
        rng.exponential(size=n)
        block = rng.exponential(size=(n, len(symbols) * n))
        block /= block.sum(axis=1, keepdims=True)
        m = random_hmm(n, symbols, seed=5)
        for i, s in enumerate(symbols):
            assert np.array_equal(m.matrices[s], block[:, i * n:(i + 1) * n])


class TestStringLikelihood:
    def test_uniform_powers(self):
        m = parse_hmm(UNIFORM_AB)
        assert string_likelihood(m, "ab") == 0.25

    def test_unknown_symbol(self):
        m = parse_hmm(UNIFORM_AB)
        with pytest.raises(HmmError, match="symbol"):
            string_likelihood(m, "az")

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_hidden_path_sum(self, seed):
        m = random_hmm(2, "ab", seed=seed)
        for w in ("abba", "aaaa", "baba"):
            assert string_likelihood(m, w) == pytest.approx(
                hidden_path_likelihood(m, w), abs=1e-10
            )

    @pytest.mark.parametrize("states,alphabet,L", [(1, "ab", 6), (2, "ab", 5), (3, "abc", 4)])
    def test_normalization(self, states, alphabet, L):
        m = random_hmm(states, alphabet, seed=11)
        total = math.fsum(
            string_likelihood(m, "".join(t)) for t in itertools.product(alphabet, repeat=L)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


class TestSplitLikelihood:
    def test_uniform(self):
        m = parse_hmm(UNIFORM_AB)
        assert split_likelihood(m, "ab", 1) == 0.25

    def test_alternator(self):
        m = parse_hmm(ALTERNATOR)
        assert split_likelihood(m, "abab", 2) == 1.0

    def test_invalid_cut(self):
        m = parse_hmm(UNIFORM_AB)
        with pytest.raises(HmmError, match="cut"):
            split_likelihood(m, "ab", 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_all_cuts_agree(self, seed):
        m = random_hmm(3, "ab", seed=seed)
        rng = np.random.default_rng(seed)
        w = "".join(rng.choice(list("ab"), size=5))
        direct = string_likelihood(m, w)
        for cut in range(1, 5):
            split = split_likelihood(m, w, cut)
            assert abs(split - direct) <= 1e-12 * max(1.0, direct)


class TestUniformHmm:
    def test_binary(self):
        assert string_likelihood(uniform_hmm("01"), "010") == 0.125

    def test_unary(self):
        assert string_likelihood(uniform_hmm("a"), "aaa") == 1.0

    def test_ternary(self):
        assert string_likelihood(uniform_hmm("abc"), "ab") == pytest.approx(1 / 9)

    def test_empty_alphabet(self):
        with pytest.raises(HmmError):
            uniform_hmm("")


class TestRandomHmm:
    def test_deterministic(self):
        a, b = random_hmm(2, "ab", seed=7), random_hmm(2, "ab", seed=7)
        assert np.array_equal(a.initial, b.initial)
        for s in "ab":
            assert np.array_equal(a.matrices[s], b.matrices[s])

    def test_row_sums(self):
        m = random_hmm(3, "abc", seed=1)
        total = sum(m.matrices[s] for s in "abc")
        assert np.allclose(total.sum(axis=1), 1.0, atol=1e-12)

    def test_immutable_arrays(self):
        m = random_hmm(2, "ab", seed=0)
        with pytest.raises(ValueError):
            m.initial[0] = 0.0
