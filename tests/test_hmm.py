import itertools
import json
import math

import numpy as np
import pytest

from gramhmm.hmm import (
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
        assert m.alphabet == ("b", "a")
        with pytest.raises(HmmError, match="^state count must be positive$"):
            Hmm(np.array([]), {"a": np.ones((0, 0))})
        with pytest.raises(HmmError, match="^initial vector must be one-dimensional$"):
            Hmm(np.array([[1.0]]), {"a": np.array([[1.0]])})

    def test_missing_field(self):
        with pytest.raises(HmmError, match="matrices"):
            parse_hmm('{"states": 1, "alphabet": ["a"], "initial": [1.0]}')

    def test_round_trip(self):
        m = random_hmm(3, "ab", seed=5)
        m2 = parse_hmm(format_hmm(m))
        assert np.array_equal(m.initial, m2.initial)
        for s in "ab":
            assert np.array_equal(m.matrices[s], m2.matrices[s])


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
