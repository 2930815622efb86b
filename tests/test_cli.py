import json
import subprocess
import sys

import pytest

from gramhmm.cli import CliFailure, _failure_code
from gramhmm.grammar import dyck_grammar, format_grammar, parse_grammar, union, universal_grammar
from gramhmm.hmm import HmmError, format_hmm, uniform_hmm
from gramhmm.inference import AttestationError, AttestationViolatedError
from gramhmm.reductions import InconsistentModelCountError, ReductionError
from gramhmm.sampling import SamplingError, SamplingNumericalError

from conftest import same_rules


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "gramhmm.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["dyck"] = tmp_path / "dyck.grm"
    paths["dyck"].write_text(format_grammar(dyck_grammar()))
    paths["double"] = tmp_path / "double.grm"
    u = universal_grammar("ab")
    paths["universal"] = tmp_path / "universal.grm"
    paths["universal"].write_text(format_grammar(u))
    paths["double"].write_text(format_grammar(union(u, u)))
    paths["paren_hmm"] = tmp_path / "paren.hmm.json"
    paths["paren_hmm"].write_text(format_hmm(uniform_hmm("()")))
    paths["ab_hmm"] = tmp_path / "ab.hmm.json"
    paths["ab_hmm"].write_text(format_hmm(uniform_hmm("ab")))
    paths["cnf"] = tmp_path / "one.cnf"
    paths["cnf"].write_text("p cnf 3 1\n1 2 3 0\n")
    paths["tmp"] = tmp_path
    return paths


class TestLikelihood:
    def test_ucfg(self, files):
        r = run_cli("likelihood", "--grammar", files["dyck"], "--hmm", files["paren_hmm"],
                    "--length", 4, "--mode", "ucfg", "--attest-unambiguous")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["value"] == 0.125
        assert doc["mode"] == "ucfg-exact"

    def test_missing_attestation(self, files):
        r = run_cli("likelihood", "--grammar", files["dyck"], "--hmm", files["paren_hmm"],
                    "--length", 4, "--mode", "ucfg")
        assert r.returncode == 3
        assert "attest" in r.stderr

    def test_weighted_doubled(self, files):
        r = run_cli("likelihood", "--grammar", files["double"], "--hmm", files["ab_hmm"],
                    "--length", 3, "--mode", "weighted")
        assert r.returncode == 0
        assert json.loads(r.stdout)["value"] == pytest.approx(2.0)

    def test_broken_attestation_is_numerical_error(self, files):
        r = run_cli("likelihood", "--grammar", files["double"], "--hmm", files["ab_hmm"],
                    "--length", 3, "--mode", "ucfg", "--attest-unambiguous")
        assert r.returncode == 4
        assert "violated" in r.stderr

    def test_upto(self, files):
        r = run_cli("likelihood", "--grammar", files["dyck"], "--hmm", files["paren_hmm"],
                    "--length", 4, "--mode", "upto", "--attest-unambiguous")
        assert json.loads(r.stdout)["value"] == 0.375

    @pytest.mark.parametrize("kind, message", [
        ("grammar", "cannot read grammar file"),
        ("hmm", "cannot read HMM file"),
        ("cnf", "cannot read DIMACS file"),
    ], ids=["grammar", "hmm", "cnf"])
    def test_missing_file(self, files, kind, message):
        paths = {"grammar": files["dyck"], "hmm": files["paren_hmm"], kind: files["tmp"] / "nope"}
        if kind == "cnf":
            r = run_cli("reduce3sat", "--cnf", paths["cnf"])
        else:
            r = run_cli("likelihood", "--grammar", paths["grammar"], "--hmm", paths["hmm"],
                        "--length", 4, "--mode", "weighted")
        assert r.returncode == 3
        assert r.stdout == ""
        assert message in r.stderr

    def test_overflow_is_numerical_error(self, files, tmp_path):
        p = tmp_path / "ss.grm"
        p.write_text("start S\nS -> S S\nS -> 'a'\nS -> 'b'\n")
        r = run_cli("likelihood", "--grammar", p, "--hmm", files["ab_hmm"],
                    "--length", 540, "--mode", "weighted")
        assert r.returncode == 4
        assert r.stdout == ""
        assert "non-finite result: likelihood.value is Infinity" in r.stderr

    def test_overflow_past_dead_product_is_infinity(self, files, tmp_path):
        # F_2[Z] is structurally zero; formed against the overflowed S layer
        # it would give 0 * inf = NaN
        p = tmp_path / "sz.grm"
        p.write_text("start S\nS -> S S\nS -> Z S\nS -> 'a'\nS -> 'b'\nZ -> 'a'\n")
        r = run_cli("likelihood", "--grammar", p, "--hmm", files["ab_hmm"],
                    "--length", 460, "--mode", "weighted")
        assert r.returncode == 4
        assert r.stdout == ""
        assert "non-finite result: likelihood.value is Infinity" in r.stderr

    def test_nan_hmm_is_validation_error(self, files, tmp_path):
        h = tmp_path / "nan.hmm.json"
        h.write_text('{"states": 1, "alphabet": ["(", ")"], "initial": [NaN], '
                     '"matrices": {"(": [[0.5]], ")": [[0.5]]}}')
        r = run_cli("likelihood", "--grammar", files["dyck"], "--hmm", h,
                    "--length", 4, "--mode", "weighted")
        assert r.returncode == 3
        assert "non-finite" in r.stderr
        assert r.stdout == ""

    def test_non_object_hmm_is_validation_error(self, files, tmp_path):
        h = tmp_path / "seven.hmm.json"
        h.write_text("7")
        r = run_cli("likelihood", "--grammar", files["dyck"], "--hmm", h,
                    "--length", 4, "--mode", "weighted")
        assert r.returncode == 3
        assert "JSON object" in r.stderr

    def test_matrix_outside_alphabet_is_validation_error(self, files, tmp_path):
        h = tmp_path / "extra.hmm.json"
        h.write_text('{"states": 1, "alphabet": ["(", ")"], "initial": [1], '
                     '"matrices": {"(": [[0.5]], ")": [[0.5]], "b": [["junk"]]}}')
        r = run_cli("likelihood", "--grammar", files["dyck"], "--hmm", h,
                    "--length", 4, "--mode", "weighted")
        assert r.returncode == 3
        assert "outside the alphabet: 'b'" in r.stderr
        assert r.stdout == ""

    def test_usage_error(self):
        r = run_cli("likelihood", "--mode", "weighted")
        assert r.returncode == 2


class TestSample:
    def test_singleton(self, files):
        r = run_cli("sample", "--grammar", files["dyck"], "--hmm", files["paren_hmm"],
                    "--length", 2, "--count", 3, "--seed", 0)
        assert json.loads(r.stdout)["strings"] == ["()", "()", "()"]

    def test_empty_support(self, files):
        r = run_cli("sample", "--grammar", files["dyck"], "--hmm", files["paren_hmm"],
                    "--length", 3, "--count", 1, "--seed", 0)
        assert r.returncode == 3
        assert "empty constrained support" in r.stderr

    def test_underflow_is_numerical_error(self, tmp_path):
        g = tmp_path / "bs.grm"
        g.write_text("start S\nS -> B S\nS -> 'b'\nB -> 'b'\nA -> 'a'\n")
        h = tmp_path / "rare-b.hmm.json"
        h.write_text('{"states": 1, "alphabet": ["a", "b"], "initial": [1.0], '
                     '"matrices": {"a": [[0.999]], "b": [[0.001]]}}')
        r = run_cli("sample", "--grammar", g, "--hmm", h, "--length", 102, "--count", 1,
                    "--seed", 0)
        assert r.returncode == 4
        assert "numerical underflow at node" in r.stderr

    def test_deterministic(self, files):
        args = ("sample", "--grammar", files["dyck"], "--hmm", files["paren_hmm"],
                "--length", 4, "--count", 5, "--seed", 9)
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_trees_match_strings(self, files):
        args = ("sample", "--grammar", files["dyck"], "--hmm", files["paren_hmm"],
                "--length", 8, "--count", 30, "--seed", 11)
        plain = json.loads(run_cli(*args).stdout)
        with_trees = json.loads(run_cli(*args, "--emit-trees").stdout)
        assert with_trees["strings"] == plain["strings"]
        assert "trees" not in plain

        def spell(node):
            if "terminal" in node:
                return node["terminal"]
            return "".join(spell(c) for c in node["children"])

        assert [spell(t) for t in with_trees["trees"]] == plain["strings"]

    def test_trees_have_no_depth_limit(self, files):
        # universal_grammar is right-linear, so a length-L tree is L nodes deep
        args = ("sample", "--grammar", files["universal"], "--hmm", files["ab_hmm"],
                "--length", 1100, "--count", 1, "--seed", 0)
        plain = run_cli(*args)
        r = run_cli(*args, "--emit-trees")
        assert plain.returncode == r.returncode == 0, r.stderr
        # json.loads recurses once per nested container, two per tree level
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)
        try:
            doc = json.loads(r.stdout)
        finally:
            sys.setrecursionlimit(limit)
        assert doc["strings"] == json.loads(plain.stdout)["strings"]
        (tree,) = doc["trees"]
        depth, spelled, stack = 0, [], [(tree, 1)]
        while stack:
            node, level = stack.pop()
            depth = max(depth, level)
            if "terminal" in node:
                spelled.append(node["terminal"])
            stack += [(child, level + 1) for child in reversed(node.get("children", []))]
        assert "".join(spelled) == doc["strings"][0]
        assert depth == 1100

    def test_trees(self, files):
        r = run_cli("sample", "--grammar", files["dyck"], "--hmm", files["paren_hmm"],
                    "--length", 4, "--count", 2, "--seed", 1, "--emit-trees")
        doc = json.loads(r.stdout)
        assert len(doc["trees"]) == 2
        assert doc["trees"][0]["span"] == [0, 4]


class TestApprox:
    def test_unambiguous_accepts_all(self, files):
        r = run_cli("approx", "--grammar", files["dyck"], "--hmm", files["paren_hmm"],
                    "--length", 4, "--epsilon", 0.2, "--ambiguity-bound", 1, "--seed", 3)
        doc = json.loads(r.stdout)
        assert doc["accepted"] == doc["samples"]
        assert doc["estimate"] == 0.125

    def test_early_return(self, files):
        r = run_cli("approx", "--grammar", files["dyck"], "--hmm", files["paren_hmm"],
                    "--length", 3, "--epsilon", 0.1, "--ambiguity-bound", 1, "--seed", 3)
        doc = json.loads(r.stdout)
        assert doc["estimate"] == 0.0
        assert doc["samples"] == 0

    def test_estimate_near_truth(self, files):
        r = run_cli("approx", "--grammar", files["double"], "--hmm", files["ab_hmm"],
                    "--length", 3, "--epsilon", 0.1, "--ambiguity-bound", 2, "--seed", 1)
        doc = json.loads(r.stdout)
        assert 0.9 <= doc["estimate"] <= 1.1

    def test_bad_epsilon(self, files):
        r = run_cli("approx", "--grammar", files["dyck"], "--hmm", files["paren_hmm"],
                    "--length", 4, "--epsilon", 2.0, "--ambiguity-bound", 1, "--seed", 3)
        assert r.returncode == 3

    def test_bound_exceeded(self, files):
        r = run_cli("approx", "--grammar", files["double"], "--hmm", files["ab_hmm"],
                    "--length", 3, "--epsilon", 0.1, "--ambiguity-bound", 1, "--seed", 3)
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr.splitlines() == [
            "ambiguity bound 1 exceeded: a length-3 proposal has 2 derivations"]

    def test_failure_prob_is_not_an_option(self, files):
        r = run_cli("approx", "--grammar", files["dyck"], "--hmm", files["paren_hmm"],
                    "--length", 4, "--epsilon", 0.2, "--ambiguity-bound", 1, "--seed", 3,
                    "--failure-prob", 0.1)
        assert r.returncode == 2


class TestOracle:
    def test_likelihood(self, files):
        r = run_cli("oracle", "--grammar", files["dyck"], "--hmm", files["paren_hmm"],
                    "--length", 4, "--what", "likelihood")
        assert json.loads(r.stdout)["value"] == pytest.approx(0.125)

    def test_max_ambiguity(self, files, tmp_path):
        p = tmp_path / "ss.grm"
        p.write_text("start S\nS -> S S\nS -> 'a'\n")
        r = run_cli("oracle", "--grammar", p, "--length", 4, "--what", "maxambiguity")
        assert json.loads(r.stdout)["value"] == 5

    def test_distribution(self, files):
        r = run_cli("oracle", "--grammar", files["dyck"], "--hmm", files["paren_hmm"],
                    "--length", 4, "--what", "distribution")
        doc = json.loads(r.stdout)
        assert doc["probabilities"] == {"(())": 0.5, "()()": 0.5}

    def test_guard_exceeded(self, files, tmp_path):
        p = tmp_path / "u3.grm"
        p.write_text(format_grammar(universal_grammar("abc")))
        h = tmp_path / "abc.hmm.json"
        h.write_text(format_hmm(uniform_hmm("abc")))
        r = run_cli("oracle", "--grammar", p, "--hmm", h, "--length", 20, "--what", "mass")
        assert r.returncode == 3
        assert "guard" in r.stderr

    @pytest.mark.parametrize("what, length", [("maxambiguity", -1), ("mass", 0)])
    def test_length_below_one(self, files, what, length):
        r = run_cli("oracle", "--grammar", files["dyck"], "--hmm", files["paren_hmm"],
                    "--length", length, "--what", what)
        assert r.returncode == 3
        assert r.stderr.splitlines() == ["length must be >= 1"]


class TestReduce3Sat:
    def test_count(self, files):
        r = run_cli("reduce3sat", "--cnf", files["cnf"], "--count")
        doc = json.loads(r.stdout)
        assert doc["model_count"] == 7
        assert doc["brute_force_model_count"] == 7

    def test_count_above_brute_force_limit(self, tmp_path):
        p = tmp_path / "wide.cnf"
        p.write_text("p cnf 25 1\n1 2 3 0\n")
        r = run_cli("reduce3sat", "--cnf", p, "--count")
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["model_count"] == 2**25 - 2**22 == 29360128
        assert "brute_force_model_count" not in doc

    def test_malformed(self, files, tmp_path):
        p = tmp_path / "bad.cnf"
        p.write_text("p cnf 2 1\n1 2 0\n")
        r = run_cli("reduce3sat", "--cnf", p, "--count")
        assert r.returncode == 3

    def test_count_over_clause_limit(self, tmp_path):
        p = tmp_path / "thirteen.cnf"
        p.write_text("p cnf 4 13\n" + "1 2 3 0\n" * 13)
        r = run_cli("reduce3sat", "--cnf", p, "--count")
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr.splitlines() == ["model counting is limited to 12 clauses"]

    def test_out_round_trips(self, files, tmp_path):
        out = tmp_path / "union.grm"
        r = run_cli("reduce3sat", "--cnf", files["cnf"], "--out", out)
        assert r.returncode == 0
        g = parse_grammar(out.read_text())
        assert same_rules(g, parse_grammar(format_grammar(g)))
        from gramhmm.oracle import enumerate_language

        assert enumerate_language(g, 3) == {"000"}


    def test_out_to_unwritable_path(self, files, tmp_path):
        r = run_cli("reduce3sat", "--cnf", files["cnf"], "--out", tmp_path / "no" / "g.grm")
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr.startswith("cannot write grammar file: ")


class TestDeterminism:
    def test_seeded_commands_bit_identical(self, files):
        commands = [
            ("sample", "--grammar", files["dyck"], "--hmm", files["paren_hmm"],
             "--length", 6, "--count", 10, "--seed", 5, "--emit-trees"),
            ("sample", "--grammar", files["universal"], "--hmm", files["ab_hmm"],
             "--length", 450, "--count", 3, "--seed", 5, "--emit-trees"),
            ("approx", "--grammar", files["double"], "--hmm", files["ab_hmm"],
             "--length", 3, "--epsilon", 0.2, "--ambiguity-bound", 2, "--seed", 5),
        ]
        for cmd in commands:
            first, second = run_cli(*cmd), run_cli(*cmd)
            assert first.returncode == second.returncode == 0, first.stderr
            assert first.stdout == second.stdout


@pytest.mark.parametrize("command", [
    ("sample", "--count", 2),
    ("approx", "--epsilon", 0.2, "--ambiguity-bound", 1),
], ids=["sample", "approx"])
def test_negative_seed_is_validation_error(files, command):
    name, *options = command
    r = run_cli(name, "--grammar", files["dyck"], "--hmm", files["paren_hmm"], "--length", 4,
                *options, "--seed", -1)
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.splitlines() == ["seed must be nonnegative, got -1"]


@pytest.mark.parametrize("length", [10**17, 10**18])
@pytest.mark.parametrize("command", [
    ("likelihood", "--mode", "weighted"),
    ("sample", "--count", 1, "--seed", 0),
    ("approx", "--epsilon", 0.2, "--ambiguity-bound", 1, "--seed", 0),
], ids=["likelihood", "sample", "approx"])
def test_table_too_large_is_validation_error(files, command, length):
    # the table needs 8 bytes per entry: 5 Dyck nonterminals, 1 state
    name, *options = command
    r = run_cli(name, "--grammar", files["dyck"], "--hmm", files["paren_hmm"],
                "--length", length, *options)
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith(
        f"forward table for length {length} needs {40 * length} bytes and cannot be allocated")


@pytest.mark.parametrize("error, code", [
    (SamplingNumericalError("numerical underflow at node"), 4),
    (AttestationViolatedError("ambiguity attestation violated"), 4),
    (InconsistentModelCountError("inconsistent model count"), 4),
    (SamplingError("empty constrained support"), 3),
    (AttestationError("ucfg likelihood requires the caller to attest"), 3),
    (ReductionError("reduction needs at least 2 variables"), 3),
    (HmmError("initial vector has a non-finite entry"), 3),
    (CliFailure("cannot read grammar file: missing"), 3),
    # the type decides, not the message text
    (ValueError("numerical underflow at node"), 3),
])
def test_failure_code_by_type(error, code):
    assert _failure_code(error) == code
