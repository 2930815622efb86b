import hashlib
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from gramhmm import inference, sampling
from gramhmm.cli import COMMANDS, CliFailure, _failure_code, build_parser, main
from gramhmm.grammar import dyck_grammar, format_grammar, parse_grammar, union, universal_grammar
from gramhmm.hmm import Hmm, HmmError, format_hmm, random_hmm, uniform_hmm
from gramhmm.inference import AttestationError, AttestationViolatedError
from gramhmm.reductions import InconsistentModelCountError, ReductionError
from gramhmm.sampling import SamplingError, SamplingNumericalError

from conftest import refuse_allocation, same_rules

TWO_CPUS = pytest.mark.skipif(inference._cpu_count() < 2,
                              reason="the fold's helper thread runs only on two CPUs or more")


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

    @pytest.mark.parametrize("initial, matrices, message", [
        ("[0.5]", '{"(": [[0.5]], ")": [[0.5]]}', "initial vector sums to 0.5, not 1"),
        ("[1]", '{"(": [[0.5]], ")": [[0.3]]}',
         "sum of symbol matrices is not row-stochastic: row 0 sums to 0.8"),
    ], ids=["initial", "rows"])
    def test_sum_is_printed_as_a_plain_float(self, files, tmp_path, initial, matrices, message):
        h = tmp_path / "short.hmm.json"
        h.write_text(f'{{"states": 1, "alphabet": ["(", ")"], "initial": {initial}, '
                     f'"matrices": {matrices}}}')
        r = run_cli("likelihood", "--grammar", files["dyck"], "--hmm", h,
                    "--length", 4, "--mode", "weighted")
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr.splitlines() == [message]

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

    def test_bound_exceeded_past_float(self, files, capsys):
        files["ss"] = files["tmp"] / "ss.grm"
        files["ss"].write_text("start S\nS -> S S\nS -> 'a'\nS -> 'b'\n")
        assert main(["approx", "--grammar", str(files["ss"]), "--hmm", str(files["ab_hmm"]),
                     "--length", "40", "--epsilon", "0.1", "--ambiguity-bound", "2",
                     "--seed", "0"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "ambiguity bound 2 exceeded: a length-40 proposal has 680425371729975800390 "
            "derivations"]

    @pytest.mark.parametrize("epsilon, bound", [("1e-300", "2"), ("0.5", "1" + "0" * 200)],
                             ids=["epsilon-underflow", "bound-overflow"])
    def test_sample_size_not_finite(self, files, epsilon, bound):
        r = run_cli("approx", "--grammar", files["dyck"], "--hmm", files["paren_hmm"],
                    "--length", 4, "--epsilon", epsilon, "--ambiguity-bound", bound, "--seed", 3)
        assert r.returncode == 3
        assert r.stdout == ""
        assert "Traceback" not in r.stderr
        assert r.stderr.splitlines() == [
            f"sample size is not finite at epsilon {float(epsilon)}, bound {bound}"]

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

    def test_count_one_variable(self, tmp_path):
        p = tmp_path / "one-variable.cnf"
        p.write_text("p cnf 1 1\n1 -1 1 0\n")
        r = run_cli("reduce3sat", "--cnf", p, "--count")
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["variables"] == 1
        assert doc["model_count"] == doc["brute_force_model_count"] == 2

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


    @pytest.mark.parametrize("dimacs, stdout_digest, out_digest", [
        ("p cnf 8 1\n1 -5 7 0\n",
         "dbcdf337854ff955de5ea9df37b411fc6583c3f21dadf2aa7fa31b964c688a80",
         "034d9860310f6b5f69b8baa67d32dc98233ec9e5bb54201b774531e3af01affc"),
        ("p cnf 8 4\n1 -2 3 0\n-3 4 -8 0\n2 5 -6 0\n-1 -7 8 0\n",
         "64b144be231d26143a8db3ed9c6dbfae00558bbff3c43b89267e2e458b0ad1ee",
         "a0c1b80699647baf131449bea8f99362e889b5727e8d73c20b4c39890bf5c7cd"),
        ("p cnf 9 8\n1 2 -3 0\n-4 5 6 0\n7 -8 9 0\n-1 -5 8 0\n"
         "2 -6 -9 0\n3 4 -7 0\n-2 -3 5 0\n1 -4 -9 0\n",
         "8a92373646ee2290b753fe3428df0b79e3cf47b470200bac1cf16503cf7ba5f8",
         "bac78c6aa849d6999fa38d03a7c518ede93efdc8d91c0d5950173ef34c6c868d"),
    ], ids=["k1", "k4", "k8"])
    def test_count_and_out_bytes_pinned(self, tmp_path, monkeypatch, capsys,
                                        dimacs, stdout_digest, out_digest):
        # sha256 of stdout and of the written grammar as gramhmm 0.17.0 wrote
        # them, so neither grouping the model count's tables nor the grammar
        # checks change a byte
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.cnf").write_text(dimacs)
        assert main(["reduce3sat", "--cnf", "f.cnf", "--out", "g.grm", "--count"]) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_digest, stdout
        assert hashlib.sha256((tmp_path / "g.grm").read_bytes()).hexdigest() == out_digest

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
        # stdout sha256 of each command as written by gramhmm 0.8.0, the
        # approx document's as 0.25.0 writes it, with accepted the sum of
        # 1 / f_G(w)
        pinned = [
            "98672541de7bbb20938d68f6a5f164a40a7309dfbfa804d0e70f1aefb253884a",
            "c1788055ef3d81fbaa5be505226532f7d08eb8da355d821e35311b424e3a097f",
            "7a6696d0904373461f76ae268f85dd438175934f0069e6558574b02bd2a86883",
        ]
        for cmd, digest in zip(commands, pinned):
            first, second = run_cli(*cmd), run_cli(*cmd)
            assert first.returncode == second.returncode == 0, first.stderr
            assert first.stdout == second.stdout
            assert hashlib.sha256(first.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command, digest", [
        (("likelihood", "--grammar", "dyck", "--hmm", "paren", "--length", 10,
          "--mode", "weighted"),
         "3ff326239937986787c0a2b155c8654428ceadceba3c12abe1c831952dcd7b89"),
        (("likelihood", "--grammar", "dyck", "--hmm", "paren", "--length", 8,
          "--mode", "ucfg", "--attest-unambiguous"),
         "3692369c6c6a10427bbdbf2d5511f785199765ad84d806f387084cb78600c98d"),
        (("likelihood", "--grammar", "dyck", "--hmm", "paren", "--length", 8,
          "--mode", "upto", "--attest-unambiguous"),
         "357161e47a73981553da3ec87fb194b125712b73206228d5914b165225b149ae"),
        (("oracle", "--grammar", "dyck", "--hmm", "paren", "--length", 6,
          "--what", "distribution"),
         "ee2c5f11ebc800d94ab0c18e442da530364da58cea1acfa60688af282d2abfa7"),
        (("oracle", "--grammar", "double", "--hmm", "ab", "--length", 4, "--what", "mass"),
         "c0c53b0b0492c7675010b646076d36e633733bf7fa35883734294960b9bedd23"),
        (("reduce3sat", "--cnf", "cnf", "--count"),
         "f657a2ebd92a4b1177053a8d52660f905979d42bebda730153a42e21fda9626a"),
    ], ids=["weighted", "ucfg", "upto", "distribution", "mass", "reduce3sat"])
    def test_unseeded_documents_pinned(self, files, command, digest):
        # 1-state models with uneven symbol weights, so no BLAS kernel decides
        # the bytes; stdout sha256 as written by gramhmm 0.13.0
        tmp = files["tmp"]
        (tmp / "ab.json").write_text(format_hmm(Hmm(
            initial=np.array([1.0]), matrices={"a": np.array([[0.3]]), "b": np.array([[0.7]])})))
        (tmp / "paren.json").write_text(format_hmm(Hmm(
            initial=np.array([1.0]), matrices={"(": np.array([[0.6]]), ")": np.array([[0.4]])})))
        (tmp / "four.cnf").write_text("p cnf 4 3\n1 -2 3 0\n-1 2 4 0\n2 -3 -4 0\n")
        paths = {"double": files["double"], "dyck": files["dyck"], "ab": tmp / "ab.json",
                 "paren": tmp / "paren.json", "cnf": tmp / "four.cnf"}
        r = run_cli(*(paths.get(arg, arg) for arg in command))
        assert r.returncode == 0, r.stderr
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("L", [108, 110])
@pytest.mark.parametrize("command, message", [
    (("sample", "--count", 1, "--seed", 0), "numerical underflow at node"),
    (("approx", "--epsilon", 0.5, "--ambiguity-bound", 1, "--seed", 0),
     "weighted mass 0.0 at length {L} is not a normal float64"),
    (("likelihood", "--mode", "weighted"),
     "weighted mass 0.0 at length {L} is not a normal float64"),
    (("likelihood", "--mode", "ucfg", "--attest-unambiguous"),
     "weighted mass 0.0 at length {L} is not a normal float64"),
], ids=["sample", "approx", "weighted", "ucfg"])
def test_underflowed_mass_is_numerical_error(tmp_path, command, message, L):
    # the start is live, but 0.001^L flushes the weighted mass to 0.0
    g = tmp_path / "bs.grm"
    g.write_text("start S\nS -> B S\nS -> 'b'\nB -> 'b'\nA -> 'a'\n")
    h = tmp_path / "rare-b.hmm.json"
    h.write_text('{"states": 1, "alphabet": ["a", "b"], "initial": [1.0], '
                 '"matrices": {"a": [[0.999]], "b": [[0.001]]}}')
    name, *options = command
    r = run_cli(name, "--grammar", g, "--hmm", h, "--length", L, *options)
    assert r.returncode == 4
    assert r.stdout == ""
    assert r.stderr.splitlines() == [message.format(L=L)]


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


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 438. MiB for an array with shape (3500, 4, 64, 64) and data type float64",
     "out of memory: Unable to allocate 438. MiB for an array with shape (3500, 4, 64, 64) "
     "and data type float64"),
    ("", "out of memory"),
    ("first line\nsecond line", "out of memory: first line second line"),
], ids=["numpy", "bare", "two-lines"])
def test_memory_error_is_validation_error(files, monkeypatch, capsys, message, line):
    # the sampler's transposed copy of the table is the allocation that fails
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(sampling, "_zeros", no_memory)
    code = main(["sample", "--grammar", str(files["dyck"]), "--hmm", str(files["paren_hmm"]),
                 "--length", "4", "--count", "1", "--seed", "0"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.splitlines() == [line]


@pytest.mark.parametrize("states, size", [(1, 160), (64, 655360)], ids=["heap", "map"])
def test_refused_table_is_validation_error(files, monkeypatch, capsys, states, size):
    # 4 layers of 5 Dyck nonterminals: on the heap at 1 state, mapped at 64
    model = files["tmp"] / "refused.hmm.json"
    model.write_text(format_hmm(random_hmm(states, "()", seed=2)))
    refuse_allocation(monkeypatch, (4, 5, states, states))
    code = main(["likelihood", "--grammar", str(files["dyck"]), "--hmm", str(model),
                 "--length", "4", "--mode", "weighted"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        f"forward table for length 4 needs {size} bytes and cannot be allocated: no room"]


@pytest.fixture
def wide_files(tmp_path, c08):
    """c08 and a 64-state HMM, inside the fold's helper-thread band."""
    assert inference.THREAD_STATES[0] <= 64 < inference.THREAD_STATES[1]
    grammar, model = tmp_path / "c08.grm", tmp_path / "wide.hmm.json"
    grammar.write_text(format_grammar(c08))
    model.write_text(format_hmm(random_hmm(64, "ab", seed=3)))
    return ["--grammar", str(grammar), "--hmm", str(model)]


@TWO_CPUS
def test_memory_error_in_the_fold_worker_is_validation_error(wide_files, monkeypatch, capsys):
    run_sum = inference._run_sum

    def no_memory(*args):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("Unable to allocate 32.0 KiB for the worker")
        run_sum(*args)

    monkeypatch.setattr(inference, "_run_sum", no_memory)
    code = main(["likelihood", *wide_files, "--length", "30", "--mode", "weighted"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["out of memory: Unable to allocate 32.0 KiB for the worker"]


@TWO_CPUS
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins the child to one CPU")
def test_one_cpu_gives_the_same_bytes(wide_files):
    # the same in-band command, free to use two CPUs (the fold's helper
    # thread sums runs) and pinned to one in the child process (it does not)
    cpu = min(os.sched_getaffinity(0))
    argv = ["likelihood", *wide_files, "--length", "30", "--mode", "weighted"]

    def run(pin):
        program = "\n".join([
            "import os, sys, threading",
            f"os.sched_setaffinity(0, {{{cpu}}})" if pin else "",
            "from gramhmm import inference",
            "from gramhmm.cli import main",
            "run_sum, helped = inference._run_sum, []",
            "def recorded(*args):",
            "    helped.append(threading.current_thread().name == 'gramhmm-fold')",
            "    run_sum(*args)",
            "inference._run_sum = recorded",
            "code = main(sys.argv[1:])",
            "print('helper runs', sum(helped) > 0, file=sys.stderr)",
            "sys.exit(code)",
        ])
        return subprocess.run([sys.executable, "-c", program, *argv], capture_output=True,
                              timeout=120)

    free, pinned = run(False), run(True)
    assert free.stderr.splitlines()[-1] == b"helper runs True"
    assert pinned.stderr.splitlines()[-1] == b"helper runs False"
    assert free.returncode == pinned.returncode == 0
    assert free.stdout == pinned.stdout


def test_import_loads_no_slow_module():
    # each of these adds milliseconds to every command's start (a top-level
    # fractions import read +10.6-19.5% setup_s, concurrent.futures 4.5-9
    # ms); the fold imports queue with the first layer that it cuts
    slow = ["queue", "concurrent.futures", "logging", "fractions", "decimal"]
    program = f"import sys, gramhmm.cli; print([m for m in {slow!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("error, code", [
    (SamplingNumericalError("numerical underflow at node"), 4),
    (AttestationViolatedError("ambiguity attestation violated"), 4),
    (InconsistentModelCountError("inconsistent model count"), 4),
    (SamplingError("empty constrained support"), 3),
    (AttestationError("ucfg likelihood requires the caller to attest"), 3),
    (ReductionError("formula needs at least one variable"), 3),
    (HmmError("initial vector has a non-finite entry"), 3),
    (CliFailure("cannot read grammar file: missing"), 3),
    # the type decides, not the message text
    (ValueError("numerical underflow at node"), 3),
])
def test_failure_code_by_type(error, code):
    assert _failure_code(error) == code


class TestParser:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_left_out_option_is_not_carried_over(self, files, capsys):
        out = files["tmp"] / "union.grm"
        assert main(["reduce3sat", "--cnf", str(files["cnf"]), "--out", str(out)]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["reduce3sat", "--cnf", str(files["cnf"])]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["out"] == str(out)
        assert "out" not in second

    def test_valid_call_after_usage_error(self, files, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["likelihood", "--grammar", "g", "--hmm", "h", "--length", "x",
                  "--mode", "ucfg"])
        assert exit_.value.code == 2
        capsys.readouterr()
        argv = ["likelihood", "--grammar", str(files["dyck"]), "--hmm", str(files["paren_hmm"]),
                "--length", "4", "--mode", "ucfg", "--attest-unambiguous"]
        assert main(argv) == 0
        assert capsys.readouterr().out == run_cli(*argv).stdout

    @pytest.mark.parametrize("options", [
        ["--length", "4", "--attest"],
        ["--len", "4", "--attest-unambiguous"],
    ])
    def test_abbreviated_option_is_usage_error(self, files, options, capsys):
        # the same call with every option spelled in full exits 0 in
        # test_valid_call_after_usage_error
        argv = ["likelihood", "--grammar", str(files["dyck"]), "--hmm", str(files["paren_hmm"]),
                "--mode", "ucfg", *options]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, text", [
        ([], "required: command"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["--help"], "3-CNF to union grammar"),
    ])
    def test_usage_names_every_command(self, argv, text, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        out = capsys.readouterr()
        assert exit_.value.code == (0 if argv == ["--help"] else 2)
        assert "{" + ",".join(COMMANDS) + "}" in out.out + out.err
        assert text in out.out + out.err
