import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfnmc import commands
from cfnmc.cli import build_parser, main
from cfnmc.commands import _emit

from helpers import FACET_TREE, FIG_TREE


# Seven leaves, canonical interior indices 0..5; its one cluster is {2}.
RTI_TREE = "((((1,2),(3,4)),5),(6,7));"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subcommands(parser) -> list:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(action.choices)


class TestExitCodes:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "vertices", "--tree", "(1,2);")
        assert code == 0
        assert "count: 2" in out

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "vertices", "--tree", "((1,2;")
        assert code == 2
        assert "error" in err

    def test_bad_ideal(self, capsys):
        code, _, err = run(
            capsys, "rti-facets", "--tree", FIG_TREE, "--ideal", "nope"
        )
        assert code == 2

    def test_ideal_index_out_of_range(self, capsys):
        # FIG_TREE has interior indices 0..3; -1 must not wrap to the last one
        for spec in ("4", "-1", "0,1,7"):
            code, out, err = run(
                capsys, "rti-facets", "--tree", FIG_TREE, "--ideal", spec
            )
            assert code == 2, spec
            assert out == "" and err.startswith("error:"), spec

    def test_samples_below_one(self, capsys):
        for samples in ("0", "-3"):
            code, out, err = run(
                capsys, "model-check", "--tree", "((1,2),3);", "--samples", samples
            )
            assert code == 2 and out == "" and err.startswith("error:")

    def test_degree_below_one(self, capsys):
        for degree in ("0", "-1"):
            code, out, err = run(
                capsys, "markov-check", "--tree", FIG_TREE, "--degree", degree
            )
            assert code == 2 and out == "" and err.startswith("error:")

    def test_degree_cap_over_monomial_budget(self, capsys):
        # 5 columns: C(405, 400), about 9e10 monomials, past C(93, 4), the
        # count at 10 leaves and cap 4
        code, out, err = run(
            capsys, "markov-check", "--tree", "((1,2),(3,4));", "--degree", "400"
        )
        assert code == 2 and out == "" and err.startswith("error:")

    def test_tol_not_finite_or_negative(self, capsys):
        for tol in ("inf", "nan", "-1e-9"):
            code, out, err = run(
                capsys, "model-check", "--tree", FIG_TREE, "--samples", "1", f"--tol={tol}"
            )
            assert code == 2 and out == "" and err.startswith("error:"), tol

    def test_model_check_transform_failure(self, capsys):
        # at tol 1e-30 two labelings of the class 1000 differ in their last
        # bits: an assertion that failed, not malformed input
        code, out, err = run(
            capsys, "model-check", "--tree", FIG_TREE, "--samples", "2", "--tol", "1e-30"
        )
        assert code == 1 and out == "" and err.startswith("FAIL ")
        payload = json.loads(err[len("FAIL "):])
        assert payload["tree"] == FIG_TREE and payload["class"] == "1000"
        assert payload["tol"] == 1e-30 and len(payload["values"]) == 2

    def test_tree_over_leaf_budget(self, capsys):
        twelve = "(" * 11 + "1," + ",".join(f"{i})" for i in range(2, 13)) + ";"
        for argv in (
            ("vertices", "--tree", twelve),
            ("rti-facets", "--tree", twelve, "--ideal", ""),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and err.startswith("error:"), argv[0]

    def test_counting_commands_leaf_budget(self, capsys):
        # ehrhart and volume accept 12 leaves, every other command 10; the
        # error names the budget
        thirteen = "(" * 12 + "1," + ",".join(f"{i})" for i in range(2, 14)) + ";"
        for argv, budget in (
            (("ehrhart", "--leaves", "13"), "12"),
            (("ehrhart", "--tree", thirteen), "12"),
            (("volume", "--leaves", "13"), "12"),
            (("volume", "--tree", thirteen), "12"),
            (("survey", "--leaves", "11"), "10"),
            (("vertices", "--leaves", "11"), "10"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and err.startswith("error:"), argv
            assert budget in err, (argv, err)

    @pytest.mark.parametrize("name", subcommands(build_parser()))
    def test_subcommand_help(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: cfnmc {name} ")

    @pytest.mark.parametrize("newick", ["(1,", "(", "((1,2),"])
    def test_truncated_newick(self, capsys, newick):
        # input that ends inside a subtree is malformed, not a crash
        code, out, err = run(capsys, "vertices", "--tree", newick)
        assert code == 2 and out == ""
        assert err.startswith("error: unexpected end of input"), err

    def test_deep_nesting(self, capsys):
        deep = "(" * 1200 + "1," + ",".join(f"{i})" for i in range(2, 1202)) + ";"
        code, out, err = run(capsys, "vertices", "--tree", deep)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_nni_check_with_no_move(self, capsys):
        # a 2-leaf tree has no NNI move, so nothing would be checked
        for argv in (("--tree", "(1,2);"), ("--leaves", "2")):
            code, out, err = run(capsys, "nni-check", *argv, "--json")
            assert code == 2 and out == "" and err.startswith("error:"), argv

    def test_model_check_with_no_binomial(self, capsys):
        # no shape on 2 or 3 leaves has a generator, so nothing would be checked
        for argv in (("--tree", "(1,2);"), ("--leaves", "2"), ("--leaves", "3")):
            code, out, err = run(capsys, "model-check", *argv, "--samples", "2")
            assert code == 2 and out == "" and err.startswith("error:"), argv

    def test_gens_malformed_input_prints_nothing(self, capsys):
        # gens builds its tree entries as it prints them; every malformed
        # input is rejected before the first byte
        for argv in (("--leaves", "1"), ("--leaves", "11"), ("--tree", "1;")):
            for fmt in ((), ("--json",)):
                code, out, err = run(capsys, "gens", *argv, *fmt)
                assert code == 2 and out == "" and err.startswith("error:"), argv

    def test_closed_pipe(self):
        # a reader that stops early: exit 141 (128 + SIGPIPE), no traceback
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "cfnmc.cli", "gens", "--leaves", "8", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        with proc:
            assert proc.stdout.read(100).startswith(b'{\n  "trees": [')
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 141
        assert err == b""

    def test_dilate_below_one(self, capsys):
        # below 1, and above n - 1, where the counts at m = 1..n-1 already
        # fix both Ehrhart polynomials
        for dilate in ("0", "-1", "4"):
            code, out, err = run(
                capsys, "nni-check", "--tree", "((1,2),(3,4));", "--dilate", dilate
            )
            assert code == 2 and out == "" and err.startswith("error:")
        code, _, _ = run(capsys, "nni-check", "--tree", "((1,2),(3,4));", "--dilate", "3")
        assert code == 0


class TestDeterminism:
    def test_json_byte_identical(self, capsys):
        a = run(capsys, "gens", "--tree", FIG_TREE, "--json")
        b = run(capsys, "gens", "--tree", FIG_TREE, "--json")
        assert a == b

    def test_survey_repeat_runs_identical(self, capsys):
        a = run(capsys, "survey", "--leaves", "5", "--json")
        b = run(capsys, "survey", "--leaves", "5", "--json")
        assert a[0] == b[0] == 0
        assert a == b

    @pytest.mark.parametrize(
        "n, digest",
        [
            (6, "2c4a5bd179bc1ec7ab8f235d914e2cebc6cf0b459ccede5066b469d7b32e87ad"),
            (7, "b53277d27fde41f367def6bc245bd2c513fa701da298a7f784197546200664f1"),
            (8, "c91b4bb6bf81c7155309fda1fc5bbfa80594c1db3c4353fce22038a311c387c8"),
        ],
    )
    def test_gens_output_pinned(self, capsys, n, digest):
        # Pins generators, markings and provenance for every shape with
        # n <= 8, beyond the 5-leaf golden file.
        code, out, _ = run(capsys, "gens", "--leaves", str(n), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.slow
    def test_gens_output_pinned_at_nine(self, capsys):
        # 46 shapes, 44,898 generators, 11 MB of JSON
        code, out, _ = run(capsys, "gens", "--leaves", "9", "--json")
        assert code == 0
        digest = "27cb4d7430988dacbf6d2a8227d7f35b2259ce46ce8bb29ee5348406341ee14a"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "n, digest",
        [
            (9, "de61f1ade187e81f43dbb0d75afa83731ca6ec92af30198897d6740bc5e7f921"),
            (10, "c9714865a90ddcb12e091ffdc39f99862bd067f1374de596fc4996108192af34"),
        ],
    )
    def test_facets_output_pinned(self, capsys, n, digest):
        # Pins the closed-form facets, cluster inequalities included, of
        # every shape with 9 and 10 leaves, past the sizes the hull oracle
        # compares in the tests.
        code, out, _ = run(capsys, "facets", "--leaves", str(n), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("model-check", "--leaves", "7", "--samples", "20", "--seed", "1"),
                "c7274e26084a8be53262e26a126e5d962b63c5b83fcd399b08fafd0b03e75b6e",
            ),
            (
                ("nni-check", "--leaves", "6", "--dilate", "3"),
                "4aea5a1c079f38700b772388800b2ab8cf75976df169a9d539bc1eabfd21b872",
            ),
            (
                ("nni-check", "--leaves", "7", "--dilate", "3"),
                "4e279c15baf3615b7b3fa33a84f68a7ca0d1c585fed9bb25c99328ec11dad7c7",
            ),
            (
                ("markov-check", "--leaves", "6", "--degree", "4"),
                "4054da352bfa94a1d718315007af8963e4bbc68c5d92bc15f31915476079cf95",
            ),
            (
                ("markov-check", "--leaves", "7", "--degree", "3"),
                "86c29f9a7929fea446ddcf0fbb622e459a8ee7639d8fd92c57489448b53bf060",
            ),
            (
                ("groebner-check", "--leaves", "7"),
                "c66b3868f450d9c10645b461a908c4f7cf0ad0fc32b17cdd950a0ad294686dd3",
            ),
            (
                ("vertices", "--leaves", "10"),
                "0abcf0646aa7393332e8898df66d535e6c0f645cd3000002b031fc97f6448799",
            ),
            (
                ("model-check", "--leaves", "8", "--samples", "3", "--seed", "2"),
                "a1af0efcb090d81449d938fb1fcd44f53287d3dfa15014237928375956ed6396",
            ),
            (
                ("model-check", "--leaves", "9", "--samples", "2", "--seed", "3"),
                "2183d59851b17c254d4b86fb2b676073436f59c7b5eef19408e1e7edd93a33ba",
            ),
        ],
    )
    def test_check_output_pinned(self, capsys, argv, digest):
        # Pins the per-move dilate counts and audits, the float bits of
        # every max_residual of the seeded model checks, the fiber walks'
        # report, the certified generator counts and the top-vectors of
        # every 10-leaf shape.
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("rti-facets", "--tree", RTI_TREE, "--ideal", ideal),
                digest,
            )
            for ideal, digest in [
                ("", "c6a82f2f76db1aa251f6c57407be275307932aab8000c5ecaabe243e138b7bca"),
                ("3", "3919abf50a716ddd5e12a6883052c763c27bcf1f288320ce2f47cf33428de46d"),
                ("3,4", "f033982eb1ead3a0bbc553559715e22fa9cacf92902de9f49a3c4a45306b90dc"),
                ("2,3,4", "62c6bb88ac63c88f844d5753870b98b0fbce05fbfbbf8a75c767b00cb09d6f8a"),
                ("1,2,3,4", "99d128942e5da35836baba8ef48042530132554c24d517a1e3b25db7b07f7b8d"),
                ("5", "11c7b369ae510ebef5abeed61f66a4d69003a0984189bdfa3845ef7af298ea94"),
                ("2,3,4,5", "40e7b6412eae36d2b8897bce509d97d1bdaf9f3c3b4b81e37d56afd2dec5f20a"),
                ("1,2,3,4,5", "ce819fab9408547411bb307456b5240125a75e689c95107dbe60dfca8c1063c5"),
                ("0,1,2,3,4,5", "f407bf3377bd3e80a328e666c2e9d46b6158c9df4d3a43e6c1de1203b4dcc887"),
            ]
        ]
        + [
            (
                ("rti-facets", "--tree", "(1,2);", "--ideal", ""),
                "75d41270a7d466243a8cde59e8ddf8887ca6a3a22c224f50625ed6859817a58d",
            ),
            (
                ("rti-facets", "--tree", "(1,2);", "--ideal", "0"),
                "7aa9584c1dd9e71ae266c59750a46d30dcbb833cb9a2ee1d24711a4290a631bd",
            ),
            (
                ("rti-facets", "--tree", "((1,2),3);", "--ideal", ""),
                "bb646f8171d1539d0554a94a04af566fdd1e399eaddda34ca1e2062119818449",
            ),
            (
                ("facets", "--leaves", "2"),
                "ae35a1c3db2b83130fe3b00898852a52c5c712204f7701fb3825e42f4a80340e",
            ),
        ],
    )
    def test_rti_facets_pinned(self, capsys, argv, digest):
        # Pins every R_T(I) facet family in output order: the root
        # equality, local, nonneg, adjacency and cluster rows along a chain
        # of order ideals ("1,2,3,4,5" has both maximal-node adjacency rows
        # and the root y >= 0 row), and the 2- and 3-leaf degenerate rows.
        code, out, _ = run(capsys, *argv, "--verify-hull", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_groebner_check_eight_leaf_failure(self, capsys):
        # the first 8-leaf shape whose constructed markings are not a
        # Groebner basis, in shape order
        code, out, err = run(capsys, "groebner-check", "--leaves", "8")
        assert code == 1 and out == ""
        assert err == (
            'FAIL {"groebner": false, "squarefree": true, '
            '"tree": "(1,((2,3),(4,((5,6),(7,8)))));"}\n'
        )


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


def emitted(value) -> str:
    """What --json prints for payload value."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(argparse.Namespace(json=True), value)
    return out.getvalue()


def want(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


class TestJsonWriter:
    @given(JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, value):
        assert emitted(value) == want(value)
        if isinstance(value, list):
            # a lazy list prints as the list it yields
            assert emitted(iter(value)) == want(value)
            assert emitted({"trees": iter(value)}) == want({"trees": value})

    def test_empty_lazy_list(self):
        assert emitted(iter([])) == "[]\n"
        assert emitted({"trees": iter([])}) == '{\n  "trees": []\n}\n'

    @given(st.lists(st.text(), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_string_lists_and_tuples(self, strings):
        # non-ASCII and empty strings come from st.text()
        for value in (strings, tuple(strings), {"k": strings}, [strings, [strings]]):
            assert emitted(value) == want(value)

    @given(st.dictionaries(st.text(max_size=4), st.text(), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_dicts_of_strings(self, value):
        for nested in (value, {"d": value}, [value, value]):
            assert emitted(nested) == want(nested)

    def test_fixed_string_cases(self):
        cases = [
            ["", "\u00e9", "\u2603 snow", "a\"b\\c\n", "\U0001f600"],
            ("plus", "", "\u00ff"),
            {"initial": "plus", "minus": ["0010", "0001"], "x": "", "y": "\u00e9"},
            ["a", 1, "b"],
            [1, "a"],
            ["a", None, True, 2.5, ["b"], {"c": "d"}, ()],
            {"a": ["x", 2], "b": [], "c": {}, "d": "", "e": ("t",)},
        ]
        for value in cases:
            assert emitted(value) == want(value), value

    def test_tuples_and_non_str_keys(self):
        # tuples print as lists, at every depth
        payload = {"a": (1, (2,)), "b": (), "c": [{"d": ((3,), ())}]}
        assert emitted(payload) == want(payload)

    def test_human_lazy_list(self, capsys):
        # a lazy list prints as the list it yields without --json too
        human = argparse.Namespace(json=False)
        for items in ([], [1, "a"], [{"a": 1}, {"b": [2]}], [[1], [2]]):
            _emit(human, {"k": items})
            eager = capsys.readouterr().out
            _emit(human, {"k": iter(items)})
            assert capsys.readouterr().out == eager, items

    def test_gens_memory(self):
        # --json writes each tree entry as it is built; holding every entry
        # and then the whole 1.7 MB document as one string peaked at 6.0 MB
        with contextlib.redirect_stdout(_Discard()):
            assert main(["gens", "--leaves", "4", "--json"]) == 0  # load the layers
            tracemalloc.start()
            try:
                assert main(["gens", "--leaves", "8", "--json"]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 1.5e6, peak


class TestSurvey:
    def test_five_leaves(self, capsys):
        code, out, _ = run(capsys, "survey", "--leaves", "5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["shapes"] == 3
        assert payload["vertices"] == 8
        assert payload["volume"] == 5
        assert payload["ehrhart_identical"] is True


class TestDispatch:
    """main calls commands.cmd_<name> for the subcommand <name>, a dash read
    as an underscore, so the names must match on both sides."""

    def test_every_subcommand_has_one_handler(self):
        names = subcommands(build_parser())
        handlers = {name for name, fn in vars(commands).items() if name.startswith("cmd_") and callable(fn)}
        assert {"cmd_" + name.replace("-", "_") for name in names} == handlers
        assert names


class TestCommands:
    def test_gens_golden(self, capsys):
        code, out, _ = run(capsys, "gens", "--tree", FIG_TREE, "--json")
        assert code == 0
        payload = json.loads(out)
        gens = payload["trees"][0]["generators"]
        assert len(gens) == 6
        provs = sorted(g["provenance"] for g in gens)
        assert provs == ["Root"] * 3 + ["Swap"] * 3

    def test_volume(self, capsys):
        code, out, _ = run(capsys, "volume", "--tree", FIG_TREE, "--json")
        assert code == 0
        assert json.loads(out)["trees"][0]["volume"] == 5

    def test_volume_and_ehrhart_at_twelve_leaves(self, capsys):
        twelve = "(" * 11 + "1," + ",".join(f"{i})" for i in range(2, 13)) + ";"
        code, out, _ = run(capsys, "volume", "--tree", twelve, "--json")
        assert code == 0
        assert json.loads(out)["trees"][0]["volume"] == 353792  # E_11
        code, out, _ = run(capsys, "ehrhart", "--tree", twelve, "--json")
        assert code == 0
        assert json.loads(out)["trees"][0]["normalized_volume"] == 353792

    def test_facets_verify_hull(self, capsys):
        code, _, _ = run(
            capsys, "facets", "--tree", FACET_TREE, "--verify-hull", "--json"
        )
        assert code == 0

    def test_rti_facets(self, capsys):
        code, out, _ = run(
            capsys,
            "rti-facets",
            "--tree",
            FACET_TREE,
            "--ideal",
            "1,2,3,4",
            "--verify-hull",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["hull_agrees"] is True

    def test_groebner_check(self, capsys):
        code, _, _ = run(capsys, "groebner-check", "--leaves", "5", "--json")
        assert code == 0

    def test_markov_check(self, capsys):
        code, _, _ = run(
            capsys, "markov-check", "--tree", FIG_TREE, "--degree", "3"
        )
        assert code == 0

    def test_model_check(self, capsys):
        code, out, _ = run(
            capsys,
            "model-check", "--tree", FIG_TREE,
            "--samples", "10", "--seed", "1", "--tol", "1e-9", "--json",
        )
        assert code == 0
        assert json.loads(out)["trees"][0]["pass"] is True

    def test_nni_check(self, capsys):
        code, _, _ = run(
            capsys, "nni-check", "--tree", FIG_TREE, "--dilate", "2", "--json"
        )
        assert code == 0

    def test_ehrhart(self, capsys):
        code, out, _ = run(capsys, "ehrhart", "--tree", "((1,2),3);", "--json")
        assert code == 0
        payload = json.loads(out)["trees"][0]
        assert payload["polynomial"] == ["1", "3/2", "1/2"]
        assert payload["counts"][2] == {"m": 2, "count": 6}
