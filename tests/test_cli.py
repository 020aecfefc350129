import argparse
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfnmc.cli import _dumps, _emit, main

from helpers import FACET_TREE, FIG_TREE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_tol_not_finite_or_negative(self, capsys):
        for tol in ("inf", "nan", "-1e-9"):
            code, out, err = run(
                capsys, "model-check", "--tree", FIG_TREE, "--samples", "1", f"--tol={tol}"
            )
            assert code == 2 and out == "" and err.startswith("error:"), tol

    def test_tree_over_leaf_budget(self, capsys):
        twelve = "(" * 11 + "1," + ",".join(f"{i})" for i in range(2, 13)) + ";"
        for argv in (
            ("vertices", "--tree", twelve),
            ("rti-facets", "--tree", twelve, "--ideal", ""),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and err.startswith("error:"), argv[0]

    def test_deep_nesting(self, capsys):
        deep = "(" * 1200 + "1," + ",".join(f"{i})" for i in range(2, 1202)) + ";"
        code, out, err = run(capsys, "vertices", "--tree", deep)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_dilate_below_one(self, capsys):
        for dilate in ("0", "-1"):
            code, out, err = run(
                capsys, "nni-check", "--tree", "((1,2),(3,4));", "--dilate", dilate
            )
            assert code == 2 and out == "" and err.startswith("error:")


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


class TestJsonWriter:
    @given(JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, value):
        assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_tuples_and_non_str_keys(self, capsys):
        # tuples print as lists; a non-str key goes to json.dumps whole
        for payload in ({"a": (1, (2,)), "b": ()}, {"x": {1: "one", 2: [None]}}):
            _emit(argparse.Namespace(json=True), payload)
            want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
            assert capsys.readouterr().out == want


class TestSurvey:
    def test_five_leaves(self, capsys):
        code, out, _ = run(capsys, "survey", "--leaves", "5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["shapes"] == 3
        assert payload["vertices"] == 8
        assert payload["volume"] == 5
        assert payload["ehrhart_identical"] is True


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
