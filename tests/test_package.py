"""The package's public names and what the CLI imports.

``cfnmc`` resolves its public names on first access, ``cfnmc.cli`` imports
``cfnmc.commands`` only once a command line has parsed, and each command
imports only the layers it reads.  The import checks run in a fresh
interpreter, since this one has every layer loaded.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cfnmc

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = {"tree", "paths", "polytope", "hull", "ehrhart", "ideal", "model"}

# The names the package exports, by the module that defines each.
EXPORTS = {
    "ehrhart": [
        "EhrhartPolynomial",
        "count_lattice_points",
        "df_compression_audit",
        "ehrhart_polynomial",
        "euler_zigzag",
        "fibonacci",
        "nni_count_check",
        "normalized_volume",
    ],
    "ideal": [
        "LiftableOrder",
        "MarkedBinomial",
        "ToricMatrix",
        "build_matrix",
        "construct_generators",
        "fiber_connectivity",
        "groebner_verify",
        "kernel_member",
    ],
    "model": [
        "ClockParams",
        "FourierPoint",
        "LeafDistribution",
        "TransformError",
        "fourier_transform",
        "invariant_check",
        "leaf_distribution",
        "sample_clock_params",
    ],
    "paths": [
        "classify_maintaining",
        "enumerate_topsets",
        "is_blocked",
        "is_valid_top_vector",
        "path_systems",
        "traversability",
    ],
    "polytope": ["Inequality", "Polytope", "build_RT", "build_RTI", "facets_RTI"],
    "tree": [
        "Cluster",
        "LeafMasks",
        "NewickError",
        "NniTriple",
        "RootedBinaryTree",
        "TreeError",
        "apply_nni",
        "enumerate_clusters",
        "enumerate_topologies",
        "parse_newick",
    ],
}


def loaded_modules(prelude: str, argv=None, exit_code: int = 0) -> set:
    """The cfnmc modules, without the prefix, that a fresh interpreter holds
    after running prelude and, given argv, ``cli.main(argv)``, which must
    return or raise SystemExit with exit_code."""
    script = "\n".join(
        [
            "import contextlib, io, json, sys",
            prelude,
            "code = 0",
            f"argv = {argv!r}",
            "if argv is not None:",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        try:",
            "            code = cli.main(argv)",
            "        except SystemExit as exc:",
            "            code = exc.code",
            "print(json.dumps([code, sorted(sys.modules)]))",
        ]
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    code, modules = json.loads(proc.stdout)
    assert code == exit_code, proc.stderr
    return {m.removeprefix("cfnmc.") for m in modules if m.startswith("cfnmc.")}


def loaded_layers(prelude: str, argv=None) -> set:
    """The layers loaded_modules finds, with ``cli.main(argv)`` exiting 0."""
    return loaded_modules(prelude, argv) & LAYERS


CLI = "from cfnmc import cli\ncli.build_parser()"


class TestImportBudget:
    def test_parser_loads_no_layer(self):
        assert loaded_layers(CLI) == set()

    def test_package_loads_no_layer(self):
        assert loaded_layers("import cfnmc") == set()

    def test_name_loads_its_module(self):
        assert loaded_layers("import cfnmc\ncfnmc.fibonacci") == {"ehrhart", "paths", "tree"}

    @pytest.mark.parametrize(
        "argv, exit_code",
        [(None, 0), (["--help"], 0), (["gens", "--leaves", "x"], 2)],
        ids=["build_parser", "help", "rejected"],
    )
    def test_parsing_loads_no_command_module(self, argv, exit_code):
        # the command bodies compile only once a command line has parsed
        assert "commands" not in loaded_modules(CLI, argv, exit_code)

    def test_command_loads_command_module(self):
        assert "commands" in loaded_modules(CLI, ["vertices", "--leaves", "4"])

    @pytest.mark.parametrize(
        "command, absent",
        [
            ("vertices", {"ideal", "model", "polytope", "hull"}),
            ("survey", {"ideal", "model"}),
            ("gens", {"model", "polytope", "hull"}),
        ],
    )
    def test_command_loads_only_its_layers(self, command, absent):
        layers = loaded_layers(CLI, [command, "--leaves", "4"])
        assert "tree" in layers and not layers & absent, layers


class TestPublicNames:
    def test_all_pinned(self):
        assert cfnmc.__all__ == sorted(name for names in EXPORTS.values() for name in names)

    def test_names_are_the_module_objects(self):
        for module, names in EXPORTS.items():
            for name in names:
                assert getattr(cfnmc, name) is getattr(importlib.import_module(f"cfnmc.{module}"), name)

    def test_star_import(self):
        namespace = {}
        exec("from cfnmc import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(cfnmc.__all__)

    def test_dir_lists_them(self):
        assert set(cfnmc.__all__) <= set(dir(cfnmc))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cfnmc.no_such_name

    def test_submodule_import(self):
        from cfnmc import hull

        assert hull is sys.modules["cfnmc.hull"]

    def test_version(self):
        assert cfnmc.__version__ == "0.1.0"
