import ast
import re
from pathlib import Path

import pytest

import holefinder
import holefinder.extractor

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so library checks must raise.
    modules = sorted(Path(holefinder.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@pytest.mark.parametrize(
    "callee, callers",
    [
        # Every angle-ordered fan comes from convexity._fans, which the chain
        # walk and the size table share.
        ("angle_order", {"convexity._fans"}),
        # One walk with two modes: convex-position subsets and holes.
        (
            "_convex_walk",
            {
                "convexity.find_convex_position_subset",
                "convexity.max_convex_position_subset",
                "holes.find_k_hole",
            },
        ),
        # No per-candidate segment scan: the hole walk reads its first edge
        # from the fan order.
        (
            "on_closed_segment",
            {
                "geometry.in_closed_triangle",
                "convexity.in_closed_hull",
                "extractor.classify_alignment",
            },
        ),
        # The hole walk tests each fan triangle against its wedge alone; no
        # whole-set triangle scan is left.
        ("in_closed_triangle", {"convexity._convex_walk", "extractor._walk"}),
    ],
    ids=["angle_order", "_convex_walk", "on_closed_segment", "in_closed_triangle"],
)
def test_one_chain_engine(callee, callers):
    assert _callers(callee) == callers


def _callers(callee):
    """module.function for every call of ``callee`` in the package, by name
    or as an attribute (a method is named without its class)."""
    found = set()
    for path in sorted(Path(holefinder.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # ast.walk goes outside in, so a nested function overwrites its parent.
        scope = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(func):
                    scope[node] = getattr(func, "name", "<lambda>")
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and callee in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                found.add(f"{path.stem}.{scope.get(node, '<module>')}")
    return found


@pytest.mark.parametrize(
    "callee, callers",
    [
        # Each certificate kind has one check, ``problem``: the builds, the
        # verifies, is_hole and the CLI's verify all answer through it.
        (
            "problem",
            {"holes.build", "holes.verify", "holes.is_hole", "cli._verify_document"},
        ),
        # The hole check runs in its private form, which hands its hull on
        # to the build.
        ("_point_problem", {"holes.problem", "holes._checked"}),
        # The extractor checks each hole once, as it builds it; the CLI
        # rechecks extract's answer.
        ("verify", {"cli.extract_cmd"}),
    ],
    ids=["problem", "_point_problem", "verify"],
)
def test_one_certificate_check(callee, callers):
    assert _callers(callee) == callers


@pytest.mark.parametrize("callee", ["is_hole", "is_strictly_convex_position"])
def test_cli_checks_no_certificate_geometry(callee):
    assert not {c for c in _callers(callee) if c.startswith("cli.")}


def test_readme_lists_extract_trace_kinds():
    # A step's kind is a literal, given to TraceStep or to _verified_hole.
    tree = ast.parse(Path(holefinder.extractor.__file__).read_text())
    kinds, passed_on = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None)
            pos = {"TraceStep": 0, "_verified_hole": 2}.get(name)
            if pos is not None:
                arg = node.args[pos]
                if isinstance(arg, ast.Constant):
                    kinds.add(arg.value)
                else:
                    passed_on.append(arg.id)
    assert set(passed_on) == {"kind"}  # _verified_hole's own steps
    section = README.read_text().split("### Trace kinds", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^- `([a-z0-9-]+)`", section, re.MULTILINE)
    assert sorted(listed) == sorted(kinds)


def test_all_matches_readme_python_api():
    section = README.read_text().split("## Python API", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^- `(\w+)`", section, re.MULTILINE)
    assert holefinder.__all__ == listed
    assert all(hasattr(holefinder, name) for name in holefinder.__all__)


def test_package_imports_no_test_reference():
    references = {path.stem for path in TESTS.glob("*_reference.py")}
    assert references
    imported = set()
    for path in sorted(Path(holefinder.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
    assert imported & references == set()


@pytest.mark.parametrize(
    "name",
    [
        "orientation",
        "perturb_general_position",
        "strictly_convex_subset_in_convex_position",
        "_select_strict",
        "_sides",
        "Arc",
        "arcs_of_layer",
        "_next_layer",
        "_crossed_arc",
        "convex_layers",
        "random_convex_position",
        "is_complete",
        "_smaller_convex_subset",
        "_hull_measure",
        "hull_twice_area",
    ],
)
def test_removed_names_stay_out_of_the_package(name):
    # No caller in the package: the perturbation and orientation are gone,
    # and the strict-subset construction and its random inputs are test
    # references.  The walk's
    # arcs are point pairs of the stored layers, and tests build layers with
    # LayerDecomposition.build.  Tests count a complete visibility graph's
    # edges themselves.  The k-minimal outer layer peels hull corners, so no
    # halfplane descent or hull measure is left.
    for path in sorted(Path(holefinder.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined = {
            getattr(node, "name", None)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert name not in defined, path.name
