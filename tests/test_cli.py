import json
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import holefinder.convexity
from holefinder.cli import (
    PointFileError,
    _verify_document,
    load_point_file,
    main,
    write_point_file,
)
from holefinder.generators import grid, random_general_position
from holefinder.geometry import GeometryError, max_collinear
from holefinder.holes import is_hole


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SQUARE_TEXT = "0 0\n4 0\n4 4\n0 4\n"
PENTA_TEXT = "0 0\n10 0\n13 9\n5 15\n-3 9\n30 30\n"


# --- point files --------------------------------------------------------


def test_load_point_file_comments_and_blanks(tmp_path):
    path = write(tmp_path, "a.txt", "# header\n\n1 2\n  3 4  \n")
    assert load_point_file(path) == [(1, 2), (3, 4)]


def test_load_point_file_reports_line_numbers(tmp_path):
    path = write(tmp_path, "a.txt", "1 2\nbogus\n")
    with pytest.raises(GeometryError, match="line 2"):
        load_point_file(path)
    path = write(tmp_path, "b.txt", "1 2\n3 4\n1 2\n")
    with pytest.raises(GeometryError, match="line 3.*line 1"):
        load_point_file(path)
    path = write(tmp_path, "c.txt", "1.5 2\n")
    with pytest.raises(GeometryError, match="integer"):
        load_point_file(path)
    path = write(tmp_path, "d.txt", "# nothing\n")
    with pytest.raises(GeometryError, match="no points"):
        load_point_file(path)


@pytest.mark.parametrize("text", ["1_0 2\n", "1 \uff12\n"])  # underscore, fullwidth 2
def test_load_point_file_takes_ascii_decimals_only(tmp_path, runner, text):
    path = tmp_path / "a.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(PointFileError, match="line 1: .* decimal integers"):
        load_point_file(str(path))
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code == 2
    assert "decimal integers" in result.output


def test_point_file_round_trip(tmp_path):
    path = str(tmp_path / "out.txt")
    write_point_file(path, [(1, 2), (-3, 4)])
    assert load_point_file(path) == [(1, 2), (-3, 4)]


POINT_FILE_PIECES = [
    b"0", b"7", b"-2", b"10", b" ", b"\t", b"\n", b"\r", b"#", b"x", b"\xff", b"\xc3",
]


@settings(max_examples=300, deadline=None)
@given(
    st.binary(max_size=40)
    | st.lists(st.sampled_from(POINT_FILE_PIECES), max_size=30).map(b"".join)
)
def test_load_point_file_fuzz(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_bytes(data)
    try:
        pts = load_point_file(str(path))
    except PointFileError:
        return
    assert pts and all(type(x) is int and type(y) is int for x, y in pts)
    assert len(set(pts)) == len(pts)


# --- analyze ------------------------------------------------------------


def test_analyze_square(tmp_path, runner):
    path = write(tmp_path, "sq.txt", SQUARE_TEXT)
    result = runner.invoke(main, ["analyze", path])
    assert result.exit_code == 0
    assert "points: 4" in result.output
    assert "max_collinear: 2" in result.output
    assert "max_convex_subset: 4" in result.output
    assert "largest_hole: 4" in result.output
    assert "convex_layers: [4]" in result.output


def test_analyze_walks_once(tmp_path, runner, monkeypatch):
    # Both maxima come from one non-strict walk; hole searches walk empty.
    walk = holefinder.convexity._convex_walk
    walks = []

    def counting(pts, strict, target, empty=False):
        if not empty:
            walks.append((strict, target))
        return walk(pts, strict, target, empty)

    monkeypatch.setattr(holefinder.convexity, "_convex_walk", counting)
    for name, pts in (("grid4", grid(4)), ("random16", random_general_position(16, 0))):
        path = tmp_path / f"{name}.txt"
        write_point_file(str(path), pts)
        walks.clear()
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 0
        assert walks == [(False, len(pts) + 1)]


def test_analyze_rejects_bad_file(tmp_path, runner):
    path = write(tmp_path, "bad.txt", "zap\n")
    result = runner.invoke(main, ["analyze", path])
    assert result.exit_code == 2


def test_analyze_two_points(tmp_path, runner):
    path = write(tmp_path, "two.txt", "0 0\n3 1\n")
    result = runner.invoke(main, ["analyze", path])
    assert result.exit_code == 0
    assert "max_convex_subset: 2" in result.output
    assert "max_strictly_convex_subset: 2" in result.output


def test_analyze_rejects_undecodable_file(tmp_path, runner):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff")
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code == 2
    assert "not UTF-8" in result.output


# More digits than int() converts by default (4,300).
OVERLONG = "1" * 5000


def test_analyze_rejects_overlong_integer(tmp_path, runner):
    path = write(tmp_path, "long.txt", f"0 0\n{OVERLONG} 2\n")
    result = runner.invoke(main, ["analyze", path])
    assert result.exit_code == 2
    assert "line 2: coordinate has too many digits" in result.output


def test_analyze_budget_refusal_on_large_input(tmp_path, runner):
    pts = "".join(f"{x} {y}\n" for x in range(7) for y in range(7))
    path = write(tmp_path, "grid.txt", pts)
    result = runner.invoke(main, ["analyze", path])
    assert result.exit_code == 0
    assert "budget refused" in result.output


# --- extract ------------------------------------------------------------


def test_extract_hole_certificate(tmp_path, runner):
    path = write(tmp_path, "p.txt", PENTA_TEXT)
    out = str(tmp_path / "cert.json")
    result = runner.invoke(
        main, ["extract", path, "--ell", "3", "--trace", "--out", out]
    )
    assert result.exit_code == 0
    doc = json.loads(open(out).read())
    assert doc["kind"] == "hole"
    assert doc["parameter"] == 5
    assert doc["verified"] is True
    assert isinstance(doc["trace"], list) and doc["trace"]
    verify = runner.invoke(main, ["verify", path, out])
    assert verify.exit_code == 0
    assert "certificate valid" in verify.output


def test_extract_collinear_certificate(tmp_path, runner):
    path = write(tmp_path, "line.txt", "0 0\n1 1\n2 2\n5 0\n")
    out = str(tmp_path / "cert.json")
    result = runner.invoke(main, ["extract", path, "--ell", "3", "--out", out])
    assert result.exit_code == 0
    doc = json.loads(open(out).read())
    assert doc["kind"] == "collinear"
    assert doc["parameter"] == 3
    assert runner.invoke(main, ["verify", path, out]).exit_code == 0


def test_extract_inconclusive_exit_code(tmp_path, runner):
    pts = "".join(f"{x} {y}\n" for x in range(3) for y in range(3))
    path = write(tmp_path, "grid.txt", pts)
    result = runner.invoke(main, ["extract", path, "--ell", "4", "--no-fallback"])
    assert result.exit_code == 3
    doc = json.loads(result.output)
    assert doc["kind"] == "inconclusive"
    assert doc["exhausted"] is False


def test_extract_rejects_undecodable_file(tmp_path, runner):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff")
    result = runner.invoke(main, ["extract", str(path), "--ell", "3"])
    assert result.exit_code == 2
    assert "not UTF-8" in result.output


def test_extract_rejects_overlong_integer(tmp_path, runner):
    path = write(tmp_path, "long.txt", f"{OVERLONG} 2\n")
    result = runner.invoke(main, ["extract", path, "--ell", "3"])
    assert result.exit_code == 2
    assert "line 1: coordinate has too many digits" in result.output


def test_extract_trace_with_unprintable_threshold(tmp_path, runner):
    # threshold_k(3000) has about 9,900 digits; with ell >= n the cap is n
    # and the trace does not hold it.
    path = tmp_path / "p.txt"
    write_point_file(str(path), random_general_position(12, 0))
    result = runner.invoke(main, ["extract", str(path), "--ell", "3000", "--trace"])
    doc = json.loads(result.output)
    assert result.exit_code == (3 if doc["kind"] == "inconclusive" else 0)
    assert doc["trace"][0] == {"kind": "reduced-k", "detail": {"k": 9, "requested": None}}


def test_extract_rejects_bad_ell(tmp_path, runner):
    path = write(tmp_path, "sq.txt", SQUARE_TEXT)
    result = runner.invoke(main, ["extract", path, "--ell", "1"])
    assert result.exit_code == 2


# --- generate -----------------------------------------------------------


def test_generate_grid_round_trip(tmp_path, runner):
    out = str(tmp_path / "grid.txt")
    result = runner.invoke(main, ["generate", "grid", "4", "--out", out])
    assert result.exit_code == 0
    assert len(load_point_file(out)) == 16


def test_generate_seeded_is_deterministic(runner):
    args = ["generate", "random_general_position", "8", "--seed", "5"]
    a = CliRunner().invoke(main, args)
    b = CliRunner().invoke(main, args)
    assert a.exit_code == 0
    assert a.output == b.output


def test_generate_rejects_bad_parameters(runner):
    result = runner.invoke(main, ["generate", "grid", "1"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["generate", "horton", "12"])
    assert result.exit_code == 2


# --- verify -------------------------------------------------------------


def make_cert(tmp_path, runner, text=PENTA_TEXT):
    path = write(tmp_path, "p.txt", text)
    out = str(tmp_path / "cert.json")
    assert (
        runner.invoke(main, ["extract", path, "--ell", "3", "--out", out]).exit_code
        == 0
    )
    return path, out, json.loads(open(out).read())


def test_verify_rejects_unknown_fields(tmp_path, runner):
    path, out, doc = make_cert(tmp_path, runner)
    doc["extra"] = 1
    cert2 = write(tmp_path, "cert2.json", json.dumps(doc))
    result = runner.invoke(main, ["verify", path, cert2])
    assert result.exit_code == 1
    assert "unknown fields" in result.output


def test_verify_rejects_tampered_points(tmp_path, runner):
    path, out, doc = make_cert(tmp_path, runner)
    doc["points"][0] = [99, 99]
    cert2 = write(tmp_path, "cert2.json", json.dumps(doc))
    result = runner.invoke(main, ["verify", path, cert2])
    assert result.exit_code == 1
    assert "not in the point set" in result.output


def test_verify_rejects_non_hole(tmp_path, runner):
    path = write(tmp_path, "p.txt", SQUARE_TEXT + "2 2\n")
    doc = {
        "kind": "hole",
        "parameter": 4,
        "points": [[0, 0], [4, 0], [4, 4], [0, 4]],
        "tool_version": "1.0.0",
    }
    cert = write(tmp_path, "cert.json", json.dumps(doc))
    result = runner.invoke(main, ["verify", path, cert])
    assert result.exit_code == 1
    assert "hull not empty" in result.output


def test_verify_rejects_string_parameter(tmp_path, runner):
    # Comparing the point count with a string parameter raised TypeError.
    path, out, doc = make_cert(tmp_path, runner, text="0 0\n1 1\n2 2\n5 0\n")
    assert doc["kind"] == "collinear"
    doc["parameter"] = "3"
    cert2 = write(tmp_path, "cert2.json", json.dumps(doc))
    result = runner.invoke(main, ["verify", path, cert2])
    assert result.exit_code == 1
    assert "invalid certificate: parameter is not an integer" in result.output


def test_verify_rejects_float_coordinates(tmp_path, runner):
    # int() would truncate 0.9 to 0 and accept the certificate.
    path, out, doc = make_cert(tmp_path, runner)
    i = doc["points"].index([0, 0])
    doc["points"][i] = [0.9, 0]
    cert2 = write(tmp_path, "cert2.json", json.dumps(doc))
    result = runner.invoke(main, ["verify", path, cert2])
    assert result.exit_code == 1
    assert "invalid certificate: points are not integer pairs" in result.output


def test_verify_rejects_malformed_json(tmp_path, runner):
    path = write(tmp_path, "p.txt", PENTA_TEXT)
    cert = write(tmp_path, "cert.json", "{not json")
    result = runner.invoke(main, ["verify", path, cert])
    assert result.exit_code == 2


def test_verify_rejects_undecodable_certificate(tmp_path, runner):
    path = write(tmp_path, "p.txt", PENTA_TEXT)
    cert = tmp_path / "cert.json"
    cert.write_bytes(b"\xff")
    result = runner.invoke(main, ["verify", path, str(cert)])
    assert result.exit_code == 2


def test_verify_rejects_overlong_integer_in_certificate(tmp_path, runner):
    path = write(tmp_path, "p.txt", PENTA_TEXT)
    cert = write(
        tmp_path,
        "cert.json",
        f'{{"kind": "hole", "parameter": 3, "points": [[{OVERLONG}, 0], [10, 0],'
        ' [13, 9]], "tool_version": "1.0.0"}',
    )
    result = runner.invoke(main, ["verify", path, cert])
    assert result.exit_code == 2


# The pentagon file plus a point that makes three collinear.
FUZZ_POINTS = [(0, 0), (10, 0), (13, 9), (5, 15), (-3, 9), (30, 30), (20, 0)]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=12), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def certificate_like(draw):
    """Documents shaped like certificates, so that every check of the
    verifier is reached, not only the first few."""
    points = draw(
        st.lists(
            st.sampled_from(FUZZ_POINTS).map(list)
            | st.lists(st.integers(-3, 31), min_size=2, max_size=2),
            max_size=7,
        )
    )
    doc = {
        "kind": draw(st.sampled_from(["collinear", "hole"]) | JSON_VALUES),
        "parameter": draw(st.just(len(points)) | st.integers(-1, 7) | JSON_VALUES),
        "points": draw(st.just(points) | JSON_VALUES),
        "tool_version": draw(JSON_VALUES),
    }
    for field in ("verified", "trace"):
        if draw(st.booleans()):
            doc[field] = draw(JSON_VALUES)
    return doc


@settings(max_examples=500, deadline=None)
@given(JSON_VALUES | certificate_like())
def test_verify_document_fuzz(doc):
    doc = json.loads(json.dumps(doc))
    problem = _verify_document(FUZZ_POINTS, doc)
    assert problem is None or isinstance(problem, str)
    if problem is None:
        # Accepted: distinct points of the set that meet the stated claim.
        cert = [tuple(p) for p in doc["points"]]
        assert len(set(cert)) == len(cert) and set(cert) <= set(FUZZ_POINTS)
        if doc["kind"] == "hole":
            assert len(cert) == doc["parameter"] and is_hole(FUZZ_POINTS, cert)
        else:
            assert len(cert) >= max(doc["parameter"], 2)
            assert max_collinear(cert)[0] == len(cert)


def test_verify_rejects_duplicate_collinear_points(tmp_path, runner):
    path = write(tmp_path, "p.txt", PENTA_TEXT)
    doc = {"kind": "collinear", "parameter": 3, "points": [[0, 0], [0, 0], [13, 9]],
           "tool_version": "1.0.0"}
    cert = write(tmp_path, "cert.json", json.dumps(doc))
    result = runner.invoke(main, ["verify", path, cert])
    assert result.exit_code == 1
    assert "duplicate certificate points" in result.output


# --- bounds -------------------------------------------------------------


def test_bounds_output(runner):
    result = runner.invoke(main, ["bounds", "9", "6"])
    assert result.exit_code == 0
    assert "es_bound(9) = 1717" in result.output
    assert "winner: general-position (4416127)" in result.output
    assert "q_formula(9,6) = 21" in result.output
    assert "threshold_k(6) = 177156" in result.output
    assert "quadrilateral_threshold(6) = 8" in result.output


def test_bounds_rejects_small_parameters(runner):
    assert runner.invoke(main, ["bounds", "2", "3"]).exit_code == 2


@pytest.mark.parametrize("k, ell", [("10000", "3"), ("3", "3000"), ("9" * 30, "9" * 30)])
def test_bounds_rejects_unprintable_numbers(runner, k, ell):
    result = runner.invoke(main, ["bounds", k, ell])
    assert result.exit_code == 2
    assert "digit limit" in result.output


def test_bounds_prints_long_numbers_under_the_limit(runner):
    result = runner.invoke(main, ["bounds", "7000", "3"])
    assert result.exit_code == 0
    # es_bound(7000) = comb(13995, 6998) + 1 has 4,211 digits.
    assert len(result.output.splitlines()[0]) == len("es_bound(7000) = ") + 4211


# --- README -------------------------------------------------------------


def test_readme_commands_run(tmp_path, runner, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```sh\n")[1:]
    commands = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.split("```")[0].splitlines()
        if line.startswith("holefinder ")
    ]
    assert len(commands) == 5
    (tmp_path / "points.txt").write_text(PENTA_TEXT)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        result = runner.invoke(main, argv[1:])
        assert result.exit_code == 0, (argv, result.output)
