import contextlib
import gc
import io
import json
import shlex
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import holefinder.cli
import holefinder.convexity
from holefinder.cli import (
    PointFileError,
    _verify_document,
    load_point_file,
    main,
    write_point_file,
)
from holefinder.convexity import (
    convex_hull,
    max_convex_position_subset,
    max_convex_size,
    peel_layers,
)
from holefinder.generators import grid, random_bounded_collinear, random_general_position
from holefinder.geometry import GeometryError, max_collinear
from holefinder.holes import find_k_hole, is_hole
from holefinder.oracle import DEFAULT_BUDGET

from convex_reference import reference_convex_subset


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


def test_analyze_does_not_walk(tmp_path, runner, monkeypatch):
    # Both maxima come from the size table; only hole searches walk (empty).
    walk = holefinder.convexity._convex_walk
    walks = []

    def counting(pts, target, empty=False):
        if not empty:
            walks.append(target)
        return walk(pts, target, empty)

    monkeypatch.setattr(holefinder.convexity, "_convex_walk", counting)
    for name, pts in (("grid4", grid(4)), ("random16", random_general_position(16, 0))):
        path = tmp_path / f"{name}.txt"
        write_point_file(str(path), pts)
        most = len(max_convex_position_subset(pts))
        most_strict = len(reference_convex_subset(sorted(pts), True, len(pts) + 1))
        walks.clear()
        result = runner.invoke(main, ["analyze", str(path)])
        assert result.exit_code == 0
        assert walks == []
        # The table's sizes are the walk's.
        assert f"max_convex_subset: {most}\n" in result.output
        assert f"max_strictly_convex_subset: {most_strict}\n" in result.output


def _analyze_output(tmp_path, runner, pts):
    path = tmp_path / "pts.txt"
    write_point_file(str(path), pts)
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code == 0
    return result.output


def test_analyze_runs_the_strict_table_only_with_three_collinear(
    tmp_path, runner, monkeypatch
):
    table = holefinder.cli.max_convex_size
    calls = []

    def recording(pts, strict=False):
        calls.append(strict)
        return table(pts, strict)

    monkeypatch.setattr(holefinder.cli, "max_convex_size", recording)
    for pts, expected in (
        (random_general_position(16, 0), [False]),
        (grid(4), [False, True]),
        ([(0, 0), (4, 0), (4, 4), (0, 4), (2, 0)], [False, True]),
    ):
        calls.clear()
        _analyze_output(tmp_path, runner, pts)
        assert calls == expected


def test_analyze_stops_the_hole_sweep_at_the_first_absent_size(
    tmp_path, runner, monkeypatch
):
    search = holefinder.cli.find_k_hole
    sizes = []

    def recording(pts, k):
        sizes.append(k)
        return search(pts, k)

    monkeypatch.setattr(holefinder.cli, "find_k_hole", recording)
    # Grids have a 4-hole and no 5-hole, so no 6- or 7-hole either.  On
    # grid(5)'s 25 points the budget refuses k = 6 and 7 anyway.
    for pts in (grid(4), grid(5)):
        sizes.clear()
        output = _analyze_output(tmp_path, runner, pts)
        assert sizes == [3, 4, 5]
        assert "largest_hole: 4\n" in output


def _reference_report(pts):
    """analyze's report computed from both size tables and every hole
    search the budget allows."""
    n = len(pts)
    lines = [
        f"points: {n}",
        f"max_collinear: {max_collinear(pts)[0]}",
        f"max_convex_subset: {max_convex_size(pts)}",
        f"max_strictly_convex_subset: {max_convex_size(pts, strict=True)}",
    ]
    found, searched = [], False
    for k in range(3, 8):
        limit = DEFAULT_BUDGET.holes_small if k <= 5 else DEFAULT_BUDGET.holes_large
        if n > limit:
            lines.append(f"hole_{k}: budget refused ({n} > {limit} points)")
            continue
        searched = True
        if find_k_hole(pts, k) is not None:
            found.append(k)
    if not searched:
        largest = f"budget refused ({n} > {DEFAULT_BUDGET.holes_small} points)"
    else:
        largest = max(found, default="none")
    lines.append(f"largest_hole: {largest}")
    layers, _ = peel_layers(pts, convex_hull(pts).boundary, n)
    lines.append(f"convex_layers: {[len(layer) for layer in layers]}")
    return "".join(line + "\n" for line in lines)


REPORT_INPUTS = {
    **{
        f"general-{n}-{s}": random_general_position(n, s)
        for n, s in ((6, 0), (12, 1), (16, 2), (24, 3))
    },
    **{
        f"bounded4-{n}-{s}": random_bounded_collinear(n, 4, s)
        for n, s in ((10, 0), (14, 1), (22, 2))
    },
    "grid4": grid(4),
    "grid5": grid(5),
    "line5": [(i, 0) for i in range(5)],  # not even a 3-hole
    # Three collinear points, and maxima of 5 and 4.
    "square-edge": [(0, 0), (4, 0), (4, 4), (0, 4), (2, 0)],
}


@pytest.mark.parametrize("label", REPORT_INPUTS)
def test_analyze_report_matches_the_reference(tmp_path, runner, label):
    pts = REPORT_INPUTS[label]
    assert _analyze_output(tmp_path, runner, pts) == _reference_report(pts)


def test_analyze_rejects_bad_file(tmp_path, runner):
    path = write(tmp_path, "bad.txt", "zap\n")
    result = runner.invoke(main, ["analyze", path])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "redirect, text, args",
    [
        (contextlib.redirect_stdout, SQUARE_TEXT, ["analyze"]),
        (contextlib.redirect_stderr, "zap\n", ["analyze"]),
        (contextlib.redirect_stdout, None, ["bounds", "5", "4"]),
        (contextlib.redirect_stderr, None, ["bounds", "2", "4"]),
        (contextlib.redirect_stdout, None, ["--version"]),
    ],
    ids=["analyze", "analyze-error", "bounds", "bounds-error", "version"],
)
def test_in_process_runs_free_redirected_streams(tmp_path, redirect, text, args):
    # A caller that runs the CLI in process and drops its stream gets the
    # memory back: nothing in the CLI keeps a reference to sys.stdout/stderr.
    if text is not None:
        args = args + [write(tmp_path, "pts.txt", text)]
    refs = []
    for _ in range(3):
        stream = io.StringIO()
        with redirect(stream):
            with pytest.raises(SystemExit):
                main(args)
        assert stream.getvalue()
        refs.append(weakref.ref(stream))
        del stream
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_analyze_two_points(tmp_path, runner):
    path = write(tmp_path, "two.txt", "0 0\n3 1\n")
    result = runner.invoke(main, ["analyze", path])
    assert result.exit_code == 0
    assert "max_convex_subset: 2" in result.output
    assert "max_strictly_convex_subset: 2" in result.output


def test_analyze_convex_maxima_past_forty_points(tmp_path, runner):
    # The size table is polynomial; a walk over 45 points in convex position
    # would meet every subset of them.
    pts = [(i, i * i) for i in range(45)]
    path = tmp_path / "parabola.txt"
    write_point_file(str(path), pts)
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code == 0
    assert "max_convex_subset: 45\n" in result.output
    assert "max_strictly_convex_subset: 45\n" in result.output


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
    # No hole size was searched, so no answer is claimed.
    assert "largest_hole: budget refused (49 > 30 points)\n" in result.output
    assert "largest_hole: none" not in result.output


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


def test_extract_unwritable_out_is_bad_input(tmp_path, runner):
    path = write(tmp_path, "p.txt", PENTA_TEXT)
    out = str(tmp_path / "missing" / "cert.json")
    result = runner.invoke(main, ["extract", path, "--ell", "3", "--out", out])
    assert result.exit_code == 2
    assert result.output.startswith("error: ")


def test_extract_rejects_bad_ell(tmp_path, runner):
    path = write(tmp_path, "sq.txt", SQUARE_TEXT)
    result = runner.invoke(main, ["extract", path, "--ell", "1"])
    assert result.exit_code == 2


def test_extract_rejects_bad_k(tmp_path, runner):
    path = write(tmp_path, "sq.txt", SQUARE_TEXT)
    result = runner.invoke(main, ["extract", path, "--ell", "6", "--k", "0"])
    assert result.exit_code == 2
    assert result.output == "error: extract needs k >= 1\n"


# --- generate -----------------------------------------------------------


def test_generate_grid_round_trip(tmp_path, runner):
    out = str(tmp_path / "grid.txt")
    result = runner.invoke(main, ["generate", "grid", "4", "--out", out])
    assert result.exit_code == 0
    assert len(load_point_file(out)) == 16


def test_generate_unwritable_out_is_bad_input(tmp_path, runner):
    out = str(tmp_path / "missing" / "grid.txt")
    result = runner.invoke(main, ["generate", "grid", "4", "--out", out])
    assert result.exit_code == 2
    assert result.output.startswith("error: ")


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


def test_generate_random_general_position_needs_a_point(runner):
    result = runner.invoke(main, ["generate", "random_general_position", "0"])
    assert result.exit_code == 2
    assert result.output == "error: random_general_position needs n >= 1\n"


@pytest.mark.parametrize(
    "args",
    [
        ["random_general_position", "3", "4", "5"],
        ["random_bounded_collinear", "10", "3", "7"],
        ["eppstein_e", "9"],
    ],
)
def test_generate_rejects_unused_parameters(runner, args):
    result = runner.invoke(main, ["generate", *args])
    assert result.exit_code == 2
    assert result.output.startswith("error: ")


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


def test_verify_rejects_inconclusive_document(tmp_path, runner):
    # No 5 collinear points and no 5-hole in the 4x4 grid: extract exits 3
    # and its document, with an "exhausted" field, is no certificate.
    path = tmp_path / "grid.txt"
    write_point_file(str(path), grid(4))
    out = str(tmp_path / "inc.json")
    result = runner.invoke(main, ["extract", str(path), "--ell", "5", "--out", out])
    assert result.exit_code == 3
    assert json.loads(open(out).read())["exhausted"] is True
    result = runner.invoke(main, ["verify", str(path), out])
    assert result.exit_code == 1
    assert (
        "invalid certificate: an inconclusive result is not a certificate"
        in result.output
    )


def test_verify_rejects_one_point_collinear_document(tmp_path, runner):
    path = write(tmp_path, "p.txt", PENTA_TEXT)
    doc = {
        "kind": "collinear",
        "parameter": 1,
        "points": [[0, 0]],
        "tool_version": "1.0.0",
    }
    cert = write(tmp_path, "cert.json", json.dumps(doc))
    result = runner.invoke(main, ["verify", path, cert])
    assert result.exit_code == 1
    assert (
        "invalid certificate: a collinear certificate needs at least 2 points"
        in result.output
    )


@pytest.mark.parametrize(
    "parameter, points",
    [(-3, [[0, 0], [1, 1]]), (0, [[0, 0], [1, 1], [2, 2]]), (1, [[0, 0], [1, 1]])],
)
def test_verify_rejects_collinear_parameter_below_two(
    tmp_path, runner, parameter, points
):
    path = write(tmp_path, "p.txt", "0 0\n1 1\n2 2\n5 0\n")
    doc = {"kind": "collinear", "parameter": parameter, "points": points,
           "tool_version": "1.0.0"}
    cert = write(tmp_path, "cert.json", json.dumps(doc))
    result = runner.invoke(main, ["verify", path, cert])
    assert result.exit_code == 1
    assert "invalid certificate: a collinear certificate's parameter is at least 2" in (
        result.output
    )


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


# A square around its centre, and a point that puts three on its bottom line.
TABLE_TEXT = "0 0\n4 0\n4 4\n0 4\n2 2\n8 0\n"
EMPTY_TRIANGLE = [[0, 0], [4, 0], [2, 2]]
BOTTOM_LINE = [[0, 0], [4, 0], [8, 0]]


def _doc(kind, parameter, points, **extra):
    return {"kind": kind, "parameter": parameter, "points": points,
            "tool_version": "1.0.0", **extra}


def test_verify_accepts_a_collinear_document_with_more_points(tmp_path, runner):
    # 2 <= parameter <= len(points): five points of a grid column prove that
    # the grid has 3 collinear points.
    path = tmp_path / "grid.txt"
    write_point_file(str(path), grid(5))
    doc = _doc("collinear", 3, [[0, y] for y in range(5)])
    cert = write(tmp_path, "cert.json", json.dumps(doc))
    result = runner.invoke(main, ["verify", str(path), cert])
    assert (result.exit_code, result.output) == (0, "certificate valid\n")


# One document per message of verify, each breaking one condition of a valid
# certificate.  The one-point document is the exception: a collinear
# document's parameter is at most its point count, so with one point the
# parameter is below 2 as well.
VERIFY_TABLE = [
    ("document is not a JSON object", [EMPTY_TRIANGLE]),
    ("an inconclusive result is not a certificate",
     {"kind": "inconclusive", "exhausted": True, "tool_version": "1.0.0"}),
    ("unknown fields: ['extra']", _doc("hole", 3, EMPTY_TRIANGLE, extra=1)),
    ("missing field: tool_version",
     {"kind": "hole", "parameter": 3, "points": EMPTY_TRIANGLE}),
    ("parameter is not an integer", _doc("collinear", "3", BOTTOM_LINE)),
    ("points are not integer pairs", _doc("hole", 3, [[0, 0], [4, 0], [2, 2.0]])),
    ("certificate point not in the point set", _doc("hole", 3, [[0, 0], [4, 0], [3, 1]])),
    ("duplicate certificate points", _doc("collinear", 3, BOTTOM_LINE + [[8, 0]])),
    ("fewer points than the stated collinearity", _doc("collinear", 4, BOTTOM_LINE)),
    ("a collinear certificate needs at least 2 points", _doc("collinear", 1, [[0, 0]])),
    ("points are not collinear", _doc("collinear", 3, [[0, 0], [4, 0], [4, 4]])),
    ("a collinear certificate's parameter is at least 2", _doc("collinear", 1, BOTTOM_LINE)),
    ("point count disagrees with the stated parameter", _doc("hole", 4, EMPTY_TRIANGLE)),
    ("a hole has at least 3 points", _doc("hole", 2, [[0, 0], [4, 0]])),
    ("not strictly convex", _doc("hole", 3, BOTTOM_LINE)),
    ("hull not empty", _doc("hole", 4, [[0, 0], [4, 0], [4, 4], [0, 4]])),
    ("unknown certificate kind: 'line'", _doc("line", 3, BOTTOM_LINE)),
]


@pytest.mark.parametrize(
    "message, doc", VERIFY_TABLE, ids=[message for message, _ in VERIFY_TABLE]
)
def test_verify_prints_the_broken_condition(tmp_path, runner, message, doc):
    path = write(tmp_path, "p.txt", TABLE_TEXT)
    cert = write(tmp_path, "cert.json", json.dumps(doc))
    result = runner.invoke(main, ["verify", path, cert])
    assert (result.exit_code, result.output) == (1, f"invalid certificate: {message}\n")


@pytest.mark.parametrize(
    "doc",
    [_doc("hole", 3, EMPTY_TRIANGLE), _doc("collinear", 3, BOTTOM_LINE),
     _doc("collinear", 2, BOTTOM_LINE)],
    ids=["hole", "collinear", "collinear-more-points"],
)
def test_verify_accepts_the_table_certificates(tmp_path, runner, doc):
    path = write(tmp_path, "p.txt", TABLE_TEXT)
    cert = write(tmp_path, "cert.json", json.dumps(doc))
    result = runner.invoke(main, ["verify", path, cert])
    assert (result.exit_code, result.output) == (0, "certificate valid\n")


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
