"""Command-line front door: analyze, extract, generate, verify, bounds.

Exit codes: 0 success / certificate found, 1 verification failure,
2 malformed input, 3 inconclusive extraction.
"""

from __future__ import annotations

import json
import re
import sys
from math import floor, lgamma, log, log10
from typing import Optional, Sequence

import click

from . import __version__
from .convexity import (
    convex_hull,
    es_bound,
    es_kl_bound,
    is_strictly_convex_position,
    max_convex_subsets,
    peel_layers,
    q_formula,
)
from .extractor import (
    ExtractionParams,
    Inconclusive,
    extract as run_extract,
    threshold_k,
)
from .geometry import GeometryError, Point, max_collinear
from .holes import (
    CollinearCertificate,
    HoleCertificate,
    find_k_hole,
    is_hole,
)
from . import generators as gen
from .oracle import DEFAULT_BUDGET

ANALYZE_SUBSET_LIMIT = 40

DECIMAL = re.compile("[+-]?[0-9]+")

CERTIFICATE_FIELDS = {"kind", "parameter", "points", "verified", "trace", "tool_version"}


class PointFileError(GeometryError):
    """Malformed point file (message carries the offending line number)."""


def load_point_file(path: str) -> list[Point]:
    """Parse a point file: one "x y" pair per line; '#' comments and blank
    lines ignored; duplicates rejected with their line numbers."""
    pts: list[Point] = []
    seen: dict[Point, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise PointFileError(f"byte {exc.start}: not UTF-8 text") from None
    # Reading translates every line ending to "\n", as line iteration does.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise PointFileError(f"line {lineno}: expected 'x y', got {line!r}")
        # int() would also take underscores and non-ASCII digits.
        if not all(DECIMAL.fullmatch(part) for part in parts):
            raise PointFileError(f"line {lineno}: coordinates must be decimal integers")
        try:
            p = (int(parts[0]), int(parts[1]))
        except ValueError:  # past the interpreter's int conversion digit limit
            raise PointFileError(f"line {lineno}: coordinate has too many digits") from None
        if p in seen:
            raise PointFileError(f"line {lineno}: duplicate of point on line {seen[p]}")
        seen[p] = lineno
        pts.append(p)
    if not pts:
        raise PointFileError("no points in file")
    return pts


def write_point_file(path: Optional[str], pts: Sequence[Point]) -> None:
    text = "".join(f"{x} {y}\n" for x, y in pts)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def certificate_document(cert, verified: bool, trace=None) -> dict:
    if isinstance(cert, CollinearCertificate):
        kind, parameter, points = "collinear", cert.ell, cert.points
    else:
        kind, parameter, points = "hole", cert.k, cert.vertices
    doc = {
        "kind": kind,
        "parameter": parameter,
        "points": [[x, y] for x, y in points],
        "verified": verified,
        "tool_version": __version__,
    }
    return _with_trace(doc, trace)


def _with_trace(doc: dict, trace) -> dict:
    """``doc`` with the trace steps added, unless ``trace`` is None.

    Step details hold only string keys, ints, bools, None, strings and
    nested lists or tuples of them, which ``json.dumps`` writes as they are.
    """
    if trace is not None:
        doc["trace"] = [{"kind": step.kind, "detail": step.detail} for step in trace]
    return doc


def emit_json(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Point-set analysis: collinear subsets, convex subsets, holes."""


@main.command()
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
def analyze(input_file: str) -> None:
    """Report collinearity, convexity, hole, and layer statistics."""
    try:
        pts = load_point_file(input_file)
    except GeometryError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    n = len(pts)
    click.echo(f"points: {n}")
    count, _ = max_collinear(pts)
    click.echo(f"max_collinear: {count}")
    if n <= ANALYZE_SUBSET_LIMIT:
        convex, strict = max_convex_subsets(pts)
        click.echo(f"max_convex_subset: {len(convex)}")
        click.echo(f"max_strictly_convex_subset: {len(strict)}")
    else:
        hull = convex_hull(pts)
        click.echo(f"max_convex_subset: >={len(hull.boundary)} (budget refused)")
        click.echo(
            f"max_strictly_convex_subset: >={len(hull.corners)} (budget refused)"
        )
    largest = None
    for k in range(3, 8):
        limit = (
            DEFAULT_BUDGET.holes_small if k <= 5 else DEFAULT_BUDGET.holes_large
        )
        if n > limit:
            click.echo(f"hole_{k}: budget refused ({n} > {limit} points)")
            continue
        cert = find_k_hole(pts, k)
        if cert is not None:
            largest = k
    click.echo(f"largest_hole: {largest if largest is not None else 'none'}")
    # Each peel takes at least one point, so n layers exhaust the set.
    layers, _ = peel_layers(pts, convex_hull(pts).boundary, n)
    click.echo(f"convex_layers: {[len(layer) for layer in layers]}")


@main.command(name="extract")
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--ell", type=int, required=True, help="Collinearity target (>= 2).")
@click.option("--k", type=int, default=None, help="Convex-position target size.")
@click.option("--no-fallback", is_flag=True, help="Skip the complete-search fallback.")
@click.option("--trace", "with_trace", is_flag=True, help="Embed the proof trace.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def extract_cmd(
    input_file: str, ell: int, k: Optional[int], no_fallback: bool,
    with_trace: bool, out: Optional[str],
) -> None:
    """Produce an ell-collinear certificate or a 5-hole certificate."""
    try:
        pts = load_point_file(input_file)
        params = ExtractionParams(ell=ell, k=k, oracle_fallback=not no_fallback)
        result = run_extract(pts, params)
    except GeometryError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    trace = result.trace if with_trace else None
    if isinstance(result.outcome, Inconclusive):
        doc = {
            "kind": "inconclusive",
            "exhausted": result.outcome.exhausted,
            "tool_version": __version__,
        }
        emit_json(_with_trace(doc, trace), out)
        sys.exit(3)
    verified = result.outcome.verify(pts)
    emit_json(certificate_document(result.outcome, verified, trace), out)
    sys.exit(0 if verified else 1)


FAMILIES = (
    "every_second_side",
    "grid",
    "horton",
    "collinear_plus_one",
    "eppstein_a",
    "eppstein_b",
    "eppstein_c",
    "eppstein_d",
    "eppstein_e",
    "random_general_position",
    "random_bounded_collinear",
)


@main.command()
@click.argument("family", type=click.Choice(FAMILIES))
@click.argument("parameters", type=int, nargs=-1)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def generate(family: str, parameters, seed: int, out: Optional[str]) -> None:
    """Generate a named configuration family and print its properties."""
    try:
        pts = _generate(family, list(parameters), seed)
    except (GeometryError, TypeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    write_point_file(out, pts)
    count, _ = max_collinear(pts)
    click.echo(f"# generated {len(pts)} points, max_collinear={count}", err=True)
    sys.exit(0)


def _generate(family: str, params: list[int], seed: int) -> list[Point]:
    if family == "every_second_side":
        return gen.every_second_side(*params)
    if family == "grid":
        return gen.grid(*params)
    if family == "horton":
        return gen.horton(*params)
    if family == "collinear_plus_one":
        return gen.collinear_plus_one(*params)
    if family.startswith("eppstein_"):
        return gen.eppstein_family(family[-1], *params)
    if family == "random_general_position":
        return gen.random_general_position(params[0] if params else 10, seed)
    if family == "random_bounded_collinear":
        n = params[0] if params else 10
        ell = params[1] if len(params) > 1 else 3
        return gen.random_bounded_collinear(n, ell, seed)
    raise GeometryError(f"unknown family {family!r}")


@main.command()
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("certificate_file", type=click.Path(exists=True, dir_okay=False))
def verify(input_file: str, certificate_file: str) -> None:
    """Check a certificate document against a point set."""
    try:
        pts = load_point_file(input_file)
        with open(certificate_file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    # ValueError covers GeometryError, malformed or undecodable JSON and
    # integers past the interpreter's conversion digit limit.
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    problem = _verify_document(pts, doc)
    if problem is None:
        click.echo("certificate valid")
        sys.exit(0)
    click.echo(f"invalid certificate: {problem}")
    sys.exit(1)


def _verify_document(pts: list[Point], doc) -> Optional[str]:
    """The first violated condition, or None when the certificate is valid."""
    if not isinstance(doc, dict):
        return "document is not a JSON object"
    unknown = set(doc) - CERTIFICATE_FIELDS
    if unknown:
        return f"unknown fields: {sorted(unknown)}"
    for field in ("kind", "parameter", "points", "tool_version"):
        if field not in doc:
            return f"missing field: {field}"
    if type(doc["parameter"]) is not int:
        return "parameter is not an integer"
    raw = doc["points"]
    if not isinstance(raw, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(c) is int for c in p)
        for p in raw
    ):
        return "points are not integer pairs"
    cert_pts = [(x, y) for x, y in raw]
    ambient = set(pts)
    if not all(p in ambient for p in cert_pts):
        return "certificate point not in the point set"
    if len(set(cert_pts)) != len(cert_pts):
        return "duplicate certificate points"
    if doc["kind"] == "collinear":
        if len(cert_pts) < doc["parameter"]:
            return "fewer points than the stated collinearity"
        try:
            cert = CollinearCertificate.build(cert_pts)
        except GeometryError:
            return "points are not collinear"
        return None if cert.verify(pts) else "collinearity check failed"
    if doc["kind"] == "hole":
        if len(cert_pts) != doc["parameter"]:
            return "point count disagrees with the stated parameter"
        if len(cert_pts) < 3:
            return "a hole has at least 3 points"
        if not is_strictly_convex_position(cert_pts):
            return "not strictly convex"
        if not is_hole(pts, cert_pts):
            return "hull not empty"
        return None
    return f"unknown certificate kind: {doc['kind']!r}"


@main.command()
@click.argument("k", type=int)
@click.argument("ell", type=int)
def bounds(k: int, ell: int) -> None:
    """Print the bound arithmetic for the given k and ell."""
    if k < 3 or ell < 3:
        click.echo("error: bounds needs k >= 3 and ell >= 3", err=True)
        sys.exit(2)
    if _bound_digits(k, ell) > sys.get_int_max_str_digits() > 0:
        click.echo(
            f"error: bounds for k={k}, ell={ell} pass the interpreter's "
            f"{sys.get_int_max_str_digits()}-digit limit for printing integers",
            err=True,
        )
        sys.exit(2)
    click.echo(f"es_bound({k}) = {es_bound(k)}")
    b = es_kl_bound(k, ell)
    click.echo(f"es_kl_bound({k},{ell}) via convex position  = {b.via_convex_position}")
    click.echo(f"es_kl_bound({k},{ell}) via general position = {b.via_general_position}")
    click.echo(f"winner: {b.winner} ({b.value})")
    click.echo(f"q_formula({k},{ell}) = {q_formula(k, ell)}")
    click.echo(f"threshold_k({ell}) = {threshold_k(ell)}")
    click.echo(f"quadrilateral_threshold({ell}) = {max(7, ell + 2)}")
    sys.exit(0)


def _bound_digits(k: int, ell: int) -> int:
    """Decimal digits of the longest number ``bounds k ell`` prints, from
    logarithms, so that nothing too long to print is computed."""
    if k > 10**15 or ell > 10**15:
        return max(k // 2, ell)  # a lower bound, past the range of floats

    def log10_es(m: int) -> float:  # log10(es_bound(m) - 1)
        return (lgamma(2 * m - 4) - lgamma(m - 1) - lgamma(m - 2)) / log(10)

    es_k = log10_es(k)
    logs = [
        es_k,
        log10_es(q_formula(k, ell)),  # via convex position
        ell * log10(2 * ell - 1) - log10(2 * ell - 2),  # threshold_k(ell)
    ]
    if ell > 3:  # via general position: (ell - 3) * comb(es_bound(k) - 1, 2) + ...
        logs.append(log10(ell - 3) + 2 * es_k - log10(2))
    return floor(max(logs)) + 1


if __name__ == "__main__":
    main()
