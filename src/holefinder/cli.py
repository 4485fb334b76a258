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
    max_convex_size,
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
from .holes import CollinearCertificate, HoleCertificate, find_k_hole
from . import generators as gen
from .oracle import DEFAULT_BUDGET

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
    _write("".join(f"{x} {y}\n" for x, y in pts), path)


def _write(text: str, path: Optional[str]) -> None:
    """Write ``text`` to ``path``, or to stdout when it is None; a path that
    cannot be written is bad input (exit 2)."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


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
    _write(json.dumps(doc, indent=2) + "\n", out)


def _print_version(ctx: click.Context, _param, value: bool) -> None:
    """The ``--version`` line, printed and not echoed, so that an in-process
    caller's redirected stdout is freed (as for every command)."""
    if not value or ctx.resilient_parsing:
        return
    print(f"{ctx.find_root().info_name}, version {__version__}")
    sys.exit(0)


@click.group()
@click.option(
    "--version", is_flag=True, expose_value=False, is_eager=True,
    callback=_print_version, help="Show the version and exit.",
)
def main() -> None:
    """Point-set analysis: collinear subsets, convex subsets, holes."""


@main.command()
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
def analyze(input_file: str) -> None:
    """Report collinearity, convexity, hole, and layer statistics."""
    try:
        pts = load_point_file(input_file)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    n = len(pts)
    print(f"points: {n}")
    count, _ = max_collinear(pts)
    print(f"max_collinear: {count}")
    size = max_convex_size(pts)
    print(f"max_convex_subset: {size}")
    # With no three points collinear no point of a convex-position subset
    # lies inside a hull edge, so the largest one is strictly convex.
    if count >= 3:
        size = max_convex_size(pts, strict=True)
    print(f"max_strictly_convex_subset: {size}")
    largest, searched, absent = "none", False, False
    for k in range(3, 8):
        limit = (
            DEFAULT_BUDGET.holes_small if k <= 5 else DEFAULT_BUDGET.holes_large
        )
        if n > limit:
            print(f"hole_{k}: budget refused ({n} > {limit} points)")
            continue
        searched = True
        # Dropping one corner of a k-hole leaves a (k-1)-hole, so after the
        # first absent k no larger hole exists.
        if absent:
            continue
        if find_k_hole(pts, k) is None:
            absent = True
        else:
            largest = k
    if not searched:
        # "none" would deny the 3-hole of any three non-collinear points.
        largest = f"budget refused ({n} > {DEFAULT_BUDGET.holes_small} points)"
    print(f"largest_hole: {largest}")
    # Each peel takes at least one point, so n layers exhaust the set.
    layers, _ = peel_layers(pts, convex_hull(pts).boundary, n)
    print(f"convex_layers: {[len(layer) for layer in layers]}")


@main.command(name="extract")
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--ell", type=int, required=True, help="Collinearity target (>= 2).")
@click.option("--k", type=int, default=None, help="Convex-position target size (>= 1).")
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
        print(f"error: {exc}", file=sys.stderr)
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
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    write_point_file(out, pts)
    count, _ = max_collinear(pts)
    print(f"# generated {len(pts)} points, max_collinear={count}", file=sys.stderr)
    sys.exit(0)


def _generate(family: str, params: list[int], seed: int) -> list[Point]:
    if family == "eppstein_e":  # one frozen 6-point set
        _padded(family, params, [])
        return gen.eppstein_family("e")
    if family.startswith("eppstein_"):
        return gen.eppstein_family(family[-1], *params)
    if family == "random_general_position":
        return gen.random_general_position(*_padded(family, params, [10]), seed)
    if family == "random_bounded_collinear":
        return gen.random_bounded_collinear(*_padded(family, params, [10, 3]), seed)
    # The other families take their parameters as given.
    return getattr(gen, family)(*params)


def _padded(family: str, params: list[int], defaults: list[int]) -> list[int]:
    """``params`` followed by the defaults they leave out.  More parameters
    than defaults is a ``TypeError``, as for the families without defaults."""
    if len(params) > len(defaults):
        raise TypeError(
            f"{family} takes at most {len(defaults)} parameters, got {len(params)}"
        )
    return params + defaults[len(params) :]


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
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    problem = _verify_document(pts, doc)
    if problem is None:
        print("certificate valid")
        sys.exit(0)
    print(f"invalid certificate: {problem}")
    sys.exit(1)


def _verify_document(pts: list[Point], doc) -> Optional[str]:
    """The first violated condition, or None when the certificate is valid:
    the document's shape here, then the certificate class's own check."""
    if not isinstance(doc, dict):
        return "document is not a JSON object"
    if doc.get("kind") == "inconclusive":
        return "an inconclusive result is not a certificate"
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
    cert_pts = tuple((x, y) for x, y in raw)
    kind, parameter = doc["kind"], doc["parameter"]
    if kind == "hole":
        return HoleCertificate(cert_pts, parameter).problem(pts)
    if kind != "collinear":
        return f"unknown certificate kind: {kind!r}"
    # A collinear document may list more points than its parameter claims.
    problem = CollinearCertificate(cert_pts, len(cert_pts)).problem(pts)
    if problem is None and len(cert_pts) < parameter:
        return "fewer points than the stated collinearity"
    if problem is None and parameter < 2:
        return "a collinear certificate's parameter is at least 2"
    return problem


@main.command()
@click.argument("k", type=int)
@click.argument("ell", type=int)
def bounds(k: int, ell: int) -> None:
    """Print the bound arithmetic for the given k and ell."""
    if k < 3 or ell < 3:
        print("error: bounds needs k >= 3 and ell >= 3", file=sys.stderr)
        sys.exit(2)
    if _bound_digits(k, ell) > sys.get_int_max_str_digits() > 0:
        print(
            f"error: bounds for k={k}, ell={ell} pass the interpreter's "
            f"{sys.get_int_max_str_digits()}-digit limit for printing integers",
            file=sys.stderr,
        )
        sys.exit(2)
    print(f"es_bound({k}) = {es_bound(k)}")
    b = es_kl_bound(k, ell)
    print(f"es_kl_bound({k},{ell}) via convex position  = {b.via_convex_position}")
    print(f"es_kl_bound({k},{ell}) via general position = {b.via_general_position}")
    print(f"winner: {b.winner} ({b.value})")
    print(f"q_formula({k},{ell}) = {q_formula(k, ell)}")
    print(f"threshold_k({ell}) = {threshold_k(ell)}")
    print(f"quadrilateral_threshold({ell}) = {max(7, ell + 2)}")
    sys.exit(0)


def _bound_digits(k: int, ell: int) -> int:
    """Decimal digits of the longest number ``bounds k ell`` prints, from
    logarithms, so that nothing too long to print is computed."""
    if k > 10**15 or ell > 10**15:
        return max(k // 2, ell)  # a lower bound, past the range of floats

    def log10_es(m: int) -> float:  # log10(es_bound(m) - 1) from m = 5 on
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
