"""The three workloads: their inputs, their operations and their checks.

Each workload builds a fixed list of cases and the workload seed orders
them.  One pass runs every case once, in the seeded order; a run repeats
whole passes, so every run of a workload measures the same operations.
The points are not moved per seed: a translation keeps every orientation,
but larger coordinates make the integer arithmetic and hashing of an
operation slower, by up to 1.8 times on small extract instances.  Inputs are built
with ``holefinder.generators`` (the lattice half of the acceptance
distribution mirrors ``tests/test_acceptance.py``, which draws it inline).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
EXPECTED_ANALYZE = HERE / "expected_analyze.json"

# The first instances of the seeded acceptance batch.  The batch is heavy
# tailed (a few instances near n = 25 take seconds in the convex-position
# search, most take milliseconds), so a fresh random draw per run would make
# throughput swing by about half between seeds.  A fixed prefix keeps the
# heavy tail in every run; the workload seed orders them.
EXTRACT_INSTANCES = 60

# Random general-position sets of the hole queries, fixed like the extract
# instances: the median op is one of their early exits, whose time depends
# on the set, so sets drawn fresh per seed moved the median by a tenth
# between seeds.  Enough operations per run (over 1000) that the tail is
# always p99.
HOLE_RANDOM_SETS = 128

# (n, generator seed) of the random general-position sets for ``analyze``,
# fixed so that the stored reports apply: many small ones, a few near the
# n <= 30 cap where the convex-subset search dominates.
ANALYZE_RANDOM = (
    [(n, s) for n in (8, 10, 12, 14, 16) for s in range(12)]
    + [(n, s) for n in (18, 20, 22) for s in range(2)]
    + [(24, 0), (26, 0), (28, 0), (30, 0)]
)


@dataclass
class Case:
    """One input and the call made on it."""

    label: str
    family: str
    points: list
    param: int  # ell for extract, k for hole queries
    run: Callable[[], object] = field(repr=False, default=None)


@dataclass
class Verdict:
    ok: bool
    unresolved: bool = False
    reason: str = ""


# ---------------------------------------------------------------------------
# extract-batch


def acceptance_instance(gen, seed: int):
    """``_random_instance`` of tests/test_acceptance.py: ell in {3, 4, 5},
    6 <= n <= 25, half bounded-collinear, half dense lattice."""
    rng = random.Random(seed)
    ell = rng.choice([3, 4, 5])
    n = rng.randrange(6, 26)
    if rng.random() < 0.5:
        return ell, gen.random_bounded_collinear(n, ell, seed=seed)
    box = rng.randrange(6, 20)
    return ell, list({(rng.randrange(box), rng.randrange(box)) for _ in range(n)})


def build_extract_batch(hf, seed: int, tiny: bool, workdir: Path) -> list[Case]:
    cases = []
    for i in range(8 if tiny else EXTRACT_INSTANCES):
        ell, pts = acceptance_instance(hf.generators, i)
        if len(pts) < 3:
            continue
        case = Case(f"acceptance-{i}", "acceptance", pts, ell)
        case.run = _extract_call(hf, pts, ell)
        cases.append(case)
    random.Random(seed).shuffle(cases)
    return cases


def _extract_call(hf, pts, ell):
    params = hf.extractor.ExtractionParams(ell)
    return lambda: hf.extractor.extract(pts, params)


def check_extract(hf, case: Case, result, memo: dict) -> Verdict:
    outcome = result.outcome
    if isinstance(outcome, hf.holes.CollinearCertificate):
        ok = checks.is_collinear_set(case.points, outcome.points, case.param)
        return Verdict(ok, reason="" if ok else "bad collinear certificate")
    if isinstance(outcome, hf.holes.HoleCertificate):
        ok = outcome.k == 5 and checks.is_k_hole(case.points, outcome.vertices, 5)
        return Verdict(ok, reason="" if ok else "bad hole certificate")
    if not isinstance(outcome, hf.extractor.Inconclusive):
        return Verdict(False, reason=f"unknown outcome {outcome!r}")
    if not outcome.exhausted:
        return Verdict(True, unresolved=True)
    if case.label not in memo:
        memo[case.label] = (
            hf.geometry.max_collinear(case.points)[0] < case.param
            and hf.oracle.oracle_k_hole(case.points, 5) is None
        )
    ok = memo[case.label]
    return Verdict(ok, reason="" if ok else "absence refuted by the oracle")


# ---------------------------------------------------------------------------
# hole-queries


def build_hole_queries(hf, seed: int, tiny: bool, workdir: Path) -> list[Case]:
    gen = hf.generators
    inputs = [("horton", 16, 7), ("grid", 5, 5)]
    if not tiny:
        inputs += [
            ("horton", 32, 7),
            ("grid", 6, 5),
            ("grid", 7, 5),
            ("horton", 64, 6),
            ("horton", 128, 6),
        ]
    cases = []
    for family, size, k in inputs:
        pts = gen.horton(size) if family == "horton" else gen.grid(size)
        cases.append(Case(f"{family}{size}-k{k}", family, pts, k))
    for j in range(2 if tiny else HOLE_RANDOM_SETS):
        # Mostly k = 5, whose early exits take a narrow range of times, so
        # the median falls among them; k = 6 finds spread far wider.
        n, k = 30 + j % 6, 6 if j % 4 == 3 else 5
        pts = gen.random_general_position(n, seed=j)
        cases.append(Case(f"random{n}-{j}-k{k}", "random", pts, k))
    for case in cases:
        case.run = _hole_call(hf, case.points, case.param)
    random.Random(seed).shuffle(cases)
    return cases


def _hole_call(hf, pts, k):
    return lambda: hf.holes.find_k_hole(pts, k)


def check_hole_query(hf, case: Case, result, memo: dict) -> Verdict:
    if result is not None:
        ok = result.k == case.param and checks.is_k_hole(
            case.points, result.vertices, case.param
        )
        return Verdict(ok, reason="" if ok else "bad hole certificate")
    if case.label not in memo:
        memo[case.label] = checks.hole_theorem(case.family, case.points, case.param)
    if memo[case.label] == "absent":
        return Verdict(True)
    return Verdict(False, reason=f"no {case.param}-hole reported ({memo[case.label]})")


# ---------------------------------------------------------------------------
# cli-analyze


def analyze_catalog(gen, tiny: bool):
    """(label, points) of every ``analyze`` input."""
    inputs = [("grid4", gen.grid(4))]
    randoms = ANALYZE_RANDOM[:2] if tiny else ANALYZE_RANDOM
    if not tiny:
        inputs += [
            ("horton16", gen.horton(16)),
            ("grid5", gen.grid(5)),
            ("every_second_side-9-6", gen.every_second_side(9, 6)),
        ]
    for n, s in randoms:
        inputs.append((f"random{n}-{s}", gen.random_general_position(n, seed=s)))
    return inputs


def build_cli_analyze(hf, seed: int, tiny: bool, workdir: Path) -> list[Case]:
    workdir.mkdir(parents=True, exist_ok=True)
    cases = []
    for label, pts in analyze_catalog(hf.generators, tiny):
        path = str(workdir / f"{label}.txt")
        hf.cli.write_point_file(path, pts)
        case = Case(label, "analyze", pts, 0)
        case.run = _analyze_call(hf, path)
        cases.append(case)
    random.Random(seed).shuffle(cases)
    return cases


def run_analyze(hf, path: str) -> tuple[int, str]:
    """``holefinder analyze path`` in process: (exit code, standard output)."""
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            hf.cli.main(["analyze", path])
        except SystemExit as exc:
            code = exc.code or 0
    return code, out.getvalue()


def _analyze_call(hf, path):
    return lambda: run_analyze(hf, path)


def check_analyze(hf, case: Case, result, memo: dict) -> Verdict:
    if "expected" not in memo:
        memo["expected"] = json.loads(EXPECTED_ANALYZE.read_text(encoding="utf-8"))
    code, text = result
    want = memo["expected"].get(case.label)
    if code != 0 or text != want:
        return Verdict(False, reason=f"report differs from the stored one (exit {code})")
    return Verdict(True, unresolved="budget refused" in text)


@dataclass(frozen=True)
class Workload:
    build: Callable
    check: Callable
    why: str


WORKLOADS = {
    "extract-batch": Workload(
        build_extract_batch,
        check_extract,
        "extract() on the first 60 acceptance-batch instances: convexity does "
        "over 99% of the work and sets the tail; extractor and geometry set "
        "the median",
    ),
    "hole-queries": Workload(
        build_hole_queries,
        check_hole_query,
        "find_k_hole() only: exhaustive absence proofs on Horton sets and grids "
        "set the tail, early-exit finds on random sets set the median",
    ),
    "cli-analyze": Workload(
        build_cli_analyze,
        check_analyze,
        "holefinder analyze in process on n <= 30 point files: the only "
        "workload that runs cli, strict convex search and the k = 3..7 sweep",
    ),
}
