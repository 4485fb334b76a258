"""End-to-end acceptance checks for the whole package.

Each test corresponds to one numbered criterion and exercises the library
through its public interfaces only.  Seeds are fixed so the whole suite is
deterministic.
"""

import itertools
import json
import random

import pytest
from click.testing import CliRunner

import holefinder.convexity
import holefinder.extractor
from holefinder.cli import main
from holefinder.convexity import (
    es_kl_bound,
    es_bound,
    is_strictly_convex_position,
    q_formula,
)
from holefinder.extractor import (
    ExtractionParams,
    Inconclusive,
    extract,
    threshold_k,
)
from holefinder.generators import (
    eppstein_family,
    every_second_side,
    grid,
    horton,
    random_bounded_collinear,
    random_general_position,
)
from holefinder.geometry import GeometryError, max_collinear
from holefinder.holes import (
    classify_no_four_hole,
    find_k_hole,
    find_visible_5_clique,
    is_crossing_free,
    visibility_graph,
)
from holefinder.oracle import OracleBudget, oracle_k_hole, oracle_max_convex_subset

from convex_reference import (
    random_convex_position,
    reference_convex_subset,
    reference_k_hole,
    reference_k_minimal_convex_subset,
    strictly_convex_subset_in_convex_position,
)

PAIRS = [(k, ell) for ell in range(3, 7) for k in range(3, 10)]

HEPTAGON = [(0, 0), (40, -12), (80, 0), (92, 34), (62, 58), (18, 58), (-10, 34)]

NONAGON = [
    (-4, 32), (2, -1), (12, 62), (29, -22), (44, 75),
    (63, -22), (76, 64), (89, 1), (94, 35),
]
TERMINAL_INNER = [(33, 22), (36, 30), (46, 26), (36, 24), (40, 28), (40, 25), (39, 26)]


# --- 1. exactness of the q threshold ------------------------------------


@pytest.mark.parametrize("k,ell", PAIRS)
def test_criterion_1_extremal_sets(k, ell):
    pts = every_second_side(k, ell)
    assert len(pts) == q_formula(k, ell) - 1
    assert max_collinear(pts)[0] < ell
    budget = OracleBudget(convex_subsets=len(pts))
    assert oracle_max_convex_subset(pts, strict=True, budget=budget) < k


def test_criterion_1_threshold_sets_force_k_strict():
    checked = 0
    for k, ell in PAIRS:
        if k <= 2 or ell <= 2:
            continue
        n = q_formula(k, ell)
        for seed in range(4):
            pts = random_convex_position(n, ell, seed=seed)
            assert len(pts) == n and max_collinear(pts)[0] < ell
            out = strictly_convex_subset_in_convex_position(pts, k, ell)
            assert len(out) == k
            assert is_strictly_convex_position(out)
            assert set(out) <= set(pts)
            checked += 1
    assert checked >= 100


# --- 2. ten points in general position give a 5-hole --------------------


def test_criterion_2_ten_point_five_holes(tmp_path):
    runner = CliRunner()
    for seed in range(200):
        pts = random_general_position(10, seed=seed)
        cert = find_k_hole(pts, 5)
        assert cert is not None and cert.verify(pts)
    # The command-line path agrees on a sample of the same inputs.
    for seed in range(0, 200, 25):
        pts = random_general_position(10, seed=seed)
        path = tmp_path / f"p{seed}.txt"
        path.write_text("".join(f"{x} {y}\n" for x, y in pts))
        result = runner.invoke(main, ["extract", str(path), "--ell", "3"])
        assert result.exit_code == 0
        assert json.loads(result.output)["kind"] == "hole"


# --- 3. square grids have no 5-hole -------------------------------------


@pytest.mark.parametrize("m", [3, 4, 5])
def test_criterion_3_grid_no_five_hole(m):
    assert oracle_k_hole(grid(m), 5) is None


# --- 4. Horton sets have no 7-hole --------------------------------------


def test_criterion_4_horton_16_no_seven_hole():
    assert find_k_hole(horton(16), 7) is None


@pytest.mark.slow
def test_criterion_4_horton_32_no_seven_hole():
    assert find_k_hole(horton(32), 7) is None


# --- 5. small sets with bounded collinearity contain a 4-hole -----------


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_criterion_5_four_hole_threshold(ell):
    n = max(7, ell + 2)
    for seed in range(200):
        pts = random_bounded_collinear(n, ell, seed=seed)
        cert = find_k_hole(pts, 4)
        assert cert is not None and cert.verify(pts)


# --- 6. three characterizations of 4-hole-freeness agree ----------------


def _no_four_hole_equivalent(pts):
    has4 = find_k_hole(pts, 4) is not None
    crossing_free = is_crossing_free(visibility_graph(pts))
    family = classify_no_four_hole(pts)
    assert (not has4) == crossing_free == (family.tag != "has-four-hole")


def test_criterion_6_eppstein_equivalence_families():
    for tag in "abcde":
        for n in (6,) if tag == "e" else (5, 6, 8):
            _no_four_hole_equivalent(eppstein_family(tag, n))


def test_criterion_6_eppstein_equivalence_random():
    rng = random.Random(6)
    checked = 0
    while checked < 500:
        n = rng.randrange(4, 11)
        pts = list({(rng.randrange(7), rng.randrange(7)) for _ in range(n)})
        if len(pts) < 4:
            continue
        _no_four_hole_equivalent(pts)
        checked += 1


# --- 7. the corners of a 5-hole are pairwise visible --------------------


def test_criterion_7_min_area_five_hole_visible():
    checked = 0
    seed = 0
    while checked < 100:
        pts = random_general_position(10, seed=seed)
        seed += 1
        if find_k_hole(pts, 5) is None:
            continue
        corners = find_visible_5_clique(pts, 3)
        graph = visibility_graph(pts)
        for a, b in itertools.combinations(corners, 2):
            assert graph.adjacent(a, b)
        checked += 1


# --- 8. extractor soundness and oracle agreement ------------------------


def _random_instance(seed):
    rng = random.Random(seed)
    ell = rng.choice([3, 4, 5])
    n = rng.randrange(6, 26)
    if rng.random() < 0.5:
        pts = random_bounded_collinear(n, ell, seed=seed)
    else:
        box = rng.randrange(6, 20)
        pts = list({(rng.randrange(box), rng.randrange(box)) for _ in range(n)})
    return ell, pts


@pytest.fixture(scope="module")
def batch_extractions():
    batch = []
    for seed in range(1000):
        ell, pts = _random_instance(seed)
        if len(pts) < 3:
            continue
        batch.append((ell, pts, extract(pts, ExtractionParams(ell=ell))))
    return batch


def test_extract_traces_match_reference_search(monkeypatch):
    cases = [_random_instance(seed) for seed in range(40)]
    cases = [(ell, pts) for ell, pts in cases if len(pts) >= 3]
    results = [extract(pts, ExtractionParams(ell=ell)) for ell, pts in cases]
    monkeypatch.setattr(
        holefinder.convexity,
        "_convex_walk",
        lambda pts, target: reference_convex_subset(pts, False, target),
    )
    monkeypatch.setattr(
        holefinder.extractor,
        "k_minimal_convex_subset",
        reference_k_minimal_convex_subset,
    )
    # holes binds the engine at import, so the patch above leaves it alone;
    # this one sends every hole search of the extractor to the reference.
    monkeypatch.setattr(holefinder.extractor, "find_k_hole", reference_k_hole)
    for (ell, pts), result in zip(cases, results):
        expected = extract(pts, ExtractionParams(ell=ell))
        assert result.trace == expected.trace
        assert result.outcome == expected.outcome


@pytest.mark.slow
def test_criterion_8_extractor_matches_oracle(batch_extractions):
    for ell, pts, result in batch_extractions:
        if isinstance(result.outcome, Inconclusive):
            assert result.outcome.exhausted
            assert max_collinear(pts)[0] < ell
            assert oracle_k_hole(pts, 5) is None
        else:
            assert result.outcome.verify(pts)


def _cli_trace_kinds(tmp_path, name, pts, ell, k):
    runner = CliRunner()
    path = tmp_path / f"{name}.txt"
    path.write_text("".join(f"{x} {y}\n" for x, y in pts))
    args = ["extract", str(path), "--ell", str(ell), "--trace"]
    if k is not None:
        args += ["--k", str(k)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["kind"] == "hole" and doc["verified"] is True
    return [step["kind"] for step in doc["trace"]]


def test_criterion_8_window_harvest_path(tmp_path):
    kinds = _cli_trace_kinds(tmp_path, "window", HEPTAGON + [(75, 8)], 3, 7)
    assert "window-harvest" in kinds


def test_criterion_8_claim_b_harvest_path(tmp_path):
    inner = [(32, 10), (34, 21), (34, 35), (40, 24), (44, 28), (46, 18), (56, 22)]
    kinds = _cli_trace_kinds(tmp_path, "claimb", HEPTAGON + inner, 4, 7)
    assert "claim-b-4hole" in kinds
    assert kinds[-1] == "claim-b-empty-harvest"


def test_criterion_8_claim_c_violation_path(tmp_path):
    inner = [(35, 24), (41, 25), (42, 26), (57, 11)]
    kinds = _cli_trace_kinds(tmp_path, "claimc", HEPTAGON + inner, 3, 7)
    assert kinds[-1] == "claim-c-violation-harvest"


def test_criterion_8_non_minimal_outer_layer_is_refused(monkeypatch):
    # A 6-minimal outer layer always has an empty arc; this hexagon, whose
    # arc triangles all hold a point of layer 2, is not 6-minimal.
    hexagon = [(41, 3), (19, 36), (-22, 34), (-40, -2), (-18, -36), (23, -33)]
    blockers = [(25, 16), (-1, 29), (-25, 13), (-24, -16), (2, -28), (26, -12)]
    pts = hexagon + blockers + [(1, 2), (-3, 5)]
    monkeypatch.setattr(
        holefinder.extractor, "k_minimal_convex_subset", lambda ground, k: hexagon
    )
    with pytest.raises(GeometryError, match=r"^outer layer has no empty arc"):
        extract(pts, ExtractionParams(ell=3, k=6))


def test_criterion_8_terminal_harvest_path(tmp_path):
    kinds = _cli_trace_kinds(tmp_path, "terminal", NONAGON + TERMINAL_INNER, 4, 9)
    assert kinds[-1] == "terminal-harvest"
    assert kinds.count("alignment") == 2
    assert "mirror" in kinds


CLAIM_B_INNER = [(32, 10), (34, 21), (34, 35), (40, 24), (44, 28), (46, 18), (56, 22)]
CLAIM_C_INNER = [(35, 24), (41, 25), (42, 26), (57, 11)]
WINDOW = [(-10, 34), (18, 58), (62, 58), (92, 34), (75, 8)]
HEPTAGON_ARC = ((-10, 34), (18, 58))
NONAGON_ARC = ((-4, 32), (12, 62))


def _follower(arc, follower, layer):
    return ("follower", {"arc": arc, "follower": follower, "layer": layer})


def _harvest(kind, points):
    return (kind, {"verified": True, "points": points})


# Every step of the walk's four exits, in full: kind, detail and the
# certificate's vertices.
FULL_TRACES = {
    "window": (
        HEPTAGON + [(75, 8)], 3, 7,
        [
            ("layers", {"sizes": [7, 0, 0], "k": 7}),
            ("window-harvest", {"layer": 1, "window": WINDOW, "hole": WINDOW}),
        ],
        tuple(WINDOW),
    ),
    "claim-b": (
        HEPTAGON + CLAIM_B_INNER, 4, 7,
        [
            ("layers", {"sizes": [7, 3, 3, 1], "k": 7}),
            ("empty-arc", {"arc": HEPTAGON_ARC}),
            _follower(HEPTAGON_ARC, ((32, 10), (34, 35)), 2),
            ("claim-b-4hole", {"points": [*HEPTAGON_ARC, (32, 10), (34, 35)]}),
            _harvest(
                "claim-b-empty-harvest",
                [*HEPTAGON_ARC, (32, 10), (34, 35), (34, 21)],
            ),
        ],
        ((-10, 34), (18, 58), (34, 35), (34, 21), (32, 10)),
    ),
    "claim-c": (
        HEPTAGON + CLAIM_C_INNER, 3, 7,
        [
            ("layers", {"sizes": [7, 3, 1], "k": 7}),
            ("empty-arc", {"arc": HEPTAGON_ARC}),
            _follower(HEPTAGON_ARC, ((35, 24), (42, 26)), 2),
            ("claim-b-4hole", {"points": [*HEPTAGON_ARC, (35, 24), (42, 26)]}),
            _harvest(
                "claim-c-violation-harvest",
                [*HEPTAGON_ARC, (35, 24), (42, 26), (41, 25)],
            ),
        ],
        ((-10, 34), (18, 58), (42, 26), (41, 25), (35, 24)),
    ),
    "terminal": (
        NONAGON + TERMINAL_INNER, 4, 9,
        [
            ("layers", {"sizes": [9, 3, 3, 1], "k": 9}),
            ("empty-arc", {"arc": NONAGON_ARC}),
            _follower(NONAGON_ARC, ((33, 22), (36, 30)), 2),
            ("claim-b-4hole", {"points": [*NONAGON_ARC, (33, 22), (36, 30)]}),
            ("alignment", {"index": 2, "tag": "right"}),
            _follower(((33, 22), (36, 30)), ((36, 24), (40, 28)), 3),
            ("claim-b-4hole", {"points": [(33, 22), (36, 30), (36, 24), (40, 28)]}),
            ("alignment", {"index": 3, "tag": "left"}),
            ("mirror", {}),
            _harvest(
                "terminal-harvest",
                [(12, 62), (-4, 32), (33, 22), (36, 24), (36, 30)],
            ),
        ],
        ((-4, 32), (12, 62), (36, 30), (36, 24), (33, 22)),
    ),
}


@pytest.mark.parametrize("name", FULL_TRACES)
def test_criterion_8_walk_full_traces(name):
    pts, ell, k, steps, vertices = FULL_TRACES[name]
    result = extract(pts, ExtractionParams(ell=ell, k=k))
    assert [(step.kind, step.detail) for step in result.trace] == steps
    assert result.outcome.vertices == vertices
    assert result.outcome.verify(pts)


# --- 9. bound arithmetic ------------------------------------------------


def test_criterion_9_bound_arithmetic():
    assert es_bound(5) == 11
    assert es_bound(6) == 36
    assert threshold_k(2) == 4
    assert threshold_k(3) == 31
    assert threshold_k(4) == 400
    for k in (7, 9):
        assert es_kl_bound(k, 3).winner == "convex-position"
    assert es_kl_bound(9, 6).winner == "general-position"


# --- 11. consecutive layer sizes ----------------------------------------


@pytest.mark.slow
def test_criterion_11_layer_inequality(batch_extractions):
    engineered = [
        (4, HEPTAGON + [(32, 10), (34, 21), (34, 35), (40, 24), (44, 28), (46, 18), (56, 22)], 7),
        (3, HEPTAGON + [(35, 24), (41, 25), (42, 26), (57, 11)], 7),
    ]
    engineered.append((4, NONAGON + TERMINAL_INNER, 9))
    results = [
        (ell, extract(pts, ExtractionParams(ell=ell, k=k)))
        for ell, pts, k in engineered
        if max_collinear(pts)[0] < ell
    ]
    results += [(ell, result) for ell, pts, result in batch_extractions]
    checked = 0
    for ell, result in results:
        kinds = result.trace_kinds()
        if "empty-arc" not in kinds or "window-harvest" in kinds:
            continue
        for step in result.trace:
            if step.kind != "layers":
                continue
            sizes = step.detail["sizes"]
            for i in range(1, len(sizes)):
                assert sizes[i - 1] < (2 * ell - 1) * (sizes[i] + 1)
            checked += 1
    assert checked >= 3
