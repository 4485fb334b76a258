import random
import time

import pytest

import holefinder.extractor
from holefinder.convexity import (
    LayerDecomposition,
    convex_hull,
    in_closed_hull,
    k_minimal_convex_subset,
    max_convex_size,
)
from holefinder.extractor import (
    ExtractionParams,
    Inconclusive,
    classify_alignment,
    extract,
    follower,
    is_empty_arc,
    threshold_k,
)
from holefinder.generators import (
    grid,
    random_bounded_collinear,
    random_general_position,
)
from holefinder.geometry import GeometryError, cross, max_collinear, on_closed_segment
from holefinder.holes import CollinearCertificate, HoleCertificate, is_hole
from holefinder.oracle import oracle_k_minimality

from follower_reference import reference_crossed_arc

# Convex 7-gon reused as the outer layer of several engineered inputs.
HEPTAGON = [(0, 0), (40, -12), (80, 0), (92, 34), (62, 58), (18, 58), (-10, 34)]


def test_threshold_k_values():
    assert threshold_k(3) == 31
    assert threshold_k(4) == 400
    assert threshold_k(2) == 4
    with pytest.raises(GeometryError):
        threshold_k(1)


def test_extract_collinear_certificate():
    pts = [(0, 0), (2, 2), (4, 4), (5, 0), (0, 5)]
    result = extract(pts, ExtractionParams(ell=3))
    assert isinstance(result.outcome, CollinearCertificate)
    assert result.trace_kinds() == ["collinear"]
    assert result.outcome.verify(pts)


def test_extract_skips_machinery_when_no_5_convex_subset():
    pts = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)]
    result = extract(pts, ExtractionParams(ell=4))
    assert "machinery-skipped" in result.trace_kinds()
    # The square plus its center does contain a 5-hole? No: the center kills
    # every convex pentagon, so the complete fallback proves absence.
    assert result.outcome == Inconclusive(exhausted=True)


def test_extract_inconclusive_without_fallback():
    grid = [(x, y) for x in range(3) for y in range(3)]
    result = extract(grid, ExtractionParams(ell=4, oracle_fallback=False))
    assert result.outcome == Inconclusive(exhausted=False)
    assert result.certificate is None
    assert result.trace_kinds()[-1] == "inconclusive"


def test_extract_grid_is_exhausted_inconclusive():
    grid = [(x, y) for x in range(3) for y in range(3)]
    result = extract(grid, ExtractionParams(ell=4))
    assert result.outcome == Inconclusive(exhausted=True)


def test_extract_large_absence_is_exhausted():
    # The fallback hole search is complete at every size, so its absence
    # proof on 36 points is as exhaustive as on 9.
    result = extract(grid(6), ExtractionParams(ell=7, k=5))
    assert result.outcome == Inconclusive(exhausted=True)
    assert result.trace[-1].detail == {"found": False, "complete": True}


def test_extract_window_harvest():
    pts = HEPTAGON + [(75, 8)]
    result = extract(pts, ExtractionParams(ell=3, k=7))
    assert result.trace_kinds() == ["layers", "window-harvest"]
    assert isinstance(result.outcome, HoleCertificate)
    assert result.outcome.verify(pts)


def test_extract_claim_c_violation_harvest():
    pts = HEPTAGON + [(35, 24), (41, 25), (42, 26), (57, 11)]
    result = extract(pts, ExtractionParams(ell=3, k=7))
    kinds = result.trace_kinds()
    assert kinds[-1] == "claim-c-violation-harvest"
    assert "claim-b-4hole" in kinds
    assert isinstance(result.outcome, HoleCertificate)
    assert result.outcome.verify(pts)


def test_extract_claim_b_empty_harvest():
    pts = HEPTAGON + [
        (32, 10),
        (34, 21),
        (34, 35),
        (40, 24),
        (44, 28),
        (46, 18),
        (56, 22),
    ]
    result = extract(pts, ExtractionParams(ell=4, k=7))
    kinds = result.trace_kinds()
    assert kinds[-1] == "claim-b-empty-harvest"
    assert isinstance(result.outcome, HoleCertificate)
    assert result.outcome.verify(pts)


def test_extract_rejects_outer_layer_without_empty_arc(monkeypatch):
    # Every arc triangle of this outer hexagon holds a blocker, and the
    # blockers are 6 points of layer 2 in convex position strictly inside
    # it, so the hexagon is not 6-minimal.  A 6-minimal outer layer always
    # has an empty arc, and extract refuses one that does not.
    hexagon = [(41, 3), (19, 36), (-22, 34), (-40, -2), (-18, -36), (23, -33)]
    blockers = [(25, 16), (-1, 29), (-25, 13), (-24, -16), (2, -28), (26, -12)]
    pts = hexagon + blockers + [(1, 2), (-3, 5)]
    result = extract(pts, ExtractionParams(ell=3, k=6))
    assert result.outcome.verify(pts)
    assert not oracle_k_minimality(pts, hexagon, 6)

    monkeypatch.setattr(
        holefinder.extractor, "k_minimal_convex_subset", lambda ground, k: hexagon
    )
    with pytest.raises(GeometryError, match=r"^outer layer has no empty arc"):
        extract(pts, ExtractionParams(ell=3, k=6))


def test_extract_layers_stop_past_n_plus_one():
    # 12 points make at most 13 layers; a larger ell only pads empty ones.
    pts = random_general_position(12, 0)
    small = extract(pts, ExtractionParams(ell=13))
    start = time.perf_counter()
    huge = extract(pts, ExtractionParams(ell=10**6))
    assert time.perf_counter() - start < 1.0
    assert "layers" in huge.trace_kinds()
    assert huge.outcome == small.outcome
    assert huge.trace == small.trace


def test_extract_validates_input():
    with pytest.raises(GeometryError):
        extract([(0, 0), (1, 1)], ExtractionParams(ell=3))
    with pytest.raises(GeometryError):
        extract([(0, 0), (1, 1), (2, 0)], ExtractionParams(ell=1))


@pytest.mark.parametrize("k", [0, -1])
def test_extract_rejects_k_below_one(k):
    with pytest.raises(GeometryError, match=r"^extract needs k >= 1$"):
        extract([(0, 0), (1, 1), (2, 0)], ExtractionParams(ell=3, k=k))


# --- arc-level unit tests on a hand-built decomposition -----------------

# Layers are given clockwise from their least point, as peel_layers builds them.
OUTER = ((-20, -20), (-20, 20), (20, 20), (20, -20))
INNER = ((-8, -2), (0, 8), (8, -2))
DECOMP = LayerDecomposition((OUTER, INNER, ((0, 0),)), (0, 0))
BOTTOM = ((20, -20), (-20, -20))


def _arcs(layer):
    """The clockwise arcs of a layer: its consecutive point pairs."""
    return list(zip(layer, layer[1:] + layer[:1]))


def test_arcs_of_layer_clockwise():
    pts = sorted(OUTER + INNER) + [(0, 0)]
    built = LayerDecomposition.build(pts, sorted(OUTER), 3)
    assert built == DECOMP
    assert _arcs(built.layers[0]) == [
        ((-20, -20), (-20, 20)),
        ((-20, 20), (20, 20)),
        ((20, 20), (20, -20)),
        ((20, -20), (-20, -20)),
    ]


def test_is_empty_arc_exactly_one_empty():
    empties = [a for a in _arcs(OUTER) if is_empty_arc(*a, (0, 0), INNER)]
    assert empties == [BOTTOM]


def test_follower_with_claim_checks():
    out = follower(*BOTTOM, (0, 0), INNER)
    assert out == ((8, -2), (-8, -2))
    # The follower quadrilateral is a 4-hole of the layer points, and the
    # follower arc is empty in turn.
    ambient = [p for layer in DECOMP.layers for p in layer]
    assert is_hole(ambient, [*BOTTOM, *out])
    assert is_empty_arc(*out, (0, 0), DECOMP.layers[2])


MIDPOINT_IN_NEXT_HULL = r"^the arc's midpoint lies in the next layer's hull"

# Layer 2 holds the midpoint (0, -20) of the empty bottom arc.
MIDPOINT_DECOMP = LayerDecomposition(
    (OUTER, ((-10, -20), (0, 10), (10, -20)), ((0, 0),)), (0, 0)
)


def test_follower_error_when_midpoint_is_in_next_hull():
    inner = MIDPOINT_DECOMP.layers[1]
    assert is_empty_arc(*BOTTOM, (0, 0), inner)
    with pytest.raises(GeometryError, match=MIDPOINT_IN_NEXT_HULL):
        follower(*BOTTOM, (0, 0), inner)


@pytest.mark.parametrize(
    "decomposition, extra, message",
    [
        (MIDPOINT_DECOMP, [], MIDPOINT_IN_NEXT_HULL),
        # A point inside the quadrilateral of the bottom arc and its follower.
        (DECOMP, [(0, -10)], r"are not a 4-hole$"),
    ],
    ids=["midpoint-in-next-hull", "point-in-4-gon"],
)
def test_walk_raises_on_a_broken_lemma(decomposition, extra, message):
    # Neither decomposition can come from extract; the walk raises instead
    # of handing it to the fallback, and records no failure step.
    pts = [p for layer in decomposition.layers for p in layer] + extra
    trace = []
    with pytest.raises(GeometryError, match=message):
        holefinder.extractor._walk(pts, decomposition, 3, BOTTOM, trace)
    assert {step.kind for step in trace} <= {"empty-arc", "follower"}


def _layered_sets():
    """Peeled layers of random sets, from the hull corners (which leave the
    other boundary points to layer 2) and from a k-minimal outer layer."""
    for seed in range(60):
        n = 14 + seed % 10
        if seed % 2:
            pts = random_general_position(n, seed)
        else:
            pts = random.Random(seed).sample(grid(9), n)
        yield LayerDecomposition.build(pts, convex_hull(pts).corners, 3 + seed % 3)
        if seed < 10:
            yield LayerDecomposition.build(pts, k_minimal_convex_subset(pts, 5), 3)


def test_follower_matches_seven_target_reference():
    compared = errors = 0
    for decomposition in _layered_sets():
        z = decomposition.apex
        if z is None:
            continue
        for index in range(1, len(decomposition.layers)):
            nxt = decomposition.layers[index]
            if len(decomposition.layers[index - 1]) < 3 or len(nxt) < 2:
                continue
            boundary = convex_hull(list(nxt)).boundary
            for x, y in _arcs(decomposition.layers[index - 1]):
                if cross(x, y, z) == 0 or not is_empty_arc(x, y, z, nxt):
                    continue
                expected = reference_crossed_arc(x, y, z, boundary)
                compared += 1
                if expected is None:
                    errors += 1
                    with pytest.raises(GeometryError, match=MIDPOINT_IN_NEXT_HULL):
                        follower(x, y, z, boundary)
                    if index + 1 < len(decomposition.layers):
                        # The apex is inside the next layer's hull, so the
                        # midpoint lies in that closed hull.
                        doubled = convex_hull([(2 * a, 2 * b) for a, b in nxt])
                        assert in_closed_hull((x[0] + y[0], x[1] + y[1]), doubled)
                else:
                    assert follower(x, y, z, boundary) == expected
    assert compared >= 200 and errors >= 1


def _lattice_set(n, ell, seed):
    """n points of a seeded shuffle of the 10 x 10 grid, each kept if it
    leaves fewer than ell collinear; None if the grid runs out."""
    pts = []
    for p in random.Random(seed).sample(grid(10), 100):
        if max_collinear(pts + [p])[0] < ell:
            pts.append(p)
            if len(pts) == n:
                return pts
    return None


def test_walk_lemmas_hold_on_extract_decompositions():
    # The decompositions extract walks at n < threshold_k(3) = 31: a
    # max-size k-minimal outer layer.  Wide random sets reach the walk;
    # lattice sets put many points on layer edges.
    cases = [
        (3 + s % 3, random_bounded_collinear(20 + s % 9, 3 + s % 3, s))
        for s in range(30)
    ]
    cases += [(4 + s % 2, _lattice_set(20 + s % 9, 4 + s % 2, s)) for s in range(8)]
    walked = arcs = edge_points = 0
    for ell, pts in cases:
        if pts is None:
            continue
        outer = k_minimal_convex_subset(pts, max_convex_size(pts))
        decomposition = LayerDecomposition.build(pts, outer, ell)
        layers, z = decomposition.layers, decomposition.apex
        # (a): no point lies on a layer's hull boundary unless it is of the layer.
        for index, layer in enumerate(layers[:-1], 1):
            corners = convex_hull(list(layer)).corners if layer else ()
            if len(corners) < 3:
                continue
            edge_points += len(layer) - len(corners)
            others = [p for p in pts if p not in layer]
            for x, y in _arcs(layer):
                assert not any(on_closed_segment(p, x, y) for p in others)
        if z is None:
            continue  # layers-too-thin: the walk never starts
        walked += 1
        # (b) and (c): every empty arc of a peel layer has a follower, and
        # the two arcs make a 4-hole.
        for index in range(1, ell - 1):
            for x, y in _arcs(layers[index - 1]):
                if is_empty_arc(x, y, z, layers[index]):
                    p, q = follower(x, y, z, layers[index])
                    assert is_hole(pts, [x, y, p, q])
                    arcs += 1
    assert walked >= 5 and arcs >= 40 and edge_points >= 20


def test_classify_alignment_all_tags():
    z = (0, 0)
    x, y = BOTTOM
    assert classify_alignment(x, y, (10, -10), (-10, -10), z) == "double"
    assert classify_alignment(x, y, (10, -10), (-8, -2), z) == "left"
    assert classify_alignment(x, y, (8, -2), (-10, -10), z) == "right"
    assert classify_alignment(x, y, (8, -2), (-8, -2), z) == "violation"


def test_extract_terminal_harvest():
    # A convex 9-gon whose only 9-point convex subset is itself, around a
    # tight cluster carrying two exactly aligned follower steps: the walk
    # classifies a right then a left alignment, mirrors, and harvests the
    # terminal 5-hole instead of falling back.
    nonagon = [
        (-4, 32), (2, -1), (12, 62), (29, -22), (44, 75),
        (63, -22), (76, 64), (89, 1), (94, 35),
    ]
    inner = [(33, 22), (36, 30), (46, 26), (36, 24), (40, 28), (40, 25), (39, 26)]
    pts = nonagon + inner
    result = extract(pts, ExtractionParams(ell=4, k=9))
    kinds = result.trace_kinds()
    assert kinds[-1] == "terminal-harvest"
    assert kinds.count("alignment") == 2
    assert "mirror" in kinds
    assert isinstance(result.outcome, HoleCertificate)
    assert result.outcome.verify(pts)
    assert set(result.outcome.vertices) == {
        (12, 62), (-4, 32), (33, 22), (36, 24), (36, 30),
    }
