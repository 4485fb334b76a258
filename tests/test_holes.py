from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import holefinder.convexity
import holefinder.holes
from holefinder.generators import grid, horton, random_general_position
from holefinder.geometry import (
    GeometryError,
    _segment_interiors,
    canonical,
    max_collinear,
    on_closed_segment,
)
from holefinder.holes import (
    EXCEPTIONAL_SIX,
    CollinearCertificate,
    HoleCertificate,
    InconclusiveError,
    _first_5_clique,
    classify_no_four_hole,
    find_k_hole,
    find_visible_5_clique,
    is_crossing_free,
    is_hole,
    same_order_type,
    visibility_graph,
)

from convex_reference import reference_k_hole
from visibility_reference import reference_visible, reference_visible_5_cliques

SQUARE = [(0, 0), (4, 0), (4, 4), (0, 4)]
SQUARE_CENTER = SQUARE + [(2, 2)]


def test_is_hole_square():
    assert is_hole(SQUARE, SQUARE)
    assert not is_hole(SQUARE_CENTER, SQUARE)  # center fills the hull


def test_is_hole_rejects_foreign_subset():
    with pytest.raises(GeometryError):
        is_hole(SQUARE, [(9, 9), (0, 0), (4, 0)])


def test_is_hole_needs_strict_convexity():
    pts = [(0, 0), (2, 0), (4, 0), (4, 4)]
    assert not is_hole(pts, [(0, 0), (2, 0), (4, 0), (4, 4)])


def test_find_k_hole_square():
    cert = find_k_hole(SQUARE, 4)
    assert cert is not None
    assert sorted(cert.vertices) == sorted(SQUARE)
    assert cert.verify(SQUARE)


def test_find_k_hole_square_plus_center_has_no_4_hole():
    assert find_k_hole(SQUARE_CENTER, 4) is None
    assert find_k_hole(SQUARE_CENTER, 3) is not None


def test_find_k_hole_empty_triangle_blocked_by_edge_point():
    pts = [(0, 0), (4, 0), (0, 4), (2, 0)]
    cert = find_k_hole(pts, 3)
    # Triangles whose closed hull picks up the edge point are not holes.
    assert cert is not None
    assert (2, 0) in cert.vertices or not is_hole(
        pts, [(0, 0), (4, 0), (0, 4)]
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 3)),
        min_size=1,
        max_size=12,
        unique=True,
    )
)
@example(horton(16))
@example(grid(5))
@example(horton(32))
@example(grid(6))
@example(random_general_position(33, seed=75))
# Four points on one ray from the least point: the hole walk tells the clear
# first edge from the blocked ones by the fan order alone.  The first holes
# start on the horizontal and diagonal rays; the vertical ray comes last in
# the fan, so no chain grows from it.
@example([(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (2, 3), (1, 2)])  # horizontal
@example([(0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (3, 2), (2, 1)])  # vertical
@example([(0, 0), (1, 1), (2, 2), (3, 3), (3, 4), (2, 5), (1, 3)])  # diagonal
# The wedge's boundaries, around the convex pentagon (0, 0), (6, 1), (8, 6),
# (4, 10), (1, 7): a candidate inside segment base-chain[-1] is outside the
# wedge of (base, (8, 6), p) and blocks the fan triangle before it; a point
# on chain[-1]'s ray beyond it makes the fan triangle degenerate; a point
# inside edge chain[-1]-p lies in the wedge on the triangle's boundary.
@example([(0, 0), (6, 1), (8, 6), (4, 10), (1, 7), (4, 3)])
@example([(0, 0), (4, 0), (3, 3), (6, 6), (0, 4), (2, 7)])
@example([(0, 0), (6, 1), (8, 6), (4, 10), (1, 7), (6, 8)])
def test_find_k_hole_matches_reference(pts):
    _assert_matches_reference(pts)


@pytest.mark.slow
@pytest.mark.parametrize("pts", [grid(7), horton(64)], ids=["grid7", "horton64"])
def test_find_k_hole_matches_reference_beyond_oracle_budget(pts):
    # Past the oracle's 30 points; the reference takes seconds on each set.
    _assert_matches_reference(pts)


def _assert_matches_reference(pts):
    for k in range(3, 8):
        assert find_k_hole(pts, k) == reference_k_hole(pts, k)


@pytest.mark.parametrize(
    "pts, blocked",
    [
        ([(0, 0), (1, 0), (2, 0), (0, 2), (2, 2), (1, 3)], (2, 0)),
        # The half-plane's boundary ray: nothing follows it in the fan.
        ([(0, 0), (0, 1), (0, 2), (2, 0), (2, 2), (3, 1)], (0, 2)),
        ([(0, 0), (1, 1), (2, 2), (0, 2), (2, 4), (1, 4)], (2, 2)),
    ],
    ids=["horizontal", "vertical", "diagonal"],
)
def test_find_k_hole_never_grows_a_blocked_first_edge(monkeypatch, pts, blocked):
    # The points inside a first edge lie outside every wedge, so the
    # first-edge test must stop a chain on a blocked first edge before any
    # fan triangle from it is tested.
    # Each fan-triangle test is in_closed_triangle(q, base, chain[-1], p).
    tested = []
    in_closed_triangle = holefinder.convexity.in_closed_triangle

    def recording(q, a, b, c):
        tested.append((a, b))
        return in_closed_triangle(q, a, b, c)

    monkeypatch.setattr(holefinder.convexity, "in_closed_triangle", recording)
    assert find_k_hole(pts, 6) is None
    assert tested and ((0, 0), blocked) not in tested


def test_hole_certificate_clockwise_order():
    cert = find_k_hole(SQUARE, 4)
    assert cert.vertices[0] == min(cert.vertices)


def test_hole_certificate_rejects_repeated_vertex():
    pentagon = [(0, 0), (10, 0), (13, 9), (5, 15), (-3, 9)]
    cert = HoleCertificate(vertices=((0, 0), (0, 0), (10, 0), (13, 9)), k=4)
    assert cert.verify(pentagon) is False


@pytest.mark.parametrize(
    "vertices",
    [
        ((0, 0), (10, 0), (13, 9), (9, 9)),  # (9, 9) is not a point of the set
        ((0, 0), (10, 0), (13, 9), (5.0, 15.0)),  # equal to (5, 15), not ints
        ((0, 0), (10, 0), (13, 9), [5, 15]),
    ],
)
def test_hole_certificate_rejects_foreign_vertex(vertices):
    pentagon = [(0, 0), (10, 0), (13, 9), (5, 15), (-3, 9)]
    assert HoleCertificate(vertices=vertices, k=4).verify(pentagon) is False


def test_collinear_certificate_round_trip():
    cert = CollinearCertificate.build([(0, 0), (2, 2), (1, 1)])
    assert cert.points == ((0, 0), (1, 1), (2, 2))
    assert cert.verify([(0, 0), (1, 1), (2, 2), (5, 0)])
    assert not cert.verify([(0, 0), (1, 1), (5, 0)])  # (2,2) missing
    # A repeated point does not count twice.
    twice = CollinearCertificate(points=((0, 0), (0, 0), (5, 0)), ell=3)
    assert not twice.verify([(0, 0), (1, 1), (5, 0)])


def test_collinear_certificate_counts_exactly_ell_points():
    # The document rule of holefinder verify lets a collinear document list
    # more points than its parameter; the certificate itself does not.
    column = tuple((0, y) for y in range(5))
    assert CollinearCertificate(column, 5).verify(grid(5))
    assert CollinearCertificate(column, 3).problem(grid(5)) == (
        "point count disagrees with the stated parameter"
    )
    assert not CollinearCertificate(column[:3], 5).verify(grid(5))


def test_certificate_problems_name_the_first_broken_condition():
    square = [(0, 0), (4, 0), (4, 4), (0, 4)]
    center = square + [(2, 2)]
    assert HoleCertificate(tuple(square), 4).problem(square) is None
    assert HoleCertificate(tuple(square), 4).problem(center) == "hull not empty"
    assert HoleCertificate(((0, 0), (2, 2), (4, 4)), 3).problem(center) == (
        "not strictly convex"
    )
    with pytest.raises(GeometryError, match="is not a hole of the set: hull not empty"):
        HoleCertificate.build(center, square)
    with pytest.raises(GeometryError, match="^points are not collinear$"):
        CollinearCertificate.build([(0, 0), (4, 0), (4, 4)])


def test_hole_build_stores_the_hull_it_checked(monkeypatch):
    hulls = []
    real = holefinder.holes.convex_hull
    monkeypatch.setattr(
        holefinder.holes, "convex_hull", lambda pts: hulls.append(pts) or real(pts)
    )
    cert = HoleCertificate.build(SQUARE + [(9, 9)], [(4, 4), (0, 0), (4, 0), (0, 4)])
    assert cert.vertices == ((0, 0), (0, 4), (4, 4), (4, 0))  # clockwise
    assert len(hulls) == 1


def test_collinear_certificate_rejects_non_collinear():
    with pytest.raises(GeometryError):
        CollinearCertificate.build([(0, 0), (1, 1), (2, 0)])


@pytest.mark.parametrize(
    "points",
    [
        [(0, 0), (0, 0), (5, 7)],  # a repeat fixes no line
        [(0, 0), (True, 0)],
        [(0, 0), [1, 1]],
        [(0, 0), (1, 1, 1)],
    ],
)
def test_collinear_certificate_build_validates_points(points):
    with pytest.raises(GeometryError):
        CollinearCertificate.build(points)


@pytest.mark.parametrize(
    "points",
    [((0, 0), (True, 0)), ((0, 0), [1, 0]), ((0, 0), (1.0, 0))],
)
def test_collinear_certificate_verify_rejects_non_integer_points(points):
    cert = CollinearCertificate(points=points, ell=2)
    assert cert.verify([(0, 0), (1, 0), (2, 0)]) is False


def test_visibility_graph_blocking():
    pts = [(0, 0), (1, 1), (2, 2), (0, 2)]
    graph = visibility_graph(pts)
    assert not graph.adjacent((0, 0), (2, 2))  # blocked by (1,1)
    assert graph.adjacent((0, 0), (1, 1))
    assert graph.adjacent((0, 0), (0, 2))


def _lattice_sets(box):
    width, height = box
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    return st.lists(cell, min_size=2, max_size=16, unique=True)


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(1, 6), st.integers(2, 6)).flatmap(_lattice_sets))
@example([(i, 0) for i in range(6)])
@example([(x, y) for x in range(4) for y in range(4)])
def test_segment_interiors_match_the_pairwise_scan(pts):
    pts = canonical(pts)
    inner = _segment_interiors(pts)
    pairs = [(a, b) for i, a in enumerate(pts) for b in pts[i + 1 :]]
    assert set(inner) == set(pairs)
    for a, b in pairs:
        assert inner[a, b] == [
            q for q in pts if q not in (a, b) and on_closed_segment(q, a, b)
        ]
    # The visibility rule pair by pair: nothing of the set on the closed
    # segment but its ends.
    assert visibility_graph(pts).edges == {
        (a, b) for a, b in pairs
        if all(q in (a, b) or not on_closed_segment(q, a, b) for q in pts)
    }


def test_visibility_graph_complete_for_square():
    assert len(visibility_graph(SQUARE).edges) == 4 * 3 // 2


def test_crossing_free_iff_no_4_hole():
    # A 4-hole forces crossing diagonals; the exceptional set is crossing-free.
    assert not is_crossing_free(visibility_graph(SQUARE))
    assert is_crossing_free(visibility_graph(list(EXCEPTIONAL_SIX)))


def test_find_visible_5_clique_collinear_branch():
    pts = [(i, 0) for i in range(5)] + [(0, 3), (1, 5)]
    out = find_visible_5_clique(pts, 4)
    assert isinstance(out, CollinearCertificate)
    assert out.ell == 4


def test_find_visible_5_clique_hole_branch():
    pts = [(0, 0), (10, 0), (13, 9), (5, 15), (-3, 9), (30, 30)]
    out = find_visible_5_clique(pts, 3)
    assert isinstance(out, list) and len(out) == 5
    graph = visibility_graph(pts)
    for i in range(5):
        for j in range(i + 1, 5):
            assert graph.adjacent(out[i], out[j])
    # A 5-hole exists, so the answer is the paper's witness, not a clique
    # that only the visibility graph vouches for.
    assert is_hole(pts, out)
    assert out == list(find_k_hole(pts, 5).vertices)


def test_find_visible_5_clique_inconclusive():
    with pytest.raises(InconclusiveError, match="no 4 collinear points"):
        find_visible_5_clique([(x, y) for x in range(3) for y in range(3)], 4)


@pytest.mark.parametrize("ell", [0, 1])
def test_find_visible_5_clique_rejects_ell_below_two(ell):
    pts = [(0, 0), (10, 0), (10, 10), (0, 10), (3, 4)]
    with pytest.raises(GeometryError, match=r"^find_visible_5_clique needs ell >= 2$"):
        find_visible_5_clique(pts, ell)


def test_find_visible_5_clique_without_a_5_hole():
    # A square around one point has no 5-hole, yet its 5 points are pairwise
    # visible: the answer is the visibility graph's clique.
    pts = [(0, 0), (10, 0), (10, 10), (0, 10), (3, 4)]
    assert find_k_hole(pts, 5) is None
    assert len(visibility_graph(pts).edges) == 5 * 4 // 2
    assert find_visible_5_clique(pts, 3) == canonical(pts)


def _clique_sets(box):
    width, height = box
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    return st.lists(cell, min_size=5, max_size=12, unique=True)


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.integers(2, 6), st.integers(3, 6)).flatmap(_clique_sets),
    st.integers(3, 13),
)
@example([(0, 0), (10, 0), (10, 10), (0, 10), (3, 4)], 3)
# Among 5 lattice points two agree mod 2, and their midpoint blocks them.
@example(grid(4), 5)
@example([(0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 2)], 5)
def test_find_visible_5_clique_matches_brute_force(pts, ell):
    first = next(reference_visible_5_cliques(pts), None)
    assert _first_5_clique(visibility_graph(pts)) == first
    if max_collinear(pts)[0] >= ell:
        assert isinstance(find_visible_5_clique(pts, ell), CollinearCertificate)
    elif first is None:
        with pytest.raises(InconclusiveError, match=f"no {ell} collinear points"):
            find_visible_5_clique(pts, ell)
    else:
        out = find_visible_5_clique(pts, ell)
        assert len(set(out)) == 5 and set(out) <= set(pts)
        assert all(reference_visible(pts, a, b) for a, b in combinations(out, 2))
        # The 5-hole comes first whenever there is one; the clique only else.
        hole = reference_k_hole(pts, 5)
        if hole is not None:
            assert is_hole(pts, out) and out == list(hole.vertices)
        else:
            assert out == first


def test_same_order_type_mirror_and_relabel():
    a = [(0, 0), (4, 0), (0, 4), (1, 1)]
    b = [(0, 0), (0, 4), (4, 0), (1, 1)]  # mirrored
    assert same_order_type(a, b)
    c = [(0, 0), (4, 0), (0, 4), (3, 3)]  # apex outside the triangle
    assert not same_order_type(a, c)


def test_classify_families():
    line_plus = [(i, 0) for i in range(5)] + [(1, 1)]
    assert classify_no_four_hole(line_plus).tag == "all-but-one-collinear"
    two_apex = [(0, 0), (1, 0), (2, 0), (1, 2), (1, -2)]
    assert classify_no_four_hole(two_apex).tag == "two-apex-line"
    assert (
        classify_no_four_hole(list(EXCEPTIONAL_SIX)).tag == "six-point-exceptional"
    )
    assert classify_no_four_hole(SQUARE).tag == "has-four-hole"


def test_classify_equivalence_flags():
    for pts in (SQUARE, SQUARE_CENTER, list(EXCEPTIONAL_SIX)):
        family = classify_no_four_hole(pts)
        assert family.crossing_free == (family.tag != "has-four-hole")


def test_exceptional_six_is_rederivable():
    # The frozen fixture must itself dodge the other two families.
    from holefinder.geometry import max_collinear
    from holefinder.holes import _two_apex_line_witness

    pts = list(EXCEPTIONAL_SIX)
    assert find_k_hole(pts, 4) is None
    assert max_collinear(pts)[0] < len(pts) - 1
    assert _two_apex_line_witness(pts) is None
