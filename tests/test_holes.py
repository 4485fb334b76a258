import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import holefinder.convexity
from holefinder.convexity import _triangle_clear
from holefinder.generators import grid, horton, random_general_position
from holefinder.geometry import GeometryError
from holefinder.holes import (
    EXCEPTIONAL_SIX,
    CollinearCertificate,
    HoleCertificate,
    InconclusiveError,
    classify_no_four_hole,
    find_k_hole,
    find_visible_5_clique,
    is_crossing_free,
    is_hole,
    same_order_type,
    visibility_graph,
)

from convex_reference import reference_k_hole

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
def test_find_k_hole_matches_reference(pts):
    for k in range(3, 8):
        assert find_k_hole(pts, k) == reference_k_hole(pts, k)


def test_find_k_hole_never_grows_a_blocked_first_edge(monkeypatch):
    # The first fan triangle holds the first edge, so the segment test
    # changes no answer; it stops a chain before any fan triangle on a
    # blocked first edge is tested.
    tested = []

    def recording(pts, a, b, c):
        tested.append((a, b))
        return _triangle_clear(pts, a, b, c)

    monkeypatch.setattr(holefinder.convexity, "_triangle_clear", recording)
    pts = [(0, 0), (1, 0), (2, 0), (0, 2), (2, 2), (1, 3)]
    assert find_k_hole(pts, 6) is None
    assert tested and ((0, 0), (2, 0)) not in tested


def test_hole_certificate_clockwise_order():
    cert = find_k_hole(SQUARE, 4)
    assert cert.vertices[0] == min(cert.vertices)


def test_hole_certificate_rejects_repeated_vertex():
    pentagon = [(0, 0), (10, 0), (13, 9), (5, 15), (-3, 9)]
    cert = HoleCertificate(vertices=((0, 0), (0, 0), (10, 0), (13, 9)), k=4)
    assert cert.verify(pentagon) is False


def test_collinear_certificate_round_trip():
    cert = CollinearCertificate.build([(0, 0), (2, 2), (1, 1)])
    assert cert.points == ((0, 0), (1, 1), (2, 2))
    assert cert.verify([(0, 0), (1, 1), (2, 2), (5, 0)])
    assert not cert.verify([(0, 0), (1, 1), (5, 0)])  # (2,2) missing
    # A repeated point does not count twice.
    twice = CollinearCertificate.build([(0, 0), (0, 0), (5, 0)])
    assert not twice.verify([(0, 0), (1, 1), (5, 0)])


def test_collinear_certificate_rejects_non_collinear():
    with pytest.raises(GeometryError):
        CollinearCertificate.build([(0, 0), (1, 1), (2, 0)])


def test_visibility_graph_blocking():
    pts = [(0, 0), (1, 1), (2, 2), (0, 2)]
    graph = visibility_graph(pts)
    assert not graph.adjacent((0, 0), (2, 2))  # blocked by (1,1)
    assert graph.adjacent((0, 0), (1, 1))
    assert graph.adjacent((0, 0), (0, 2))


def test_visibility_graph_complete_for_square():
    assert visibility_graph(SQUARE).is_complete()


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


def test_find_visible_5_clique_inconclusive():
    with pytest.raises(InconclusiveError):
        find_visible_5_clique([(x, y) for x in range(3) for y in range(3)], 4)


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
