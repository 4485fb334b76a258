import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import holefinder.convexity
from holefinder.convexity import (
    LayerDecomposition,
    convex_hull,
    es_bound,
    es_kl_bound,
    find_convex_position_subset,
    in_closed_hull,
    is_convex_position,
    is_strictly_convex_position,
    k_minimal_convex_subset,
    max_convex_position_subset,
    max_convex_size,
    q_formula,
)
from holefinder.generators import (
    grid,
    horton,
    random_bounded_collinear,
    random_general_position,
)
from holefinder.geometry import GeometryError, cross, max_collinear
from holefinder.oracle import oracle_max_convex_subset

from convex_reference import (
    reference_convex_hull,
    reference_convex_subset,
    reference_find,
    reference_k_minimal_convex_subset,
    reference_max_convex_size,
    strictly_convex_subset_in_convex_position,
)

SQUARE = [(0, 0), (4, 0), (4, 4), (0, 4)]
SQUARE_EDGE = SQUARE + [(2, 0)]  # extra point on the bottom edge
SQUARE_CENTER = SQUARE + [(2, 2)]


def test_convex_hull_square_with_edge_point():
    hull = convex_hull(SQUARE_EDGE)
    assert hull.boundary == ((0, 0), (0, 4), (4, 4), (4, 0), (2, 0))
    assert hull.corners == ((0, 0), (0, 4), (4, 4), (4, 0))


def test_convex_hull_excludes_interior():
    hull = convex_hull(SQUARE_CENTER)
    assert set(hull.boundary) == set(SQUARE)


def test_convex_hull_collinear_input():
    hull = convex_hull([(0, 0), (2, 2), (1, 1)])
    assert hull.boundary == ((0, 0), (1, 1), (2, 2))
    assert hull.corners == ((0, 0), (2, 2))


# Lattice sets in boxes from 1x1 to 6x6 points: edge points are common.
BOXED_SETS = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda box: st.lists(
        st.tuples(st.integers(0, box[0] - 1), st.integers(0, box[1] - 1)),
        min_size=1,
        max_size=14,
        unique=True,
    )
)


@settings(max_examples=300, deadline=None)
@given(BOXED_SETS)
@example([(0, 2), (0, 0), (0, 1), (3, 1), (5, 0), (5, 1), (5, 3), (2, 1)])  # vertical ends
@example([(0, 0), (3, 3), (1, 1), (2, 2)])  # all collinear
@example([(2, 3)])
@example([(1, 0), (0, 2)])
def test_convex_hull_matches_reference(pts):
    hull = convex_hull(pts)
    reference = reference_convex_hull(pts)
    assert hull.boundary == reference.boundary
    assert hull.corners == reference.corners


def test_position_predicates():
    assert is_convex_position(SQUARE_EDGE)
    assert not is_strictly_convex_position(SQUARE_EDGE)
    assert is_strictly_convex_position(SQUARE)
    assert not is_convex_position(SQUARE_CENTER)
    # Ten collinear points are in convex position but not strictly.
    line = [(i, 0) for i in range(10)]
    assert is_convex_position(line)
    assert not is_strictly_convex_position(line)


def test_in_closed_hull():
    hull = convex_hull(SQUARE)
    assert in_closed_hull((2, 2), hull)
    assert in_closed_hull((0, 0), hull)
    assert in_closed_hull((2, 0), hull)
    assert not in_closed_hull((5, 2), hull)


def test_find_convex_position_subset_counts_edge_points():
    # Non-strict search may use collinear boundary points.
    pts = [(0, 0), (2, 0), (3, 3), (1, 1)]  # (1,1) lies on the (3,3)-(0,0) edge
    found = find_convex_position_subset(pts, 4)
    assert found is not None and is_convex_position(found)
    assert max_convex_size(pts, strict=True) == 3


def test_max_subsets_on_grid():
    grid = [(x, y) for x in range(3) for y in range(3)]
    assert len(max_convex_position_subset(grid)) == 8
    assert max_convex_size(grid, strict=True) == 6  # hexagon in the 3x3 grid


def test_max_convex_position_subset_cap():
    grid = [(x, y) for x in range(3) for y in range(3)]
    assert len(max_convex_position_subset(grid, cap=5)) == 5
    assert len(max_convex_position_subset(grid, cap=9)) == 8
    with pytest.raises(GeometryError):
        max_convex_position_subset(grid, cap=0)


# Small lattice boxes make collinear runs common.
LATTICE_SETS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 3)),
    min_size=1,
    max_size=10,
    unique=True,
)


@settings(max_examples=300, deadline=None)
@given(LATTICE_SETS)
def test_convex_search_matches_oracle(pts):
    size = oracle_max_convex_subset(pts, strict=False)
    largest = max_convex_position_subset(pts)
    assert len(largest) == size and set(largest) <= set(pts)
    assert is_convex_position(largest)
    for k in range(1, len(pts) + 2):
        found = find_convex_position_subset(pts, k)
        assert (found is not None) == (k <= size)
        if found is not None:
            assert len(set(found)) == k and set(found) <= set(pts)
            assert is_convex_position(found)
    # Strict subsets are only counted, by the size table.
    assert max_convex_size(pts, strict=True) == oracle_max_convex_subset(pts, strict=True)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 3)),
        min_size=1,
        max_size=12,
        unique=True,
    )
)
# The strict maximum (four corners) is not the corner set of the non-strict
# maximum, whose fourth point (1, 1) lies on an edge.
@example([(0, 1), (1, 1), (2, 2), (3, 0), (4, 1)])
# Two longest runs tie: the vertical one, from the least second point, leads.
@example([(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)])
# A run of five is at least every target up to 5: the walk returns it early.
@example([(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (0, 3), (3, 0)])
def test_convex_search_matches_reference(pts):
    canon = sorted(pts)
    n = len(pts)
    for k in range(1, n + 2):
        assert find_convex_position_subset(pts, k) == reference_find(pts, k)
    assert max_convex_size(pts, strict=True) == len(
        reference_convex_subset(canon, True, n + 1)
    )
    assert max_convex_position_subset(pts) == reference_convex_subset(canon, False, n + 1)
    most = max_convex_size(pts)
    for cap in range(1, n + 2):
        assert max_convex_position_subset(pts, cap=cap) == reference_convex_subset(
            canon, False, cap
        )
        # A capped walk returns cap points or a maximum: its length is the
        # table's size, capped.
        assert len(max_convex_position_subset(pts, cap=cap)) == min(cap, most)
    for k in range(1, n + 1):
        if reference_find(pts, k) is None:
            break
        assert k_minimal_convex_subset(pts, k) == reference_k_minimal_convex_subset(pts, k)


# Up to 16 lattice points in boxes from 1x1 to 6x6.
SIZE_SETS = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda box: st.lists(
        st.tuples(st.integers(0, box[0] - 1), st.integers(0, box[1] - 1)),
        min_size=1,
        max_size=16,
        unique=True,
    )
)


@settings(max_examples=200, deadline=None)
@given(SIZE_SETS)
@example([(3, 1)])
@example([(0, 0), (2, 1)])
@example([(i, 2 * i) for i in range(5)])
@example(grid(3))
@example(grid(4))
@example(horton(16))
@example(horton(16)[::-1])
# Exact turn tests far from the origin.
@example([(10**20 * x - 10**25, 10**20 * y - 10**25) for x, y in horton(16)])
# A vertical run, whose interior points count on a vertical edge.
@example([(0, 0), (0, 1), (0, 2), (0, 3), (2, 1), (1, 4), (3, 3)])
# From the base (1, 4), the longest chain into (3, 2), through (3, 1),
# turns right there towards (4, 4), so a shorter one, through (2, 2),
# answers: extending only the longest chain gives 4, not 5.
@example([(0, 3), (1, 4), (2, 2), (3, 1), (3, 2), (4, 4)])
# A single point is one point, not a pair: 1 and 1.
@example([(0, 0)])
# Six points on a triangle, five of them along one edge: 6 and 3.  From the
# base (0, 0), the step (2, -1) -> (4, 0) counts 3, no more than the 5 of
# the edge (0, 0) -> (4, 0), so the ranked row of (4, 0) keeps no chain; yet
# that step closes the largest polygon.
@example([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (2, -1)])
# A vertical edge with two points inside it: 5 and 3.
@example([(0, 0), (0, 1), (0, 2), (0, 3), (1, 1)])
def test_max_convex_size_matches_oracle_and_reference(pts):
    # find trusts the table for None, so its size must be exact, not a bound.
    canon = sorted(pts)
    n = len(pts)
    for strict in (False, True):
        size = max_convex_size(pts, strict)
        assert size == len(reference_convex_subset(canon, strict, n + 1))
        assert size == reference_max_convex_size(pts, strict)
        if n <= 12:
            assert size == oracle_max_convex_subset(pts, strict=strict)


@pytest.mark.slow
@pytest.mark.parametrize(
    "pts, sizes",
    [
        (horton(64), (18, 18)),
        (grid(8), (28, 13)),
        *[(random_bounded_collinear(64, 4, seed), None) for seed in range(3)],
    ],
    ids=["horton64", "grid8", "random64-0", "random64-1", "random64-2"],
)
def test_max_convex_size_matches_reference_at_64_points(pts, sizes):
    # No oracle reaches 64 points; the plain triple-loop table does.
    found = (max_convex_size(pts), max_convex_size(pts, strict=True))
    assert found == (reference_max_convex_size(pts), reference_max_convex_size(pts, True))
    if sizes is not None:
        assert found == sizes


def _no_three_collinear(pts):
    """The points of ``pts``, in order, that make no collinear triple with
    the points kept before them."""
    kept = []
    for p in pts:
        if all(cross(a, b, p) != 0 for i, a in enumerate(kept) for b in kept[:i]):
            kept.append(p)
    return kept


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
        min_size=1,
        max_size=14,
        unique=True,
    ).map(_no_three_collinear)
)
def test_strict_maximum_is_the_maximum_without_three_collinear(pts):
    # analyze prints the non-strict maximum as the strict one on such sets.
    assert max_collinear(pts)[0] < 3
    assert max_convex_size(pts, strict=True) == max_convex_size(pts)


def test_max_convex_size_rejects_repeated_point():
    with pytest.raises(GeometryError):
        max_convex_size([(0, 0), (1, 2), (0, 0)])


@pytest.fixture
def walks(monkeypatch):
    """The target of every ``_convex_walk`` call, in call order."""
    walk = holefinder.convexity._convex_walk
    targets = []

    def counting(pts, target, empty=False):
        targets.append(target)
        return walk(pts, target, empty)

    monkeypatch.setattr(holefinder.convexity, "_convex_walk", counting)
    return targets


def test_refuted_find_does_not_walk(walks):
    pts = horton(16)
    most = len(reference_convex_subset(sorted(pts), False, len(pts) + 1))
    assert find_convex_position_subset(pts, most + 1) is None
    assert walks == []
    assert len(find_convex_position_subset(pts, most)) == most
    assert walks == [most]


def test_q_formula_values():
    assert q_formula(5, 3) == 5  # q(k,3) = k
    assert q_formula(3, 4) == 4  # q(3,ell) = ell
    assert q_formula(9, 6) == 21  # odd k
    assert q_formula(8, 6) == 17  # even k
    assert q_formula(2, 7) == 2


def test_es_bound_values():
    assert es_bound(5) == 11
    assert es_bound(6) == 36
    # The binomial gives 2 and 4 here; two points hold no three, and a
    # triangle around a point holds no four in convex position.
    assert es_bound(3) == 3
    assert es_bound(4) == 5
    assert es_kl_bound(3, 3).value == 3
    assert es_kl_bound(4, 3).value == 5


def test_es_kl_bound_comparison_directions():
    # Odd k with ell = 3: the convex-position route wins.
    for k in (7, 9):
        assert es_kl_bound(k, 3).winner == "convex-position"
    # (9, 6): the general-position route wins.
    b = es_kl_bound(9, 6)
    assert b.winner == "general-position"
    assert b.value == b.via_general_position < b.via_convex_position


def test_strict_selection_inside_convex_position():
    # Square with loaded bottom edge: pick 4 strictly convex out of it.
    pts = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (4, 4), (0, 4)]
    out = strictly_convex_subset_in_convex_position(pts, 4, 6)
    assert len(out) == 4 and is_strictly_convex_position(out)


def test_strict_selection_rejects_bad_inputs():
    with pytest.raises(GeometryError):
        strictly_convex_subset_in_convex_position(SQUARE_CENTER, 3, 4)


def test_k_minimal_square_plus_center():
    out = k_minimal_convex_subset(SQUARE_CENTER, 3)
    assert len(out) >= 3 and is_convex_position(out)
    # A strictly smaller triangle using the center must not exist inside.
    from holefinder.oracle import oracle_k_minimality

    assert oracle_k_minimality(SQUARE_CENTER, out, 3)


def test_k_minimal_requires_feasible_k():
    with pytest.raises(GeometryError):
        k_minimal_convex_subset([(0, 0), (1, 0)], 3)


def test_k_minimal_accepts_collinear_triples():
    # Three collinear points are in (non-strict) convex position.
    out = k_minimal_convex_subset([(0, 0), (1, 0), (2, 0)], 3)
    assert len(out) == 3


@pytest.mark.slow
@pytest.mark.parametrize(
    "pts",
    [
        horton(32),
        horton(64),
        grid(8),
        *[random_bounded_collinear(64, 4, seed) for seed in range(2)],
    ],
    ids=["horton32", "horton64", "grid8", "random64-0", "random64-1"],
)
def test_k_minimal_corners_are_needed(pts):
    # No oracle reaches these sizes; k-minimality is checked as the proof
    # of k_minimal_convex_subset states it, with one table per corner.
    k = max_convex_size(pts)
    out = k_minimal_convex_subset(pts, k)
    assert len(set(out)) == k and set(out) <= set(pts)
    assert is_convex_position(out)
    hull = convex_hull(out)
    inside = [p for p in pts if in_closed_hull(p, hull)]
    others = [p for p in inside if p not in out]
    assert not [p for p in others if p in convex_hull(out + [p]).boundary]
    for c in hull.corners:
        assert max_convex_size([p for p in inside if p != c]) < k


@pytest.mark.parametrize(
    "pts", [random_general_position(16, 0), horton(16)], ids=["random16", "horton16"]
)
def test_k_minimal_does_not_walk(walks, pts):
    # Once every corner is needed, the hull boundary of what is left is the
    # only k-subset in convex position: the peel answers with it.
    assert len(k_minimal_convex_subset(pts, 5)) == 5
    assert walks == []


@settings(max_examples=300, deadline=None)
@given(LATTICE_SETS)
# Without (2, 2) a run of five reaches every k up to 5 before any base;
# without (0, 0) the longest run is gone and the next one, of four, counts.
@example([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (2, 2)])
# A vertical edge with two points inside it.
@example([(0, 0), (0, 1), (0, 2), (0, 3), (1, 1)])
# Without (5, 5) the unit square closes from the first base, (0, 0), so a
# stop at 3 or 4 fires there.
@example([(0, 0), (1, 0), (0, 1), (1, 1), (5, 5)])
def test_prepared_table_without_a_corner_matches(pts):
    # The peel's fast path: one table prepared on the input, run over the
    # points left without a hull corner, stopped at k.
    canon = sorted(pts)
    for strict in (False, True):
        sizes = holefinder.convexity._size_table(canon, strict)
        for c in convex_hull(canon).corners:
            rest = [p for p in canon if p != c]
            size = max_convex_size(rest, strict)
            assert size == reference_max_convex_size(rest, strict)
            assert sizes(rest) == size
            for k in range(1, len(canon) + 1):
                assert (sizes(rest, k) >= k) == (size >= k)


@pytest.fixture
def preparations(monkeypatch):
    """How many times ``_segment_interiors`` and ``_fans`` are called."""
    calls = {"_segment_interiors": 0, "_fans": 0}
    for name in calls:
        original = getattr(holefinder.convexity, name)

        def counting(pts, name=name, original=original):
            calls[name] += 1
            return original(pts)

        monkeypatch.setattr(holefinder.convexity, name, counting)
    return calls


def test_k_minimal_prepares_once(preparations):
    # One preparation for every size table of the peel, and no walk.
    assert len(k_minimal_convex_subset(horton(16), 5)) == 5
    assert preparations == {"_segment_interiors": 1, "_fans": 1}


def test_convex_layers_profile_5x5():
    grid = [(x, y) for x in range(5) for y in range(5)]
    outer = k_minimal_convex_subset(grid, 16)
    decomposition = LayerDecomposition.build(grid, outer, 5)
    assert decomposition.sizes() == [16, 8, 1, 0, 0]
    assert decomposition.apex is None  # the residue layer is empty
    with_three = LayerDecomposition.build(grid, outer, 3)
    assert with_three.sizes() == [16, 8, 1]
    assert with_three.apex == (2, 2)


def test_layers_disjoint_within_first_hull():
    pts = [(0, 0), (10, 0), (10, 10), (0, 10), (3, 3), (6, 3), (5, 7), (5, 5)]
    decomposition = LayerDecomposition.build(pts, k_minimal_convex_subset(pts, 4), 3)
    seen = [p for layer in decomposition.layers for p in layer]
    assert len(set(seen)) == len(seen)
    assert set(seen) <= set(pts)
    first = convex_hull(list(decomposition.layers[0]))
    assert all(in_closed_hull(p, first) for p in seen)
