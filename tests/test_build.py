from __future__ import annotations

import io
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from bicollapse import build, cli
from bicollapse.build import (
    DATASET_KINDS,
    density_rips_from_distances,
    density_rips_graph,
    generate_dataset,
    kde_bandwidth,
    kde_density,
    kde_density_from_matrix,
    load_lower_distance_matrix,
    load_points,
    pairwise_distances,
    square_form,
)


# -- distances -----------------------------------------------------------------


def test_pairwise_345():
    assert pairwise_distances([[0.0, 0.0], [3.0, 4.0]]).tolist() == [5.0]


def test_pairwise_duplicates():
    assert pairwise_distances([[0.0, 0.0], [0.0, 0.0]]).tolist() == [0.0]


def test_pairwise_collinear_order():
    pts = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    assert pairwise_distances(pts).tolist() == [1.0, 2.0, 1.0]


def _reference_clouds():
    rng = np.random.default_rng(17)
    for dim in (2, 3):
        for scale in (1e-3, 1e-1, 1.0, 1e2, 1e4):
            for n in (2, 3, 37):
                yield rng.normal(size=(n, dim)) * scale + rng.uniform(-scale, scale, dim)
    yield generate_dataset("torus", 200, seed=1)


def test_pairwise_bit_identical_to_scipy():
    # scipy is the test-only reference: same values, bit for bit.
    for pts in _reference_clouds():
        ours, ref = pairwise_distances(pts), pdist(pts)
        assert ours.dtype == ref.dtype and ours.shape == ref.shape
        assert np.array_equal(ours.view(np.int64), ref.view(np.int64))


def test_square_form_matches_scipy():
    for pts in _reference_clouds():
        condensed = pdist(pts)
        ours, ref = square_form(condensed), squareform(condensed)
        assert np.array_equal(ours.view(np.int64), ref.view(np.int64))
    assert square_form(np.array([2.5])).tolist() == [[0.0, 2.5], [2.5, 0.0]]
    with pytest.raises(ValueError, match="n\\(n-1\\)/2"):
        square_form(np.zeros(4))


def test_library_imports_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import bicollapse, bicollapse.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_pairwise_needs_two_points():
    with pytest.raises(ValueError, match="2 points"):
        pairwise_distances([[0.0, 0.0]])


# -- bandwidth and densities ------------------------------------------------------


def test_bandwidth_nearest_rank():
    assert kde_bandwidth([1.0, 2.0, 3.0, 4.0, 5.0]) == 1.0
    assert kde_bandwidth(list(range(1, 11))) == 2.0
    assert kde_bandwidth([5.0, 5.0, 5.0, 1.0]) == 1.0


def test_bandwidth_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        kde_bandwidth([0.0, 0.0])
    with pytest.raises(ValueError, match="degenerate"):
        kde_bandwidth(np.zeros(10))


def test_bandwidth_ignores_the_zero_distances_of_duplicate_points():
    # The percentile is over the distinct positive distances, so a duplicated
    # point gives the bandwidth of the cloud without it.
    cloud = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    with_duplicate = np.vstack([cloud[:1], cloud])
    assert kde_bandwidth(pairwise_distances(with_duplicate)) == 1.0
    assert kde_bandwidth(pairwise_distances(cloud)) == 1.0
    with pytest.raises(ValueError, match="all pairwise distances are zero"):
        kde_bandwidth(pairwise_distances(np.zeros((4, 2))))


def test_density_single_point():
    assert kde_density(np.zeros((1, 2)), 1.0).tolist() == [1.0]
    with pytest.raises(ValueError, match="positive"):
        kde_density(np.zeros((1, 2)), 0.0)


@pytest.mark.parametrize("h", [0.0, -1.0])
def test_density_from_matrix_needs_a_positive_bandwidth(h):
    with pytest.raises(ValueError, match="^bandwidth must be positive$"):
        kde_density_from_matrix(np.zeros((2, 2)), h)


def test_density_coincident_pair():
    got = kde_density(np.zeros((2, 2)), 1.0)
    assert got.tolist() == [2.0, 2.0]


def test_density_half_kernel_distance():
    h = 0.7
    d = h * math.sqrt(2.0 * math.log(2.0))
    got = kde_density(np.array([[0.0, 0.0], [d, 0.0]]), h)
    assert got == pytest.approx([1.5, 1.5])


def test_density_permutation_equivariant():
    rng = np.random.default_rng(2)
    pts = rng.uniform(size=(12, 2))
    perm = rng.permutation(12)
    base = kde_density(pts, 0.4)
    assert kde_density(pts[perm], 0.4) == pytest.approx(base[perm])


def test_density_from_matrix_matches_points():
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(8, 3))
    direct = kde_density(pts, 0.5)
    via_matrix = kde_density_from_matrix(squareform(pdist(pts)), 0.5)
    assert via_matrix == pytest.approx(direct)


# -- density-Rips graph -------------------------------------------------------------


def test_density_rips_two_points():
    g = density_rips_graph(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([3.0, 5.0]))
    assert g.edge_list()[0].grade == (-3.0, 1.0)


def test_density_rips_equal_densities():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    g = density_rips_graph(pts, np.array([2.0, 2.0, 2.0]))
    assert {gr[0] for _, _, gr in g.edges()} == {-2.0}


def test_density_rips_complete():
    rng = np.random.default_rng(5)
    pts = rng.uniform(size=(9, 2))
    g = density_rips_graph(pts, kde_density(pts, 0.3))
    assert g.edge_count() == 9 * 8 // 2
    assert all(math.isfinite(gr[0]) and math.isfinite(gr[1]) for _, _, gr in g.edges())


def test_density_rips_monotone_in_density():
    rng = np.random.default_rng(7)
    pts = rng.uniform(size=(6, 2))
    dens = kde_density(pts, 0.3)
    g1 = density_rips_graph(pts, dens)
    bumped = dens.copy()
    bumped[2] += 1.0
    g2 = density_rips_graph(pts, bumped)
    for (u, v, a), (_, _, b) in zip(g1.edges(), g2.edges()):
        assert b[1] == a[1]
        if 2 in (u, v):
            assert b[0] <= a[0]
        else:
            assert b[0] == a[0]


def test_density_rips_length_mismatch():
    with pytest.raises(ValueError, match="match"):
        density_rips_graph(np.zeros((3, 2)), np.ones(2))
    with pytest.raises(ValueError, match="match"):
        density_rips_from_distances(np.zeros((3, 3)), np.ones(2))


@pytest.mark.parametrize("shape", [(3, 5), (6,), (2, 2, 2)])
def test_matrix_functions_refuse_a_matrix_that_is_not_square(shape):
    dist = np.zeros(shape)
    with pytest.raises(ValueError, match=re.escape(f"distance matrix shape {shape} is not square")):
        kde_density_from_matrix(dist, 1.0)
    with pytest.raises(ValueError, match=re.escape(f"distance matrix shape {shape} is not square")):
        density_rips_from_distances(dist, np.ones(3))


def test_matrix_functions_read_only_the_strict_upper_triangle():
    # Densities and edges come from the same entries: those above the
    # diagonal.  The lower triangle and the diagonal are never read.
    rng = np.random.default_rng(11)
    dist = rng.uniform(0.1, 2.0, (7, 7))
    upper = np.triu(dist, 1)
    mirrored = upper + upper.T
    density = kde_density_from_matrix(dist, 0.5)
    assert _bits(density) == _bits(np.exp(-(mirrored**2) / (2.0 * 0.5 * 0.5)).sum(axis=1))
    g = density_rips_from_distances(dist, density)
    assert _bits(g.edge_arrays()[3]) == _bits(dist[np.triu_indices(7, 1)])
    assert g == density_rips_from_distances(mirrored, density)


def test_matrix_functions_on_one_and_no_point():
    assert kde_density_from_matrix(np.zeros((1, 1)), 0.5).tolist() == [1.0]
    assert kde_density_from_matrix(np.zeros((0, 0)), 0.5).tolist() == []
    one = density_rips_from_distances(np.zeros((1, 1)), [1.0])
    none = density_rips_from_distances(np.zeros((0, 0)), [])
    assert (one.n, one.edge_count(), none.n, none.edge_count()) == (1, 0, 0, 0)


# -- blocks and memory -------------------------------------------------------------


def _one_shot(points, h):
    """The build as single numpy expressions over the whole strict upper
    triangle and the whole matrix: the formulas the blocks must equal."""
    n = len(points)
    i, j = np.triu_indices(n, k=1)
    total = np.zeros(len(i))
    for column in points.T:
        diff = column[i] - column[j]
        total += diff * diff
    condensed = np.sqrt(total)
    dist = np.zeros((n, n))
    dist[i, j] = dist[j, i] = condensed
    density = np.exp(-(dist**2) / (2.0 * h * h)).sum(axis=1)
    neg = -density
    arrays = (i.astype(np.int64), j.astype(np.int64), np.maximum(neg[i], neg[j]), dist[i, j])
    return condensed, dist, density, arrays


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.view(np.int64).tolist()


@pytest.mark.parametrize("block", [1, 7, 300])
@pytest.mark.parametrize("n", [2, 3, 5, 64])
def test_blocks_give_the_one_shot_build_bit_for_bit(monkeypatch, block, n):
    # A block of 1 holds one row at a time; 7 and 300 split the clouds' upper
    # triangles and the KDE's rows at other row boundaries.
    points = generate_dataset("torus", n, seed=n)
    h = 0.4
    condensed, dist, density, arrays = _one_shot(points, h)
    monkeypatch.setattr(build, "_BLOCK", block)
    assert _bits(pairwise_distances(points)) == _bits(condensed)
    assert _bits(square_form(condensed)) == _bits(dist)
    assert _bits(kde_density_from_matrix(dist, h)) == _bits(density)
    assert _bits(kde_density(points, h)) == _bits(density)
    for g in (density_rips_graph(points, density), density_rips_from_distances(dist, density)):
        assert [_bits(x) for x in g.edge_arrays()] == [_bits(x) for x in arrays]


def _build_peak_per_edge(build_graph, n=600):
    points = generate_dataset("torus", n, seed=1)
    tracemalloc.start()
    try:
        graph = build_graph(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.edge_count() == n * (n - 1) // 2
    return peak / graph.edge_count()


def test_library_build_peaks_near_what_it_keeps():
    # The graph keeps 32 bytes per edge (ids, density, distance).  The build
    # works in bounded blocks, hands the condensed distances over as the
    # distance column and builds no n x n matrix, so at n = 600 it peaks near
    # 53 bytes per edge, a few MB of block temporaries included.
    def library(points):
        return density_rips_graph(points, kde_density(points, kde_bandwidth(pairwise_distances(points))))

    assert _build_peak_per_edge(library) < 64


def test_cli_build_peaks_near_what_it_keeps():
    # The CLI's points path computes the condensed distances once and reads
    # the bandwidth, the densities and the graph from them: near 47 bytes per
    # edge at the peak.
    assert _build_peak_per_edge(cli._graph_from_points) < 56


# -- generators ------------------------------------------------------------------


def test_generators_deterministic():
    for kind in DATASET_KINDS:
        a = generate_dataset(kind, 40, seed=7)
        b = generate_dataset(kind, 40, seed=7)
        c = generate_dataset(kind, 40, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_uniform_range():
    pts = generate_dataset("uniform", 50, seed=1)
    assert pts.shape == (50, 2)
    assert ((pts >= 0) & (pts <= 1)).all()


def test_circle_unit_norm():
    pts = generate_dataset("circle", 64, seed=2)
    assert np.linalg.norm(pts, axis=1) == pytest.approx(np.ones(64))


def test_circle_noise_is_added_after_the_angles():
    # The same seed draws the same angles; noise moves each point off the circle.
    clean = generate_dataset("circle", 400, seed=2)
    noisy = generate_dataset("circle", 400, seed=2, noise=0.1)
    offset = noisy - clean
    assert (offset != 0).all()
    assert offset.std() == pytest.approx(0.1, rel=0.1)


def test_sphere_no_outliers_unit_norm():
    pts = generate_dataset("sphere", 100, seed=3, outliers=0.0)
    assert pts.shape == (100, 3)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-9


def test_sphere_default_outlier_count():
    pts = generate_dataset("sphere", 100, seed=4)
    off_sphere = np.abs(np.linalg.norm(pts, axis=1) - 1.0) > 1e-9
    assert off_sphere.sum() == 10
    assert (np.abs(pts[off_sphere]) <= 2.0).all()


def test_torus_on_surface():
    pts = generate_dataset("torus", 80, seed=5)
    ring = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2) - 1.0
    assert ring**2 + pts[:, 2] ** 2 == pytest.approx(np.full(80, 0.25))


def test_swiss_roll_parameterization():
    pts = generate_dataset("swiss-roll", 80, seed=6)
    t = np.sqrt(pts[:, 0] ** 2 + pts[:, 2] ** 2)
    assert ((t >= 1.5 * math.pi) & (t <= 4.5 * math.pi)).all()
    assert ((pts[:, 1] >= 0) & (pts[:, 1] <= 21)).all()
    assert pts[:, 0] == pytest.approx(t * np.cos(t))


def test_generate_validation():
    with pytest.raises(ValueError, match="unknown dataset kind"):
        generate_dataset("moons", 10, seed=1)
    with pytest.raises(ValueError, match="n >= 2"):
        generate_dataset("uniform", 1, seed=1)
    with pytest.raises(TypeError, match="nosie"):
        generate_dataset("torus", 10, 1, nosie=0.1)


# -- text inputs -------------------------------------------------------------------


def test_load_points_csv_and_whitespace():
    text = "# cloud\n0,0\n1.5, 2\n\n3 4\n"
    pts = load_points(io.StringIO(text))
    assert pts.tolist() == [[0.0, 0.0], [1.5, 2.0], [3.0, 4.0]]


def test_load_points_bad_dimension():
    with pytest.raises(ValueError, match="dimension"):
        load_points(io.StringIO("1 2 3 4\n5 6 7 8\n"))
    with pytest.raises(ValueError, match="dimension"):
        load_points(io.StringIO("1 2\n3 4 5\n"))


def test_load_points_empty():
    with pytest.raises(ValueError, match="empty"):
        load_points(io.StringIO("# nothing\n"))


@pytest.mark.parametrize("text", ["0 0\nnan 1\n", "0,0\n1,inf\n", "0 0\n-inf 1\n"])
def test_load_points_rejects_non_finite_coordinates(text):
    with pytest.raises(ValueError, match="^point coordinates must be finite$"):
        load_points(io.StringIO(text))


@pytest.mark.parametrize("text, line", [("0 0\n1 x\n", "1 x"), ("+0 0\n1 2\n", "+0 0")])
def test_load_points_quotes_a_line_with_a_token_that_is_not_a_number(text, line):
    message = f"point line holds a token that is not a number: {line!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_points(io.StringIO(text))


@pytest.mark.parametrize(
    "text, line", [("1\n2 x\n", "2 x"), ("1\n2,3\n0x1 1 1\n", "0x1 1 1"), ("1\n+2 3\n", "+2 3")]
)
def test_load_lower_distance_matrix_quotes_a_line_with_a_token_that_is_not_a_number(text, line):
    message = f"distance line holds a token that is not a number: {line!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_lower_distance_matrix(io.StringIO(text))


@pytest.mark.parametrize(
    "load, text, message",
    [
        (load_points, "0 0\n1_0 2\n", "point line holds an underscore: '1_0 2'"),
        (load_points, "0,0\n1,2_5\n", "point line holds an underscore: '1,2_5'"),
        (load_lower_distance_matrix, "1_0\n", "distance line holds an underscore: '1_0'"),
        (load_lower_distance_matrix, "1\n2 3_0\n", "distance line holds an underscore: '2 3_0'"),
    ],
)
def test_text_loaders_refuse_an_underscore(load, text, message):
    # float() reads 1_0 as 10; no writer puts an underscore in a number.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load(io.StringIO(text))


def test_load_lower_distance_matrix():
    text = "1.0\n2.0, 3.0\n"
    dist = load_lower_distance_matrix(io.StringIO(text))
    expected = [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]
    assert dist.tolist() == expected


def test_load_lower_distance_matrix_empty():
    with pytest.raises(ValueError, match="^empty distance file$"):
        load_lower_distance_matrix(io.StringIO("# nothing\n\n"))


def test_load_lower_distance_matrix_row_mismatch():
    with pytest.raises(ValueError, match="expected"):
        load_lower_distance_matrix(io.StringIO("1.0 2.0\n3.0\n"))


def test_load_lower_distance_matrix_negative():
    with pytest.raises(ValueError, match="invalid distance"):
        load_lower_distance_matrix(io.StringIO("1.0\n-2.0 3.0\n"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("1.0\n2.0 nan\n", "invalid distance nan at row 2"),
        ("1.0\n2.0 3.0\n4.0 inf 5.0\n", "invalid distance inf at row 3"),
        ("-1.0\n2.0 -3.0\n", "invalid distance -1.0 at row 1"),
        ("1.0\n2.0 3.0\n4.0 5.0 -0.5\n0 1 2 nan\n", "invalid distance -0.5 at row 3"),
    ],
)
def test_load_lower_distance_matrix_names_the_first_invalid_entry(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_lower_distance_matrix(io.StringIO(text))


def test_load_lower_distance_matrix_first_row_may_be_omitted_and_zeros_pass():
    omitted = load_lower_distance_matrix(io.StringIO("1.0\n0.0 3.0\n"))
    explicit = load_lower_distance_matrix(io.StringIO("\n1.0\n0.0 3.0\n"))
    assert omitted.tolist() == explicit.tolist()
    assert omitted.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 3.0], [0.0, 3.0, 0.0]]


def test_load_lower_distance_matrix_rejects_a_ragged_row():
    with pytest.raises(ValueError, match="^row 2 has 3 entries, expected 2$"):
        load_lower_distance_matrix(io.StringIO("1.0\n2.0 3.0 4.0\n5.0 6.0 7.0\n"))


def test_load_lower_distance_matrix_round_trips_bit_identically():
    points = generate_dataset("torus", 50, seed=4)
    dist = square_form(pairwise_distances(points))
    text = "".join(" ".join(repr(float(x)) for x in row[:i]) + "\n" for i, row in enumerate(dist))
    loaded = load_lower_distance_matrix(io.StringIO(text))
    assert loaded.dtype == dist.dtype and loaded.tobytes() == dist.tobytes()


def test_loaders_accept_paths(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0,0\n1,1\n")
    assert load_points(p).shape == (2, 2)
    d = tmp_path / "ldm.txt"
    d.write_text("1.0\n")
    assert load_lower_distance_matrix(d).shape == (2, 2)
