from __future__ import annotations

import csv
import io

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from bicollapse import cli
from bicollapse.build import generate_dataset, load_points
from bicollapse.cli import main
from bicollapse.core import graph_from_edges, read_edge_list, write_edge_list
from bicollapse.expand import count_triangles, parse_scc2020
from bicollapse.oracle import VerifyReport, brute_force_filtration_dominated, random_grid_graph

from conftest import make_gap6, make_k3


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_graph(path, graph):
    with open(path, "w") as fh:
        write_edge_list(graph, fh)
    return str(path)


def domination_instance(seed, i):
    """Instance i of `verify --oracle domination --seed seed`."""
    rng = np.random.default_rng(seed)
    for j in range(i + 1):
        graph = random_grid_graph(4 + j % 7, (0.3, 0.5, 0.8)[j % 3], rng)
    return graph


@pytest.fixture()
def gap6_file(tmp_path):
    return write_graph(tmp_path / "gap6.txt", make_gap6())


# -- collapse --------------------------------------------------------------------


def test_collapse_report_structure(capsys, gap6_file):
    rc, out, _ = run(capsys, "collapse", "--edges", gap6_file, "--seed", "4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# tool: bicollapse ")
    assert lines[1] == "# command: collapse"
    assert "mode=strong" in lines[2] and "order=revlex" in lines[2] and "seed=4" in lines[2]
    assert lines[3] == "# seed: 4"
    header = lines[4].split(",")
    assert header == [
        "source",
        "edges_before",
        "edges_after",
        "removed_pct",
        "iterations_run",
        "time_ms",
        "peak_rss_mb_approx",
    ]
    row = dict(zip(header, lines[5].split(",")))
    assert row["edges_before"] == "14"
    assert 0.0 <= float(row["removed_pct"]) <= 100.0


def test_collapse_writes_reduced_edge_list(capsys, tmp_path, gap6_file):
    out_path = tmp_path / "reduced.txt"
    rc, out, _ = run(capsys, "collapse", "--edges", gap6_file, "--output", str(out_path))
    assert rc == 0
    with open(out_path) as fh:
        reduced = read_edge_list(fh)
    after = int(out.splitlines()[5].split(",")[2])
    assert reduced.edge_count() == after
    assert not list(tmp_path.glob(".*tmp*"))


def test_collapse_full_lex_removes_fully_dominated_edge(capsys, tmp_path, gap6_file):
    out_path = tmp_path / "reduced.txt"
    rc, _, _ = run(
        capsys,
        "collapse",
        "--edges",
        gap6_file,
        "--mode",
        "full",
        "--order",
        "lex",
        "--output",
        str(out_path),
    )
    assert rc == 0
    with open(out_path) as fh:
        reduced = read_edge_list(fh)
    assert not reduced.has_edge(0, 1)  # dominated only grade-by-grade, still removed


def test_collapse_single_edge_untouched(capsys, tmp_path):
    path = write_graph(tmp_path / "one.txt", graph_from_edges(2, [(0, 1, (0.0, 0.0))]))
    rc, out, _ = run(capsys, "collapse", "--edges", path)
    assert rc == 0
    row = out.splitlines()[5].split(",")
    assert row[1] == "1" and row[2] == "1"


def test_collapse_replay_is_exact(capsys, gap6_file):
    args = ("collapse", "--edges", gap6_file, "--order", "random", "--seed", "12")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    stable = [ln.split(",")[:5] for ln in first.splitlines()[4:]]
    assert stable == [ln.split(",")[:5] for ln in second.splitlines()[4:]]


def test_collapse_grade_mode_zeroed(capsys, gap6_file):
    rc, out, _ = run(capsys, "collapse", "--edges", gap6_file, "--grade-mode", "zeroed")
    assert rc == 0
    assert "grade-mode=zeroed" in out.splitlines()[2]


# -- exit codes --------------------------------------------------------------------


def test_usage_errors_exit_64(capsys, gap6_file):
    cases = [
        ["collapse"],  # no input source
        ["collapse", "--dataset", "uniform"],  # missing --n
        ["collapse", "--edges", gap6_file, "--n", "5"],  # --n without --dataset
        ["verify", "--oracle", "domination", "--format", "markdown"],  # renders no report
        ["generate", "--dataset", "circle", "--n", "5", "--format", "markdown", "--output", "x.csv"],
        ["collapse", "--edges", gap6_file, "--order", "sideways"],
        ["collapse", "--edges", gap6_file, "--grade-mode", "drop"],
        ["collapse", "--edges", gap6_file, "--iterations", "0"],
        ["collapse", "--edges", gap6_file, "--iterations", "-1"],
        ["bench-orders", "--edges", gap6_file, "--iterations", "0"],
        ["expand", "--edges", gap6_file, "--iterations", "0", "--output", "x.scc"],
        ["expand", "--edges", gap6_file, "--max-simplices", "0", "--output", "x.scc"],
        ["expand", "--edges", gap6_file, "--max-simplices", "-1", "--output", "x.scc"],
        ["verify", "--oracle", "domination", "--instances", "0"],
        ["verify", "--oracle", "homology", "--instances", "-1"],
        ["expand", "--edges", gap6_file],  # missing --output
        ["generate", "--dataset", "circle", "--n", "5"],  # missing --output
        ["generate", "--dataset", "sphere", "--n", "5", "--outliers", "2", "--output", "x.csv"],
        ["generate", "--dataset", "sphere", "--n", "5", "--outliers", "-0.5", "--output", "x.csv"],
        ["generate", "--dataset", "sphere", "--n", "5", "--outliers", "nan", "--output", "x.csv"],
        ["generate", "--dataset", "circle", "--n", "5", "--noise", "-0.5", "--output", "x.csv"],
        ["generate", "--dataset", "circle", "--n", "5", "--noise", "nan", "--output", "x.csv"],
        ["generate", "--dataset", "circle", "--n", "5", "--noise", "inf", "--output", "x.csv"],
        ["nonsense"],
        ["collapse", "--edges", gap6_file, "--order", "random", "--seed", "-1"],
        ["collapse", "--edges", gap6_file, "--grade-mode", "random", "--seed", "-1"],
        ["collapse", "--dataset", "uniform", "--n", "5", "--seed", "-1"],
        ["bench-orders", "--edges", gap6_file, "--seed", "-1"],
        ["expand", "--edges", gap6_file, "--seed", "-1", "--output", "x.scc"],
        ["verify", "--oracle", "domination", "--seed", "-1"],
        ["verify", "--oracle", "homology", "--seed", "-1"],
        ["generate", "--dataset", "circle", "--n", "5", "--seed", "-1", "--output", "x.csv"],
        ["collapse", "--edges", gap6_file, "--seed", "1.5"],
    ]
    # Every numeric flag follows the number grammar: ASCII digits, no '_',
    # and a '+' only in an exponent.
    flags = [
        ["collapse", "--dataset", "circle", "--n"],
        ["generate", "--dataset", "circle", "--output", "x.csv", "--n"],
        ["collapse", "--edges", gap6_file, "--seed"],
        ["collapse", "--edges", gap6_file, "--iterations"],
        ["verify", "--oracle", "domination", "--instances"],
        ["expand", "--edges", gap6_file, "--output", "x.scc", "--max-simplices"],
        ["generate", "--dataset", "circle", "--n", "5", "--output", "x.csv", "--noise"],
        ["generate", "--dataset", "sphere", "--n", "5", "--output", "x.csv", "--outliers"],
    ]
    cases += [[*argv, text] for argv in flags for text in ("\u0663", "1_0", "+2")]
    expected = {
        "--iterations": "a positive integer",
        "--max-simplices": "a positive integer",
        "--instances": "a positive integer",
        "--outliers": "a fraction in [0, 1]",
        "--noise": "a finite non-negative number",
        "--seed": "a non-negative integer",
    }
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64, argv
        err = capsys.readouterr().err
        for flag, value in expected.items():
            if flag in argv:
                got = argv[argv.index(flag) + 1]
                assert f"argument {flag}: expected {value}, got {got!r}" in err, argv


def test_unreadable_input_exits_2(capsys, tmp_path):
    rc, _, err = run(capsys, "collapse", "--edges", str(tmp_path / "missing.txt"))
    assert rc == 2
    assert "input error" in err
    bad = tmp_path / "bad.txt"
    bodies = [
        "0 1 0\n",  # short line, and one line fewer than promised
        "0 1 0 0\n1 1 0 0\n",  # self-loop
        "0 1 nan 0\n1 2 0 0\n",
        "0 1 0 inf\n1 2 0 0\n",
        "-1 1 0 0\n1 2 0 0\n",
        "0 1 0 0\n0 1 1 1\n",  # duplicate pair, same orientation
        "0 1 0 0\n1 0 1 1\n",  # duplicate pair, both orientations
    ]
    for body in bodies:
        bad.write_text("3 2\n" + body)
        rc, _, err = run(capsys, "collapse", "--edges", str(bad))
        assert rc == 2, body
        assert "input error" in err
    cloud = tmp_path / "one.csv"
    argv = ("generate", "--dataset", "circle", "--n", "1", "--output", str(cloud))
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", "bicollapse: input error: need n >= 2\n")
    assert not cloud.exists()


def test_non_ascii_digit_in_an_edge_list_header_exits_2(capsys, tmp_path):
    # int() reads the Arabic-Indic three as 3, so the header read as n = 3.
    path = tmp_path / "arabic.edges"
    path.write_text("٣ 2\n0 1 0 0\n1 2 1 1\n", encoding="utf-8")
    rc, out, err = run(capsys, "collapse", "--edges", str(path))
    assert (rc, out) == (2, "")
    assert "input error: non-ASCII character in line '٣ 2'" in err


def test_underscore_in_an_edge_line_exits_2_quoting_the_line(capsys, tmp_path):
    # np.loadtxt refuses 1_0, which int() and float() read as 10.
    path = tmp_path / "underscore.edges"
    for line in ("0 1_0 0 0", "0 1 0 1_0"):
        path.write_text(f"11 2\n0 1 0 0\n{line}\n")
        rc, out, err = run(capsys, "collapse", "--edges", str(path))
        assert (rc, out) == (2, "")
        assert f"input error: malformed edge line '{line}', expected 'u v s t'" in err


def test_signed_vertex_id_exits_2_quoting_the_line(capsys, tmp_path):
    # np.loadtxt reads -0 as 0; an id is ASCII digits, so the line is refused.
    path = tmp_path / "signed.edges"
    for line in ("-0 1 0 0", "1 -0 0 0", "-1 2 0 0"):
        path.write_text(f"3 2\n0 2 -0.5 1\n{line}\n")
        rc, out, err = run(capsys, "collapse", "--edges", str(path))
        assert (rc, out) == (2, "")
        assert f"input error: malformed edge line '{line}', expected 'u v s t'" in err


@pytest.mark.parametrize("copies, sites, rc_expected", [(2, 3, 0), (20, 5, 0), (4, 1, 2)])
def test_kde_bandwidth_rule_on_repeated_sites(capsys, tmp_path, copies, sites, rc_expected):
    # The bandwidth is taken over the distinct positive distances, so repeated
    # sites read as the sites alone do; only a cloud of one site is refused.
    path = tmp_path / "sites.csv"
    coords = [(float(i), float(i * i)) for i in range(sites)]
    path.write_text("".join(f"{x},{y}\n" for x, y in coords * copies))
    rc, _, err = run(capsys, "collapse", "--points", str(path))
    assert rc == rc_expected
    if rc_expected == 2:
        assert "all pairwise distances are zero" in err


def test_simplex_budget_exits_3(capsys, tmp_path, gap6_file):
    rc, _, err = run(
        capsys,
        "expand",
        "--edges",
        gap6_file,
        "--no-collapse",
        "--max-simplices",
        "10",
        "--output",
        str(tmp_path / "x.scc"),
    )
    assert rc == 3
    assert "budget" in err
    assert not (tmp_path / "x.scc").exists()


def test_report_columns_in_order(capsys, tmp_path, gap6_file):
    scc = str(tmp_path / "x.scc")
    _, out, _ = run(capsys, "bench-orders", "--edges", gap6_file)
    assert out.splitlines()[4] == "order,source,edges_before,edges_after,removed_pct,time_ms"
    expand_header = (
        "source,edges_before,triangles_before,edges_after,triangles_after,"
        "time_ms,peak_rss_mb_approx"
    )
    _, out, _ = run(capsys, "expand", "--edges", gap6_file, "--output", scc)
    assert out.splitlines()[4] == expand_header
    _, out, _ = run(capsys, "collapse", "--edges", gap6_file, "--format", "markdown")
    assert out.splitlines()[4:7] == [
        "",
        "| source | edges_before | edges_after | removed_pct | iterations_run | time_ms"
        " | peak_rss_mb_approx |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]


def test_unwritable_output_exits_73(capsys, monkeypatch, tmp_path, gap6_file):
    # A missing directory fails at the temp file, a directory in the way as
    # the rename would: one line, no report, and no temp file left behind,
    # all before the input is read or generated.
    def not_before_the_output_check(*args, **kwargs):
        pytest.fail("the input was read or generated before --output was checked")

    monkeypatch.setattr(cli, "_input_graph", not_before_the_output_check)
    monkeypatch.setattr(cli, "generate_dataset", not_before_the_output_check)
    (tmp_path / "taken").mkdir()
    targets = [
        (tmp_path / "missing" / "out.txt", "No such file or directory"),
        (tmp_path / "taken", "Is a directory"),
    ]
    commands = [
        ["collapse", "--edges", gap6_file],
        ["bench-orders", "--edges", gap6_file],
        ["expand", "--edges", gap6_file],
        ["generate", "--dataset", "circle", "--n", "5"],
    ]
    for target, reason in targets:
        for argv in commands:
            rc, out, err = run(capsys, *argv, "--output", str(target))
            assert (rc, out) == (73, ""), argv
            assert err == f"bicollapse: cannot write {target}: {reason}\n", argv
            assert sorted(p.name for p in tmp_path.iterdir()) == ["gap6.txt", "taken"], argv
            assert list((tmp_path / "taken").iterdir()) == [], argv


def test_report_cells_are_quoted(capsys, tmp_path):
    # A comma stays inside its CSV cell, a pipe inside its markdown cell.
    comma = write_graph(tmp_path / "a,b.edges", make_gap6())
    for command, columns in (("collapse", 7), ("bench-orders", 6)):
        rc, out, _ = run(capsys, command, "--edges", comma)
        header, *rows = csv.reader(out.splitlines()[4:])
        assert rc == 0 and len(header) == columns
        for row in rows:
            assert len(row) == columns and f"edges:{comma}" in row
    pipe = write_graph(tmp_path / "x|y.edges", make_gap6())
    rc, out, _ = run(capsys, "collapse", "--edges", pipe, "--format", "markdown")
    row = out.splitlines()[7]
    assert rc == 0 and row.replace("\\|", "").count("|") == 8
    assert row.startswith("| edges:" + pipe.replace("|", "\\|") + " | 14 | ")


@pytest.mark.parametrize("n", [99999999999999999999, 1 << 62])
def test_a_header_too_large_for_an_array_exits_2(capsys, tmp_path, n):
    # Refused where the graph is made, before anything of n cells is sized.
    path = tmp_path / "huge.edges"
    path.write_text(f"{n} 1\n0 1 0 0\n")
    scc = tmp_path / "huge.scc"
    message = f"vertex count {n} is too large for an array of n + 1 cells"
    for argv in (["collapse"], ["expand", "--output", str(scc)]):
        rc, out, err = run(capsys, *argv, "--edges", str(path))
        assert rc == 2 and out == "" and not scc.exists()
        assert err == f"bicollapse: input error: {message}\n"


@pytest.mark.parametrize("detail", ["Unable to allocate 37.3 GiB for an array", ""])
def test_out_of_memory_exits_3(capsys, monkeypatch, detail):
    # Stands in for an input too big for memory, which is never built here.
    def out_of_memory(points):
        raise MemoryError(detail)

    monkeypatch.setattr(cli, "pairwise_distances", out_of_memory)
    rc, out, err = run(capsys, "collapse", "--dataset", "uniform", "--n", "30")
    assert rc == 3 and out == ""
    assert err == f"bicollapse: out of memory: {detail or 'allocation failed'}\n"


@pytest.mark.parametrize("n", [0, 1])
def test_graph_commands_on_edgeless_inputs(capsys, tmp_path, n):
    path = tmp_path / "edgeless.txt"
    path.write_text(f"{n} 0\n")
    reduced = tmp_path / "reduced.txt"
    for mode in ("strong", "full"):
        rc, _, _ = run(capsys, "collapse", "--edges", str(path), "--mode", mode,
                       "--output", str(reduced))
        assert rc == 0 and reduced.read_text() == f"{n} 0\n"
    rc, out, _ = run(capsys, "bench-orders", "--edges", str(path))
    assert rc == 0 and len(out.splitlines()) == 10
    scc = tmp_path / "edgeless.scc"
    rc, _, _ = run(capsys, "expand", "--edges", str(path), "--output", str(scc))
    assert rc == 0
    assert parse_scc2020(scc).sizes() == (0, 0, n)


# -- bench-orders -------------------------------------------------------------------


def test_bench_orders_five_rows(capsys, gap6_file):
    rc, out, _ = run(capsys, "bench-orders", "--edges", gap6_file, "--mode", "full")
    assert rc == 0
    rows = [ln.split(",") for ln in out.splitlines()[5:]]
    assert [r[0] for r in rows] == ["lex", "colex", "revlex", "revcolex", "random"]
    for r in rows:
        assert 0.0 <= float(r[4]) <= 100.0


def test_bench_orders_markdown_and_output(capsys, tmp_path, gap6_file):
    report = tmp_path / "orders.md"
    rc, out, _ = run(
        capsys,
        "bench-orders",
        "--edges",
        gap6_file,
        "--format",
        "markdown",
        "--output",
        str(report),
    )
    assert rc == 0
    assert out == ""
    text = report.read_text()
    assert "| order |" in text
    assert text.count("\n|") >= 7  # header, separator, five rows


# -- expand ------------------------------------------------------------------------


def test_expand_k3(capsys, tmp_path):
    path = write_graph(tmp_path / "k3.txt", make_k3())
    out_path = tmp_path / "k3.scc"
    rc, out, _ = run(capsys, "expand", "--edges", path, "--no-collapse", "--output", str(out_path))
    assert rc == 0
    parsed = parse_scc2020(out_path)
    assert parsed.sizes() == (1, 3, 3)


def test_expand_grade_overflow_is_an_input_error(capsys, tmp_path):
    # The scc2020 shift 1e308 - (-1e308) overflows: exit 2, and no file.
    path = tmp_path / "overflow.txt"
    path.write_text("3 2\n0 1 1e308 0\n1 2 -1e308 0\n")
    out_path = tmp_path / "overflow.scc"
    rc, out, err = run(capsys, "expand", "--edges", str(path), "--output", str(out_path))
    assert rc == 2
    assert "input error" in err and "not finite" in err
    assert not out_path.exists() and out == ""
    # The export refuses before it writes into the temp file, which is
    # removed; a file already at --output keeps its bytes.
    out_path.write_bytes(b"kept\n")
    rc, _, _ = run(capsys, "expand", "--edges", str(path), "--output", str(out_path))
    assert rc == 2 and out_path.read_bytes() == b"kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["overflow.scc", "overflow.txt"]


def test_expand_no_collapse_keeps_raw_counts(capsys, tmp_path, gap6_file):
    out_path = tmp_path / "raw.scc"
    rc, out, _ = run(
        capsys, "expand", "--edges", gap6_file, "--no-collapse", "--output", str(out_path)
    )
    assert rc == 0
    header, row = (ln.split(",") for ln in out.splitlines()[4:6])
    r = dict(zip(header, row))
    assert r["edges_before"] == r["edges_after"] == "14"
    assert r["triangles_before"] == r["triangles_after"] == "16"
    assert parse_scc2020(out_path).sizes() == (16, 14, 6)


def test_expand_preprocessing_shrinks(capsys, tmp_path, gap6_file):
    out_path = tmp_path / "pre.scc"
    rc, out, _ = run(capsys, "expand", "--edges", gap6_file, "--output", str(out_path))
    assert rc == 0
    header, row = (ln.split(",") for ln in out.splitlines()[4:6])
    r = dict(zip(header, row))
    assert int(r["edges_after"]) < int(r["edges_before"])
    assert int(r["triangles_after"]) < int(r["triangles_before"])
    sizes = parse_scc2020(out_path).sizes()
    assert sizes[0] == int(r["triangles_after"]) and sizes[1] == int(r["edges_after"])


@pytest.mark.parametrize("complete", [True, False], ids=["complete", "not-complete"])
def test_expand_reports_the_input_triangles_that_count_triangles_counts(
    capsys, monkeypatch, tmp_path, gap6_file, complete
):
    # A complete input's count is C(n, 3), and no wedge walk runs over the
    # input; any other input is counted by the walk.
    if complete:
        path = tmp_path / "torus.csv"
        path.write_text("".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in
                                generate_dataset("torus", 30, seed=1).tolist()))
        flag, graph = "--points", cli._graph_from_points(load_points(path))
    else:
        flag, path, graph = "--edges", gap6_file, read_edge_list(gap6_file)
    walked = []
    monkeypatch.setattr(cli, "count_triangles", lambda g: walked.append(g) or count_triangles(g))
    rc, out, _ = run(capsys, "expand", flag, str(path), "--output", str(tmp_path / "x.scc"))
    assert rc == 0
    r = dict(zip(*(ln.split(",") for ln in out.splitlines()[4:6])))
    assert int(r["triangles_before"]) == count_triangles(graph)
    assert int(r["edges_before"]) == graph.edge_count() > int(r["edges_after"])
    assert any(g.edge_count() == graph.edge_count() for g in walked) is not complete


# -- verify ------------------------------------------------------------------------


def test_verify_domination_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--oracle", "domination", "--instances", "12", "--seed", "9")
    assert rc == 0
    assert out == "domination oracle: 12 instances, 122 edges checked, 0 mismatches\n"


def test_verify_homology_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--oracle", "homology", "--instances", "3", "--seed", "9")
    assert rc == 0
    assert out == "homology oracle: 3 instances, 30 collapse runs, 0 mismatches\n"


@pytest.mark.parametrize(
    "oracle, message",
    [
        (
            "domination",
            "domination mismatch on edge (0, 2) of instance 0: fast=False fast_dense=False "
            "oracle=True strong=None dense=None strong_oracle=None",
        ),
        ("homology", "homology mismatch on instance 0 (mode=strong, order=lex): patched"),
    ],
)
def test_verify_failure_writes_the_failing_instance(
    capsys, monkeypatch, tmp_path, oracle, message
):
    if oracle == "domination":
        real = cli.brute_force_filtration_dominated
        monkeypatch.setattr(cli, "brute_force_filtration_dominated", lambda g, e: not real(g, e))
    else:
        monkeypatch.setattr(cli, "verify_collapse", lambda g, r: VerifyReport(False, "patched"))
    path = tmp_path / "counterexample.txt"
    argv = ("verify", "--oracle", oracle, "--seed", "9", "--output", str(path))
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err == f"{message}; graph written to {path}\n"
    first = random_grid_graph(4, 0.3, np.random.default_rng(9))
    assert first.edge_count() == 1  # instance 0 at seed 9: one edge, which the patch flips
    with open(path) as fh:
        assert read_edge_list(fh) == first


@pytest.mark.parametrize("mutant, named", [("none", "None"), ("not_a_dominator", "0")])
def test_verify_checks_the_strong_answer(capsys, monkeypatch, tmp_path, mutant, named):
    # Seed 9's first filtration-dominated edge is (4, 5) of instance 2, and 1
    # dominates it strongly.  Both wrong strong checks must be caught there.
    real = cli.is_strongly_dominated

    def not_a_dominator(g, e, engine=None):
        # On filtration-dominated edges, the smallest vertex not a common neighbor.
        if not brute_force_filtration_dominated(g, e):
            return real(g, e, engine)
        return min(v for v in range(g.n) if v not in g.adj[e.u] or v not in g.adj[e.v])

    wrong = {"none": lambda g, e, engine=None: None, "not_a_dominator": not_a_dominator}
    monkeypatch.setattr(cli, "is_strongly_dominated", wrong[mutant])
    path = tmp_path / "counterexample.txt"
    argv = ("verify", "--oracle", "domination", "--seed", "9", "--output", str(path))
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err == (
        "domination mismatch on edge (4, 5) of instance 2: fast=True fast_dense=True "
        f"oracle=True strong={named} dense={named} strong_oracle=1; graph written to {path}\n"
    )
    with open(path) as fh:
        assert read_edge_list(fh) == domination_instance(9, 2)


def test_verify_failure_with_unwritable_output(capsys, monkeypatch, tmp_path):
    # Still exit 1, and the one line says why the graph is not there.
    monkeypatch.setattr(cli, "is_strongly_dominated", lambda g, e, engine=None: None)
    path = tmp_path / "missing" / "counterexample.txt"
    rc, out, err = run(capsys, "verify", "--oracle", "domination", "--seed", "9",
                       "--output", str(path))
    assert rc == 1 and out == ""
    assert err.endswith(
        f"strong_oracle=1; graph not written: cannot write {path}: No such file or directory\n"
    )
    assert list(tmp_path.iterdir()) == []


# -- generate ----------------------------------------------------------------------


def test_generate_deterministic_and_loadable(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1, _, _ = run(capsys, "generate", "--dataset", "torus", "--n", "30", "--seed", "2",
                    "--output", str(a))
    rc2, _, _ = run(capsys, "generate", "--dataset", "torus", "--n", "30", "--seed", "2",
                    "--output", str(b))
    assert rc1 == rc2 == 0
    assert a.read_bytes() == b.read_bytes()
    assert load_points(a).shape == (30, 3)


def test_points_and_distances_collapse_identically(capsys, tmp_path):
    points = tmp_path / "pts.csv"
    run(capsys, "generate", "--dataset", "torus", "--n", "40", "--seed", "3",
        "--output", str(points))
    dist = squareform(pdist(load_points(points)))
    lower = tmp_path / "dist.txt"
    rows = (" ".join(repr(float(x)) for x in row[:i]) for i, row in enumerate(dist))
    lower.write_text("\n".join(rows) + "\n")
    reduced = {}
    for flag, path in (("--points", points), ("--distances", lower)):
        reduced[flag] = tmp_path / f"reduced{flag}.txt"
        rc, _, _ = run(capsys, "collapse", flag, str(path), "--mode", "full", "--order", "lex",
                       "--output", str(reduced[flag]))
        assert rc == 0
    text = reduced["--points"].read_text()
    assert text == reduced["--distances"].read_text()
    assert text.startswith("40 ") and len(text.splitlines()) > 1


def test_generate_feeds_collapse(capsys, tmp_path):
    path = tmp_path / "pts.csv"
    run(capsys, "generate", "--dataset", "circle", "--n", "16", "--seed", "5",
        "--output", str(path))
    rc, out, _ = run(capsys, "collapse", "--points", str(path))
    assert rc == 0
    assert out.splitlines()[5].split(",")[1] == "120"  # complete graph on 16 points
