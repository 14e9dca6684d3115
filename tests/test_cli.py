import json
import math

import numpy as np
import pytest

from cutmetrics import DistanceMatrix, check_metric_axioms
from cutmetrics.cli import main

P2_FILE = "2\n1 2 1.0\n"
P4_FILE = "4\n1 2 1\n2 3 1\n3 4 1\n"
# Unit survival probabilities make the reliability measure degenerate
# (every connection certain, all log distances zero), so weighted P4 for it.
P4W_FILE = "4\n1 2 0.5\n2 3 0.5\n3 4 0.5\n"
C4_FILE = "4\n1 2 1\n2 3 1\n3 4 1\n1 4 1\n"
K3_FILE = "3\n1 2 1\n2 3 1\n1 3 1\n"
DIAMOND_FILE = "4\n1 2 1\n1 3 1\n2 3 1\n2 4 1\n3 4 1\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(content, name="graph.txt"):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


def _read_matrix(path):
    lines = open(path).read().strip().splitlines()
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def _read_rows(path):
    lines = open(path).read().strip().splitlines()
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows[cells[0]] = dict(zip(header[1:], map(float, cells[1:])))
    return header, rows


class TestCompute:
    def test_walk_p2_csv(self, graph_file, tmp_path, capsys):
        out = str(tmp_path / "d.csv")
        code = main(["compute", "--input", graph_file(P2_FILE), "--metric", "walk", "--t", "0.5", "--output", out])
        assert code == 0
        d = _read_matrix(out)
        assert d[0, 1] == pytest.approx(math.log(2.0), abs=1e-12)
        assert "metric=walk" in capsys.readouterr().err

    def test_forest_p3(self, graph_file, tmp_path):
        out = str(tmp_path / "d.csv")
        code = main(["compute", "--input", graph_file("3\n1 2 1\n2 3 1\n"), "--metric", "forest", "--output", out])
        assert code == 0
        # 12 significant digits in the CSV resolve ln(5) to ~4e-12.
        assert _read_matrix(out)[0, 2] == pytest.approx(math.log(5.0), abs=5e-12)

    def test_walk_t_out_of_range_exits_2(self, graph_file, capsys):
        code = main(["compute", "--input", graph_file(P2_FILE), "--metric", "walk", "--t", "2.0"])
        assert code == 2
        assert "1/rho" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path):
        code = main(["compute", "--input", str(tmp_path / "nope.txt"), "--metric", "shortest"])
        assert code == 1

    def test_disconnected_input_exits_1(self, graph_file):
        code = main(["compute", "--input", graph_file("3\n1 2 1\n"), "--metric", "shortest"])
        assert code == 1

    def test_path_without_tau_exits_2(self, graph_file):
        code = main(["compute", "--input", graph_file(P2_FILE), "--metric", "path"])
        assert code == 2

    def test_unknown_metric_exits_2(self, graph_file):
        code = main(["compute", "--input", graph_file(P2_FILE), "--metric", "sassy"])
        assert code == 2

    def test_round_trip_passes_metric_axioms(self, graph_file, tmp_path):
        for metric, extra in (
            ("shortest", []),
            ("resistance", []),
            ("reliability", []),
            ("forest", []),
            ("walk", ["--t", "0.4"]),
            ("path", ["--tau", "0.3"]),
        ):
            out = str(tmp_path / f"{metric}.csv")
            code = main(["compute", "--input", graph_file(P4W_FILE), "--metric", metric, *extra, "--output", out])
            assert code == 0, metric
            d = DistanceMatrix(_read_matrix(out), metric)
            assert check_metric_axioms(d, tol=1e-9).passed, metric


class TestValidate:
    def test_path_small_tau_passes(self, graph_file, tmp_path):
        out = str(tmp_path / "report.txt")
        code = main(["validate", "--input", graph_file(K3_FILE), "--metric", "path", "--tau", "0.5", "--output", out])
        assert code == 0
        assert "overall: passed" in open(out).read()

    def test_path_large_tau_fails_and_lists_triple(self, graph_file, tmp_path):
        out = str(tmp_path / "report.json")
        code = main([
            "validate", "--input", graph_file(K3_FILE), "--metric", "path",
            "--tau", "0.7", "--json", "--output", out,
        ])
        assert code == 1
        payload = json.loads(open(out).read())
        assert payload["command"] == "validate"
        assert payload["metric"] == "path"
        assert payload["params"] == {"tau": 0.7}
        assert payload["passed"] is False
        triples = {(v["i"], v["j"], v["k"]) for v in payload["violations"]}
        assert (1, 2, 3) in triples
        sample = payload["violations"][0]
        assert set(sample) == {"i", "j", "k", "lhs", "rhs", "expected_equal"}

    def test_forest_edge_scale_passes(self, graph_file, tmp_path):
        out = str(tmp_path / "report.json")
        code = main(["validate", "--input", graph_file(DIAMOND_FILE), "--metric", "forest:t=0.35", "--json", "--output", out])
        assert code == 0
        payload = json.loads(open(out).read())
        assert payload["params"] == {"t": 0.35} and payload["passed"] is True

    def test_walk_passes_on_diamond(self, graph_file):
        assert main(["validate", "--input", graph_file(DIAMOND_FILE), "--metric", "walk", "--t", "0.3"]) == 0

    def test_resistance_on_diamond_is_clean(self, graph_file, tmp_path):
        # Effective resistance is additive exactly at cutpoints on every
        # connected graph, so the diamond validates (see the CHANGES.md entry
        # on acceptance criterion 8b).
        out = str(tmp_path / "report.txt")
        code = main(["validate", "--input", graph_file(DIAMOND_FILE), "--metric", "resistance", "--output", out])
        assert code == 0

    def test_shortest_fails_on_c4(self, graph_file):
        assert main(["validate", "--input", graph_file(C4_FILE), "--metric", "shortest"]) == 1


class TestCompare:
    def test_p4_cutpoint_additive_rows_reach_three(self, graph_file, tmp_path):
        out = str(tmp_path / "table.csv")
        code = main([
            "compare", "--input", graph_file(P4W_FILE),
            "--metric", "shortest,resistance,walk:t=0.4,forest,path:tau=0.3,reliability",
            "--output", out,
        ])
        assert code == 0
        header, rows = _read_rows(out)
        assert header[0] == "metric"
        assert len(rows) == 6
        for label, row in rows.items():
            assert row["d(1-4)"] == pytest.approx(3.0, abs=1e-9), label
            assert row["d(1-2)"] == pytest.approx(row["d(3-4)"], abs=1e-9), label

    def test_c4_shortest_falls_short(self, graph_file, tmp_path):
        out = str(tmp_path / "table.csv")
        code = main([
            "compare", "--input", graph_file(C4_FILE),
            "--metric", "shortest,walk:t=0.4",
            "--output", out,
        ])
        assert code == 0
        _, rows = _read_rows(out)
        assert rows["shortest"]["d(1-4)"] == pytest.approx(1.0, abs=1e-12)
        assert rows["walk:t=0.4"]["d(1-4)"] < 3.0

    def test_rows_sorted_by_descending_far_distance(self, graph_file, tmp_path):
        out = str(tmp_path / "table.csv")
        main([
            "compare", "--input", graph_file(C4_FILE),
            "--metric", "shortest,walk:t=0.4,resistance",
            "--output", out,
        ])
        lines = open(out).read().strip().splitlines()[1:]
        far = [float(line.split(",")[3]) for line in lines]  # d(1-4) column
        assert far == sorted(far, reverse=True)

    def test_missing_metric_is_usage_error(self, graph_file, capsys):
        assert main(["compare", "--input", graph_file(P4_FILE)]) == 1
        assert "usage error" in capsys.readouterr().err


class TestFigure:
    def test_p4_additive_metrics_collapse_flat(self, graph_file, tmp_path):
        out = str(tmp_path / "coords.csv")
        code = main([
            "figure", "--input", graph_file(P4_FILE),
            "--metric", "shortest,walk:t=0.4,forest",
            "--output", out,
        ])
        assert code == 0
        for line in open(out).read().strip().splitlines()[1:]:
            _, _, _, y = line.split(",")
            assert abs(float(y)) <= 1e-6

    def test_c4_non_degenerate_trapezoid(self, graph_file, tmp_path):
        out = str(tmp_path / "coords.csv")
        code = main([
            "figure", "--input", graph_file(C4_FILE),
            "--metric", "shortest,resistance,walk:t=0.4",
            "--output", out,
        ])
        assert code == 0
        heights = {}
        for line in open(out).read().strip().splitlines()[1:]:
            label, vertex, _, y = line.split(",")
            if vertex == "1":
                heights[label] = float(y)
        assert all(h > 1e-3 for h in heights.values())

    def test_coordinates_reproduce_framing_distances(self, graph_file, tmp_path):
        out = str(tmp_path / "coords.csv")
        main(["figure", "--input", graph_file(C4_FILE), "--metric", "walk:t=0.4", "--output", out])
        coords = {}
        for line in open(out).read().strip().splitlines()[1:]:
            _, vertex, x, y = line.split(",")
            coords[int(vertex)] = np.array([float(x), float(y)])
        table = str(tmp_path / "table.csv")
        main(["compare", "--input", graph_file(C4_FILE), "--metric", "walk:t=0.4", "--output", table])
        _, rows = _read_rows(table)
        row = rows["walk:t=0.4"]
        for (u, v), key in [((1, 2), "d(1-2)"), ((2, 3), "d(2-3)"), ((3, 4), "d(3-4)"), ((1, 4), "d(1-4)")]:
            assert np.linalg.norm(coords[u] - coords[v]) == pytest.approx(row[key], abs=1e-9)

    def test_asymmetric_framing_rejected(self, graph_file):
        lopsided = "4\n1 2 1\n2 3 1\n3 4 0.5\n"
        code = main(["figure", "--input", graph_file(lopsided), "--metric", "resistance"])
        assert code == 2

    def test_too_small_graph_rejected(self, graph_file):
        assert main(["figure", "--input", graph_file(P2_FILE), "--metric", "shortest"]) == 2
