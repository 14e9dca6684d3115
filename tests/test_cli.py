import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cutmetrics import (
    DistanceMatrix,
    adjacency_matrix,
    check_cutpoint_additivity,
    check_metric_axioms,
    parse_graph,
    shortest_path_lengths,
    spectral_data,
)
from cutmetrics import cli, distances, graph, measures
from cutmetrics.cli import _validate_json, main
from cutmetrics.types import ValidationReport, Violation

from conftest import cycle_with_chords, triangle_chain

P2_FILE = "2\n1 2 1.0\n"
P4_FILE = "4\n1 2 1\n2 3 1\n3 4 1\n"
# Unit survival probabilities make the reliability measure degenerate
# (every connection certain, all log distances zero), so weighted P4 for it.
P4W_FILE = "4\n1 2 0.5\n2 3 0.5\n3 4 0.5\n"
C4_FILE = "4\n1 2 1\n2 3 1\n3 4 1\n1 4 1\n"
K3_FILE = "3\n1 2 1\n2 3 1\n1 3 1\n"
DIAMOND_FILE = "4\n1 2 1\n1 3 1\n2 3 1\n2 4 1\n3 4 1\n"
# The triangle 1-2-3 with the pendant edge 3-4, where d(1,2) != d(3,4).
PAW_FILE = "4\n1 2 1\n2 3 1\n3 4 1\n1 3 1\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(content, name="graph.txt"):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


def _edge_list(g):
    """The edge-list file text of ``g``, weights in full precision."""
    return f"{g.n}\n" + "".join(f"{u} {v} {w!r}\n" for u, v, w in g.edges)


def _read_matrix(path):
    lines = Path(path).read_text().strip().splitlines()
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def _read_rows(path):
    lines = Path(path).read_text().strip().splitlines()
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

    def test_csv_spells_each_entry_as_format(self, graph_file, tmp_path):
        g = cycle_with_chords(np.random.default_rng(3), 40, 40)
        text = _edge_list(g)
        out = tmp_path / "d.csv"
        assert main(["compute", "--input", graph_file(text), "--metric", "forest", "--output", str(out)]) == 0
        rows = distances.forest_distance(parse_graph(text)).values
        lines = [",".join(map(str, range(1, g.n + 1)))] + [",".join(map(cli._format, row)) for row in rows]
        assert out.read_text() == "\n".join(lines) + "\n"

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

    def test_path_discount_overflow_exits_3(self, graph_file, capsys):
        path12 = "12\n" + "".join(f"{v} {v + 1} 1\n" for v in range(1, 12))
        code = main(["compute", "--input", graph_file(path12), "--metric", "path:tau=1e30"])
        assert code == 3
        assert "numeric error: path discount tau**11 overflows a float" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["forest:T=2", "forest:tau=2", "walk:tau=0.1", "path:t=0.3", "shortest:t=1"])
    def test_unread_inline_parameter_exits_2(self, graph_file, capsys, spec):
        code = main(["compute", "--input", graph_file(P2_FILE), "--metric", spec])
        assert code == 2
        key = spec.split(":")[1].split("=")[0]
        assert f"takes no parameter {key!r}" in capsys.readouterr().err

    def test_flags_still_fill_every_metric(self, graph_file, tmp_path):
        out = str(tmp_path / "d.csv")
        code = main(["compute", "--input", graph_file(P2_FILE), "--metric", "forest", "--tau", "2", "--t", "0.5", "--output", out])
        assert code == 0

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
        assert "overall: passed" in Path(out).read_text()

    def test_path_large_tau_fails_and_lists_triple(self, graph_file, tmp_path):
        out = str(tmp_path / "report.json")
        code = main([
            "validate", "--input", graph_file(K3_FILE), "--metric", "path",
            "--tau", "0.7", "--json", "--output", out,
        ])
        assert code == 1
        payload = json.loads(Path(out).read_text())
        assert payload["command"] == "validate"
        assert payload["metric"] == "path"
        assert payload["params"] == {"tau": 0.7}
        assert payload["passed"] is False
        triples = {(v["i"], v["j"], v["k"]) for v in payload["violations"]}
        assert (1, 2, 3) in triples
        sample = payload["violations"][0]
        assert set(sample) == {"i", "j", "k", "lhs", "rhs", "expected_equal"}

    def test_flags_attach_only_to_metrics_that_read_them(self, graph_file, tmp_path):
        out = str(tmp_path / "report.json")
        code = main([
            "validate", "--input", graph_file(DIAMOND_FILE), "--metric", "resistance",
            "--tau", "0.3", "--t", "0.5", "--json", "--output", out,
        ])
        assert code == 0
        assert json.loads(Path(out).read_text())["params"] == {}

    def test_forest_edge_scale_passes(self, graph_file, tmp_path):
        out = str(tmp_path / "report.json")
        code = main(["validate", "--input", graph_file(DIAMOND_FILE), "--metric", "forest:t=0.35", "--json", "--output", out])
        assert code == 0
        payload = json.loads(Path(out).read_text())
        assert payload["params"] == {"t": 0.35} and payload["passed"] is True

    def test_forest_passes_where_the_determinant_overflows(self, graph_file, capsys):
        # det(I + L) of K_160 overflows a float (ln det = 807.9).  The measure
        # check is scale-invariant in log space, so validate reads
        # (I + L)^-1, the matrix compute inverts, and both succeed.
        n = 160
        text = f"{n}\n" + "".join(f"{u} {v} 1\n" for u in range(1, n + 1) for v in range(u + 1, n + 1))
        path = graph_file(text)
        assert main(["compute", "--input", path, "--metric", "forest", "--output", os.devnull]) == 0
        assert main(["validate", "--input", path, "--metric", "forest"]) == 0
        assert "overall: passed" in capsys.readouterr().out

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

    def test_shortest_json_payload_on_diamond(self, graph_file, tmp_path):
        out = tmp_path / "report.json"
        argv = ["validate", "--input", graph_file(DIAMOND_FILE), "--metric", "shortest", "--json", "--output", str(out)]
        code = main(argv)
        assert code == 1
        entry = (
            '    {{\n      "i": {},\n      "j": {},\n      "k": {},\n      "lhs": 2.0,\n'
            '      "rhs": 2.0,\n      "expected_equal": false\n    }}'
        )
        violations = ",\n".join(entry.format(*t) for t in ((1, 2, 4), (1, 3, 4), (4, 2, 1), (4, 3, 1)))
        expected = (
            '{\n  "command": "validate",\n  "metric": "shortest",\n  "params": {},\n'
            f'  "passed": false,\n  "violations": [\n{violations}\n  ]\n}}\n'
        )
        assert out.read_text() == expected

    def test_json_writer_matches_indented_dumps(self):
        # The violations go through the C encoder; the bytes must be those of
        # json.dumps(indent=2), non-finite floats, signed zeros and 1-, 2- and
        # 3-digit ids included.
        payload = {"command": "validate", "metric": "path", "params": {"tau": 0.7}, "passed": False}
        found = [
            Violation(1, 2, 3, 0.1, 2.0, False),
            Violation(4, 5, 6, math.inf, -math.inf, True),
            Violation(7, 8, 9, math.nan, 5e-324, False),
            Violation(10, 64, 100, 0.0, -0.0, True),
            Violation(999, 1, 12, -0.0, 0.0, False),
        ]
        for violations in (found, found[:1], []):
            expected = json.dumps({**payload, "violations": [vars(v) for v in violations]}, indent=2)
            assert _validate_json(payload, [ValidationReport(not violations, tuple(violations))]) == expected

    def test_json_writer_joins_reports_in_order(self):
        payload = {"command": "validate", "metric": "shortest", "params": {}, "passed": False}
        first = (Violation(1, 1, 1, 0.5, 0.0, True), Violation(1, 2, 1, -1.0, 0.0, False)) + self._rows(1500, 1)
        second = (Violation(3, 2, 1, 2.0, 1e300 * 10, False),)
        reports = [ValidationReport(False, first), ValidationReport(True), ValidationReport(False, second)]
        expected = json.dumps({**payload, "violations": [vars(v) for v in first + second]}, indent=2)
        assert _validate_json(payload, reports) == expected

    @staticmethod
    def _rows(count, seed):
        """``count`` violations with 1-, 2- and 3-digit ids, both flags, and
        floats of every json spelling: signed zeros, non-finite values, the
        smallest subnormal, and reprs of several lengths."""
        rng = np.random.default_rng(seed)
        ids = rng.choice((1, 7, 10, 64, 100, 999), size=(count, 3)).tolist()
        floats = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e300, 1 / 3, *rng.normal(size=8).tolist()]
        picks = rng.integers(len(floats), size=(count, 2)).tolist()
        return tuple(Violation(*ids[r], floats[a], floats[b], r % 3 == 0) for r, (a, b) in enumerate(picks))

    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 3000])
    def test_json_writer_matches_dumps_across_join_chunks(self, rows):
        payload = {"command": "validate", "metric": "shortest", "params": {}, "passed": False}
        violations = self._rows(rows, rows)
        expected = json.dumps({**payload, "violations": [vars(v) for v in violations]}, indent=2)
        assert _validate_json(payload, [ValidationReport(False, violations)]) == expected

    def test_text_report_on_a_violation_heavy_graph(self, graph_file, capsys):
        # Over 15,000 shortest-path violations; the text report counts them
        # all and lists the first 20, as the public checkers give them.
        text = _edge_list(cycle_with_chords(np.random.default_rng(7), 64, 64))
        g = parse_graph(text)
        d = shortest_path_lengths(g)
        lines = []
        for label, report in (
            ("metric-axioms", check_metric_axioms(d)),
            ("cutpoint-additivity", check_cutpoint_additivity(g, d)),
        ):
            status = "passed" if report.passed else f"failed ({len(report.violations)} violations)"
            lines.append(f"check {label}: {status}")
            lines.extend(
                f"  triple ({v.i},{v.j},{v.k}): lhs={v.lhs:.12g} rhs={v.rhs:.12g} expected_equal={v.expected_equal}"
                for v in report.violations[:20]
            )
        lines.append("overall: failed")
        assert main(["validate", "--input", graph_file(text), "--metric", "shortest"]) == 1
        assert capsys.readouterr().out == "\n".join(lines) + "\n"
        assert lines[1].startswith("check cutpoint-additivity: failed (15")

    def test_one_label_pass_per_validate(self, graph_file, monkeypatch):
        calls = []
        original = graph.separation_labels
        for module in (graph, measures, distances, cli):
            if hasattr(module, "separation_labels"):
                monkeypatch.setattr(module, "separation_labels", lambda g: calls.append(g) or original(g))
        assert main(["validate", "--input", graph_file(DIAMOND_FILE), "--metric", "forest"]) == 0
        assert len(calls) == 1

    def test_walk_on_triangle_chain_passes(self, graph_file):
        g = triangle_chain(20)
        text = f"{g.n}\n" + "".join(f"{u} {v} {w}\n" for u, v, w in g.edges)
        t = 0.5 / spectral_data(adjacency_matrix(g)).rho
        assert main(["validate", "--input", graph_file(text), "--metric", f"walk:t={t!r}"]) == 0


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
        lines = Path(out).read_text().strip().splitlines()[1:]
        far = [float(line.split(",")[3]) for line in lines]  # d(1-4) column
        assert far == sorted(far, reverse=True)

    def test_flags_label_only_metrics_that_read_them(self, graph_file, tmp_path):
        out = str(tmp_path / "table.csv")
        code = main([
            "compare", "--input", graph_file(P4W_FILE), "--metric", "forest,resistance,path",
            "--tau", "0.3", "--output", out,
        ])
        assert code == 0
        _, rows = _read_rows(out)
        assert sorted(rows) == ["forest", "path:tau=0.3", "resistance"]

    def test_missing_metric_is_usage_error(self, graph_file, capsys):
        assert main(["compare", "--input", graph_file(P4_FILE)]) == 1
        assert "usage error" in capsys.readouterr().err


class TestOneGapPass:
    @pytest.mark.parametrize(
        "metric", ["forest", "walk:t=0.4", "path:tau=0.3", "reliability", "resistance", "shortest", "longwalk"]
    )
    def test_validate_forms_the_triangle_gaps_once(self, graph_file, tmp_path, monkeypatch, metric):
        # The measure check reads the gaps of the log distance, so it shares
        # the distance checkers' pass.
        calls = []
        original = measures._gaps
        monkeypatch.setattr(measures, "_gaps", lambda *a, **kw: calls.append(a) or original(*a, **kw))
        out = str(tmp_path / "report.txt")
        assert main(["validate", "--input", graph_file(P4W_FILE), "--metric", metric, "--output", out]) == 0
        assert len(calls) == 1


class TestFigure:
    def test_p4_additive_metrics_collapse_flat(self, graph_file, tmp_path):
        out = str(tmp_path / "coords.csv")
        code = main([
            "figure", "--input", graph_file(P4_FILE),
            "--metric", "shortest,walk:t=0.4,forest",
            "--output", out,
        ])
        assert code == 0
        for line in Path(out).read_text().strip().splitlines()[1:]:
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
        for line in Path(out).read_text().strip().splitlines()[1:]:
            label, vertex, _, y = line.split(",")
            if vertex == "1":
                heights[label] = float(y)
        assert all(h > 1e-3 for h in heights.values())

    def test_coordinates_reproduce_framing_distances(self, graph_file, tmp_path):
        out = str(tmp_path / "coords.csv")
        main(["figure", "--input", graph_file(C4_FILE), "--metric", "walk:t=0.4", "--output", out])
        coords = {}
        for line in Path(out).read_text().strip().splitlines()[1:]:
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

    def test_overflowing_height_is_a_numeric_error(self, graph_file, capsys):
        # d(1,2) = 3.3e299 squares past the float range.
        assert main(["figure", "--input", graph_file(P4_FILE), "--metric", "shortest", "--target", "1e300"]) == 3
        assert capsys.readouterr().err == (
            "numeric error: shortest: the trapezoid height overflows a float at --target 1e+300\n"
        )


def test_python_dash_m_runs_the_cli(graph_file, capsys):
    argv = ["validate", "--input", graph_file(C4_FILE), "--metric", "shortest", "--json"]
    code = main(argv)
    expected = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "cutmetrics", *argv], capture_output=True, text=True, env=env, timeout=120)
    assert code == 1 and "violations" in expected
    assert (run.returncode, run.stdout) == (code, expected)


class TestMetricTable:
    # One spec per table entry, with the library call it must reproduce.
    LIBRARY = {
        "shortest": graph.shortest_path_lengths,
        "resistance": distances.resistance_distance,
        "path:tau=0.3": lambda g: distances.path_distance(g, 0.3),
        "reliability": distances.reliability_distance,
        "forest": lambda g: distances.forest_distance(g, 1.0),
        "walk:t=0.4": lambda g: distances.walk_distance(g, 0.4),
        "longwalk": distances.long_walk_distance,
        "longwalk-rescaled": distances.rescaled_long_walk_distance,
    }

    def test_library_covers_every_entry(self):
        assert [spec.partition(":")[0] for spec in self.LIBRARY] == list(cli._METRICS)

    @pytest.mark.parametrize("spec", list(LIBRARY))
    def test_compute_writes_the_library_matrix(self, graph_file, tmp_path, spec):
        out = tmp_path / "d.csv"
        assert main(["compute", "--input", graph_file(P4W_FILE), "--metric", spec, "--output", str(out)]) == 0
        d = self.LIBRARY[spec](graph.parse_graph(P4W_FILE))
        rows = [",".join(f"{x:.12g}" for x in row) for row in d.values]
        assert out.read_text() == "\n".join(["1,2,3,4", *rows]) + "\n"

    def test_plain_forest_echoes_no_params(self, graph_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(["validate", "--input", graph_file(DIAMOND_FILE), "--metric", "forest", "--json", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["params"] == {}

    @pytest.mark.parametrize("command", ["compute", "validate", "compare", "figure"])
    @pytest.mark.parametrize("metric, flag", [("path", "tau"), ("walk", "t")])
    def test_required_key_refused_under_every_command(self, graph_file, capsys, command, metric, flag):
        assert main([command, "--input", graph_file(P4W_FILE), "--metric", metric]) == 2
        assert capsys.readouterr().err == f"parameter error: metric {metric!r} needs --{flag} or {metric}:{flag}=X\n"

    @pytest.mark.parametrize("spec", ["walk:t=0.4;t=0.1", "forest:t=1;t=1", "path:tau=0.3; tau=0.2"])
    def test_repeated_inline_key_refused(self, graph_file, capsys, spec):
        assert main(["compute", "--input", graph_file(P4W_FILE), "--metric", spec]) == 2
        key = spec.split(":")[1].split("=")[0]
        assert f"metric parameter {key!r} given twice" in capsys.readouterr().err

    def test_overflowing_forest_scale_names_t(self, graph_file, capsys):
        assert main(["compute", "--input", graph_file(P4_FILE), "--metric", "forest:t=1e308"]) == 2
        assert capsys.readouterr().err == "parameter error: edge-scale parameter t=1e+308 overflows a float in I + tL\n"

    @pytest.mark.parametrize("t", ["1e15", "1e20"])
    def test_near_singular_forest_scale_names_t(self, graph_file, capsys, t):
        assert main(["compute", "--input", graph_file(P4_FILE), "--metric", f"forest:t={t}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numeric error: edge-scale parameter t={float(t)!r} leaves I + tL too ill-conditioned")


class TestCommandFlags:
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("compute", "--json"),
            ("compute", "--tol=1e-3"),
            ("validate", "--pairs=1-2"),
            ("validate", "--target=3"),
            ("compare", "--json"),
            ("compare", "--tol=1e-3"),
            ("figure", "--json"),
        ],
    )
    def test_flag_the_command_does_not_read_is_refused(self, graph_file, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", graph_file(P4_FILE), "--metric", "shortest", flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--tol", "1e-6", "--json"],
            ["compare", "--pairs", "1-2,2-3,3-4", "--target", "6"],
            ["figure", "--pairs", "1-2,2-3,3-4", "--target", "6", "--tol", "1e-6"],
        ],
    )
    def test_each_command_reads_its_own_flags(self, graph_file, capsys, argv):
        assert main([*argv, "--input", graph_file(P4_FILE), "--metric", "shortest", "--tau", "0.3", "--t", "0.4"]) == 0

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["compute", "--metric", "path:tau"], 2, "parameter error: malformed metric parameter 'tau' in 'path:tau'"),
            (
                ["compute", "--metric", "path:tau=abc"],
                2,
                "parameter error: non-numeric metric parameter 'tau=abc' in 'path:tau=abc'",
            ),
            (["compare", "--metric", "shortest", "--pairs", "1x2"], 2, "parameter error: malformed vertex pair '1x2'; expected 'u-v'"),
            (["compare", "--metric", "shortest", "--pairs", "1-x"], 2, "parameter error: malformed vertex pair '1-x'; expected 'u-v'"),
            (["compare", "--metric", "shortest", "--pairs", ","], 2, "parameter error: no vertex pairs in ','"),
            (["validate", "--metric", "shortest,resistance"], 1, "usage error: validate takes exactly one metric"),
        ],
    )
    def test_malformed_spec_refused(self, graph_file, capsys, argv, code, err):
        assert main([*argv, "--input", graph_file(P4_FILE)]) == code
        assert capsys.readouterr().err == err + "\n"

    def test_trailing_comma_in_metric_accepted(self, graph_file, capsys):
        path = graph_file(P4_FILE)
        assert main(["compute", "--input", path, "--metric", "shortest,"]) == 0
        with_comma = capsys.readouterr().out
        assert main(["compute", "--input", path, "--metric", "shortest"]) == 0
        assert capsys.readouterr().out == with_comma

    @pytest.mark.parametrize("target", ["-1", "0", "nan", "inf"])
    def test_target_outside_positive_finite_exits_2(self, graph_file, capsys, target):
        assert main(["compare", "--input", graph_file(P4_FILE), "--metric", "shortest", "--target", target]) == 2
        assert "normalization target must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "figure"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tolerance_outside_range_exits_2(self, graph_file, capsys, command, tol):
        # figure --tol nan used to accept the paw's d(1,2) != d(3,4).
        assert main([command, "--input", graph_file(PAW_FILE), "--metric", "forest", "--tol", tol]) == 2
        assert capsys.readouterr().err == f"parameter error: tolerance must lie in [0, inf), got {float(tol)!r}\n"

    @pytest.mark.parametrize("metric", ["resistance", "shortest", "longwalk"])
    def test_huge_tolerance_reports_as_1e300_does(self, graph_file, capsys, metric):
        # --tol 1e308 used to overflow the check slacks with a RuntimeWarning.
        outputs = []
        for tol in ("1e300", "1e308", repr(float(np.finfo(float).max))):
            code = main(["validate", "--input", graph_file(PAW_FILE), "--metric", metric, "--tol", tol, "--json"])
            outputs.append((code, capsys.readouterr()))
        assert outputs[0][0] == 1 and outputs[1:] == outputs[:1] * 2


class TestParser:
    def test_many_calls_build_one_parser(self, graph_file, capsys):
        cli._build_parser.cache_clear()
        path = graph_file(P4_FILE)
        for _ in range(5):
            assert main(["compute", "--input", path, "--metric", "shortest"]) == 0
        main(["compare", "--input", path])
        assert cli._build_parser.cache_info().misses == 1

    def test_calls_leave_no_state_behind(self, graph_file, capsys):
        path = graph_file(P4_FILE)
        calls = {
            "two metrics": ["compute", "--input", path, "--metric", "forest", "--metric", "shortest"],
            "no metric": ["compare", "--input", path],  # usage error from the handler
            "unknown option": ["validate", "--input", path, "--bogus"],  # usage error from argparse
            "json": ["validate", "--input", path, "--metric", "shortest", "--json"],
        }

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return code, capsys.readouterr()

        first = {}
        for name, argv in calls.items():
            cli._build_parser.cache_clear()
            first[name] = run(argv)
        for earlier in calls:
            for later in calls:
                if earlier != later:
                    run(calls[earlier])
                    assert run(calls[later]) == first[later], (earlier, later)
