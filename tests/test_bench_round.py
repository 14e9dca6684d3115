"""One round of the ``small_exact`` and ``validate_cli`` benchmark workloads,
run against the library: every operation's output must pass the
benchmark's own check."""

from pathlib import Path
from types import SimpleNamespace

import pytest

from cutmetrics import cli, distances, graph, measures

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("name", ["small_exact", "validate_cli"])
def test_one_round_checks_ok(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    workload = workloads.small_exact(1) if name == "small_exact" else workloads.validate_cli(1, tmp_path)
    modules = SimpleNamespace(graph=graph, measures=measures, distances=distances, cli=cli)
    ops = workload.make_round(modules, workload.parse_inputs(modules))
    verdicts = [check(run()) for run, check in ops]
    assert verdicts == [workloads.OK] * len(ops)
