"""The four workloads: their inputs, one round of operations, and the check
of every operation's output.

A workload is built from the seed before anything is timed: the graphs,
their edge-list documents and the independent references.  The program
only sees the documents.  ``make_round`` turns the parsed graphs into the
fixed list of operations that a run repeats as whole rounds; each
operation is a ``(run, check)`` pair and ``check`` returns ``OK``,
``KNOWN_FAULT`` or ``WRONG``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import graphs
import reference

OK, KNOWN_FAULT, WRONG = "ok", "known_fault", "wrong"

COMPUTE_N = 200
COMPUTE_GRAPHS = 36
TRIPLES_PER_KIND = 32
# The program's power iteration stops at an eigen-residual of 1e-12, which
# leaves about 1e-10 relative error in the Perron vector; the long-walk
# closed form divides by it (measured worst 6e-10 against the reference).
LONG_WALK_RTOL = 1e-8

VALIDATE_N = 64
VALIDATE_GRAPHS_PER_CLASS = 2
# Cut-rich graphs, fixed whatever the seed, on which the walk validation
# fails through the EQUALITY_FLOOR fault of validate_transitional_measure.
WALK_FLOOR_FAULT_SEEDS = (2, 6)

SMALL_SIZES = range(6, 13)
SMALL_EXTRA_EDGES = (1, 2, 3)
SMALL_REPEATS = 4
TAU_PRECISION = 1e-6  # find_tau_threshold's default precision


@dataclass
class Workload:
    parse_inputs: Callable  # modules -> parsed graphs, what a user pays to read the inputs
    make_round: Callable  # (modules, parsed graphs) -> [(run, check), ...]
    graphs_per_round: int  # distinct graphs in one round


def compute_graphs(seed, cut_rich):
    """The graphs of one round of a compute workload."""
    rng = np.random.default_rng(seed)
    if cut_rich:
        return [graphs.cut_rich(rng, COMPUTE_N, chain=index % 2 == 0) for index in range(COMPUTE_GRAPHS)]
    return [graphs.biconnected(rng, COMPUTE_N, chords=COMPUTE_N) for _ in range(COMPUTE_GRAPHS)]


def compute(seed, cut_rich):
    """Forest, walk, resistance and (on 2-connected graphs) closed-form
    long-walk distance matrices of one graph per operation, through the
    library.  The closed form is left out on cut-rich graphs, where the
    Perron vector underflows along the chains and the program returns
    wrong matrices or raises on some seeds."""
    rng = np.random.default_rng([seed, 1])  # for the sampled triples
    specs = []
    for n, edges in compute_graphs(seed, cut_rich):
        a = graphs.adjacency(n, edges)
        t = 0.5 / reference.spectral_radius(a)
        refs = [(reference.forest(a), reference.REL_TOL), (reference.walk(a, t), reference.REL_TOL)]
        refs.append((reference.resistance(a), reference.REL_TOL))
        if not cut_rich:
            refs.append((reference.long_walk(a), LONG_WALK_RTOL))
        triples = reference.Separators(n, edges).sample_triples(rng, TRIPLES_PER_KIND)
        specs.append((graphs.edge_list_text(n, edges), t, refs, triples))

    def parse_inputs(cm):
        return [cm.graph.parse_graph(text) for text, *_ in specs]

    def make_round(cm, parsed):
        return [_compute_op(cm, g, t, refs, triples) for g, (_, t, refs, triples) in zip(parsed, specs)]

    return Workload(parse_inputs, make_round, len(specs))


def _compute_op(cm, g, t, refs, triples):
    def run():
        d = cm.distances
        out = [d.forest_distance(g), d.walk_distance(g, t), d.resistance_distance(g)]
        if len(refs) == 4:
            out.append(d.long_walk_distance(g, method="closed_form"))
        return out

    def check(out):
        good = all(
            reference.matrix_matches(x.values, r, rtol) and reference.additivity_holds(x.values, triples, rtol)
            for x, (r, rtol) in zip(out, refs)
        )
        return OK if good else WRONG

    return run, check


def validate_cli(seed, workdir):
    """One in-process ``cutmetrics validate --json`` per operation."""
    rng = np.random.default_rng(seed)
    cases = []  # (n, edges, metrics, walk floor fault allowed)
    for _ in range(VALIDATE_GRAPHS_PER_CLASS):
        n, edges = graphs.biconnected(rng, VALIDATE_N, chords=VALIDATE_N)
        cases.append((n, edges, ("forest", "walk", "resistance", "shortest"), False))
    for index in range(VALIDATE_GRAPHS_PER_CLASS):
        n, edges = graphs.cut_rich(rng, VALIDATE_N, chain=index == 0)
        cases.append((n, edges, ("forest", "resistance", "shortest"), False))
    for fixed in WALK_FLOOR_FAULT_SEEDS:
        n, edges = graphs.cut_rich(np.random.default_rng(fixed), VALIDATE_N, chain=False)
        cases.append((n, edges, ("walk",), True))

    report = workdir / "report.json"
    paths, specs = [], []
    for index, (n, edges, metrics, fault_ok) in enumerate(cases):
        path = workdir / f"graph{index}.txt"
        path.write_text(graphs.edge_list_text(n, edges), encoding="utf-8")
        paths.append(path)
        sep = reference.Separators(n, edges)
        for metric in metrics:
            expected = None
            if metric == "walk":
                metric = f"walk:t={0.5 / reference.spectral_radius(graphs.adjacency(n, edges))!r}"
            elif metric == "shortest":
                expected = reference.shortest_violations(n, edges, sep.table())
            argv = ["validate", "--json", "--input", str(path), "--metric", metric, "--output", str(report)]
            specs.append((argv, expected, sep, fault_ok))

    def parse_inputs(cm):
        return [cm.graph.parse_graph(p.read_text(encoding="utf-8")) for p in paths]

    def make_round(cm, parsed):
        return [_validate_op(cm, report, *spec) for spec in specs]

    return Workload(parse_inputs, make_round, len(paths))


def _validate_op(cm, report, argv, expected, sep, fault_ok):
    def run():
        return cm.cli.main(argv)

    def check(code):
        if not report.exists():
            return WRONG
        payload = json.loads(report.read_text(encoding="utf-8"))
        report.unlink()  # a later operation that writes nothing must not pass on this report
        violations = payload["violations"]
        if expected is None:
            if code == 0 and payload["passed"] is True and not violations:
                return OK
            if fault_ok and code == 1 and violations and all(_floor_equal(v, sep) for v in violations):
                return KNOWN_FAULT
            return WRONG
        triples = [(v["i"], v["j"], v["k"]) for v in violations]
        good = (
            code == 1
            and payload["passed"] is False
            and len(triples) == len(expected)
            and set(triples) == expected
            and not any(v["expected_equal"] for v in violations)
        )
        return OK if good else WRONG

    return run, check


def _floor_equal(v, sep):
    """The walk floor fault: a non-separating triple whose products differ
    by more than the relative tolerance, yet by less than the absolute
    1e-12 floor, so the measure check takes them for equal."""
    i, j, k = v["i"], v["j"], v["k"]
    gap, scale = abs(v["lhs"] - v["rhs"]), max(v["lhs"], v["rhs"])
    return (
        len({i, j, k}) == 3
        and not v["expected_equal"]
        and not sep.separates(i, j, k)
        and reference.REL_TOL * scale < gap <= reference.REL_TOL * scale + reference.EQUALITY_FLOOR
    )


def small_exact(seed):
    """Tau threshold, path distance at half of it, reliability, forest, walk
    and resistance distances of one small graph per operation."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(SMALL_REPEATS):
        for size in SMALL_SIZES:
            for extra in SMALL_EXTRA_EDGES:
                n, edges = graphs.small_cyclic(rng, size, extra)
                a = graphs.adjacency(n, edges)
                t = 0.5 / reference.spectral_radius(a)
                refs = {
                    "poly": reference.path_weight_polynomial(n, edges),
                    "sep": reference.Separators(n, edges).table(),
                    "others": (
                        reference.log_transform(reference.reliability(n, edges)),
                        reference.forest(a),
                        reference.walk(a, t),
                        reference.resistance(a),
                    ),
                }
                specs.append((graphs.edge_list_text(n, edges), t, refs))

    def parse_inputs(cm):
        return [cm.graph.parse_graph(text) for text, *_ in specs]

    def make_round(cm, parsed):
        return [_small_op(cm, g, t, refs) for g, (_, t, refs) in zip(parsed, specs)]

    return Workload(parse_inputs, make_round, len(specs))


def _small_op(cm, g, t, refs):
    def run():
        m, d = cm.measures, cm.distances
        tau = m.find_tau_threshold(g)
        return tau, (
            d.path_distance(g, tau / 2.0),
            d.reliability_distance(g),
            d.forest_distance(g),
            d.walk_distance(g, t),
            d.resistance_distance(g),
        )

    def check(out):
        tau, results = out
        poly, sep = refs["poly"], refs["sep"]
        # The threshold is valid and, within the bisection precision, the largest valid one.
        good = reference.transitional(reference.path_measure(poly, tau), sep) and not reference.transitional(
            reference.path_measure(poly, tau + 2.0 * TAU_PRECISION), sep
        )
        expected = (reference.log_transform(reference.path_measure(poly, tau / 2.0)), *refs["others"])
        good = good and all(reference.matrix_matches(x.values, r) for x, r in zip(results, expected))
        return OK if good else WRONG

    return run, check
