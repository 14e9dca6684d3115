"""Command-line front end.

Four commands over edge-list graph files:

* ``compute``  - write one metric's distance matrix as CSV
* ``validate`` - run the structural checks for a metric, exit 0 iff clean
* ``compare``  - normalized distance table for several metrics
* ``figure``   - planar trapezoid coordinates realizing the four framing
  distances d(1,2), d(2,3), d(3,4), d(1,4) of each metric

Exit codes: 0 success, 1 input/usage errors (and failed validation),
2 parameter-validation failures, 3 numeric failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from . import distances, measures
from .errors import GraphInputError, NumericError, ParameterError
from .graph import Graph, parse_graph, shortest_path_lengths
from .types import DistanceMatrix, ValidationReport

__all__ = ["main", "entry_point"]

METRIC_NAMES = (
    "shortest",
    "resistance",
    "path",
    "reliability",
    "forest",
    "walk",
    "longwalk",
    "longwalk-rescaled",
)
DEFAULT_PAIRS = "1-2,2-3,3-4"
DEFAULT_TARGET = 3.0


class _UsageError(Exception):
    pass


def _parse_metric_specs(raw: list[str] | None, tau: float | None, t: float | None):
    """Expand ``name[:key=value,...]`` specs; bare names fall back to the
    --tau / --t flags."""
    if not raw:
        raise _UsageError("at least one --metric is required")
    specs: list[tuple[str, dict[str, float]]] = []
    for chunk in raw:
        for spec in chunk.split(","):
            spec = spec.strip()
            if not spec:
                continue
            name, _, paramtext = spec.partition(":")
            params: dict[str, float] = {}
            if paramtext:
                for item in paramtext.split(";"):
                    key, sep, value = item.partition("=")
                    if not sep:
                        raise ParameterError(f"malformed metric parameter {item!r} in {spec!r}")
                    try:
                        params[key.strip()] = float(value)
                    except ValueError:
                        raise ParameterError(f"non-numeric metric parameter {item!r} in {spec!r}") from None
            if name not in METRIC_NAMES:
                raise ParameterError(f"unknown metric {name!r}; choose from {', '.join(METRIC_NAMES)}")
            if "tau" not in params and tau is not None:
                params["tau"] = tau
            if "t" not in params and t is not None:
                params["t"] = t
            specs.append((name, params))
    if not specs:
        raise _UsageError("at least one --metric is required")
    return specs


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        left, sep, right = item.partition("-")
        if not sep:
            raise ParameterError(f"malformed vertex pair {item!r}; expected 'u-v'")
        try:
            pairs.append((int(left), int(right)))
        except ValueError:
            raise ParameterError(f"malformed vertex pair {item!r}; expected 'u-v'") from None
    if not pairs:
        raise ParameterError(f"no vertex pairs in {text!r}")
    return pairs


def _build_distance(g: Graph, name: str, params: dict[str, float]) -> DistanceMatrix:
    if name == "shortest":
        return shortest_path_lengths(g)
    if name == "resistance":
        return distances.resistance_distance(g)
    if name == "path":
        if "tau" not in params:
            raise ParameterError("metric 'path' needs --tau or path:tau=X")
        return distances.path_distance(g, params["tau"])
    if name == "reliability":
        return distances.reliability_distance(g)
    if name == "forest":
        return distances.forest_distance(g, params.get("t", 1.0))
    if name == "walk":
        if "t" not in params:
            raise ParameterError("metric 'walk' needs --t or walk:t=X")
        return distances.walk_distance(g, params["t"])
    if name == "longwalk":
        return distances.long_walk_distance(g)
    if name == "longwalk-rescaled":
        return distances.rescaled_long_walk_distance(g)
    raise ParameterError(f"unknown metric {name!r}")


def _default_tol(name: str) -> float:
    return 1e-6 if name.startswith("longwalk") else 1e-9


def _format(value: float) -> str:
    return f"{value:.12g}"


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise GraphInputError(f"cannot read {path}: {exc}") from None


def _cmd_compute(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    specs = _parse_metric_specs(args.metric, args.tau, args.t)
    if len(specs) != 1:
        raise _UsageError("compute takes exactly one metric")
    name, params = specs[0]
    d = _build_distance(g, name, params)
    lines = [",".join(str(v) for v in range(1, g.n + 1))]
    for row in d.values:
        lines.append(",".join(_format(x) for x in row))
    _write_output("\n".join(lines) + "\n", args.output)
    shown = {k: v for k, v in d.params.items()}
    print(f"cutmetrics compute: metric={name} params={shown} n={g.n} input={args.input}", file=sys.stderr)
    return 0


def _measure_for(g: Graph, name: str, params: dict[str, float]):
    if name == "path":
        if "tau" not in params:
            raise ParameterError("metric 'path' needs --tau or path:tau=X")
        return measures.path_accessibility(g, params["tau"])
    if name == "reliability":
        return measures.connection_reliability(g)
    if name == "forest":
        return measures.forest_matrix(g, params.get("t", 1.0))
    if name == "walk":
        if "t" not in params:
            raise ParameterError("metric 'walk' needs --t or walk:t=X")
        return measures.walk_matrix(g, params["t"])
    return None


def _cmd_validate(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    specs = _parse_metric_specs(args.metric, args.tau, args.t)
    if len(specs) != 1:
        raise _UsageError("validate takes exactly one metric")
    name, params = specs[0]
    tol = args.tol if args.tol is not None else _default_tol(name)

    checks: list[tuple[str, ValidationReport]] = []
    measure = _measure_for(g, name, params)
    if measure is not None:
        checks.append(("transitional-measure", measures.validate_transitional_measure(g, measure, tol)))
        d = distances.log_distance(measure)
    else:
        d = _build_distance(g, name, params)
    checks.append(("metric-axioms", distances.check_metric_axioms(d, tol)))
    checks.append(("cutpoint-additivity", distances.check_cutpoint_additivity(g, d, tol)))

    passed = all(report.passed for _, report in checks)
    violations = [v for _, report in checks for v in report.violations]
    if args.json:
        payload = {
            "command": "validate",
            "metric": name,
            "params": params,
            "passed": passed,
            "violations": [asdict(v) for v in violations],
        }
        _write_output(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = []
        for label, report in checks:
            status = "passed" if report.passed else f"failed ({len(report.violations)} violations)"
            lines.append(f"check {label}: {status}")
            for v in report.violations[:20]:
                lines.append(
                    f"  triple ({v.i},{v.j},{v.k}): lhs={_format(v.lhs)} rhs={_format(v.rhs)}"
                    f" expected_equal={v.expected_equal}"
                )
        lines.append(f"overall: {'passed' if passed else 'failed'}")
        _write_output("\n".join(lines) + "\n", args.output)
    return 0 if passed else 1


def _normalized(g: Graph, name: str, params: dict[str, float], pairs, target) -> DistanceMatrix:
    return distances.normalize_distances(_build_distance(g, name, params), pairs, target)


def _metric_label(name: str, params: dict[str, float]) -> str:
    if not params:
        return name
    inner = ";".join(f"{k}={v:g}" for k, v in sorted(params.items()))
    return f"{name}:{inner}"


def _cmd_compare(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    specs = _parse_metric_specs(args.metric, args.tau, args.t)
    pairs = _parse_pairs(args.pairs)
    first, last = pairs[0][0], pairs[-1][1]
    all_pairs = [(u, v) for u in range(1, g.n + 1) for v in range(u + 1, g.n + 1)]
    rows = []
    for name, params in specs:
        d = _normalized(g, name, params, pairs, args.target)
        rows.append((_metric_label(name, params), d))
    rows.sort(key=lambda item: -item[1].value(first, last))
    header = "metric," + ",".join(f"d({u}-{v})" for u, v in all_pairs)
    lines = [header]
    for label, d in rows:
        lines.append(label + "," + ",".join(_format(d.value(u, v)) for u, v in all_pairs))
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    if g.n < 4:
        raise ParameterError(f"figure needs the designated vertices 1..4, graph has n={g.n}")
    specs = _parse_metric_specs(args.metric, args.tau, args.t)
    pairs = _parse_pairs(args.pairs)
    lines = ["metric,vertex,x,y"]
    for name, params in specs:
        tol = args.tol if args.tol is not None else _default_tol(name)
        d = _normalized(g, name, params, pairs, args.target)
        d12, d34 = d.value(1, 2), d.value(3, 4)
        if abs(d12 - d34) > tol * max(abs(d12), abs(d34)) + 1e-12:
            raise ParameterError(
                f"{name}: d(1,2)={_format(d12)} and d(3,4)={_format(d34)} differ beyond tolerance; "
                "the symmetric trapezoid needs d(1,2) = d(3,4)"
            )
        d23, d14 = d.value(2, 3), d.value(1, 4)
        height = math.sqrt(max(0.0, d12**2 - ((d14 - d23) / 2.0) ** 2))
        label = _metric_label(name, params)
        coords = [
            (1, -d14 / 2.0, height),
            (2, -d23 / 2.0, 0.0),
            (3, d23 / 2.0, 0.0),
            (4, d14 / 2.0, height),
        ]
        for vertex, x, y in coords:
            lines.append(f"{label},{vertex},{_format(x)},{_format(y)}")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutmetrics",
        description="Graph distances on connected weighted multigraphs, with structural validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler in (
        ("compute", _cmd_compute),
        ("validate", _cmd_validate),
        ("compare", _cmd_compare),
        ("figure", _cmd_figure),
    ):
        p = sub.add_parser(command)
        p.add_argument("--input", required=True, help="edge-list graph file")
        p.add_argument("--output", default=None, help="output file (default: stdout)")
        p.add_argument(
            "--metric",
            action="append",
            metavar="NAME[:k=v]",
            help=f"metric name, one of: {', '.join(METRIC_NAMES)};"
            " repeatable or comma-separated, inline params like walk:t=0.4",
        )
        p.add_argument("--tau", type=float, default=None, help="path-measure discount")
        p.add_argument("--t", type=float, default=None, help="walk parameter / forest edge scale")
        p.add_argument("--pairs", default=DEFAULT_PAIRS, help="normalization pairs, e.g. '1-2,2-3,3-4'")
        p.add_argument("--target", type=float, default=DEFAULT_TARGET, help="normalization target sum")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument("--json", action="store_true", help="machine-readable report (validate)")
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except GraphInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))
