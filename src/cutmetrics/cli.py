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
import collections
import functools
import json
import math
import sys

import numpy as np

from . import distances, measures
from .errors import GraphInputError, NumericError, ParameterError
from .graph import Graph, parse_graph, separation_labels, shortest_path_lengths

__all__ = ["main", "entry_point"]

# Per metric: distance builder, measure builder (or None), inline keys with
# their defaults (None where required), default validation tolerance.  The
# builders look distances.X / measures.X up when called: tracing and tests
# rebind those module attributes, which a stored function would bypass.
_Metric = collections.namedtuple("_Metric", "distance measure keys tol", defaults=(None, {}, 1e-9))
_METRICS = {
    "shortest": _Metric(lambda g: shortest_path_lengths(g)),
    "resistance": _Metric(lambda g: distances.resistance_distance(g)),
    "path": _Metric(
        lambda g, tau: distances.path_distance(g, tau), lambda g, tau: measures.path_accessibility(g, tau), {"tau": None}
    ),
    "reliability": _Metric(lambda g: distances.reliability_distance(g), lambda g: measures.connection_reliability(g)),
    "forest": _Metric(
        lambda g, t: distances.forest_distance(g, t), lambda g, t: measures._forest_inverse(g, t), {"t": 1.0}
    ),
    "walk": _Metric(lambda g, t: distances.walk_distance(g, t), lambda g, t: measures.walk_matrix(g, t), {"t": None}),
    "longwalk": _Metric(lambda g: distances.long_walk_distance(g), tol=1e-6),
    "longwalk-rescaled": _Metric(lambda g: distances.rescaled_long_walk_distance(g), tol=1e-6),
}


class _UsageError(Exception):
    pass


def _parse_metric_specs(raw: list[str] | None, tau: float | None, t: float | None):
    """Expand ``name[:key=value;...]`` specs; a key the metric reads and its
    spec leaves out falls back to the --tau / --t flag."""
    flags = {"tau": tau, "t": t}
    specs: list[tuple[str, dict[str, float]]] = []
    for chunk in raw or ():
        for spec in chunk.split(","):
            spec = spec.strip()
            if not spec:
                continue
            name, _, paramtext = spec.partition(":")
            params: dict[str, float] = {}
            if paramtext:
                for item in paramtext.split(";"):
                    key, sep, value = item.partition("=")
                    key = key.strip()
                    if not sep:
                        raise ParameterError(f"malformed metric parameter {item!r} in {spec!r}")
                    if key in params:
                        raise ParameterError(f"metric parameter {key!r} given twice in {spec!r}")
                    try:
                        params[key] = float(value)
                    except ValueError:
                        raise ParameterError(f"non-numeric metric parameter {item!r} in {spec!r}") from None
            if name not in _METRICS:
                raise ParameterError(f"unknown metric {name!r}; choose from {', '.join(_METRICS)}")
            keys = _METRICS[name].keys
            unread = sorted(params.keys() - keys.keys())
            if unread:
                raise ParameterError(f"metric {name!r} takes no parameter {unread[0]!r} in {spec!r}")
            for key in keys:
                if key not in params and flags[key] is not None:
                    params[key] = flags[key]
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


def _build(g: Graph, name: str, params: dict[str, float], part: str = "distance"):
    """The ``part`` (distance or measure) of metric ``name`` on ``g``; a key
    missing from ``params`` takes its default, and a required one is refused."""
    metric = _METRICS[name]
    values = {}
    for key, default in metric.keys.items():
        values[key] = params.get(key, default)
        if values[key] is None:
            raise ParameterError(f"metric {name!r} needs --{key} or {name}:{key}=X")
    return getattr(metric, part)(g, **values)


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
    d = _build(g, name, params)
    row_format = ",".join(["%.12g"] * g.n)  # the spelling of _format
    lines = [",".join(str(v) for v in range(1, g.n + 1))]
    lines.extend(row_format % tuple(row) for row in d.values.tolist())
    _write_output("\n".join(lines) + "\n", args.output)
    print(f"cutmetrics compute: metric={name} params={d.params} n={g.n} input={args.input}", file=sys.stderr)
    return 0


# One violation as json.dumps(indent=2) lays it out inside the payload,
# after the ",\n" that separates it from the one before; the writer puts
# each field's spelling between the constant pieces.
_VIOLATION_TEXT = np.array(
    ',\n    {\n      "i": %s,\n      "j": %s,\n      "k": %s,\n      "lhs": %s,\n      "rhs": %s,\n'
    '      "expected_equal": %s\n    }'.split("%s"),
    dtype=object,
)
# The flag spellings with the text around them, to the violation's end.
_FLAGS_JSON = _VIOLATION_TEXT[5] + np.array(["false", "true"], dtype=object) + _VIOLATION_TEXT[6]
# Violations per "".join of the writer, which bounds its transient objects.
_JOIN_ROWS = 1024
_encode = json.JSONEncoder().encode


def _json_floats(values: np.ndarray) -> list[str]:
    """The json spellings of a non-empty float array: repr, ``Infinity``,
    ``-Infinity`` or ``NaN``, from one call into the C encoder."""
    return _encode(values.tolist())[1:-1].split(", ")


def _validate_json(payload: dict, reports) -> str:
    """``json.dumps(indent=2)`` of ``payload`` with the violations of
    ``reports`` appended as dicts, written from their columns.

    Each vertex id of the span the triples cover, and each distinct float
    bit pattern (so ``0.0`` and ``-0.0`` stay apart), is spelled once; the
    ids and the flags carry the constant text in front of them, so a row
    is eight pieces.  A table of :data:`_JOIN_ROWS` rows holds the pieces
    of one chunk of rows at a time, and each chunk is joined into one
    string, so the object arrays stay O(_JOIN_ROWS) whatever the number of
    rows.  The floats stay unprefixed, one spelling per bit pattern."""
    text = json.dumps({**payload, "violations": []}, indent=2)
    triples, lhs, rhs, expected = (np.concatenate(c) for c in zip(*(r._columns for r in reports)))
    rows = len(lhs)
    if not rows:
        return text
    bits, where = np.unique(np.concatenate((lhs, rhs)).view(np.int64), return_inverse=True)
    floats = np.array(_json_floats(bits.view(np.float64)), dtype=object)
    low = int(triples.min())
    ids = np.array(list(map(str, range(low, int(triples.max()) + 1))), dtype=object)
    # Row f of heads spells every id as field f, "i", "j" or "k", with its lead-in.
    heads = np.add.outer(_VIOLATION_TEXT[:3], ids)
    table = np.empty((min(rows, _JOIN_ROWS), 8), dtype=object)
    table[:, 3], table[:, 5] = _VIOLATION_TEXT[3:5]
    chunks = []
    for start in range(0, rows, _JOIN_ROWS):
        part, span = table[: min(rows - start, _JOIN_ROWS)], slice(start, start + _JOIN_ROWS)
        part[:, :3] = heads[[0, 1, 2], triples[span] - low]
        part[:, 4] = floats[where[:rows][span]]
        part[:, 6] = floats[where[rows:][span]]
        part[:, 7] = _FLAGS_JSON[expected[span].astype(np.intp)]
        chunks.append("".join(part.ravel().tolist()))
    chunks[0] = chunks[0][1:]  # the first violation follows "[" with no comma
    return "".join((text[: -len("[]\n}")], "[", *chunks, "\n  ]\n}"))


def _cmd_validate(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    specs = _parse_metric_specs(args.metric, args.tau, args.t)
    if len(specs) != 1:
        raise _UsageError("validate takes exactly one metric")
    name, params = specs[0]
    metric = _METRICS[name]
    tol = measures._tolerance(args.tol if args.tol is not None else metric.tol)

    measure = None if metric.measure is None else _build(g, name, params, "measure")
    d = _build(g, name, params) if measure is None else distances.log_distance(measure)
    names = ("transitional-measure",) * (measure is not None) + ("metric-axioms", "cutpoint-additivity")
    checks = list(zip(names, measures._checks(d.values, separation_labels(g), tol, names, measure)))

    passed = all(report.passed for _, report in checks)
    if args.json:
        payload = {"command": "validate", "metric": name, "params": params, "passed": passed}
        _write_output(_validate_json(payload, [report for _, report in checks]) + "\n", args.output)
    else:
        lines = []
        for label, report in checks:
            columns = report._columns
            status = "passed" if report.passed else f"failed ({len(columns[1])} violations)"
            lines.append(f"check {label}: {status}")
            for (i, j, k), a, b, e in zip(*(column[:20].tolist() for column in columns)):
                lines.append(f"  triple ({i},{j},{k}): lhs={_format(a)} rhs={_format(b)} expected_equal={e}")
        lines.append(f"overall: {'passed' if passed else 'failed'}")
        _write_output("\n".join(lines) + "\n", args.output)
    return 0 if passed else 1


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
        d = distances.normalize_distances(_build(g, name, params), pairs, args.target)
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
        tol = measures._tolerance(args.tol if args.tol is not None else _METRICS[name].tol)
        d = distances.normalize_distances(_build(g, name, params), pairs, args.target)
        d12, d34 = d.value(1, 2), d.value(3, 4)
        if abs(d12 - d34) > measures._slack(tol, max(abs(d12), abs(d34))):
            raise ParameterError(
                f"{name}: d(1,2)={_format(d12)} and d(3,4)={_format(d34)} differ beyond tolerance; "
                "the symmetric trapezoid needs d(1,2) = d(3,4)"
            )
        d23, d14 = d.value(2, 3), d.value(1, 4)
        try:
            height = math.sqrt(max(0.0, d12**2 - ((d14 - d23) / 2.0) ** 2))
        except OverflowError:
            raise NumericError(
                f"{name}: the trapezoid height overflows a float at --target {args.target!r}"
            ) from None
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


# Every flag; each command below reads the first five and those it lists.
_FLAGS = {
    "--input": {"required": True, "help": "edge-list graph file"},
    "--output": {"default": None, "help": "output file (default: stdout)"},
    "--metric": {
        "action": "append",
        "metavar": "NAME[:k=v]",
        "help": f"metric name, one of: {', '.join(_METRICS)};"
        " repeatable or comma-separated, inline params like walk:t=0.4",
    },
    "--tau": {"type": float, "default": None, "help": "path-measure discount"},
    "--t": {"type": float, "default": None, "help": "walk parameter / forest edge scale"},
    "--pairs": {"default": "1-2,2-3,3-4", "help": "normalization pairs, e.g. '1-2,2-3,3-4'"},
    "--target": {"type": float, "default": 3.0, "help": "normalization target sum"},
    "--tol": {"type": float, "default": None, "help": "tolerance override"},
    "--json": {"action": "store_true", "help": "machine-readable report"},
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="cutmetrics",
        description="Graph distances on connected weighted multigraphs, with structural validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler, flags in (
        ("compute", _cmd_compute, ()),
        ("validate", _cmd_validate, ("--tol", "--json")),
        ("compare", _cmd_compare, ("--pairs", "--target")),
        ("figure", _cmd_figure, ("--pairs", "--target", "--tol")),
    ):
        p = sub.add_parser(command)
        for flag in ("--input", "--output", "--metric", "--tau", "--t", *flags):
            p.add_argument(flag, **_FLAGS[flag])
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
