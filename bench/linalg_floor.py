"""Floor for the ``linalg`` layer: ``numpy.linalg.inv`` and ``eigh`` timed on
the matrices a compute workload hands to ``linalg.invert`` and
``linalg.spectral_data``, beside the program's own functions.

    python3 bench/linalg_floor.py --workload compute_biconnected --seed 1

Prints one JSON object with the median seconds per call of each.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import graphs  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from cutmetrics import linalg  # noqa: E402


def per_call(fn, matrices):
    times = []
    for m in matrices:
        start = time.perf_counter()
        fn(m)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    choices = ("compute_biconnected", "compute_cut_rich")
    parser.add_argument("--workload", choices=choices, default=choices[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    cut_rich = args.workload == "compute_cut_rich"
    adjacency = [graphs.adjacency(n, edges) for n, edges in workloads.compute_graphs(args.seed, cut_rich)]
    forest = [np.eye(len(a)) + np.diag(a.sum(axis=1)) - a for a in adjacency]
    result = {
        "n": workloads.COMPUTE_N,
        "numpy.linalg.inv_s": per_call(np.linalg.inv, forest),
        "linalg.invert_s": per_call(linalg.invert, forest),
        "numpy.linalg.eigh_s": per_call(np.linalg.eigh, adjacency),
        "linalg.spectral_data_s": per_call(linalg.spectral_data, adjacency),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
