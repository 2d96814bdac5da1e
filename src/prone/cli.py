"""Command-line interface: cluster one file, run benchmark suites, generate data.

Subcommands
-----------
cluster   run one algorithm on one input file, write centers + labels,
          print a single JSON record to stdout.
bench     run a suite (direct | coreset | boosted) over a grid of k values
          and repetitions, writing one JSON line per cell to --out and a
          summary CSV (mean cost ratio and speedup per cell) next to it.
gen       write a synthetic dataset (mixture | adversarial) to CSV.

Every algorithm is one entry of ``ALGORITHMS``, which ``cluster`` and all
three bench suites run through. Benchmark runs with the same (k, rep)
start from the same derived seed so that cost ratios and speedups are
paired, and ``cluster --seed S --k K`` starts from bench's (K, rep 0) seed,
so it reproduces that cell. --jobs N runs cells in parallel processes.
Nothing pins the BLAS thread count, so each cell's matrix products may use
several threads, and parallel cells compete for the same cores; compare
wall-clock times only between runs with the same --jobs on the same host.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._util import check_z
from .baseline import ClusteringModel, cost_with_nearest, kmeanspp_seed, lloyd_iterate
from .coreset import (
    boosted_prone,
    lightweight_distribution,
    sample_coreset,
    sensitivity_distribution,
)
from .dataset import (
    Dataset,
    gen_adversarial_gaussian,
    gen_gaussian_mixture,
    load_dense_csv,
    load_sparse,
    write_dense_csv,
)
from .pipeline import ProneConfig, prone

SUITES = ("direct", "coreset", "boosted")
BUILTIN_DATASETS = ("gaussian-small", "gaussian-large", "gaussian-adversarial")


def _load_builtin(name: str) -> Dataset:
    if name == "gaussian-small":
        data, _ = gen_gaussian_mixture(20, 500, 10, 1000.0, rng=12345)
        return data
    if name == "gaussian-large":
        data, _ = gen_gaussian_mixture(50, 2000, 16, 1000.0, rng=12345)
        return data
    if name == "gaussian-adversarial":
        return gen_adversarial_gaussian(3000, rng=12345)
    raise ValueError(f"unknown dataset {name!r}; builtins are {BUILTIN_DATASETS}")


@lru_cache(maxsize=4)
def _load_dataset(name: str, fmt: str = "csv") -> Dataset:
    if name in BUILTIN_DATASETS:
        return _load_builtin(name)
    if fmt == "sparse":
        return load_sparse(name)
    return load_dense_csv(name)


def _cell_rng(seed: int, k: int, rep: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(k, rep))
    return np.random.Generator(np.random.Philox(ss))


def _z_exponent(text: str) -> float:
    try:
        return check_z(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


# --- the algorithm table ----------------------------------------------


@dataclass
class Run:
    """What one algorithm run reports, whichever algorithm it was.

    ``timings`` holds seconds per stage. Every run's ``"call"`` entry is the
    whole algorithm call up to the centers, without any full-data
    nearest-center pass; the other entries are the library's own stage
    names, or ``construct`` and ``train`` in the coreset suite.
    ``cost_nearest`` is set only when the run got it for free.
    """

    centers: np.ndarray
    labels: np.ndarray | None
    k_found: int
    exhausted: bool
    timings: dict
    cost_assignment: float | None = None
    cost_nearest: float | None = None
    total_updates: int | None = None
    # the seeding's own count: a boosted run's k_found is the coreset model's
    comparisons: int | None = None


def _timed(fn, *args, **kwargs):
    """Return (fn(*args, **kwargs), seconds it took)."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _prone_run(variant: str):
    def run(data, k, z, rng, alpha=None) -> Run:
        res, seconds = _timed(prone, data, ProneConfig(k=k, z=z, variant=variant), rng=rng)
        return Run(
            res.model.centers, res.model.assignment, res.seeding.k_found, res.exhausted,
            {**res.timings, "call": seconds}, cost_assignment=res.model.cost,
            total_updates=res.seeding_stats.total_updates,
            comparisons=res.seeding_stats.comparisons,
        )

    return run


def _kmeanspp_run(data, k, z, rng, alpha=None) -> Run:
    model, seconds = _timed(kmeanspp_seed, data, k, z, rng)
    return Run(model.centers, model.assignment, model.k, model.k < k, {"call": seconds},
               cost_assignment=model.cost, cost_nearest=model.cost)


def _boosted_run(data, k, z, rng, alpha=None) -> Run:
    if alpha is None:
        raise ValueError("--alpha is required for --algo boosted")
    boosted, seconds = _timed(boosted_prone, data, k, z, alpha, rng)
    model, evaluate_s = _timed(boosted.evaluate, data)
    stats = boosted.prone_result.seeding_stats
    return Run(
        model.centers, model.assignment, model.k, model.k < k,
        {**boosted.timings, "call": seconds, "evaluate": evaluate_s},
        cost_assignment=model.cost, cost_nearest=model.cost,
        total_updates=stats.total_updates, comparisons=stats.comparisons,
    )


# name -> fn(data, k, z, rng, alpha) -> Run. The entries look ``prone``,
# ``kmeanspp_seed`` and ``boosted_prone`` up in this module when called, so a
# tracer that replaces those names after import still sees every call.
ALGORITHMS = {
    "prone": _prone_run("standard"),
    "prone-variance": _prone_run("variance"),
    "prone-covariance": _prone_run("covariance"),
    "kmeanspp": _kmeanspp_run,
    "boosted": _boosted_run,
}


def _with_nearest(run: Run, data, z: float) -> Run:
    """Fill in the O(ndk) nearest-center cost unless the run already has it."""
    if run.cost_nearest is None:
        run.cost_nearest = cost_with_nearest(data, run.centers, z)
    return run


def _record(head: dict, run: Run) -> dict:
    """One cluster or bench record: ``head``, then the fields taken from the run."""
    return {
        **head,
        "cost_assignment": run.cost_assignment,
        "cost_nearest": run.cost_nearest,
        "k_found": run.k_found,
        "exhausted": run.exhausted,
        "total_updates": run.total_updates,
        "wall_time_ms": {stage: 1e3 * s for stage, s in run.timings.items()},
    }


# --- cluster -----------------------------------------------------------


def cmd_cluster(args) -> int:
    data, load_s = _timed(_load_dataset, args.input, args.format)
    t0 = time.perf_counter()
    run = ALGORITHMS[args.algo](data, args.k, args.z, _cell_rng(args.seed, args.k, 0), args.alpha)
    if args.assign_nearest:
        _with_nearest(run, data, args.z)
    run.timings.update(load=load_s, total=load_s + time.perf_counter() - t0)

    centers_path = f"{args.output}.centers.csv"
    labels_path = f"{args.output}.labels.txt"
    write_dense_csv(Dataset(np.atleast_2d(run.centers)), centers_path)
    with open(labels_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(map(str, run.labels.tolist())) + "\n")
    record = _record({
        "command": "cluster", "algorithm": args.algo, "input": args.input,
        "n": data.n, "d": data.d, "k": args.k, "z": args.z, "seed": args.seed,
        "alpha": args.alpha,
    }, run)
    if args.stats:
        record["stats"] = {"total_updates": run.total_updates, "comparisons": run.comparisons}
    record["centers_file"] = centers_path
    record["labels_file"] = labels_path
    print(json.dumps(record))
    return 0


# --- bench -------------------------------------------------------------


def _direct_cell(data, k, z, rng, task):
    for algo in ("prone", "prone-variance", "prone-covariance", "kmeanspp"):
        yield algo, ALGORITHMS[algo](data, k, z, rng()), {}


def _fit(points, k: int, z: float, rng, weights=None) -> ClusteringModel:
    """k-means++ seeding, refined by Lloyd when z = 2."""
    model = kmeanspp_seed(points, k, z, rng, weights=weights)
    if z == 2:
        model = lloyd_iterate(points, model, weights=weights)
    return model


def _coreset_cell(data, k, z, rng, task):
    # paired baseline: plain seeding plus refinement on the full data
    model, seconds = _timed(_fit, data, k, z, rng())
    yield "kmeanspp", Run(model.centers, model.assignment, model.k, model.k < k,
                          {"call": seconds}), {}
    for construction in ("sensitivity", "prone", "lightweight"):
        for rel in task["rel_sizes"]:
            s = math.ceil(rel * data.n)
            if s < k:
                continue  # not enough coreset points to seed k centers
            gen = rng()
            t0 = time.perf_counter()
            if construction == "lightweight":
                dist = lightweight_distribution(data)
            else:
                algo = "kmeanspp" if construction == "sensitivity" else "prone"
                base = ALGORITHMS[algo](data, k, z, gen)
                dist = sensitivity_distribution(
                    data, ClusteringModel(base.centers, base.labels, base.cost_assignment, z)
                )
            coreset = sample_coreset(data, dist, s, gen)
            t1 = time.perf_counter()
            model = _fit(coreset.points, k, z, gen, coreset.weights)
            t2 = time.perf_counter()
            timings = {"construct": t1 - t0, "train": t2 - t1, "call": t2 - t0}
            run = Run(model.centers, None, model.k, model.k < k, timings)
            yield construction, run, {"rel_size": rel}


def _boosted_cell(data, k, z, rng, task):
    for algo in ("kmeanspp", "prone"):
        yield algo, ALGORITHMS[algo](data, k, z, rng()), {}
    for alpha in task["alphas"]:
        if math.ceil(alpha * data.n) < k:
            continue  # cell excluded: coreset smaller than k
        yield "boosted", ALGORITHMS["boosted"](data, k, z, rng(), alpha), {"alpha": alpha}


_CELLS = {"direct": _direct_cell, "coreset": _coreset_cell, "boosted": _boosted_cell}


def _run_cell(task: dict) -> list[dict]:
    """All records of one (k, rep) cell; every run starts from the cell's seed."""
    data = _load_dataset(task["dataset"])
    k, z, seed, rep = task["k"], task["z"], task["seed"], task["rep"]
    runs = _CELLS[task["suite"]](data, k, z, lambda: _cell_rng(seed, k, rep), task)
    return [
        _record({
            "suite": task["suite"], "algorithm": algo, "dataset": task["dataset"],
            "n": data.n, "d": data.d, "k": k, "z": z, "seed": seed, "rep": rep,
            "alpha": None, "rel_size": None, **extra,
        }, _with_nearest(run, data, z))
        for algo, run, extra in runs
    ]


def _summarize(records: list[dict], path: str) -> None:
    """Mean cost ratio and speedup per (algorithm, k, alpha/size) cell vs kmeanspp."""
    baselines: dict[tuple, dict] = {}
    for rec in records:
        if rec["algorithm"] == "kmeanspp":
            baselines[rec["dataset"], rec["k"], rec["rep"]] = rec
    groups: dict[tuple, list[tuple[float, float]]] = {}
    for rec in records:
        base = baselines.get((rec["dataset"], rec["k"], rec["rep"]))
        if base is None or rec["algorithm"] == "kmeanspp":
            continue
        cost, base_cost = rec["cost_nearest"], base["cost_nearest"]  # every bench run has one
        rec_ms, base_ms = rec["wall_time_ms"]["call"], base["wall_time_ms"]["call"]
        ratio = cost / base_cost if base_cost else float("nan")
        speedup = base_ms / rec_ms if rec_ms else float("nan")
        key = tuple(rec[f] for f in ("suite", "algorithm", "dataset", "k", "alpha", "rel_size"))
        groups.setdefault(key, []).append((ratio, speedup))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["suite", "algorithm", "dataset", "k", "alpha", "rel_size",
             "mean_cost_ratio", "mean_speedup_vs_kmeanspp", "reps"]
        )
        for key in sorted(groups, key=lambda t: tuple(str(x) for x in t)):
            vals = groups[key]
            mean_ratio = sum(v[0] for v in vals) / len(vals)
            mean_speedup = sum(v[1] for v in vals) / len(vals)
            writer.writerow([*key, f"{mean_ratio:.6g}", f"{mean_speedup:.6g}", len(vals)])


def cmd_bench(args) -> int:
    ks = [int(v) for v in args.ks.split(",") if v]
    rel_sizes = [float(v) for v in args.sizes.split(",") if v]
    alphas = [float(v) for v in args.alphas.split(",") if v]
    tasks = [
        {
            "suite": args.suite, "dataset": args.dataset, "k": k, "rep": rep,
            "seed": args.seed, "z": args.z, "rel_sizes": rel_sizes, "alphas": alphas,
        }
        for k in ks
        for rep in range(args.reps)
    ]
    records: list[dict] = []
    if args.jobs > 1:
        # spawned, not forked: forking a process whose BLAS threads run can deadlock
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=args.jobs, mp_context=spawn) as pool:
            for cell in pool.map(_run_cell, tasks):
                records.extend(cell)
    else:
        for task in tasks:
            records.extend(_run_cell(task))
    for rec in records:
        for field_name in ("cost_assignment", "cost_nearest"):
            val = rec[field_name]
            if val is not None and not (math.isfinite(val) and val >= 0):
                raise AssertionError(f"non-finite or negative {field_name} in {rec}")
    with open(args.out, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    summary_path = f"{args.out}.summary.csv"
    _summarize(records, summary_path)
    print(json.dumps({"command": "bench", "suite": args.suite, "records": len(records),
                      "out": args.out, "summary": summary_path}))
    return 0


# --- gen ---------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.kind == "gaussian-adversarial":
        data = gen_adversarial_gaussian(args.m, rng=args.seed)
    else:
        data, _ = gen_gaussian_mixture(
            args.k, args.per_cluster, args.d, args.separation, rng=args.seed
        )
    write_dense_csv(data, args.out)
    print(json.dumps({"command": "gen", "kind": args.kind, "n": data.n, "d": data.d,
                      "out": args.out}))
    return 0


# --- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prone", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster one input file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("csv", "sparse"), default="csv")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--z", type=_z_exponent, default=2.0)
    p.add_argument("--algo", choices=ALGORITHMS, default="prone")
    p.add_argument("--alpha", type=float, default=None, help="coreset fraction (boosted)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--assign-nearest", action="store_true",
                   help="also report the O(ndk) nearest-center cost")
    p.add_argument("--stats", action="store_true",
                   help="include seeding work counters in the JSON record")
    p.add_argument("--output", required=True, help="prefix for .centers.csv / .labels.txt")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("bench", help="run a benchmark suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--dataset", required=True,
                   help=f"builtin name {BUILTIN_DATASETS} or a CSV path")
    p.add_argument("--ks", default="10", help="comma-separated k values")
    p.add_argument("--z", type=_z_exponent, default=2.0)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", default="0.001,0.0025,0.005,0.01,0.025,0.05,0.1",
                   help="relative coreset sizes (coreset suite)")
    p.add_argument("--alphas", default="0.001,0.01,0.1",
                   help="coreset fractions (boosted suite)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--out", required=True, help="JSON-lines output path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    pa = gen_sub.add_parser("gaussian-adversarial", help="mirrored clusters + tiny origin cluster")
    pa.add_argument("--m", type=_positive_int, required=True, help="points per cluster")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=cmd_gen)
    pm = gen_sub.add_parser("mixture", help="uniform-center Gaussian mixture")
    pm.add_argument("--k", type=_positive_int, required=True)
    pm.add_argument("--per-cluster", type=_positive_int, required=True)
    pm.add_argument("--d", type=_positive_int, required=True)
    pm.add_argument("--separation", type=float, required=True)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--out", required=True)
    pm.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
