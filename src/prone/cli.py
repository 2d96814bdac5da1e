"""Command-line interface: cluster one file, run benchmark suites, generate data.

Subcommands
-----------
cluster   run one algorithm on one input file, write centers + labels,
          print a single JSON record to stdout.
bench     run a suite (direct | coreset | boosted) over a grid of k values
          and repetitions, writing one JSON line per cell to --out and a
          summary CSV (mean cost ratio and speedup per cell) next to it.
gen       write a synthetic dataset (mixture | adversarial) to CSV.

Benchmark cells with the same (k, rep) share a derived seed so that cost
ratios and speedups are paired. --jobs N (default: the PRONE_THREADS
environment variable, else 1) runs cells in parallel processes; each cell
itself stays single-threaded so wall-clock comparisons are fair.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from ._util import check_z
from .baseline import cost_with_nearest, kmeanspp_seed, lloyd_iterate
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

ALGORITHMS = ("prone", "prone-variance", "prone-covariance", "kmeanspp", "boosted")
SUITES = ("direct", "coreset", "boosted")
BUILTIN_DATASETS = ("gaussian-small", "gaussian-large", "gaussian-adversarial")


@dataclass
class ExperimentRecord:
    """One benchmark cell; serialized as a single JSON line."""

    suite: str
    algorithm: str
    dataset: str
    n: int
    d: int
    k: int
    z: float
    seed: int
    rep: int
    alpha: float | None = None
    rel_size: float | None = None
    cost_assignment: float | None = None
    cost_nearest: float | None = None
    wall_time_ms: dict | None = None
    total_updates: int | None = None
    k_found: int | None = None


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


def _variant_of(algo: str) -> str:
    return {"prone": "standard", "prone-variance": "variance", "prone-covariance": "covariance"}[
        algo
    ]


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


# --- cluster -----------------------------------------------------------


def cmd_cluster(args) -> int:
    t_load = time.perf_counter()
    data = _load_dataset(args.input, args.format)
    load_ms = 1e3 * (time.perf_counter() - t_load)
    record: dict = {
        "command": "cluster",
        "algorithm": args.algo,
        "input": args.input,
        "n": data.n,
        "d": data.d,
        "k": args.k,
        "z": args.z,
        "seed": args.seed,
        "alpha": args.alpha,
    }
    t0 = time.perf_counter()
    if args.algo in ("prone", "prone-variance", "prone-covariance"):
        res = prone(data, ProneConfig(k=args.k, z=args.z, variant=_variant_of(args.algo), seed=args.seed))
        centers = res.model.centers
        labels = res.model.assignment
        record["cost_assignment"] = res.model.cost
        record["k_found"] = res.seeding.k_found
        record["exhausted"] = res.exhausted
        record["total_updates"] = res.seeding_stats.total_updates
        record["wall_time_ms"] = {p: 1e3 * v for p, v in res.timings.items()}
        if args.stats:
            record["stats"] = {
                "total_updates": res.seeding_stats.total_updates,
                "comparisons": res.seeding_stats.comparisons,
            }
        if args.assign_nearest:
            record["cost_nearest"] = cost_with_nearest(data, centers, args.z)
    elif args.algo == "kmeanspp":
        model = kmeanspp_seed(data, args.k, args.z, _cell_rng(args.seed, args.k, 0))
        centers = model.centers
        labels = model.assignment
        record["cost_assignment"] = model.cost
        record["cost_nearest"] = model.cost
        record["k_found"] = model.k
    else:  # boosted
        if args.alpha is None:
            print("error: --alpha is required for --algo boosted", file=sys.stderr)
            return 2
        try:
            boosted = boosted_prone(
                data, args.k, args.z, args.alpha, _cell_rng(args.seed, args.k, 0)
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        evaluated = boosted.evaluate(data)
        centers = evaluated.centers
        labels = evaluated.assignment
        record["cost_nearest"] = evaluated.cost
        record["cost_assignment"] = evaluated.cost
        record["k_found"] = evaluated.k
        record["wall_time_ms"] = {p: 1e3 * v for p, v in boosted.timings.items()}
        if args.stats:
            record["stats"] = {
                "total_updates": boosted.prone_result.seeding_stats.total_updates,
                "comparisons": boosted.prone_result.seeding_stats.comparisons,
            }
    record.setdefault("wall_time_ms", {})
    record["wall_time_ms"]["load"] = load_ms
    record["wall_time_ms"]["total"] = load_ms + 1e3 * (time.perf_counter() - t0)

    centers_path = f"{args.output}.centers.csv"
    labels_path = f"{args.output}.labels.txt"
    write_dense_csv(Dataset(np.atleast_2d(centers)), centers_path)
    with open(labels_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{int(v)}\n" for v in labels)
    record["centers_file"] = centers_path
    record["labels_file"] = labels_path
    print(json.dumps(record))
    return 0


# --- bench -------------------------------------------------------------


def _bench_direct_cell(dataset: str, k: int, rep: int, seed: int, z: float) -> list[ExperimentRecord]:
    data = _load_dataset(dataset)
    out = []
    for algo in ("prone", "prone-variance", "prone-covariance", "kmeanspp"):
        rng = _cell_rng(seed, k, rep)
        t0 = time.perf_counter()
        if algo == "kmeanspp":
            model = kmeanspp_seed(data, k, z, rng)
            seed_ms = 1e3 * (time.perf_counter() - t0)
            rec = ExperimentRecord(
                suite="direct", algorithm=algo, dataset=dataset, n=data.n, d=data.d,
                k=k, z=z, seed=seed, rep=rep,
                cost_assignment=model.cost, cost_nearest=model.cost,
                wall_time_ms={"seed": seed_ms}, k_found=model.k,
            )
        else:
            res = prone(data, ProneConfig(k=k, z=z, variant=_variant_of(algo)), rng=rng)
            seed_ms = 1e3 * (time.perf_counter() - t0)
            rec = ExperimentRecord(
                suite="direct", algorithm=algo, dataset=dataset, n=data.n, d=data.d,
                k=k, z=z, seed=seed, rep=rep,
                cost_assignment=res.model.cost,
                cost_nearest=cost_with_nearest(data, res.model.centers, z),
                wall_time_ms={"seed": seed_ms, **{p: 1e3 * v for p, v in res.timings.items()}},
                total_updates=res.seeding_stats.total_updates,
                k_found=res.seeding.k_found,
            )
        out.append(rec)
    return out


def _train_on_coreset(coreset, k: int, z: float, rng) -> np.ndarray:
    model = kmeanspp_seed(coreset.points, k, z, rng, weights=coreset.weights)
    if z == 2:
        model = lloyd_iterate(coreset.points, model, weights=coreset.weights)
    return model.centers


def _bench_coreset_cell(
    dataset: str, k: int, rep: int, seed: int, z: float, rel_sizes: list[float]
) -> list[ExperimentRecord]:
    data = _load_dataset(dataset)
    out = []
    # paired baseline: plain seeding plus refinement on the full data
    rng = _cell_rng(seed, k, rep)
    t0 = time.perf_counter()
    base_model = kmeanspp_seed(data, k, z, rng)
    if z == 2:
        base_model = lloyd_iterate(data, base_model)
    base_ms = 1e3 * (time.perf_counter() - t0)
    out.append(
        ExperimentRecord(
            suite="coreset", algorithm="kmeanspp", dataset=dataset, n=data.n, d=data.d,
            k=k, z=z, seed=seed, rep=rep,
            cost_nearest=cost_with_nearest(data, base_model.centers, z),
            wall_time_ms={"total": base_ms},
        )
    )
    for construction in ("sensitivity", "prone", "lightweight"):
        for rel in rel_sizes:
            s = math.ceil(rel * data.n)
            if s < k:
                continue  # not enough coreset points to seed k centers
            rng = _cell_rng(seed, k, rep)
            t0 = time.perf_counter()
            if construction == "sensitivity":
                dist = sensitivity_distribution(data, kmeanspp_seed(data, k, z, rng))
            elif construction == "prone":
                dist = sensitivity_distribution(
                    data, prone(data, ProneConfig(k=k, z=z), rng=rng).model
                )
            else:
                dist = lightweight_distribution(data)
            coreset = sample_coreset(data, dist, s, rng)
            construct_ms = 1e3 * (time.perf_counter() - t0)
            t1 = time.perf_counter()
            centers = _train_on_coreset(coreset, k, z, rng)
            train_ms = 1e3 * (time.perf_counter() - t1)
            out.append(
                ExperimentRecord(
                    suite="coreset", algorithm=construction, dataset=dataset,
                    n=data.n, d=data.d, k=k, z=z, seed=seed, rep=rep, rel_size=rel,
                    cost_nearest=cost_with_nearest(data, centers, z),
                    wall_time_ms={
                        "construct": construct_ms,
                        "train": train_ms,
                        "total": construct_ms + train_ms,
                    },
                )
            )
    return out


def _bench_boosted_cell(
    dataset: str, k: int, rep: int, seed: int, z: float, alphas: list[float]
) -> list[ExperimentRecord]:
    data = _load_dataset(dataset)
    out = []
    rng = _cell_rng(seed, k, rep)
    t0 = time.perf_counter()
    model = kmeanspp_seed(data, k, z, rng)
    kpp_ms = 1e3 * (time.perf_counter() - t0)
    out.append(
        ExperimentRecord(
            suite="boosted", algorithm="kmeanspp", dataset=dataset, n=data.n, d=data.d,
            k=k, z=z, seed=seed, rep=rep, cost_nearest=model.cost,
            wall_time_ms={"seed": kpp_ms},
        )
    )
    rng = _cell_rng(seed, k, rep)
    t0 = time.perf_counter()
    res = prone(data, ProneConfig(k=k, z=z), rng=rng)
    prone_ms = 1e3 * (time.perf_counter() - t0)
    out.append(
        ExperimentRecord(
            suite="boosted", algorithm="prone", dataset=dataset, n=data.n, d=data.d,
            k=k, z=z, seed=seed, rep=rep,
            cost_assignment=res.model.cost,
            cost_nearest=cost_with_nearest(data, res.model.centers, z),
            wall_time_ms={"seed": prone_ms},
            total_updates=res.seeding_stats.total_updates,
        )
    )
    for alpha in alphas:
        if math.ceil(alpha * data.n) < k:
            continue  # cell excluded: coreset smaller than k
        rng = _cell_rng(seed, k, rep)
        t0 = time.perf_counter()
        boosted = boosted_prone(data, k, z, alpha, rng)
        boost_ms = 1e3 * (time.perf_counter() - t0)
        out.append(
            ExperimentRecord(
                suite="boosted", algorithm=f"boosted", dataset=dataset, n=data.n,
                d=data.d, k=k, z=z, seed=seed, rep=rep, alpha=alpha,
                cost_nearest=cost_with_nearest(data, boosted.model.centers, z),
                wall_time_ms={"seed": boost_ms,
                              **{p: 1e3 * v for p, v in boosted.timings.items()}},
            )
        )
    return out


def _run_cell(task: dict) -> list[ExperimentRecord]:
    suite = task["suite"]
    if suite == "direct":
        return _bench_direct_cell(task["dataset"], task["k"], task["rep"], task["seed"], task["z"])
    if suite == "coreset":
        return _bench_coreset_cell(
            task["dataset"], task["k"], task["rep"], task["seed"], task["z"], task["rel_sizes"]
        )
    return _bench_boosted_cell(
        task["dataset"], task["k"], task["rep"], task["seed"], task["z"], task["alphas"]
    )


def _summarize(records: list[ExperimentRecord], path: str) -> None:
    """Mean cost ratio and speedup per (algorithm, k, alpha/size) cell vs kmeanspp."""
    baselines: dict[tuple, ExperimentRecord] = {}
    for rec in records:
        if rec.algorithm == "kmeanspp":
            baselines[(rec.dataset, rec.k, rec.rep)] = rec
    groups: dict[tuple, list[tuple[float, float]]] = {}
    for rec in records:
        base = baselines.get((rec.dataset, rec.k, rec.rep))
        if base is None or rec.algorithm == "kmeanspp":
            continue
        cost = rec.cost_nearest if rec.cost_nearest is not None else rec.cost_assignment
        base_cost = base.cost_nearest if base.cost_nearest is not None else base.cost_assignment
        rec_ms = rec.wall_time_ms.get("seed", rec.wall_time_ms.get("total"))
        base_ms = base.wall_time_ms.get("seed", base.wall_time_ms.get("total"))
        ratio = cost / base_cost if base_cost else float("nan")
        speedup = base_ms / rec_ms if rec_ms else float("nan")
        key = (rec.suite, rec.algorithm, rec.dataset, rec.k, rec.alpha, rec.rel_size)
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
    jobs = args.jobs if args.jobs is not None else int(os.environ.get("PRONE_THREADS", "1"))
    records: list[ExperimentRecord] = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for cell in pool.map(_run_cell, tasks):
                records.extend(cell)
    else:
        for task in tasks:
            records.extend(_run_cell(task))
    for rec in records:
        for field_name in ("cost_assignment", "cost_nearest"):
            val = getattr(rec, field_name)
            if val is not None and not (math.isfinite(val) and val >= 0):
                raise AssertionError(f"non-finite or negative {field_name} in {rec}")
    with open(args.out, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(asdict(rec)) + "\n")
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
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel worker processes (default: $PRONE_THREADS or 1)")
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
