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
so it reproduces that cell. Every command reads its input file afresh,
once. bench runs its cells one after another in the calling process.
Nothing pins the BLAS library's own worker threads, so a cell's matrix
products may use several, and the library's full-data passes run on up to
two CPUs of the affinity mask (``taskset`` limits both); compare wall-clock
times only between runs on the same host. A file that cannot be read or
a cost that is not finite ends a command with exit status 2 and one
``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._util import StageClock, check_fraction, check_nonnegative, check_seed, check_z
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
from .seeding1d import SeedingStats

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


def _load_dataset(name: str, fmt: str = "csv") -> Dataset:
    if name in BUILTIN_DATASETS:
        return _load_builtin(name)
    if fmt == "sparse":
        return load_sparse(name)
    return load_dense_csv(name)


def _cell_rng(seed: int, k: int, rep: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(k, rep))
    return np.random.Generator(np.random.Philox(ss))


def _checked(check, convert):
    """argparse type: ``check(convert(text))``, whose ValueError is a usage error."""
    def parse(text: str):
        try:
            return check(convert(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _check_positive(value: int) -> int:
    if value < 1:
        raise ValueError(f"must be a positive integer, got {value}")
    return value


_positive_int = _checked(_check_positive, int)


def _nonempty(entry: str) -> str:
    if not entry:
        raise ValueError("empty list entry")
    return entry


def _checked_list(check, convert):
    """argparse type: a comma-separated list, ``check(convert(entry))`` per entry."""
    return _checked(
        lambda values: [check(v) for v in values],
        lambda text: [convert(_nonempty(v)) for v in text.split(",")],
    )


# --- the algorithm table ----------------------------------------------


@dataclass
class Run:
    """What one algorithm run reports, whichever algorithm it was.

    ``timings`` holds seconds per stage. Every run's ``"call"`` entry is the
    whole algorithm call up to the centers, without any full-data
    nearest-center pass; the other entries are the library's own stage
    names, or ``construct`` and ``train`` in the coreset suite.
    ``cost_nearest`` is set only when the run got it for free, and ``stats``
    only for runs that seed in 1-D (a boosted run's come from its prone stage).
    """

    centers: np.ndarray
    labels: np.ndarray | None
    timings: dict
    cost_assignment: float | None = None
    cost_nearest: float | None = None
    stats: SeedingStats | None = None


def _prone_run(data, k, z, rng, alpha=None, variant="standard") -> Run:
    clock = StageClock()
    res = clock.lap("call", prone(data, ProneConfig(k=k, z=z, variant=variant), rng=rng))
    return Run(res.model.centers, res.model.assignment, {**res.timings, **clock.timings},
               res.model.cost, stats=res.seeding_stats)


def _kmeanspp_run(data, k, z, rng, alpha=None) -> Run:
    clock = StageClock()
    model = clock.lap("call", kmeanspp_seed(data, k, z, rng))
    return Run(model.centers, model.assignment, clock.timings, model.cost, model.cost)


def _boosted_run(data, k, z, rng, alpha=None) -> Run:
    if alpha is None:
        raise ValueError("--alpha is required for --algo boosted")
    clock = StageClock()
    boosted = clock.lap("call", boosted_prone(data, k, z, alpha, rng))
    model = clock.lap("evaluate", boosted.evaluate(data))
    return Run(model.centers, model.assignment, {**boosted.timings, **clock.timings},
               model.cost, model.cost, boosted.prone_result.seeding_stats)


# name -> fn(data, k, z, rng, alpha) -> Run. The entries look ``prone``,
# ``kmeanspp_seed`` and ``boosted_prone`` up in this module when called, so a
# tracer that replaces those names after import still sees every call.
ALGORITHMS = {
    "prone": _prone_run,
    "prone-covariance": partial(_prone_run, variant="covariance"),
    "kmeanspp": _kmeanspp_run,
    "boosted": _boosted_run,
}


def _with_nearest(run: Run, data, z: float) -> Run:
    """Fill in the O(ndk) nearest-center cost unless the run already has it."""
    if run.cost_nearest is None:
        run.cost_nearest = cost_with_nearest(data, run.centers, z)
    return run


def _record(head: dict, run: Run) -> dict:
    """One cluster or bench record: ``head``, then the fields taken from the run.

    A cost that is not finite and nonnegative raises a ``ValueError``: it
    would print as ``Infinity`` or ``NaN``, which is not JSON.
    """
    k_found = len(run.centers)  # every algorithm returns one center per center found
    costs = {"cost_assignment": run.cost_assignment, "cost_nearest": run.cost_nearest}
    return {
        **head,
        **{name: None if cost is None else check_nonnegative(cost, name)
           for name, cost in costs.items()},
        "k_found": k_found,
        "exhausted": k_found < head["k"],
        "total_updates": None if run.stats is None else run.stats.total_updates,
        "wall_time_ms": {stage: 1e3 * s for stage, s in run.timings.items()},
    }


# --- cluster -----------------------------------------------------------

# labels formatted per write; the text of one chunk is held at a time
_LABELS_PER_WRITE = 8192


def _write_labels(labels: np.ndarray, path: str) -> None:
    """Write one label per line, ``_LABELS_PER_WRITE`` labels per ``write``."""
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, labels.size, _LABELS_PER_WRITE):
            fh.write("\n".join(map(str, labels[lo : lo + _LABELS_PER_WRITE].tolist())) + "\n")


def cmd_cluster(args) -> int:
    clock = StageClock()
    data = clock.lap("load", _load_dataset(args.input, args.format))
    run = ALGORITHMS[args.algo](data, args.k, args.z, _cell_rng(args.seed, args.k, 0), args.alpha)
    if args.assign_nearest:
        _with_nearest(run, data, args.z)
    run.timings.update(clock.timings, total=clock.elapsed())
    # built first: a run whose record is refused writes no files
    record = _record({
        "command": "cluster", "algorithm": args.algo, "input": args.input,
        "n": data.n, "d": data.d, "k": args.k, "z": args.z, "seed": args.seed,
        "alpha": args.alpha,
    }, run)
    if args.stats:
        comparisons = None if run.stats is None else run.stats.comparisons
        record["stats"] = {"total_updates": record["total_updates"], "comparisons": comparisons}

    centers_path = f"{args.output}.centers.csv"
    labels_path = f"{args.output}.labels.txt"
    write_dense_csv(Dataset(np.atleast_2d(run.centers)), centers_path)
    _write_labels(run.labels, labels_path)
    record["centers_file"] = centers_path
    record["labels_file"] = labels_path
    print(json.dumps(record))
    return 0


# --- bench -------------------------------------------------------------


def _direct_cell(args, data, k, rng):
    for algo in ("prone", "prone-covariance", "kmeanspp"):
        yield algo, ALGORITHMS[algo](data, k, args.z, rng()), {}


def _fit(points, k: int, z: float, rng, weights=None) -> ClusteringModel:
    """k-means++ seeding, refined by Lloyd when z = 2."""
    model = kmeanspp_seed(points, k, z, rng, weights=weights)
    if z == 2:
        model = lloyd_iterate(points, model, weights=weights)
    return model


def _coreset_cell(args, data, k, rng):
    z = args.z
    # paired baseline: plain seeding plus refinement on the full data
    clock = StageClock()
    model = clock.lap("call", _fit(data, k, z, rng()))
    yield "kmeanspp", Run(model.centers, model.assignment, clock.timings), {}
    for construction in ("sensitivity", "prone", "lightweight"):
        for rel in args.sizes:
            s = math.ceil(rel * data.n)
            if s < k:
                continue  # not enough coreset points to seed k centers
            gen = rng()
            clock = StageClock()
            if construction == "lightweight":
                dist = lightweight_distribution(data)
            else:
                algo = "kmeanspp" if construction == "sensitivity" else "prone"
                base = ALGORITHMS[algo](data, k, z, gen)
                dist = sensitivity_distribution(
                    data, ClusteringModel(base.centers, base.labels, base.cost_assignment, z)
                )
            coreset = clock.lap("construct", sample_coreset(data, dist, s, gen))
            model = clock.lap("train", _fit(coreset.points, k, z, gen, coreset.weights))
            run = Run(model.centers, None, {**clock.timings, "call": clock.elapsed()})
            yield construction, run, {"rel_size": rel}


def _boosted_cell(args, data, k, rng):
    for algo in ("kmeanspp", "prone"):
        yield algo, ALGORITHMS[algo](data, k, args.z, rng()), {}
    for alpha in args.alphas:
        if math.ceil(alpha * data.n) < k:
            continue  # cell excluded: coreset smaller than k
        yield "boosted", ALGORITHMS["boosted"](data, k, args.z, rng(), alpha), {"alpha": alpha}


_CELLS = {"direct": _direct_cell, "coreset": _coreset_cell, "boosted": _boosted_cell}


def _run_cell(args, data: Dataset, k: int, rep: int) -> list[dict]:
    """All records of one (k, rep) cell; every run starts from the cell's seed."""
    runs = _CELLS[args.suite](args, data, k, lambda: _cell_rng(args.seed, k, rep))
    return [
        _record({
            "suite": args.suite, "algorithm": algo, "dataset": args.dataset,
            "n": data.n, "d": data.d, "k": k, "z": args.z, "seed": args.seed, "rep": rep,
            "alpha": None, "rel_size": None, **extra,
        }, _with_nearest(run, data, args.z))
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
    # read once per run: every cell gets this copy, and a bad file is a
    # usage error before any cell runs
    data = _load_dataset(args.dataset)
    records = [
        rec for k in args.ks for rep in range(args.reps) for rec in _run_cell(args, data, k, rep)
    ]
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
    p.add_argument("--z", type=_checked(check_z, float), default=2.0)
    p.add_argument("--algo", choices=ALGORITHMS, default="prone")
    p.add_argument("--alpha", type=_checked(partial(check_fraction, name="alpha"), float),
                   default=None, help="coreset fraction (boosted)")
    p.add_argument("--seed", type=_checked(check_seed, int), default=0)
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
    p.add_argument("--ks", type=_checked_list(_check_positive, int), default="10",
                   help="comma-separated k values")
    p.add_argument("--z", type=_checked(check_z, float), default=2.0)
    p.add_argument("--reps", type=_positive_int, default=3)
    p.add_argument("--seed", type=_checked(check_seed, int), default=0)
    p.add_argument("--sizes", type=_checked_list(partial(check_fraction, name="rel_size"), float),
                   default="0.001,0.0025,0.005,0.01,0.025,0.05,0.1",
                   help="relative coreset sizes (coreset suite)")
    p.add_argument("--alphas", type=_checked_list(partial(check_fraction, name="alpha"), float),
                   default="0.001,0.01,0.1", help="coreset fractions (boosted suite)")
    p.add_argument("--out", required=True, help="JSON-lines output path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    pa = gen_sub.add_parser("gaussian-adversarial", help="mirrored clusters + tiny origin cluster")
    pa.add_argument("--m", type=_positive_int, required=True, help="points per cluster")
    pa.add_argument("--seed", type=_checked(check_seed, int), default=0)
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=cmd_gen)
    pm = gen_sub.add_parser("mixture", help="uniform-center Gaussian mixture")
    pm.add_argument("--k", type=_positive_int, required=True)
    pm.add_argument("--per-cluster", type=_positive_int, required=True)
    pm.add_argument("--d", type=_positive_int, required=True)
    pm.add_argument("--separation", required=True,
                    type=_checked(partial(check_nonnegative, name="separation"), float))
    pm.add_argument("--seed", type=_checked(check_seed, int), default=0)
    pm.add_argument("--out", required=True)
    pm.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a command refuses every number it would report that is not finite,
        # and that ``error:`` line is the whole message: numpy's overflow
        # warnings on the way there would print ahead of it, with a library path
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
