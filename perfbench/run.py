"""Benchmark of the prone library: four closed-loop workloads.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
One process makes one call at a time and waits for it (a closed loop with a
single client), for S seconds and at least a workload's minimum number of
calls. Every call's output is checked. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, measured without tracing;
with ``--trace 1`` each call runs once untraced and once traced with the same
seed, and the metrics are the per-layer ones from the traced calls. The
lines before it give every metric by name and unit, the recorded
environment, and a digest of the checked results. ``--tiny`` shrinks every
data set tenfold, for the smoke test. See README.md beside this file.
"""

from __future__ import annotations

import os

# One BLAS thread, in this process and in the CLI children, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402  (this script's directory is on sys.path)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CLUSTERS, D, SEPARATION = 50, 16, 1000.0
PREPARES = 3  # set-ups per run; setup_s reports their median
CHILD_TIMEOUT_S = 120  # a CLI child still running after this is killed and counted as failed


@dataclass(frozen=True)
class Spec:
    """One workload: data size, the call it makes, and its stated dominant layers.

    ``dominant`` lists (span, "total" | "self") pairs whose sum, as a share of
    span ``whole``, is reported as ``trace.dominant_share``.
    """

    kind: str
    per_cluster: int
    k: int
    z: float
    min_reps: int
    dominant: tuple
    whole: str
    alpha: float = 0.0


WORKLOADS = {
    "large-n": Spec(
        "prone", 20000, 50, 2.0, 5,
        (("seeding1d.assign_to_sorted_centers", "total"), ("baseline.centers_of_mass", "total")),
        "pipeline.prone",
    ),
    "many-centers": Spec(
        "prone", 2000, 1000, 2.0, 20,
        (("sampling_tree.find", "total"), ("sampling_tree.update", "total"),
         ("seeding1d.seed_1d_fast", "self")),
        "pipeline.prone",
    ),
    "boosted": Spec(
        "boosted", 4000, 100, 2.0, 3,
        (("coreset.sample_coreset", "total"),), "coreset.boosted_prone", alpha=0.01,
    ),
    "cli-csv": Spec("cli", 2000, 50, 1.0, 3, (("dataset.load_dense_csv", "total"),), "cli.child"),
}


def import_program():
    """Import numpy and the library from this checkout's ``src``, or exit non-zero."""
    if not (SRC / "prone" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'prone'} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import numpy as np

    import prone
    import prone.baseline
    import prone.coreset
    import prone.dataset
    import prone.pipeline

    if Path(prone.__file__).resolve().parent != (SRC / "prone").resolve():
        raise SystemExit(f"error: imported prone from {prone.__file__}, not from {SRC}")
    return prone, np


def environment(np) -> dict:
    """CPU, core count and library versions; nothing here is measured."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import scipy

    try:
        openblas = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Workload:
    """Data set-up, one call, its checks and its fingerprint, for one kind of call."""

    in_process = True
    call_keys: tuple | None = None  # the timed parts that make up call_s; None means all

    def __init__(self, spec: Spec, prone, np, workdir: Path) -> None:
        self.spec, self.P, self.np, self.workdir = spec, prone, np, workdir
        self.n = CLUSTERS * spec.per_cluster
        self.csv_bytes = 0
        self.true_cost = float("nan")
        self.absent: set[str] = set()

    def prepare(self, data_seed: int) -> tuple[float, float]:
        """Generate the data; return (set-up seconds, generator seconds)."""
        self.data = None
        t0 = time.perf_counter()
        self.data, self.centers = self.P.dataset.gen_gaussian_mixture(
            CLUSTERS, self.spec.per_cluster, D, SEPARATION, rng=data_seed
        )
        gen_s = time.perf_counter() - t0
        return gen_s, gen_s

    def set_reference(self) -> None:
        """Cost of the generator's true centers, the denominator of the cost ratio."""
        self.true_cost = self.P.baseline.cost_with_nearest(self.data, self.centers, self.spec.z)

    def _check_model(self, centers, labels, cost) -> list[str]:
        np, k = self.np, self.spec.k
        problems = []
        centers, labels = np.asarray(centers), np.asarray(labels)
        if centers.shape != (k, D) or not np.isfinite(centers).all():
            problems.append(f"centers: shape {centers.shape} or non-finite, expected ({k}, {D})")
        if labels.shape != (self.n,) or labels.min() < 0 or labels.max() >= k:
            problems.append(f"labels: shape {labels.shape} or outside [0, {k})")
        if not (math.isfinite(cost) and cost > 0):
            problems.append(f"cost {cost!r} is not finite and positive")
        return problems

    def cost_ratios(self, result) -> dict:
        """Each named cost of the result over the true centers' cost; the first is the headline."""
        return {name: cost / self.true_cost for name, cost in self.costs(result).items()}


class ProneWorkload(Workload):
    def call(self, seed: int, reference: bool = True):
        pl = self.P.pipeline
        cfg = pl.ProneConfig(k=self.spec.k, z=self.spec.z, seed=seed)
        t0 = time.perf_counter()
        res = pl.prone(self.data, cfg)
        return {"prone_s": time.perf_counter() - t0}, res, {}

    def check(self, res, full: bool) -> list[str]:
        model = res.model
        problems = self._check_model(model.centers, model.assignment, model.cost)
        if res.seeding.k_found != self.spec.k:
            problems.append(f"k_found {res.seeding.k_found} != k {self.spec.k}")
        if full and not problems:
            again = self.P.baseline.cost_with_assignment(
                self.data, model.centers, model.assignment, self.spec.z
            )
            if not math.isclose(again, model.cost, rel_tol=1e-9):
                problems.append(f"recomputed cost {again!r} != reported {model.cost!r}")
        return problems

    def fingerprint(self, res) -> bytes:
        return res.seeding.center_indices.tobytes() + self.np.float64(res.model.cost).tobytes()

    def costs(self, res) -> dict:
        return {"prone_cost_ratio": res.model.cost}


class BoostedWorkload(Workload):
    """Boosted prone plus full-data labels; k-means++ on the same data is the reference.

    The reference takes about twice as long as the timed call, so it runs only
    when ``reference`` is true: on the first ``min_reps`` calls, whose costs
    make the cost ratios.
    """

    call_keys = ("boosted_s", "assign_nearest_s")

    def call(self, seed: int, reference: bool = True):
        np, spec = self.np, self.spec
        t0 = time.perf_counter()
        res = self.P.coreset.boosted_prone(
            self.data, spec.k, spec.z, spec.alpha, np.random.Generator(np.random.Philox(seed)))
        t1 = time.perf_counter()
        evaluated = res.evaluate(self.data)
        t2 = time.perf_counter()
        times = {"boosted_s": t1 - t0, "assign_nearest_s": t2 - t1}
        ref = None
        if reference:
            ref = self.P.baseline.kmeanspp_seed(
                self.data, spec.k, spec.z, np.random.Generator(np.random.Philox(seed)))
            times["kmeanspp_s"] = time.perf_counter() - t2
        return times, (res, evaluated, ref), {}

    def check(self, out, full: bool) -> list[str]:
        np = self.np
        res, ev, reference = out
        problems = self._check_model(ev.centers, ev.assignment, ev.cost)
        if reference is not None:
            problems += [f"k-means++ {p}" for p in self._check_model(
                reference.centers, reference.assignment, reference.cost)]
        size = math.ceil(self.spec.alpha * self.n)
        weights = np.asarray(res.coreset.weights)
        if res.coreset.size != size:
            problems.append(f"coreset size {res.coreset.size} != ceil(alpha n) = {size}")
        if not (np.isfinite(weights).all() and (weights > 0).all()):
            problems.append("coreset weights are not all finite and positive")
        return problems

    def fingerprint(self, out) -> bytes:
        res, ev, reference = out
        return (res.prone_result.seeding.center_indices.tobytes()
                + res.coreset.source_indices.tobytes()
                + ev.centers.tobytes() + ev.assignment.tobytes()
                + (b"" if reference is None else reference.centers.tobytes()))

    def costs(self, out) -> dict:
        return {"boosted_cost_ratio": out[1].cost, "kmeanspp_cost_ratio": out[2].cost}


@dataclass(frozen=True)
class CliResult:
    code: int
    record: dict | None
    labels: bytes
    centers: bytes


class CliWorkload(Workload):
    """``prone cluster`` on a CSV file, one child process per call."""

    in_process = False

    def prepare(self, data_seed: int) -> tuple[float, float]:
        gen_s, _ = super().prepare(data_seed)
        self.csv = self.workdir / "data.csv"
        t0 = time.perf_counter()
        self.P.dataset.write_dense_csv(self.data, self.csv)
        self.csv_bytes = self.csv.stat().st_size
        return gen_s + time.perf_counter() - t0, gen_s

    def call(self, seed: int, reference: bool = True, traced: bool = False):
        spec = self.spec
        prefix = self.workdir / "result"
        args = ["cluster", "--input", str(self.csv), "--k", str(spec.k), "--z", str(spec.z),
                "--assign-nearest", "--stats", "--seed", str(seed), "--output", str(prefix)]
        trace_path = self.workdir / "trace.json"
        if traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_path), *args]
        else:
            cmd = [sys.executable, "-m", "prone.cli", *args]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out_path = self.workdir / "stdout.txt"
        with open(out_path, "wb") as out, open(self.workdir / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)  # wait4, unlike wait, gives this child's peak
            wall = time.perf_counter() - t0
            watchdog.cancel()
            watchdog.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = None
        lines = out_path.read_text(encoding="utf-8").strip().splitlines()
        try:
            record = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            pass
        labels, centers = Path(f"{prefix}.labels.txt"), Path(f"{prefix}.centers.csv")
        result = CliResult(
            proc.returncode, record if isinstance(record, dict) else None,
            labels.read_bytes() if labels.exists() else b"",
            centers.read_bytes() if centers.exists() else b"",
        )
        notes = {"peak_rss_mb": usage.ru_maxrss / 1024}
        try:
            notes["startup_s"] = wall - record["wall_time_ms"]["total"] / 1e3
        except (KeyError, TypeError):
            self.absent.add("record:wall_time_ms.total")
        if traced:
            trace = json.loads(trace_path.read_text(encoding="utf-8")) if trace_path.exists() else {
                "spans": {}, "counters": {}, "absent": []}
            trace["spans"]["cli.child"] = {"total": wall, "self": wall, "calls": 1, "durations": [wall]}
            notes["trace"] = trace
        for path in (trace_path, labels, centers):
            path.unlink(missing_ok=True)
        return {"cli_s": wall}, result, notes

    def check(self, res: CliResult, full: bool) -> list[str]:
        k = self.spec.k
        if res.code != 0:
            return [f"exit status {res.code}"]
        if res.record is None:
            return ["last stdout line is not a JSON record"]
        problems = []
        labels = res.labels.split()
        if len(labels) != self.n:
            problems.append(f"labels file has {len(labels)} lines, expected {self.n}")
        elif not all(0 <= int(v) < k for v in labels):
            problems.append(f"labels outside [0, {k})")
        rows = res.centers.decode().splitlines()
        if len(rows) != k or any(len(r.split(",")) != D for r in rows):
            problems.append(f"centers file is not {k} rows of {D} values")
        return problems

    def fingerprint(self, res: CliResult) -> bytes:
        return res.labels + res.centers

    def costs(self, res: CliResult) -> dict:
        cost = (res.record or {}).get("cost_nearest")
        if cost is None:
            self.absent.add("record:cost_nearest")
            return {}
        return {"cli_cost_ratio": cost}


KINDS = {"prone": ProneWorkload, "boosted": BoostedWorkload, "cli": CliWorkload}


def derive_seed(np, workload_seed: int, *key: int) -> int:
    """A 64-bit seed for one purpose, derived from the workload seed."""
    seq = np.random.SeedSequence(entropy=workload_seed, spawn_key=key)
    return int(seq.generate_state(1, np.uint64)[0])


def attempt(w: Workload, seed: int, rec=None, full: bool = False, reference: bool = True):
    """One checked call, traced when ``rec`` is a Tracer.

    ``full`` adds the costly checks; ``reference`` runs the workload's
    reference algorithm, if it has one. Returns ((times, result, notes) or
    None, list of problems).
    """
    try:
        if rec is None:
            times, result, notes = w.call(seed, reference)
        elif w.in_process:
            rec.install(tracer.LIBRARY_TARGETS)
            try:
                times, result, notes = w.call(seed, reference)
            finally:
                rec.uninstall()
                trace = rec.take()
            notes["trace"] = trace
        else:
            times, result, notes = w.call(seed, reference, traced=True)
        problems = w.check(result, full)
    except Exception as exc:  # a failed call is counted, and the loop goes on
        return None, [f"{type(exc).__name__}: {exc}"]
    return (None if problems else (times, result, notes)), problems


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> str:
    """Sample count, median and the highest percentile with at least ten samples beyond it."""
    m = len(values)
    text = f"n={m} median={median(values):.6g}"
    p = math.floor(100 - 1000 / m) if m else 0
    if p > 50:
        q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
        text += f" p{p}={q:.6g}"
    return text


def measure(w: Workload, args, gen_s: float) -> dict:
    """The timed loop; runs in a forked process whose peak memory is the workload's."""
    np, spec = w.np, w.spec
    rec = tracer.Tracer() if args.trace else None
    attempted = failed = 0
    errors: list[str] = []
    untraced, traced, notes_u, summaries = [], [], [], []
    ratios, digest = {}, hashlib.sha256()

    def call_s(times):
        return sum(v for key, v in times.items() if w.call_keys is None or key in w.call_keys)

    start = time.perf_counter()
    i = 0
    while i < spec.min_reps or time.perf_counter() - start < args.seconds:
        seed = derive_seed(np, args.seed, 1, i)
        modes = [False] if not args.trace else ([False, True] if i % 2 == 0 else [True, False])
        done = {}
        for is_traced in modes:
            attempted += 1
            out, problems = attempt(w, seed, rec if is_traced else None, full=i == 0,
                                    reference=i < spec.min_reps)
            if out is None:
                failed += 1
                errors.append(f"call {i} ({'traced' if is_traced else 'untraced'}): {'; '.join(problems)}")
            else:
                done[is_traced] = out
        if len(done) == 2 and w.fingerprint(done[True][1]) != w.fingerprint(done[False][1]):
            failed += 1
            errors.append(f"call {i}: the traced result differs from the untraced one")
            del done[True]
        if False in done:
            times, result, notes = done[False]
            untraced.append(times)
            notes_u.append(notes)
            if i < spec.min_reps:
                digest.update(w.fingerprint(result))
                for name, ratio in w.cost_ratios(result).items():
                    ratios.setdefault(name, []).append(ratio)
        if True in done:
            times, result, notes = done[True]
            traced.append(call_s(times))
            summaries.append(notes["trace"])
        done.clear()
        i += 1
    if w.in_process:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        peak = median(n["peak_rss_mb"] for n in notes_u)
    geomeans = {name: math.exp(statistics.fmean(map(math.log, v))) for name, v in ratios.items()}
    payload = {
        "attempted": attempted, "failed": failed, "errors": errors[:20], "reps": i,
        "call_s": [call_s(t) for t in untraced],
        "named": {key: [t[key] for t in untraced if key in t]
                  for key in (untraced[0] if untraced else {})},
        "ratios": geomeans, "digest": digest.hexdigest(), "peak_rss_mb": peak,
    }
    if args.trace:
        headline = next(iter(geomeans.values()), 0.0)
        payload["per_layer"], payload["spans"], payload["absent"] = per_layer(
            w, summaries, payload["call_s"], traced, notes_u, gen_s, headline)
    return payload


def per_layer(w: Workload, summaries, call_untraced, call_traced, notes, gen_s, ratio):
    """Per-layer metrics from the traced calls; counts come from the first min_reps calls only."""
    spec = w.spec
    fixed = summaries[: spec.min_reps]

    def span(name, field="total"):
        return lambda s: s["spans"].get(name, {}).get(field, 0)

    def counter(name):
        return lambda s: s["counters"].get(name, 0)

    def div(a, b):
        return a / b if b else 0.0

    def t(name, field="total"):
        return median(map(span(name, field), summaries))

    def c(name):
        return median(map(counter(name), fixed))

    def per_call_us(name):
        return 1e6 * median(d for s in summaries for d in s["spans"].get(name, {}).get("durations", []))

    def rate(amount, name):
        return median(div(amount(s), span(name)(s)) for s in summaries)

    absent = sorted(set(w.absent).union(*(s["absent"] for s in summaries)))
    metrics = {
        "projection.sample_direction_s": (t("projection.sample_direction"), "s"),
        "projection.project_s": (t("projection.project"), "s"),
        "projection.project_gbps": (
            rate(lambda s: counter("project_points")(s) * D * 8 / 1e9, "projection.project"),
            "GB/s-computed"),
        "seeding1d.seed_1d_fast_s": (t("seeding1d.seed_1d_fast"), "s"),
        "seeding1d.self_s": (t("seeding1d.seed_1d_fast", "self"), "s"),
        "seeding1d.assign_to_sorted_centers_s": (t("seeding1d.assign_to_sorted_centers"), "s"),
        "seeding1d.draws": (c("draws"), "count"),
        "seeding1d.total_updates": (c("total_updates"), "count"),
        "seeding1d.comparisons": (c("comparisons"), "count"),
        "seeding1d.updates_per_n_log_n": (
            median(div(counter("total_updates")(s), counter("n_log2_n")(s)) for s in fixed), "ratio"),
        "seeding1d.exhausted": (c("exhausted"), "count"),
        "sampling_tree.init_s": (t("sampling_tree.init"), "s"),
        "sampling_tree.find_s": (t("sampling_tree.find"), "s"),
        "sampling_tree.find_calls": (median(map(span("sampling_tree.find", "calls"), fixed)), "count"),
        "sampling_tree.find_us": (per_call_us("sampling_tree.find"), "us"),
        "sampling_tree.update_s": (t("sampling_tree.update"), "s"),
        "sampling_tree.update_calls": (median(map(span("sampling_tree.update", "calls"), fixed)), "count"),
        "sampling_tree.update_us": (per_call_us("sampling_tree.update"), "us"),
        "sampling_tree.leaf_writes": (c("leaf_writes"), "count"),
        "sampling_tree.internal_writes": (c("internal_writes"), "count"),
        "baseline.centers_of_mass_s": (t("baseline.centers_of_mass"), "s"),
        "baseline.relocated": (c("relocated"), "count"),
        "baseline.cost_with_assignment_s": (t("baseline.cost_with_assignment"), "s"),
        "baseline.nearest_assignment_s": (t("baseline.nearest_assignment"), "s"),
        "baseline.nearest_assignment_gflops": (
            rate(lambda s: counter("nearest_flops")(s) / 1e9, "baseline.nearest_assignment"),
            "GFLOP/s-computed"),
        "baseline.kmeanspp_seed_s": (median(map(span("baseline.kmeanspp_seed"), fixed)), "s"),
        "coreset.prone_s": (t("coreset.prone"), "s"),
        "coreset.sensitivity_distribution_s": (t("coreset.sensitivity_distribution"), "s"),
        "coreset.sample_coreset_s": (t("coreset.sample_coreset"), "s"),
        "coreset.weighted_seed_s": (t("coreset.weighted_seed"), "s"),
        "coreset.size": (c("coreset_size"), "count"),
        "coreset.weight_sum_over_n": (c("coreset_weight_sum") / w.n, "ratio"),
        "pipeline.prone_self_s": (
            median(sum(span(x, "self")(s) for x in ("pipeline.prone", "coreset.prone", "cli.prone"))
                   for s in summaries), "s"),
        "dataset.load_s": (t("dataset.load_dense_csv"), "s"),
        "dataset.load_mb_per_s": (rate(lambda s: w.csv_bytes / 1e6, "dataset.load_dense_csv"), "MB/s"),
        "cli.cluster_s": (t("cli.cmd_cluster"), "s"),
        "cli.startup_s": (median(n["startup_s"] for n in notes if "startup_s" in n), "s"),
        "dataset.gen_gaussian_mixture_s": (gen_s, "s"),
        "trace.overhead_frac": (div(median(call_traced), median(call_untraced)) - 1.0, "ratio"),
        "trace.absent_layers": (len(absent), "count"),
        "trace.dominant_share": (
            median(div(sum(span(n, f)(s) for n, f in spec.dominant), span(spec.whole)(s))
                   for s in summaries), "ratio"),
        "result.cost_ratio": (ratio, "x"),
    }
    names = sorted({name for s in summaries for name in s["spans"]})
    spans = {name: tail([d for s in summaries for d in s["spans"].get(name, {}).get("durations", [])])
             for name in names}
    return metrics, spans, absent


def in_fork(fn) -> dict:
    """Run ``fn`` in a forked child and return its JSON-able result.

    The child's peak resident memory starts from what is resident at the
    fork, so set-up peaks do not hide the measured calls' own peak.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 1
        data = b""
        try:
            data = json.dumps(fn()).encode()
            code = 0
        except BaseException:  # reported by the parent as a failed measurement
            traceback.print_exc()
        finally:
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        raw = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not raw:
        raise RuntimeError("the measurement process failed")
    return json.loads(raw)


def run(args) -> int:
    t0 = time.perf_counter()
    prone, np = import_program()
    import_s = time.perf_counter() - t0
    spec = WORKLOADS[args.workload]
    if args.tiny:
        spec = replace(spec, per_cluster=spec.per_cluster // 10)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        w = KINDS[spec.kind](spec, prone, np, workdir)
        data_seed = derive_seed(np, args.seed, 0)
        prepares = [w.prepare(data_seed) for _ in range(PREPARES)]
        t0 = time.perf_counter()
        warm, problems = attempt(w, derive_seed(np, args.seed, 2), reference=False)
        warm_s = time.perf_counter() - t0
        del warm
        setup_s = import_s + median(p[0] for p in prepares) + warm_s
        w.set_reference()
        payload = in_fork(lambda: measure(w, args, median(p[1] for p in prepares)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = payload["attempted"] + 1
    failed = payload["failed"] + (1 if problems else 0)
    errors = ([f"warm-up: {'; '.join(problems)}"] if problems else []) + payload["errors"]
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    env = environment(np)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} n {w.n} d {D} "
          f"k {spec.k} z {spec.z} reps {payload['reps']}")
    print("env " + json.dumps(env))
    print(f"digest {payload['digest']}")
    end_to_end = {
        "call_s": (median(payload["call_s"]), "s"),
        "peak_rss_mb": (payload["peak_rss_mb"], "MB"),
        "setup_s": (setup_s, "s"),
    }
    for key, samples in payload["named"].items():
        print(f"metric {key} {median(samples):.6g} s ({tail(samples)})")
    for key, value in payload["ratios"].items():
        print(f"metric {key} {value:.6g} x (geometric mean of the first {spec.min_reps} calls)")
    print(f"metric error_rate {failed / attempted:.6g} fraction ({failed} of {attempted})")
    for key, (value, unit) in end_to_end.items():
        print(f"metric {key} {value:.6g} {unit}")
    metrics = end_to_end
    if args.trace:
        metrics = payload["per_layer"]
        for key, (value, unit) in metrics.items():
            print(f"layer {key} {value:.6g} {unit}")
        for key, text in payload["spans"].items():
            print(f"span {key} {text}")
        print("absent " + json.dumps(payload["absent"]))
        trace_file = OUT / f"{args.workload}-seed{args.seed}-trace.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": env,
            "per_layer": metrics, "spans": payload["spans"], "absent": payload["absent"],
            "note": "GB/s and GFLOP/s figures are computed from n, k and d, not measured",
        }, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tenfold smaller data (smoke test)")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
