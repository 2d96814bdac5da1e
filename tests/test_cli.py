"""CLI contract tests: subcommands, exit codes, file outputs, bench record counts."""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

import prone.cli
from prone.cli import ALGORITHMS, main
from prone.dataset import gen_gaussian_mixture, write_dense_csv


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture()
def toy_csv(tmp_path):
    data, _ = gen_gaussian_mixture(4, 50, 3, 100.0, rng=5)
    path = tmp_path / "toy.csv"
    write_dense_csv(data, path)
    return str(path)


def run_cli(*args):
    return main([str(a) for a in args])


class TestCluster:
    def test_deterministic_outputs(self, toy_csv, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            prefix = tmp_path / name
            code = run_cli(
                "cluster", "--input", toy_csv, "--k", 4, "--algo", "prone",
                "--seed", 7, "--output", prefix,
            )
            assert code == 0
            centers = (tmp_path / f"{name}.centers.csv").read_bytes()
            labels = (tmp_path / f"{name}.labels.txt").read_bytes()
            outs.append((centers, labels))
        assert outs[0] == outs[1]

    def test_json_record_on_stdout(self, toy_csv, tmp_path, capsys):
        code = run_cli(
            "cluster", "--input", toy_csv, "--k", 3, "--algo", "prone",
            "--seed", 1, "--stats", "--assign-nearest", "--output", tmp_path / "o",
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["n"] == 200 and record["d"] == 3 and record["k"] == 3
        assert record["cost_assignment"] >= record["cost_nearest"] >= 0
        assert {"project", "seed", "lift", "assign", "load", "total"} <= set(record["wall_time_ms"])
        assert "total_updates" in record["stats"]

    def test_all_algorithms_run(self, toy_csv, tmp_path, capsys):
        for algo in ("prone", "prone-covariance", "kmeanspp"):
            code = run_cli(
                "cluster", "--input", toy_csv, "--k", 2, "--algo", algo,
                "--seed", 3, "--output", tmp_path / algo,
            )
            assert code == 0
        code = run_cli(
            "cluster", "--input", toy_csv, "--k", 2, "--algo", "boosted",
            "--alpha", 0.5, "--seed", 3, "--output", tmp_path / "boosted",
        )
        assert code == 0

    def test_k_zero_usage_error(self, toy_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("cluster", "--input", toy_csv, "--k", 0, "--output", tmp_path / "o")
        assert exc.value.code == 2

    @pytest.mark.parametrize("z", ["nan", "inf", "0.5"])
    def test_bad_z_usage_error(self, toy_csv, tmp_path, capsys, z):
        with pytest.raises(SystemExit) as exc:
            run_cli("cluster", "--input", toy_csv, "--k", 2, "--z", z, "--output", tmp_path / "o")
        assert exc.value.code == 2
        assert "finite and >= 1" in capsys.readouterr().err

    def test_boosted_alpha_too_small(self, toy_csv, tmp_path, capsys):
        # ceil(0.001 * 200) = 1 < k = 5: the excluded-cell error
        code = run_cli(
            "cluster", "--input", toy_csv, "--k", 5, "--algo", "boosted",
            "--alpha", 0.001, "--seed", 0, "--output", tmp_path / "o",
        )
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["inf", "nan", "0"])
    def test_boosted_bad_alpha_is_an_error_not_a_crash(self, toy_csv, tmp_path, capsys, alpha):
        # rejected while parsing, before the input is read
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "cluster", "--input", toy_csv, "--k", 2, "--algo", "boosted",
                "--alpha", alpha, "--seed", 0, "--output", tmp_path / "o",
            )
        assert exc.value.code == 2
        assert f"argument --alpha: alpha={float(alpha)} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    @pytest.mark.parametrize("alpha", ["-1", "nan", "x"])
    def test_bad_alpha_usage_error_whatever_the_algorithm(self, tmp_path, capsys, algo, alpha):
        # checked while parsing, so also where the algorithm ignores it, and
        # the input file need not exist
        with pytest.raises(SystemExit) as exc:
            run_cli("cluster", "--input", tmp_path / "absent.csv", "--k", 2, "--algo", algo,
                    "--alpha", alpha, "--output", tmp_path / "o")
        assert exc.value.code == 2
        assert "argument --alpha: " in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_reads_the_input_afresh_on_every_call(self, tmp_path, capsys):
        # two commands in one process: the second sees the rewritten file
        path = tmp_path / "points.csv"
        for n in (4, 6):
            path.write_text("".join(f"{i},{2 * i}\n" for i in range(n)))
            code = run_cli("cluster", "--input", path, "--k", 2, "--output", tmp_path / "o")
            assert code == 0
            assert json.loads(capsys.readouterr().out)["n"] == n
            assert len((tmp_path / "o.labels.txt").read_text().splitlines()) == n

    def test_variance_algorithm_removed(self, toy_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("cluster", "--input", toy_csv, "--k", 2, "--algo", "prone-variance",
                    "--output", tmp_path / "o")
        assert exc.value.code == 2

    def test_boosted_requires_alpha(self, toy_csv, tmp_path, capsys):
        code = run_cli(
            "cluster", "--input", toy_csv, "--k", 2, "--algo", "boosted",
            "--seed", 0, "--output", tmp_path / "o",
        )
        assert code == 2

    def test_record_keys_do_not_depend_on_algorithm(self, toy_csv, tmp_path, capsys):
        for flags in ((), ("--stats", "--assign-nearest")):
            key_sets = {}
            for algo in ALGORITHMS:
                code = run_cli(
                    "cluster", "--input", toy_csv, "--k", 3, "--algo", algo, "--alpha", 0.5,
                    "--seed", 2, *flags, "--output", tmp_path / algo,
                )
                assert code == 0
                key_sets[algo] = set(json.loads(capsys.readouterr().out.strip()))
            assert len({frozenset(keys) for keys in key_sets.values()}) == 1, key_sets

    def test_call_covers_the_library_stages(self, toy_csv, tmp_path, capsys):
        # "call" is the whole algorithm call; the library's stage names keep
        # their own meaning, so prone's "seed" is the 1-D seeding alone
        stages = {"prone": ("project", "seed", "lift", "assign"),
                  "boosted": ("prone", "coreset", "weighted_seed")}
        for algo in ALGORITHMS:
            code = run_cli(
                "cluster", "--input", toy_csv, "--k", 3, "--algo", algo, "--alpha", 0.5,
                "--seed", 2, "--output", tmp_path / algo,
            )
            assert code == 0
            ms = json.loads(capsys.readouterr().out.strip())["wall_time_ms"]
            assert ms["call"] > 0
            assert ms["call"] >= sum(ms[s] for s in stages.get(algo.split("-")[0], ()))
            assert ms["total"] >= ms["load"] + ms["call"]

    def test_reaches_the_names_tracers_wrap(self, toy_csv, tmp_path, capsys, monkeypatch):
        # a benchmark trace wraps these module globals after import; each must
        # still be looked up when ``main`` runs a cluster command
        reached = []
        for name in ("cmd_cluster", "load_dense_csv", "prone"):
            real = getattr(prone.cli, name)

            def spy(*args, _name=name, _real=real, **kwargs):
                reached.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(prone.cli, name, spy)
        code = run_cli("cluster", "--input", toy_csv, "--k", 3, "--output", tmp_path / "o")
        assert code == 0
        assert set(reached) == {"cmd_cluster", "load_dense_csv", "prone"}

    @pytest.mark.parametrize("algo", ["prone", "kmeanspp", "boosted"])
    def test_sparse_input(self, algo, tmp_path, capsys):
        path = tmp_path / "toy.sparse"
        path.write_text("#d 3\n0:1 2:2\n1:4\n0:1.5 2:2\n")
        points = np.array([[1.0, 0.0, 2.0], [0.0, 4.0, 0.0], [1.5, 0.0, 2.0]])
        prefix = tmp_path / algo
        code = run_cli(
            "cluster", "--input", path, "--format", "sparse", "--k", 2, "--algo", algo,
            "--alpha", 1.0, "--seed", 4, "--output", prefix,
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert (record["n"], record["d"], record["k"]) == (3, 3, 2)
        assert record["centers_file"] == f"{prefix}.centers.csv"
        centers = np.loadtxt(record["centers_file"], delimiter=",", ndmin=2)
        labels = np.loadtxt(record["labels_file"], dtype=np.intp)
        assert centers.shape == (record["k_found"], 3)
        assert labels.shape == (3,) and set(labels) == set(range(record["k_found"]))
        if algo == "prone":
            # the lift: each center is the mean of its cluster
            for j, center in enumerate(centers):
                np.testing.assert_allclose(center, points[labels == j].mean(axis=0))
        else:
            # seeded centers are data points, each the nearest to its own cluster
            assert all((points == center).all(axis=1).any() for center in centers)
            d2 = ((points[:, None] - centers[None]) ** 2).sum(axis=2)
            np.testing.assert_array_equal(labels, d2.argmin(axis=1))

    def test_missing_input_file(self, tmp_path, capsys):
        code = run_cli(
            "cluster", "--input", tmp_path / "absent.csv", "--k", 2,
            "--output", tmp_path / "o",
        )
        assert code == 2


@pytest.fixture()
def overflowing_csv(tmp_path):
    # finite points whose costs at z = 4 overflow to inf
    data, _ = gen_gaussian_mixture(4, 50, 3, 1e102, rng=0)
    path = tmp_path / "big.csv"
    write_dense_csv(data, path)
    return str(path)


class TestOverflowingCosts:
    @pytest.mark.parametrize("algo", ["prone", "kmeanspp"])
    def test_cluster_refuses_the_record_and_writes_no_files(
        self, algo, overflowing_csv, tmp_path, capsys
    ):
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("cluster", "--input", overflowing_csv, "--k", 2, "--z", 4,
                           "--algo", algo, "--output", tmp_path / "o")
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: cost_assignment=inf must be finite and nonnegative\n"
        assert not list(tmp_path.glob("o.*"))

    def test_boosted_names_the_costs(self, overflowing_csv, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("cluster", "--input", overflowing_csv, "--k", 2, "--z", 4,
                           "--algo", "boosted", "--alpha", 0.5, "--output", tmp_path / "o")
        assert code == 2
        assert capsys.readouterr().err == "error: points' costs must be finite\n"

    def test_bench_is_an_error_not_a_crash(self, overflowing_csv, tmp_path, capsys):
        out = tmp_path / "big.jsonl"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("bench", "--suite", "direct", "--dataset", overflowing_csv,
                           "--ks", 2, "--z", 4, "--reps", 1, "--out", out)
        assert code == 2
        assert capsys.readouterr().err == (
            "error: cost_assignment=inf must be finite and nonnegative\n"
        )
        assert not out.exists()


class TestOverflowIsOneErrorLine:
    """Run without an ``errstate``: tier-1 turns any warning into an exception."""

    # costs past float64 in the power (1e102), in the sums of finite powers
    # (6e76), and squared distances past it in the nearest pass (1e160)
    @pytest.mark.parametrize("separation", [1e102, 6e76, 1e160])
    @pytest.mark.parametrize("command", [
        ("cluster", "--algo", "prone"),
        ("cluster", "--algo", "kmeanspp"),
        ("cluster", "--algo", "boosted", "--alpha", 0.5),
        ("bench", "--suite", "direct", "--ks", 2, "--reps", 1),
    ])
    def test_stderr_is_the_error_line(self, command, separation, tmp_path, capsys):
        data, _ = gen_gaussian_mixture(4, 50, 3, separation, rng=0)
        path = tmp_path / "big.csv"
        write_dense_csv(data, path)
        if command[0] == "cluster":
            io = ("--input", path, "--k", 2, "--output", tmp_path / "o")
        else:
            io = ("--dataset", path, "--out", tmp_path / "o.jsonl")
        code = run_cli(*command, *io, "--z", 4)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "must be finite" in err


class TestLabelsFile:
    def test_one_line_per_point_as_one_join_would_write(self, tmp_path, capsys):
        # k > 256 gives labels outside CPython's small-int cache, and
        # n = 18 000 is not a multiple of the chunk the writer formats
        data, _ = gen_gaussian_mixture(300, 60, 2, 100.0, rng=3)
        path = tmp_path / "mix.csv"
        write_dense_csv(data, path)
        code = run_cli("cluster", "--input", path, "--k", 300, "--seed", 4,
                       "--output", tmp_path / "o")
        assert code == 0
        labels = ALGORITHMS["prone"](data, 300, 2.0, prone.cli._cell_rng(4, 300, 0)).labels
        assert labels.max() > 256
        expect = "\n".join(map(str, labels.tolist())) + "\n"
        assert (tmp_path / "o.labels.txt").read_bytes() == expect.encode()

    @pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 20_000])
    def test_chunks_join_to_one_text(self, tmp_path, n):
        labels = np.arange(n) % 977
        prone.cli._write_labels(labels, tmp_path / "l.txt")
        expect = "\n".join(map(str, labels.tolist())) + "\n"
        assert (tmp_path / "l.txt").read_bytes() == expect.encode()

    def test_writer_holds_one_chunk_of_text(self, tmp_path):
        # one string per label for all 1e6 labels would take over 50 MB
        labels = np.arange(1_000_000) % 1000
        tracemalloc.start()
        try:
            prone.cli._write_labels(labels, tmp_path / "l.txt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestGen:
    def test_adversarial_row_count(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code = run_cli("gen", "gaussian-adversarial", "--m", 3000, "--seed", 1, "--out", out)
        assert code == 0
        assert len(out.read_text().splitlines()) == 24005
        record = json.loads(capsys.readouterr().out.strip())
        assert record["n"] == 24005 and record["d"] == 4

    def test_mixture_two_rows(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = run_cli(
            "gen", "mixture", "--k", 2, "--per-cluster", 1, "--d", 1,
            "--separation", 10, "--seed", 0, "--out", out,
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 2

    def test_missing_out_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "gaussian-adversarial", "--m", 10)
        assert exc.value.code == 2

    def test_invalid_size_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "gaussian-adversarial", "--m", 0, "--out", tmp_path / "g.csv")
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_separation_usage_error(self, value, tmp_path, capsys):
        # rejected while parsing, before the file is written
        out = tmp_path / "m.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "mixture", "--k", 2, "--per-cluster", 1, "--d", 1,
                    "--separation", value, "--out", out)
        assert exc.value.code == 2
        assert "argument --separation: separation=" in capsys.readouterr().err
        assert not out.exists()


class TestBench:
    def test_direct_record_count(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "direct.jsonl"
        code = run_cli(
            "bench", "--suite", "direct", "--dataset", toy_csv,
            "--ks", "2,4", "--reps", 3, "--seed", 0, "--out", out,
        )
        assert code == 0
        records = read_jsonl(out)
        assert len(records) == 2 * 3 * 3  # ks x reps x algorithms
        assert (tmp_path / "direct.jsonl.summary.csv").exists()

    def test_summary_columns_and_speedup(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "d2.jsonl"
        run_cli(
            "bench", "--suite", "direct", "--dataset", toy_csv,
            "--ks", "4", "--reps", 2, "--seed", 1, "--out", out,
        )
        lines = (tmp_path / "d2.jsonl.summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "suite", "algorithm", "dataset", "k", "alpha", "rel_size",
            "mean_cost_ratio", "mean_speedup_vs_kmeanspp", "reps",
        ]
        assert len(lines) > 1  # one row per non-baseline algorithm

    def test_coreset_suite_skips_small_cells(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        code = run_cli(
            "bench", "--suite", "coreset", "--dataset", toy_csv,
            "--ks", "10", "--reps", 1, "--seed", 0,
            "--sizes", "0.01,0.25", "--out", out,
        )
        assert code == 0
        records = read_jsonl(out)
        # n=200: size 0.01 -> s=2 < k=10 skipped; 0.25 -> s=50 kept
        sizes_seen = {r["rel_size"] for r in records if r["rel_size"] is not None}
        assert sizes_seen == {0.25}
        constructions = {r["algorithm"] for r in records}
        assert constructions == {"kmeanspp", "sensitivity", "prone", "lightweight"}

    def test_coreset_stages_tile_the_call(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        code = run_cli(
            "bench", "--suite", "coreset", "--dataset", toy_csv,
            "--ks", "4", "--reps", 1, "--seed", 0, "--sizes", "0.25", "--out", out,
        )
        assert code == 0
        coreset_runs = [r["wall_time_ms"] for r in read_jsonl(out) if r["rel_size"] is not None]
        assert len(coreset_runs) == 3
        for ms in coreset_runs:
            assert list(ms) == ["construct", "train", "call"]
            assert ms["construct"] + ms["train"] <= ms["call"]

    def test_boosted_suite_runs(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "b.jsonl"
        code = run_cli(
            "bench", "--suite", "boosted", "--dataset", toy_csv,
            "--ks", "4", "--reps", 2, "--seed", 0,
            "--alphas", "0.001,0.5", "--out", out,
        )
        assert code == 0
        records = read_jsonl(out)
        boosted = [r for r in records if r["algorithm"] == "boosted"]
        # alpha=0.001 -> s=1 < k=4 excluded; alpha=0.5 kept, one per rep
        assert len(boosted) == 2
        assert all(r["alpha"] == 0.5 for r in boosted)

    @pytest.mark.parametrize("suite", ["coreset", "boosted"])
    def test_summary_speedups_finite_and_positive(self, suite, toy_csv, tmp_path, capsys):
        out = tmp_path / f"{suite}.jsonl"
        code = run_cli(
            "bench", "--suite", suite, "--dataset", toy_csv, "--ks", 4, "--reps", 2,
            "--seed", 0, "--sizes", "0.1,0.25", "--alphas", "0.5", "--out", out,
        )
        assert code == 0
        with open(f"{out}.summary.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            speedup = float(row["mean_speedup_vs_kmeanspp"])
            assert math.isfinite(speedup) and speedup > 0, row

    def test_records_reproducible(self, toy_csv, tmp_path, capsys):
        costs = []
        for name in ("r1", "r2"):
            out = tmp_path / f"{name}.jsonl"
            run_cli(
                "bench", "--suite", "direct", "--dataset", toy_csv,
                "--ks", "3", "--reps", 2, "--seed", 9, "--out", out,
            )
            records = read_jsonl(out)
            costs.append([(r["algorithm"], r["rep"], r["cost_assignment"]) for r in records])
        assert costs[0] == costs[1]

    def test_jobs_option_removed(self, toy_csv, tmp_path):
        # cells run one after another in one process; there is no worker pool
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--suite", "direct", "--dataset", toy_csv, "--ks", 2,
                    "--reps", 1, "--jobs", 2, "--out", tmp_path / "b.jsonl")
        assert exc.value.code == 2

    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    def test_cluster_reproduces_rep0_cell(self, algo, toy_csv, tmp_path, capsys):
        suite = "boosted" if algo == "boosted" else "direct"
        out = tmp_path / "cell.jsonl"
        code = run_cli(
            "bench", "--suite", suite, "--dataset", toy_csv, "--ks", 4, "--reps", 2,
            "--seed", 6, "--alphas", 0.5, "--out", out,
        )
        assert code == 0
        (cell,) = [
            r for r in read_jsonl(out) if r["algorithm"] == algo and r["rep"] == 0
        ]
        capsys.readouterr()
        code = run_cli(
            "cluster", "--input", toy_csv, "--k", 4, "--algo", algo, "--alpha", 0.5,
            "--seed", 6, "--assign-nearest", "--output", tmp_path / "o",
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        for key in ("cost_assignment", "cost_nearest", "k_found"):
            assert record[key] == cell[key], key

    def test_reads_the_dataset_afresh_on_every_run(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        out = tmp_path / "b.jsonl"
        for n in (4, 6):
            path.write_text("".join(f"{i},{i * i}\n" for i in range(n)))
            code = run_cli("bench", "--suite", "direct", "--dataset", path, "--ks", 2,
                           "--reps", 1, "--out", out)
            assert code == 0
            assert {r["n"] for r in read_jsonl(out)} == {n}

    def test_unknown_dataset(self, tmp_path, capsys):
        code = run_cli(
            "bench", "--suite", "direct", "--dataset", "no-such-dataset",
            "--ks", "2", "--reps", 1, "--out", tmp_path / "x.jsonl",
        )
        assert code == 2


@pytest.mark.parametrize(
    "command",
    [
        ("cluster", "--input", "x.csv", "--k", 2, "--output", "o"),
        ("bench", "--suite", "direct", "--dataset", "x.csv", "--out", "o.jsonl"),
        ("gen", "gaussian-adversarial", "--m", 2, "--out", "g.csv"),
        ("gen", "mixture", "--k", 2, "--per-cluster", 2, "--d", 2, "--separation", 1,
         "--out", "g.csv"),
    ],
    ids=["cluster", "bench", "gen-adversarial", "gen-mixture"],
)
def test_negative_seed_usage_error_names_the_seed(command, capsys):
    # rejected while parsing, before any file is read or written
    with pytest.raises(SystemExit) as exc:
        run_cli(*command, "--seed", -1)
    assert exc.value.code == 2
    assert "argument --seed: seed=-1 must be nonnegative" in capsys.readouterr().err


_MIXTURE = ("gen", "mixture", "--separation", 1, "--out", "g.csv")
_BENCH = ("bench", "--suite", "direct", "--dataset", "x.csv", "--out", "o.jsonl")


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
@pytest.mark.parametrize(
    "command, option",
    [
        (("cluster", "--input", "x.csv", "--output", "o"), "--k"),
        (_MIXTURE + ("--per-cluster", 2, "--d", 2), "--k"),
        (_MIXTURE + ("--k", 2, "--d", 2), "--per-cluster"),
        (_MIXTURE + ("--k", 2, "--per-cluster", 2), "--d"),
        (("gen", "gaussian-adversarial", "--out", "g.csv"), "--m"),
        (_BENCH, "--reps"),
        (_BENCH, "--ks"),
    ],
    ids=["cluster-k", "mixture-k", "per-cluster", "d", "m", "reps", "ks"],
)
def test_count_options_reject_non_positive_values(command, option, value, capsys):
    # rejected while parsing, before any file is read or written
    with pytest.raises(SystemExit) as exc:
        run_cli(*command, option, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: " in err and value in err
    assert "_positive_int" not in err


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--ks", "4,0", "must be a positive integer, got 0"),
        ("--ks", "4,2.5", "invalid literal for int()"),
        ("--ks", ",", "empty list entry"),
        ("--ks", "3,,7", "empty list entry"),
        ("--sizes", "", "empty list entry"),
        ("--alphas", "0.5,", "empty list entry"),
        ("--sizes", "-0.1", "rel_size=-0.1 must be finite and positive"),
        ("--sizes", "0.25,0", "rel_size=0.0 must be finite and positive"),
        ("--alphas", "-0.5", "alpha=-0.5 must be finite and positive"),
        ("--alphas", "inf", "alpha=inf must be finite and positive"),
        ("--alphas", "0.5,nan", "alpha=nan must be finite and positive"),
        ("--alphas", "x", "could not convert string to float"),
    ],
)
def test_list_options_reject_bad_entries(option, value, message, capsys):
    # rejected while parsing, before any file is read or written
    with pytest.raises(SystemExit) as exc:
        run_cli(*_BENCH, option, value)
    assert exc.value.code == 2
    assert f"argument {option}: {message}" in capsys.readouterr().err


def test_list_options_parse_to_lists():
    args = prone.cli.build_parser().parse_args(
        [*map(str, _BENCH), "--ks", "3,7", "--sizes", "0.5", "--alphas", "1e-3,2"]
    )
    assert (args.ks, args.sizes, args.alphas) == ([3, 7], [0.5], [0.001, 2.0])
