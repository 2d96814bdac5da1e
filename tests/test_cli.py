"""CLI contract tests: subcommands, exit codes, file outputs, bench record counts."""

import csv
import json
import math

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
        for algo in ("prone", "prone-variance", "prone-covariance", "kmeanspp"):
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
        prone.cli._load_dataset.cache_clear()
        code = run_cli("cluster", "--input", toy_csv, "--k", 3, "--output", tmp_path / "o")
        assert code == 0
        assert set(reached) == {"cmd_cluster", "load_dense_csv", "prone"}

    def test_missing_input_file(self, tmp_path, capsys):
        code = run_cli(
            "cluster", "--input", tmp_path / "absent.csv", "--k", 2,
            "--output", tmp_path / "o",
        )
        assert code == 2


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


class TestBench:
    def test_direct_record_count(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "direct.jsonl"
        code = run_cli(
            "bench", "--suite", "direct", "--dataset", toy_csv,
            "--ks", "2,4", "--reps", 3, "--seed", 0, "--out", out,
        )
        assert code == 0
        records = read_jsonl(out)
        assert len(records) == 2 * 3 * 4  # ks x reps x algorithms
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

    def test_parallel_jobs_same_records(self, toy_csv, tmp_path, capsys):
        outs = []
        for jobs, name in ((1, "serial"), (2, "par")):
            out = tmp_path / f"{name}.jsonl"
            run_cli(
                "bench", "--suite", "direct", "--dataset", toy_csv,
                "--ks", "2,3", "--reps", 1, "--seed", 4, "--jobs", jobs, "--out", out,
            )
            records = read_jsonl(out)
            outs.append(sorted((r["algorithm"], r["k"], r["cost_assignment"]) for r in records))
        assert outs[0] == outs[1]

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

    def test_unknown_dataset(self, tmp_path, capsys):
        code = run_cli(
            "bench", "--suite", "direct", "--dataset", "no-such-dataset",
            "--ks", "2", "--reps", 1, "--out", tmp_path / "x.jsonl",
        )
        assert code == 2
