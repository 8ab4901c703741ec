"""Experiment recipes, artifact layout, determinism, and the CLI."""

import csv
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dense_reference import local_maxima
from gadkit import ConfigError, InvalidInputError
from gadkit import experiments
from gadkit.cli import main
from gadkit.config import parse_config_text
from gadkit.decomposition import SweepRecord
from gadkit.experiments import CSV_COLUMNS, run_config

SMALL_SWEEP = """
[run]
experiment = sweep
output_dir = {out}
seeds = 0

[basis]
family = rff
input_dim = 6
column_budget = 48
seed = 0

[design]
strategy = sphere_uniform
n_train = 16
grid_size = 80
dim = 6

[theta]
scheme = unstructured_iid
variance = 1.0
seed = 1

[sweep]
m_range = 1 48
"""

FOURIER = """
[run]
experiment = fourier_check
output_dir = {out}

[basis]
family = fourier_discrete
column_budget = 24
period = 1.0
base_frequencies = 8

[design]
strategy = equispaced
n_train = 8
grid_size = 64
period = 1.0

[theta]
scheme = power_decay
"""

ISING_SMALL = """
[run]
experiment = ising_sweep
output_dir = {out}

[basis]
family = cluster_ising
input_dim = 7
column_budget = 128
ordering = physical_cluster
chain_length = 7

[design]
strategy = from_dataset
n_train = 40
grid_size = 88
row_order = size_lex

[theta]
scheme = power_decay
exponent = 1.5

[sweep]
m_range = 1 128
"""


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestSweepRecipe:
    def test_artifacts_and_schema(self, tmp_path):
        config = parse_config_text(SMALL_SWEEP.format(out=tmp_path / "run"))
        paths = run_config(config)
        names = {p.name for p in paths}
        assert names == {"sweep.csv", "meta.json"}
        header, rows = read_csv(tmp_path / "run" / "sweep.csv")
        assert header == list(CSV_COLUMNS)
        assert len(rows) == 48
        assert all(row["error"] == "" for row in rows)
        pinv = [float(row["norm_pinv_TM"]) for row in rows]
        assert int(np.argmax(pinv)) + 1 == 16

    def test_byte_identical_reruns(self, tmp_path):
        config = parse_config_text(SMALL_SWEEP.format(out=tmp_path / "a"))
        run_config(config)
        run_config(config, out_dir=str(tmp_path / "b"))
        first = (tmp_path / "a" / "sweep.csv").read_bytes()
        second = (tmp_path / "b" / "sweep.csv").read_bytes()
        assert first == second

    def test_threads_other_than_one_rejected(self, tmp_path):
        config = parse_config_text(SMALL_SWEEP.format(out=tmp_path / "run"))
        with pytest.raises(InvalidInputError, match="threads must be 1"):
            run_config(config, threads=2)
        assert not (tmp_path / "run").exists()

    def test_seed_override_changes_output(self, tmp_path):
        config = parse_config_text(SMALL_SWEEP.format(out=tmp_path / "a"))
        run_config(config)
        run_config(config, out_dir=str(tmp_path / "b"), seed_override=9)
        assert (tmp_path / "a" / "sweep.csv").read_bytes() != (
            tmp_path / "b" / "sweep.csv"
        ).read_bytes()

    def test_multi_seed_file_naming(self, tmp_path):
        text = SMALL_SWEEP.format(out=tmp_path / "run").replace("seeds = 0", "seeds = 0 1")
        config = parse_config_text(text)
        paths = run_config(config)
        names = {p.name for p in paths}
        assert {"sweep_seed0.csv", "sweep_seed1.csv", "meta.json"} == names

    def test_meta_records_provenance(self, tmp_path):
        config = parse_config_text(SMALL_SWEEP.format(out=tmp_path / "run"))
        run_config(config)
        meta = json.loads((tmp_path / "run" / "meta.json").read_text())
        assert meta["tool"] == "gadkit"
        assert meta["experiment"] == "sweep"
        assert meta["csv_columns"] == list(CSV_COLUMNS)
        assert "grid_convention" in meta
        assert meta["rel_tol"] == 1e-12
        assert parse_config_text(meta["config"]) == config

    def test_meta_names_numerical_stack(self, tmp_path):
        config = parse_config_text(SMALL_SWEEP.format(out=tmp_path / "run"))
        run_config(config)
        meta = json.loads((tmp_path / "run" / "meta.json").read_text())
        assert meta["numpy"] == np.__version__
        assert isinstance(meta["blas"], str) and meta["blas"]

    def test_meta_records_blas_thread_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        run_config(parse_config_text(SMALL_SWEEP.format(out=tmp_path / "run")))
        meta = json.loads((tmp_path / "run" / "meta.json").read_text())
        assert meta["blas_thread_env"] == {
            "OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "2",
        }
        assert "threads" not in meta


class TestSweepCsv:
    def record(self, error):
        nan = float("nan")
        return SweepRecord(m=3, norm_A=nan, norm_pinv_TM=nan, norm_M_TU=nan, alias_error=nan,
                           bias_error=nan, nescience_error=nan, risk_all=nan,
                           risk_prediction_only=nan, rank_TM=-1, new_col_independent=False,
                           lam=0.0, error=error)

    def test_error_field_round_trips(self, tmp_path):
        message = 'ValueError: bad "shape" (3, 4),\nsecond line'
        path = experiments.write_sweep_csv(tmp_path / "sweep.csv",
                                           [self.record(message), self.record(None)])
        with path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["error"] for row in rows] == [message, ""]
        assert [row["m"] for row in rows] == ["3", "3"]
        assert list(rows[0]) == list(CSV_COLUMNS)

    def test_plain_row_is_unquoted(self):
        line = experiments.format_record(self.record("LinAlgError: SVD did not converge"))
        assert line == "3," + "nan," * 8 + "-1,false,0.0,LinAlgError: SVD did not converge"


class TestFourierRecipe:
    def test_summary_deviation_tiny(self, tmp_path):
        config = parse_config_text(FOURIER.format(out=tmp_path / "run"))
        run_config(config)
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["max_deviation"] < 1e-10
        header, rows = read_csv(tmp_path / "run" / "sweep.csv")
        assert len(rows) == 1
        assert rows[0]["m"] == "8"


class TestRidgeRecipe:
    def test_rows_per_lambda(self, tmp_path):
        text = SMALL_SWEEP.format(out=tmp_path / "run").replace(
            "experiment = sweep", "experiment = ridge_sweep"
        ).replace("m_range = 1 48", "m_range = 1 24\nlambda = 0 0.01 1")
        config = parse_config_text(text)
        run_config(config)
        _, rows = read_csv(tmp_path / "run" / "sweep.csv")
        assert len(rows) == 3 * 24
        lams = sorted({row["lambda"] for row in rows})
        assert lams == ["0.0", "0.01", "1.0"]
        # regularization floors the pseudoinverse norm at 1/sqrt(n*lambda)
        for row in rows:
            lam = float(row["lambda"])
            if lam > 0:
                assert float(row["norm_pinv_TM"]) <= 1 / np.sqrt(16 * lam) + 1e-12


class TestIsingRecipe:
    def test_physical_run_peaks_on_independent_columns(self, tmp_path):
        config = parse_config_text(ISING_SMALL.format(out=tmp_path / "run"))
        run_config(config)
        _, rows = read_csv(tmp_path / "run" / "sweep.csv")
        assert len(rows) == 128
        pinv = [float(row["norm_pinv_TM"]) for row in rows]
        flags = [row["new_col_independent"] == "true" for row in rows]
        peaks = local_maxima(pinv)
        assert peaks, "expected at least one interior norm peak"
        assert all(flags[p] for p in peaks)

    def test_meta_notes_row_order(self, tmp_path):
        config = parse_config_text(ISING_SMALL.format(out=tmp_path / "run"))
        run_config(config)
        meta = json.loads((tmp_path / "run" / "meta.json").read_text())
        assert meta["runs"][0]["row_order"] == "size_lex"


GAUSS_SMALL = """
[run]
experiment = gauss_compare
output_dir = {out}

[basis]
family = legendre
column_budget = 40

[design]
strategy = legendre_gauss
n_train = 10
grid_size = 64

[theta]
scheme = power_decay

[sweep]
m_range = 20 20
n_values = 10 14 18
"""


class TestGaussCompareRecipe:
    def test_summary_table(self, tmp_path):
        config = parse_config_text(GAUSS_SMALL.format(out=tmp_path / "run"))
        run_config(config)
        lines = (tmp_path / "run" / "gauss_compare.csv").read_text().splitlines()
        assert lines[0] == "n,norm_A_uniform,norm_A_gauss,ratio"
        assert len(lines) == 4
        _, gauss_rows = read_csv(tmp_path / "run" / "sweep.csv")
        _, uniform_rows = read_csv(tmp_path / "run" / "sweep_uniform.csv")
        assert len(gauss_rows) == len(uniform_rows) == 3
        for row in lines[1:]:
            n, u, g, ratio = row.split(",")
            assert float(ratio) == pytest.approx(float(u) / float(g), rel=1e-12)

    def test_failed_gauss_fit_gives_nan_ratio(self, tmp_path, monkeypatch):
        # an error row has norm_A = NaN; the ratio must not read as an
        # infinite advantage of the uniform design
        original = experiments.sweep

        def failing_on_gauss(basis, design, *args, **kwargs):
            records = original(basis, design, *args, **kwargs)
            if design.strategy != "legendre_gauss":
                return records
            nan = float("nan")
            return [replace(r, norm_A=nan, rank_TM=-1, error="LinAlgError: synthetic")
                    for r in records]

        monkeypatch.setattr(experiments, "sweep", failing_on_gauss)
        run_config(parse_config_text(GAUSS_SMALL.format(out=tmp_path / "run")))
        lines = (tmp_path / "run" / "gauss_compare.csv").read_text().splitlines()
        assert len(lines) == 4
        for row in lines[1:]:
            n, u, g, ratio = row.split(",")
            assert np.isfinite(float(u)) and np.isnan(float(g))
            assert np.isnan(float(ratio))


UNSTRUCTURED_EB = """
[run]
experiment = unstructured_eb
output_dir = {out}

[basis]
family = rff
input_dim = 6
column_budget = 40
seed = 0

[design]
strategy = sphere_uniform
n_train = 20
grid_size = 50
dim = 6

[theta]
scheme = unstructured_iid
variance = 1.0
seed = 2

[sweep]
m_values = 8 20 32
mc_draws = 2000
"""


class TestUnstructuredEbRecipe:
    def test_summary_matches_closed_form(self, tmp_path):
        config = parse_config_text(UNSTRUCTURED_EB.format(out=tmp_path / "run"))
        run_config(config)
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert len(summary["settings"]) == 3
        over = [s for s in summary["settings"] if s["dim_kernel"] > 0]
        assert over, "expected an over-parameterized setting"
        for setting in summary["settings"]:
            assert setting["relative_error"] < 0.05


class TestMultiSeedSummaries:
    @pytest.mark.parametrize("template", [FOURIER, UNSTRUCTURED_EB],
                             ids=["fourier_check", "unstructured_eb"])
    def test_each_seed_keeps_its_summary(self, tmp_path, template):
        # with several seeds the summary is named per seed, as the CSV is, and
        # holds the bytes a one-seed run of that seed writes
        text = template.format(out=tmp_path / "both").replace("[basis]", "seeds = 0 1\n\n[basis]")
        names = [p.name for p in run_config(parse_config_text(text))]
        assert len(names) == len(set(names))
        assert {"summary_seed0.json", "summary_seed1.json"} <= set(names)
        assert not (tmp_path / "both" / "summary.json").exists()
        for seed in (0, 1):
            single = parse_config_text(template.format(out=tmp_path / f"seed{seed}"))
            run_config(single, seed_override=seed)
            assert (tmp_path / "both" / f"summary_seed{seed}.json").read_bytes() == (
                tmp_path / f"seed{seed}" / "summary.json").read_bytes()


class TestCli:
    def test_happy_path(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FOURIER.format(out=tmp_path / "out"))
        assert main(["--config", str(cfg)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert any(line.endswith("sweep.csv") for line in printed)

    def test_out_and_seed_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_SWEEP.format(out=tmp_path / "ignored"))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "3"]) == 0
        assert (tmp_path / "o" / "sweep.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[run]\nexperiment = sweep\n")
        assert main(["--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg")]) == 2

    def test_threads_flag_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_SWEEP.format(out=tmp_path / "out"))
        with pytest.raises(SystemExit) as info:
            main(["--config", str(cfg), "--threads", "2"])
        assert info.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("template, old, new, key", [
        (SMALL_SWEEP, "m_range = 1 48", "m_range = 1 49", "m_range"),
        (SMALL_SWEEP, "m_range = 1 48", "m_range = 1 48\nm_values = 10 49", "m_values"),
        (GAUSS_SMALL, "n_values = 10 14 18", "n_values = 10 0 18", "n_values"),
    ], ids=["m_range", "m_values", "n_values"])
    def test_out_of_budget_sizes_exit_two(self, tmp_path, capsys, template, old, new, key):
        assert old in template
        text = template.replace(old, new).format(out=tmp_path / "out")
        with pytest.raises(ConfigError, match=rf"\[sweep\] {key}"):
            parse_config_text(text)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["--config", str(cfg)]) == 2
        assert f"[sweep] {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("old, new, where", [
        ("m_range = 1 48", "m_range = 1 48\nlambda = nan", "[sweep] lambda"),
        ("m_range = 1 48", "m_range = 1 48\nlambda = 0 inf", "[sweep] lambda"),
        ("variance = 1.0", "variance = nan", "[theta] variance"),
    ], ids=["lambda-nan", "lambda-inf", "variance-nan"])
    def test_non_finite_number_exits_two(self, tmp_path, capsys, old, new, where):
        assert old in SMALL_SWEEP
        text = SMALL_SWEEP.replace(old, new).format(out=tmp_path / "out")
        with pytest.raises(ConfigError, match=re.escape(f"{where}: expected a finite number")):
            parse_config_text(text)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["--config", str(cfg)]) == 2
        assert where in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("old, new, where", [
        ("experiment = fourier_check", "experiment = fourier_check\nseeds = -1", "[run] seeds"),
        ("experiment = fourier_check", "experiment = fourier_check\nseeds = 0 1 0",
         "[run] seeds: seed 0 is listed more than once"),
        ("base_frequencies = 8", "base_frequencies = 8\nseed = -2", "[basis] seed"),
        ("base_frequencies = 8", "base_frequencies = 8\nordering_seed = -1",
         "[basis] ordering_seed"),
        ("scheme = power_decay", "scheme = power_decay\nseed = -1", "[theta] seed"),
    ], ids=["run-seeds", "run-seeds-repeated", "basis-seed", "basis-ordering-seed",
            "theta-seed"])
    def test_bad_seed_in_config_exits_two(self, tmp_path, capsys, old, new, where):
        assert old in FOURIER
        text = FOURIER.replace(old, new).format(out=tmp_path / "out")
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config_text(text)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["--config", str(cfg)]) == 2
        assert where in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_from_environment_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GADKIT_SEED", "-1")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FOURIER.format(out=tmp_path / "out"))
        assert main(["--config", str(cfg)]) == 2
        assert "GADKIT_SEED: expected a nonnegative integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FOURIER.format(out=tmp_path / "out"))
        assert main(["--config", str(cfg), "--seed", "-3"]) == 2
        assert "--seed: expected a nonnegative integer, got '-3'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestDatasetSweep:
    def test_idx_file_feeds_a_sweep(self, tmp_path):
        # full pipeline: raw IDX bytes -> point cloud -> design -> risk CSV
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(40, 16), dtype=np.uint8)
        header = bytes([0, 0, 0x08, 3]) + (40).to_bytes(4, "big") \
            + (4).to_bytes(4, "big") + (4).to_bytes(4, "big")
        idx_path = tmp_path / "points.idx"
        idx_path.write_bytes(header + pixels.tobytes())
        text = """
[run]
experiment = sweep
output_dir = {out}

[basis]
family = rff
input_dim = 16
column_budget = 36
seed = 0

[design]
strategy = from_dataset
n_train = 12
grid_size = 20
dataset_path = {idx}

[theta]
scheme = unstructured_iid
seed = 1

[sweep]
m_range = 1 36
""".format(out=tmp_path / "run", idx=idx_path)
        config = parse_config_text(text)
        run_config(config)
        _, rows = read_csv(tmp_path / "run" / "sweep.csv")
        assert len(rows) == 36
        assert all(row["error"] == "" for row in rows)
        pinv = [float(row["norm_pinv_TM"]) for row in rows]
        assert int(np.argmax(pinv)) + 1 == 12

    def test_from_dataset_outside_ising_needs_a_path(self):
        text = SMALL_SWEEP.format(out="out/x").replace(
            "strategy = sphere_uniform", "strategy = from_dataset"
        ).replace("\ndim = 6\n", "\n")
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert "dataset_path" in str(info.value)


class TestFullScale:
    def test_sweep_dimensions_raised(self):
        from gadkit.experiments import apply_full_scale

        config = parse_config_text(SMALL_SWEEP.format(out="out/x"))
        scaled = apply_full_scale(config)
        assert scaled.basis.column_budget == 6000
        assert scaled.design.n_train == 1000
        assert scaled.design.grid_size == 2000
        assert scaled.theta.length == 6000
        assert scaled.m_range == (1, 6000, 1)

    def test_other_experiments_untouched(self):
        from gadkit.experiments import apply_full_scale

        config = parse_config_text(FOURIER.format(out="out/x"))
        assert apply_full_scale(config) == config


class TestLocalMaxima:
    def test_single_peak(self):
        assert local_maxima([1.0, 2.0, 3.0, 2.0, 1.0]) == [2]

    def test_plateau_reports_first_index(self):
        assert local_maxima([1.0, 3.0, 3.0, 3.0, 2.0]) == [1]

    def test_monotone_has_no_peaks(self):
        assert local_maxima([1.0, 2.0, 3.0]) == []
        assert local_maxima([3.0, 2.0, 1.0]) == []

    def test_multiple_peaks(self):
        values = [1, 5, 2, 7, 7, 3, 4, 2]
        assert local_maxima(values) == [1, 3, 6]
