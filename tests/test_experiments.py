"""Experiment recipes, artifact layout, determinism, and the CLI."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gadkit import ConfigError, parse_config_text
from gadkit.cli import main
from gadkit import experiments
from gadkit.experiments import CSV_COLUMNS, local_maxima, run_config

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

    def test_threads_do_not_change_bytes(self, tmp_path):
        config = parse_config_text(SMALL_SWEEP.format(out=tmp_path / "a"))
        run_config(config)
        run_config(config, out_dir=str(tmp_path / "b"), threads=4)
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
            tmp_path / "b" / "sweep.csv"
        ).read_bytes()

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


class TestUnstructuredEbRecipe:
    def test_summary_matches_closed_form(self, tmp_path):
        text = """
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
""".format(out=tmp_path / "run")
        config = parse_config_text(text)
        run_config(config)
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert len(summary["settings"]) == 3
        over = [s for s in summary["settings"] if s["dim_kernel"] > 0]
        assert over, "expected an over-parameterized setting"
        for setting in summary["settings"]:
            assert setting["relative_error"] < 0.05


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

    def test_threads_flag_keeps_bytes(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_SWEEP.format(out=tmp_path / "ignored"))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "t1")]) == 0
        assert main(["--config", str(cfg), "--out", str(tmp_path / "t4"), "--threads", "4"]) == 0
        assert (tmp_path / "t1" / "sweep.csv").read_bytes() == (
            tmp_path / "t4" / "sweep.csv"
        ).read_bytes()


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
