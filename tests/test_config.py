"""Config parsing, validation diagnostics, and lossless round-trips."""

from pathlib import Path

import pytest

from gadkit import ConfigError, parse_config, parse_config_text, serialize_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """
[run]
experiment = sweep
output_dir = out/test

[basis]
family = legendre
column_budget = 12

[design]
strategy = legendre_gauss
n_train = 6
grid_size = 32

[theta]
scheme = power_decay

[sweep]
m_range = 1 12
"""


class TestShippedConfigs:
    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
    def test_parses(self, name):
        config = parse_config(CONFIG_DIR / name)
        assert config.experiment

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
    def test_round_trip(self, name):
        config = parse_config(CONFIG_DIR / name)
        again = parse_config_text(serialize_config(config))
        assert config == again

    def test_every_experiment_has_an_example(self):
        experiments = {parse_config(p).experiment for p in CONFIG_DIR.glob("*.cfg")}
        assert experiments == {
            "sweep", "fourier_check", "gauss_compare", "ridge_sweep",
            "ising_sweep", "unstructured_eb",
        }


class TestParsing:
    def test_minimal_parses(self):
        config = parse_config_text(MINIMAL)
        assert config.m_range == (1, 12, 1)
        assert config.lambdas == (0.0,)
        assert config.seeds == (0,)

    def test_serialize_round_trip(self):
        config = parse_config_text(MINIMAL)
        assert parse_config_text(serialize_config(config)) == config

    def test_unknown_key_with_line_number(self):
        bad = MINIMAL.replace("m_range = 1 12", "m_range = 1 12\nmystery = 4")
        with pytest.raises(ConfigError) as info:
            parse_config_text(bad, origin="case.cfg")
        message = str(info.value)
        assert "mystery" in message and "case.cfg:" in message

    def test_threads_key_rejected_with_line_number(self):
        # the sweep is serial, so [run] has no threads key
        bad = MINIMAL.replace("output_dir = out/test", "output_dir = out/test\nthreads = 2")
        with pytest.raises(ConfigError) as info:
            parse_config_text(bad, origin="case.cfg")
        message = str(info.value)
        assert "case.cfg:5:" in message and "'threads'" in message

    def test_unknown_section(self):
        with pytest.raises(ConfigError) as info:
            parse_config_text(MINIMAL + "\n[extras]\nx = 1\n")
        assert "[extras]" in str(info.value)

    def test_missing_required_key_is_named(self):
        bad = MINIMAL.replace("n_train = 6\n", "")
        with pytest.raises(ConfigError) as info:
            parse_config_text(bad)
        assert "n_train" in str(info.value)

    def test_negative_lambda_names_the_key(self):
        bad = MINIMAL + "lambda = -1\n"
        with pytest.raises(ConfigError) as info:
            parse_config_text(bad)
        assert "lambda" in str(info.value)

    def test_bad_experiment_name(self):
        bad = MINIMAL.replace("experiment = sweep", "experiment = summitt")
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    def test_duplicate_key_rejected(self):
        bad = MINIMAL.replace("n_train = 6", "n_train = 6\nn_train = 7")
        with pytest.raises(ConfigError) as info:
            parse_config_text(bad)
        assert "duplicate" in str(info.value)

    def test_type_errors_are_located(self):
        bad = MINIMAL.replace("grid_size = 32", "grid_size = many")
        with pytest.raises(ConfigError) as info:
            parse_config_text(bad)
        assert "grid_size" in str(info.value)

    def test_sweep_requires_m_range(self):
        bad = MINIMAL.replace("m_range = 1 12\n", "")
        with pytest.raises(ConfigError) as info:
            parse_config_text(bad)
        assert "m_range" in str(info.value)

    def test_gauss_compare_requires_n_values(self):
        bad = MINIMAL.replace("experiment = sweep", "experiment = gauss_compare")
        bad = bad.replace("m_range = 1 12", "m_range = 6 6")
        with pytest.raises(ConfigError) as info:
            parse_config_text(bad)
        assert "n_values" in str(info.value)

    def test_seed_env_var_is_lowest_priority(self, monkeypatch):
        monkeypatch.setenv("GADKIT_SEED", "41")
        config = parse_config_text(MINIMAL)
        assert config.seeds == (41,)
        explicit = MINIMAL.replace("[basis]", "seeds = 5\n\n[basis]")
        assert parse_config_text(explicit).seeds == (5,)

    def test_comments_and_blank_lines_ignored(self):
        annotated = MINIMAL.replace("[theta]", "# a comment\n\n[theta]")
        assert parse_config_text(annotated) == parse_config_text(MINIMAL)
