"""Config parsing, validation diagnostics, and lossless round-trips."""

import re
from pathlib import Path

import pytest

from gadkit.cli import main
from gadkit.config import EXPERIMENTS, _SCHEMA, parse_config, parse_config_text, serialize_config
from gadkit.experiments import _RUNNERS
from gadkit.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

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
        # every experiment the config table states has a runner, and no other
        assert set(_RUNNERS) == set(EXPERIMENTS)


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


class TestReadme:
    """The README's config reference states what the schema holds."""

    TEXT = (ROOT / "README.md").read_text(encoding="utf-8")

    def test_key_table_matches_the_schema(self):
        rows = re.findall(r"^\| `\[(\w+)\]`\s*\| (.*) \|$", self.TEXT, re.M)
        key_pattern = r"`(\w+)`( \(required\))?"
        table = {name: [(key, bool(mark)) for key, mark in re.findall(key_pattern, row)]
                 for name, row in rows}
        assert table == {name: [(key, spec.required) for key, spec in keys.items()]
                         for name, keys in _SCHEMA.items()}

    @pytest.mark.parametrize("label, section, key", [
        ("Families", "basis", "family"),
        ("Orderings", "basis", "ordering"),
        ("Design strategies", "design", "strategy"),
        ("Coefficient schemes", "theta", "scheme"),
    ])
    def test_value_lists_match_the_schema(self, label, section, key):
        listed = re.search(rf"{label}:(.*?)\.(\s\s|\n\n)", self.TEXT, re.S)
        assert listed, f"no {label!r} list in the README"
        assert tuple(re.findall(r"`(\w+)`", listed[1])) == _SCHEMA[section][key].allowed


def replaced(name: str, *edits: tuple[str, str]) -> str:
    """The text of a shipped config with each ``(old line, new line)`` edit made once."""
    lines = (CONFIG_DIR / name).read_text(encoding="utf-8").splitlines()
    for old, new in edits:
        lines[lines.index(old)] = new
    return "\n".join(lines) + "\n"


class TestValueErrorsNameTheirLine:
    @pytest.mark.parametrize("name, edits, fault, message", [
        ("ridge_sweep.cfg", [("grid_size = 500", "grid_size = many")], "grid_size = many",
         "[design] grid_size: expected an integer, got 'many'"),
        ("ridge_sweep.cfg", [("variance = 1.0", "variance = inf")], "variance = inf",
         "[theta] variance: expected a finite number, got 'inf'"),
        ("ridge_sweep.cfg", [("family = rff", "family = rbf")], "family = rbf",
         "[basis] family: expected one of monomial, chebyshev, legendre"),
        ("ridge_sweep.cfg", [("ordering = natural", "ordering = random")], "ordering = random",
         "[basis] ordering: expected one of natural, seeded_permutation, physical_cluster"),
        ("ridge_sweep.cfg", [("seed = 1", "seed = -1")], "seed = -1",
         "[theta] seed: expected a nonnegative integer, got '-1'"),
        ("ridge_sweep.cfg", [("dim = 16", "dim = 8")], "dim = 8",
         "[design] dim: points of dimension 8 do not fit [basis] input_dim = 16 (line 11)"),
        ("sweep_rff_sphere.cfg", [("family = rff", "family = legendre"), ("dim = 32", "dim = 3")],
         "dim = 3",
         "[design] dim: points of dimension 3 do not fit [basis] family = legendre (line 10)"),
        ("sweep_rff_sphere.cfg", [("strategy = sphere_uniform", "strategy = uniform_interval")],
         "strategy = uniform_interval",
         "[design] strategy: points of dimension 1 do not fit [basis] input_dim = 32 (line 11)"),
        ("sweep_rff_sphere.cfg", [("input_dim = 32", "")], "dim = 32",
         "[design] dim: points of dimension 32 do not fit [basis] input_dim = 1 (by default)"),
        ("sweep_rff_sphere.cfg", [("dim = 32", "")], "strategy = sphere_uniform",
         "[design] strategy: sphere_uniform requires dim"),
        ("ising_sweep_physical.cfg", [("n_train = 200", "n_train = 900")], "n_train = 900",
         "[design] n_train: n_train + grid_size = 1724 exceeds the 1024 spin configurations"),
        ("ridge_sweep.cfg", [("rel_tol = 1e-12", "rel_tol = 0")], "rel_tol = 0",
         "[run] rel_tol: expected a number in (0, 1), got '0'"),
        # a 1-D sweep whose interval holds five floats, for 522 distinct points
        ("gauss_compare.cfg", [("experiment = gauss_compare", "experiment = sweep"),
                               ("strategy = legendre_gauss", "strategy = uniform_interval"),
                               ("grid_size = 512", "grid_size = 512\ninterval = 0 2e-323")],
         "interval = 0 2e-323",
         "[design] interval: [0.0, 2e-323] holds 5 floats, fewer than the 522 distinct "
         "training and grid points"),
        # each setting an experiment fixes, and the [sweep] key it must set; an
        # edit that would trip an earlier check removes the keys in its way
        ("fourier_check.cfg", [("family = fourier_discrete", "family = legendre"),
                               ("period = 1.0", ""), ("base_frequencies = 8", "")],
         "family = legendre", "[basis] family: fourier_check requires family = fourier_discrete"),
        ("fourier_check.cfg", [("strategy = equispaced", "strategy = uniform_interval")],
         "strategy = uniform_interval",
         "[design] strategy: fourier_check requires strategy = equispaced"),
        ("fourier_check.cfg", [("ordering = natural", "ordering = seeded_permutation")],
         "ordering = seeded_permutation",
         "[basis] ordering: fourier_check requires ordering = natural"),
        ("gauss_compare.cfg", [("family = legendre", "family = chebyshev")], "family = chebyshev",
         "[basis] family: gauss_compare requires family = legendre"),
        ("ising_sweep_physical.cfg", [("family = cluster_ising", "family = rff"),
                                      ("ordering = physical_cluster", "ordering = natural"),
                                      ("chain_length = 10", "")],
         "family = rff", "[basis] family: ising_sweep requires family = cluster_ising"),
        ("ising_sweep_physical.cfg", [("strategy = from_dataset", "strategy = equispaced")],
         "strategy = equispaced",
         "[design] strategy: ising_sweep requires strategy = from_dataset"),
        ("unstructured_eb.cfg", [("scheme = unstructured_iid", "scheme = power_decay")],
         "scheme = power_decay",
         "[theta] scheme: unstructured_eb requires scheme = unstructured_iid"),
        ("ridge_sweep.cfg", [("m_range = 1 150", "")], "experiment = ridge_sweep",
         "[run] experiment: ridge_sweep requires [sweep] m_range"),
        ("ising_sweep_physical.cfg", [("m_range = 1 1024", "")], "experiment = ising_sweep",
         "[run] experiment: ising_sweep requires [sweep] m_range"),
        ("unstructured_eb.cfg", [("m_values = 10 30 45", "")], "experiment = unstructured_eb",
         "[run] experiment: unstructured_eb requires [sweep] m_values"),
    ], ids=["bad-integer", "non-finite", "family-not-allowed", "ordering-not-allowed",
            "negative-seed", "dim-against-input-dim", "dim-against-1d-family",
            "1d-strategy-against-input-dim", "dim-against-default-input-dim", "sphere-without-dim",
            "ising-design-too-large", "rel-tol-out-of-range", "interval-too-narrow",
            "fourier-check-family",
            "fourier-check-strategy", "fourier-check-ordering", "gauss-compare-family",
            "ising-family", "ising-strategy", "unstructured-eb-scheme", "ridge-without-m-range",
            "ising-without-m-range", "unstructured-eb-without-m-values"])
    def test_exits_two_at_the_line_of_the_key(self, tmp_path, capsys, name, edits, fault, message):
        text = replaced(name, *edits).replace("output_dir = out/", f"output_dir = {tmp_path}/")
        line = text.splitlines().index(fault) + 1
        with pytest.raises(ConfigError) as info:
            parse_config_text(text, origin=name)
        assert str(info.value).startswith(f"{name}:{line}: {message}")
        cfg = tmp_path / name
        cfg.write_text(text, encoding="utf-8")
        assert main(["--config", str(cfg)]) == 2
        assert f"{cfg}:{line}: {message}" in capsys.readouterr().err
        assert not any(path.is_dir() for path in tmp_path.iterdir())
